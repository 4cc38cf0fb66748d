"""KAM almost-reducibility for quasi-periodic SU(2) cocycles.

Modules: arithmetic (Diophantine/resonance scans), su2 (group and algebra
numerics), fourier (spectral maps and conjugation chains), cocycle (the
dynamical objects), kam (the reducibility scheme), rotation (rotation
vectors, equivalence, arithmetic class), cli (experiment harness).
"""

from .arithmetic import (
    DiophParams,
    Frequency,
    ResonanceRecord,
    diophantine_witness,
    dist_to_Z,
    gauss_map,
)
from .cocycle import (
    Cocycle,
    c0_distance,
    conjugate,
    conjugate_raw,
    iterate,
    normalize,
)
from .fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    TorusMorphism,
    analyze,
    chain_sobolev_partial,
    random_map,
    sobolev_norm,
    synthesize,
    translate,
)
from .kam import (
    NormalForm,
    ResonantStep,
    SchemeParams,
    SchemeState,
    detect_resonance,
    kam_step,
    remove_resonance,
    run_scheme,
    solve_homological,
)
from .rotation import (
    RotationVector,
    classify_arithmetic,
    equivalence_check,
    equivalence_witness,
    finite_resonance_audit,
    invariance_probe,
    rotation_vector,
)
from .su2 import (
    GroupElement,
    diagonalize,
    group_distance,
)

__version__ = "0.1.0"
