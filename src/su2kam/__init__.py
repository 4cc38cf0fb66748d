"""KAM almost-reducibility for quasi-periodic SU(2) cocycles.

Modules: arithmetic (Diophantine/resonance scans), su2 (group and algebra
numerics), fourier (spectral maps and conjugation chains), cocycle (the
dynamical objects), kam (the reducibility scheme), rotation (rotation
vectors, equivalence, arithmetic class), cli (experiment harness).  The
modules are the import surface; the package root holds only __version__.
"""

__version__ = "0.1.0"
