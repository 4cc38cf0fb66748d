"""Quasi-periodic cocycles on T^d x SU(2) in perturbative form.

A cocycle is a pair (alpha, A exp(F(.))) acting by (x, S) -> (x + alpha,
A exp(F(x)) S); the constant part A and the band-limited perturbation F are
the canonical data.  Fibered conjugation by a chain H acts as

    fiber -> H(x + alpha) . fiber(x) . H(x)^-1

and never changes alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .arithmetic import Frequency
from .fourier import (
    AlgebraMap,
    ConjugationChain,
    Synthesis,
    analyze,
    grid_size,
    synthesize,
)
from .su2 import (
    CutLocusError,
    GroupElement,
    alg_exp_quat,
    alg_log_quat,
    blockwise,
    component_groups,
    quat_angle,
    quat_conj,
    quat_mean,
    quat_mul,
    quat_normalize,
)

RESYNTHESIS_TOL = 1e-10  # largest synthesis error of F against the sampled log


class NormalizationError(RuntimeError):
    """Fiber samples could not be reduced to constant-times-exp form."""


@dataclass(frozen=True)
class Cocycle:
    alpha: Frequency
    constant: GroupElement
    perturbation: AlgebraMap

    def __post_init__(self):
        if self.perturbation.dimension != self.alpha.dimension:
            raise ValueError("perturbation dimension does not match the frequency")

    @property
    def dimension(self) -> int:
        return self.alpha.dimension

    def fiber_grid(self, m: int) -> np.ndarray:
        """Quaternion samples of A exp(F) on the m^d grid: exp(F) is
        synthesized and multiplied block by block of lines (a
        fourier.Synthesis), so it is never a whole grid beyond one block."""
        return blockwise(Synthesis(self.perturbation, m), partial(quat_mul, self.constant.q))

    def fiber_at(self, x) -> np.ndarray:
        """A exp(F(x)) at points x of shape (..., d): shape x.shape[:-1] + (4,)."""
        return quat_mul(self.constant.q, alg_exp_quat(self.perturbation.evaluate_at(x)))

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha.components),
            "constant": self.constant.q.tolist(),
            "perturbation": self.perturbation.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Cocycle":
        return cls(
            Frequency(tuple(data["alpha"])),
            GroupElement(np.asarray(data["constant"])),
            AlgebraMap.from_dict(data["perturbation"]),
        )


def fiber_mean(samples: np.ndarray) -> np.ndarray:
    """Renormalised quaternion mean (su2.quat_mean) of fiber samples; raises
    NormalizationError when the mean collapses, the fiber far from constant,
    or is not finite."""
    mean = quat_mean(samples)
    if not np.linalg.norm(mean) >= 1e-3:  # a NaN mean fails too
        raise NormalizationError("fiber mean collapses; fiber is far from constant")
    return quat_normalize(mean)


def fiber_log(samples: np.ndarray, reference: np.ndarray, into=None) -> np.ndarray:
    """The grid of F with fiber = reference exp(F): the logarithm of
    reference^-1 fiber, block by block, written into `into` if given, as
    su2.blockwise does (so the caller rebinds it to the result).  `into` may
    be components 1..3 of the samples themselves, since each block is read
    whole before its logarithm is written.  Raises CutLocusError when a
    sample is too far from the reference for the logarithm."""
    if into is None:
        return blockwise(samples, _relative(reference), alg_log_quat)
    return blockwise(samples, _relative(reference), _log_into, into=into)


def fiber_log_e(samples: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Row e of fiber_log, a scalar grid: each block's logarithm is taken
    whole, and its rows jx and jy are dropped with it."""
    return blockwise(samples, _relative(reference), alg_log_quat, _row_e)


def _relative(reference):
    return partial(quat_mul, quat_conj(reference))


def _log_into(q, _logs):
    return alg_log_quat(q)


def _row_e(logs):
    return logs[..., 0]


def log_map(logs: np.ndarray, band: int) -> AlgebraMap:
    """F analysed on the band from its grid, fiber_log's.  Raises
    NormalizationError when the synthesis error of F against the sampled
    logarithm exceeds RESYNTHESIS_TOL: the band does not resolve the
    fiber."""
    m = logs.shape[0]
    amap = analyze(logs, band)
    err = 0.0
    for group in component_groups(logs):
        resynthesis = synthesize(amap, m, group)
        resynthesis -= logs[..., group]
        # np.maximum, like np.max, keeps a NaN
        err = float(np.maximum(err, np.abs(resynthesis, out=resynthesis).max()))
        del resynthesis  # the next group's synthesis is built without it
    if not err <= RESYNTHESIS_TOL:  # a NaN error fails too
        raise NormalizationError(
            "band %d does not resolve the fiber (resynthesis error %.3g)" % (band, err))
    return amap


def normalize(samples: np.ndarray, alpha: Frequency, band: int) -> Cocycle:
    """Extract (A, F) from raw fiber samples: A is their fiber_mean, F the
    log_map of their fiber_log relative to A.  Every failure raises
    NormalizationError."""
    samples = np.asarray(samples, dtype=float)
    a = fiber_mean(samples)
    try:
        logs = fiber_log(samples, a)
    except CutLocusError as exc:
        raise NormalizationError("fiber not close to a constant: %s" % exc) from exc
    return Cocycle(alpha, GroupElement(a), log_map(logs, band))


def _times_right(h, samples):
    return quat_mul(samples, h)


def conjugate_raw(h, phi: Cocycle, m: int) -> np.ndarray:
    """Samples of H(x+alpha) fiber(x) H(x)^-1 on the m^d grid, unnormalised.

    h is any conjugator with a `dimension` and a blockwise `source(m,
    offset)`: a ConjugationChain (its whole grid) or the ExpFactor of a
    scheme step (a line source, fourier.Synthesis, which builds Y and exp(Y)
    a block of lines at a time, so neither is a whole grid beyond one
    block).  The fiber grid is the one sample grid: H(x)^-1 is multiplied
    into it on the right, then H(x+alpha) on the left, in place, block by
    block (su2.blockwise).  Each product keeps the bits of the whole-grid
    one."""
    if h.dimension != phi.dimension:
        raise ValueError("chain dimension does not match the cocycle")
    samples = phi.fiber_grid(m)
    samples = blockwise(partial(h.source, m), quat_conj, _times_right, into=samples)
    return blockwise(partial(h.source, m, phi.alpha.vector), quat_mul, into=samples)


def conjugate(chain: ConjugationChain, phi: Cocycle) -> Cocycle:
    """Fibered conjugation followed by normalisation on the chain's
    conjugated_band; alpha is untouched."""
    band = chain.conjugated_band(phi.perturbation.band)
    samples = conjugate_raw(chain, phi, grid_size(band, phi.dimension))
    return normalize(samples, phi.alpha, band)


def iterate(phi: Cocycle, n: int, x) -> GroupElement:
    """n-step fiber product A(x + (n-1) alpha) ... A(x): the n fibers of the
    orbit are evaluated in one batch, and only their product is a loop."""
    if n < 0:
        raise ValueError("iterate expects n >= 0")
    orbit = np.asarray(x, dtype=float) + np.arange(n)[:, None] * phi.alpha.vector
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for fiber in phi.fiber_at(orbit):
        q = quat_mul(fiber, q)
    return GroupElement(q)


def c0_distance(phi1: Cocycle, phi2: Cocycle) -> float:
    """max_x d(fiber_1(x), fiber_2(x)) for two cocycles over the same alpha."""
    if phi1.alpha != phi2.alpha:
        raise ValueError("cocycles live over different frequencies")
    m = grid_size(max(phi1.perturbation.band, phi2.perturbation.band), phi1.dimension)
    f1 = phi1.fiber_grid(m)
    f2 = phi2.fiber_grid(m)
    return float(np.max(quat_angle(quat_mul(f1, quat_conj(f2)))))
