"""Diophantine and resonance arithmetic on the torus.

Absolute conditions on a base frequency alpha, conditions on a scalar beta
relative to alpha, resonance search over a finite winding horizon and the
Gauss map.  All universally quantified conditions are checked over an
explicit horizon that is reported with every result.

The box [-n, n]^d of windings has one layout, owned by the box_* helpers
below and shared by the scan here and by the Fourier coefficient tables of
`fourier` and `kam`.  Its order contract:

* the flat rows run in lexicographic order of k, which is also the C order
  of the dense (2n+1,)*d form, axis a holding k_a + n;
* k -> -k reverses the box about its centre k = 0, so the rows after the
  centre are exactly the canonical half (first nonzero component > 0);
* the central sub-box [-m, m]^d is the same slice on every axis.

The max-norm |k| = max_a |k_a| of the windings, which bounds the winding
scans and truncates the Fourier boxes alike, is `max_norm` of the d
per-axis components: the columns of flat rows or the axes of the dense form.

Every question over the windings 0 < |k| <= n is answered by one scan of
the box, which yields (k, |k|, k.alpha) in chunks of at most SCAN_ROWS rows,
so memory stays bounded at any n and d; a box of more than SCAN_WINDINGS
windings is refused before any chunk, which bounds the time, and so the
scale a scheme step can reach.  A minimum by (|k|, lex) is the first
winding in (shell, lex) order, so chunks need not follow max-norm shells.

One keyed reduction over the scan serves the defect questions
|beta - k.alpha|_Z: the Diophantine witness is the least canonical violator
by (|k|, lex), the relative minimum and the rotation-vector class take the
least by (defect, |k|, lex).  The rotation-class search of `rotation` reads
the scan directly.

The pure tables of a box, and the Diophantine witness of a frequency, are
memoised per process with `functools.lru_cache`: they depend on (d, n) or on
the frozen (Frequency, DiophParams) pair alone, never on a cocycle, and every
array they hold is read-only.  The scan's chunks are not memoised, so a scan
keeps its bounded working set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

# rows per chunk of the winding scan: its working set at any scale and dimension
SCAN_ROWS = 4096

# windings (2n+1)^d of one scan of the box: at this size a scan stays under about 1 s
SCAN_WINDINGS = 1 << 24

# entries kept by each memoised box table, here and in `fourier`: every
# (d, n) a workload's runs touch, with room to spare
TABLE_ENTRIES = 128

# entries kept by each memoised table of a frequency, here and in `kam`
FREQUENCY_TABLES = 32

# below this defect a frequency is indistinguishable from a rational in doubles
NEAR_RATIONAL_FLOOR = 1e-14

FREQUENCY_PRESETS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2": math.sqrt(2.0) - 1.0,
    # truncated sum of 10^(-n!); rational at double precision, kept as a
    # deliberately ill-conditioned demo frequency
    "liouville": 0.110001,
}


@dataclass(frozen=True)
class Frequency:
    """Base rotation alpha in T^d, stored as a tuple for exact equality."""

    components: tuple

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        if len(comps) < 1:
            raise ValueError("frequency needs at least one component")
        for c in comps:
            if not (0.0 <= c < 1.0) or not math.isfinite(c):
                raise ValueError("frequency components must lie in [0, 1)")
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)

    def dot(self, k) -> float:
        return float(np.dot(np.asarray(k, dtype=float), self.vector))


@dataclass(frozen=True)
class DiophParams:
    """Diophantine constants (gamma, tau) with a finite search horizon."""

    gamma: float = 3.0
    tau: float = 2.0
    horizon: int = 10000

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")

    def bound(self, knorm):
        """gamma^-1 |k|^-tau; elementwise for an array of max-norms."""
        return (1.0 / self.gamma) * np.asarray(knorm, dtype=float) ** -self.tau


@dataclass(frozen=True)
class ResonanceRecord:
    """Winding k with its defect |beta - k.alpha|_Z and the threshold it is
    judged against; the scale of the scan is the caller's, not the record's."""

    k: tuple
    defect: float
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(c) for c in self.k))
        if all(c == 0 for c in self.k):
            raise ValueError("resonance winding must be nonzero")
        if self.defect < 0:
            raise ValueError("defect must be nonnegative")

    @property
    def knorm(self) -> int:
        return int(max_norm(self.k))

    @property
    def near_rational(self) -> bool:
        """Defect underflow: input is numerically a rational relation."""
        return self.defect < NEAR_RATIONAL_FLOOR

    def to_dict(self) -> dict:
        return {**self.__dict__, "k": list(self.k)}


class GridBudgetError(RuntimeError):
    """A grid would exceed fourier.GRID_POINTS points, or a winding scan
    SCAN_WINDINGS windings, in total."""


def dist_to_Z(x):
    """Distance to the nearest integer; 1-periodic, even, valued in [0, 1/2]."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("dist_to_Z requires finite input")
    d = np.abs(x - np.rint(x))
    return float(d) if d.ndim == 0 else d


def box_centre(d: int, n: int) -> int:
    """Flat index of k = 0 in the box [-n, n]^d."""
    return ((2 * n + 1) ** d - 1) // 2


def box_windings(d: int, n: int, flat) -> np.ndarray:
    """Windings at the given flat indices of the box [-n, n]^d, one per row."""
    return np.stack(np.unravel_index(flat, (2 * n + 1,) * d), axis=-1) - n


def read_only(array: np.ndarray) -> np.ndarray:
    """The array itself, no longer writeable: the form of a memoised table."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=TABLE_ENTRIES)
def box_axes(d: int, n: int) -> tuple:
    """k_a on each axis of the dense form, shaped to broadcast along it.
    Memoised per (d, n), read-only; each entry holds d (2n+1) integers, at
    most 16 MiB for the largest box whose grid fits fourier.GRID_POINTS (1D,
    2^21 windings), so TABLE_ENTRIES x 16 MiB = 2 GiB at worst."""
    return tuple(map(read_only, np.ix_(*[np.arange(-n, n + 1)] * d)))


def max_norm(components) -> np.ndarray:
    """max_a |k_a| from the d per-axis components of windings: the columns
    of flat rows (`k.T`) or the broadcast axes of the dense form."""
    return reduce(np.maximum, map(np.abs, components))


@lru_cache(maxsize=TABLE_ENTRIES)
def box_shells(d: int, n: int) -> np.ndarray:
    """|k| on the dense form of the box [-n, n]^d, its max-norm shells.
    Memoised per (d, n), read-only; an entry holds (2n+1)^d integers, at
    most 16 MiB for a box whose grid fits fourier.GRID_POINTS, so
    TABLE_ENTRIES x 16 MiB = 2 GiB at worst."""
    return read_only(max_norm(box_axes(d, n)))


def box_inner(d: int, n: int, m: int) -> tuple:
    """Slice of the central sub-box [-m, m]^d in the dense form of [-n, n]^d."""
    return (slice(n - m, n + m + 1),) * d


def scan_box(alpha: Frequency, n: int, first: int = 0):
    """Chunks (k, |k|, k.alpha) of the box [-n, n]^d.

    Rows run in lexicographic order from the flat index `first` on, at most
    SCAN_ROWS per chunk; see the module docstring for the order contract.
    Raises GridBudgetError, before any chunk is built, when the box holds
    more than SCAN_WINDINGS windings.
    """
    total = (2 * n + 1) ** alpha.dimension
    if total > SCAN_WINDINGS:
        raise GridBudgetError("a scan of %d windings for scale %d exceeds the budget of %d"
                              % (total, n, SCAN_WINDINGS))
    for start in range(first, total, SCAN_ROWS):
        k = box_windings(alpha.dimension, n, np.arange(start, min(start + SCAN_ROWS, total)))
        # vecdot matches the per-winding Frequency.dot bit for bit; k @ alpha does not
        yield k, max_norm(k.T), np.vecdot(k.astype(float), alpha.vector)


def least_winding(alpha: Frequency, n: int, beta: float = 0.0, bound=None,
                  canonical: bool = False):
    """Least winding 0 < |k| <= n by (defect, |k|, lex), where
    defect = |beta - k.alpha|_Z; with `canonical`, the least by (|k|, lex)
    on the half whose first nonzero component is positive.

    With `bound`, only violators (defect < bound(|k|)) take part.  Returns a
    ResonanceRecord with threshold bound(|k|) (inf without a bound), or
    None; the record does not keep n.
    """
    best = None
    first = box_centre(alpha.dimension, n) + 1 if canonical else 0
    for k, knorm, kalpha in scan_box(alpha, n, first):
        defect = dist_to_Z(beta - kalpha)
        with np.errstate(divide="ignore"):  # the bound at k = 0, which never takes part
            threshold = bound(knorm) if bound else np.full(knorm.shape, np.inf)
        rows = np.flatnonzero((knorm > 0) & (defect < threshold))
        if rows.size == 0:
            continue
        columns = (knorm,) if canonical else (defect, knorm)
        for col in columns:
            rows = rows[col[rows] == col[rows].min()]
        i = rows[0]
        key = tuple(col[i] for col in columns)
        # strict: on a tie the earlier chunk, lexicographically smaller, stays
        if best is None or key < best[0]:
            best = (key, ResonanceRecord(k[i], float(defect[i]), float(threshold[i])))
    return None if best is None else best[1]


@lru_cache(maxsize=FREQUENCY_TABLES)
def diophantine_witness(alpha: Frequency, p: DiophParams):
    """First winding violating |k.alpha|_Z >= gamma^-1 |k|^-tau, or None.

    Windings are taken shell by shell in |k| (max-norm), restricted to
    canonical representatives (the condition is even in k), lexicographically
    within a shell; this makes the witness stable under horizon growth.
    Memoised per (alpha, p), so a process scans each pair once; an entry is
    one frozen record, under 1 KiB with its key, so FREQUENCY_TABLES entries
    keep under 32 KiB.
    """
    if not p.tau > alpha.dimension:
        raise ValueError("tau must exceed the frequency dimension")
    return least_winding(alpha, p.horizon, bound=p.bound, canonical=True)


def relative_defect_minimum(beta: float, alpha: Frequency, n: int, nu: float):
    """Winding minimising |beta - k.alpha|_Z over 0 < |k| <= n.

    Ties are broken by smallest |k| (max-norm), then lexicographically.
    The returned record carries threshold n^-nu; it is not gated on it.
    """
    if n < 1:
        raise ValueError("scale must be >= 1")
    return replace(least_winding(alpha, n, beta), threshold=float(n) ** -nu)


def gauss_map(alpha: float) -> float:
    """Fractional part of 1/alpha for alpha in (0, 1)."""
    if alpha == 0:
        raise ValueError("Gauss map undefined at 0")
    if not (0.0 < alpha < 1.0):
        raise ValueError("Gauss map expects alpha in (0, 1)")
    inv = 1.0 / alpha
    return inv - math.floor(inv)
