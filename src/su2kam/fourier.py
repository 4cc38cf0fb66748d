"""Band-limited maps T^d -> su(2) and structured maps T^d -> SU(2).

An AlgebraMap stores complex Fourier coefficients c(k) in a max-norm box
|k| <= N for each of the three algebra components, with the reality
constraint c(-k) = conj(c(k)) componentwise.  Group-valued maps are never
stored as raw coefficient tables; they enter only as structured conjugation
factors (constants, exponentials of algebra maps, torus morphisms) collected
in a ConjugationChain.

Sobolev norms use the weight (1 + |k|^2)^s with the Euclidean |k| inside the
weight (`mode_norm_grid`); the Fourier box itself is a max-norm box, and
truncation reads `arithmetic.max_norm`, so that it matches the winding
bounds of the resonance search.

The pure tables of a box and of a grid (the Sobolev weights, the FFT bins of
the box, the double-cover weights of the chain diagnostic) are memoised per
process, read-only, like the box tables of `arithmetic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .arithmetic import (TABLE_ENTRIES, Frequency, GridBudgetError, box_axes, box_centre,
                         box_inner, box_shells, box_windings, max_norm, read_only)
from .su2 import (
    GroupElement,
    alg_exp_quat,
    blockwise,
    components_first,
    components_last,
    quat_mul,
    torus_quat,
)


GRID_POINTS = 1 << 22  # bound on the total points m^d of any grid

# entries kept by the memoised weights of the chain diagnostic, each the
# size of a half spectrum
SPECTRUM_TABLES = 16


class UndersampledGridError(ValueError):
    """Grid too small to resolve the requested band."""


def grid_size(band: int, dimension: int) -> int:
    """Points per axis of the single-cover grid for a band: 4*band + 4, twice
    the 2*band + 2 that resolves the band.  Raises GridBudgetError, before
    anything is allocated, when the m^d points would exceed GRID_POINTS."""
    m = 4 * band + 4
    if m ** dimension > GRID_POINTS:
        raise GridBudgetError("a %d^%d grid for band %d exceeds the budget of %d points"
                              % (m, dimension, band, GRID_POINTS))
    return m


def _flip_conj(coeffs: np.ndarray, dimension: int) -> np.ndarray:
    return np.conj(np.flip(coeffs, axis=tuple(range(dimension))))


def _phases(dimension: int, band: int, x) -> np.ndarray:
    """exp(2 pi i k.x) on the coefficient box |k| <= band for points x of
    shape (..., dimension): shape x.shape[:-1] plus the box, so one point
    gives the box alone."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1:] != (dimension,):
        raise ValueError("point dimension mismatch")
    phase = np.ones((1,) * dimension, dtype=complex)
    for a, k in enumerate(box_axes(dimension, band)):
        # coordinate a of each point, broadcast along the box axes
        phase = phase * np.exp(2j * np.pi * k * x[(..., a) + (None,) * dimension])
    return phase


def mode_norm_grid(dimension: int, band: int) -> np.ndarray:
    """Euclidean |k| on the coefficient box, the weight of the Sobolev norms.
    Not memoised: its one reader, _sobolev_weight, is."""
    return np.sqrt(sum(a.astype(float) ** 2 for a in box_axes(dimension, band)))


@lru_cache(maxsize=TABLE_ENTRIES)
def _sobolev_weight(dimension: int, band: int, s: float) -> np.ndarray:
    """(1 + |k|^2)^s on the coefficient box, with a unit axis for the three
    components.  Memoised per (dimension, band, s), read-only; an entry
    holds (2 band + 1)^d doubles, at most 16 MiB for a box whose grid fits
    GRID_POINTS, so TABLE_ENTRIES x 16 MiB = 2 GiB at worst."""
    weight = (1.0 + mode_norm_grid(dimension, band) ** 2) ** s
    return read_only(weight[..., None])


# ---------------------------------------------------------------------------
# algebra-valued maps


class AlgebraMap:
    """Finite Fourier series T^d -> su(2) on a max-norm box |k| <= band.

    coeffs has shape (2*band+1,)*dimension + (3,), complex; component order
    matches the algebra basis (e, jx, jy).
    """

    __slots__ = ("dimension", "band", "coeffs")

    def __init__(self, dimension: int, band: int, coeffs=None):
        if dimension < 1 or band < 0:
            raise ValueError("dimension must be >= 1 and band >= 0")
        shape = (2 * band + 1,) * dimension + (3,)
        if coeffs is None:
            coeffs = np.zeros(shape, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != shape:
                raise ValueError("coefficients have shape %r, expected %r" % (coeffs.shape, shape))
        self.dimension = dimension
        self.band = band
        self.coeffs = coeffs

    # -- construction helpers

    @classmethod
    def zeros(cls, dimension: int, band: int) -> "AlgebraMap":
        return cls(dimension, band)

    @classmethod
    def from_fields(cls, dimension: int, band: int, e_field, w_field) -> "AlgebraMap":
        """Assemble from the real e-component spectrum and the free complex
        spectrum of w = c_x + i c_y (no constraint on w)."""
        e_field = np.asarray(e_field, dtype=complex)
        w_field = np.asarray(w_field, dtype=complex)
        wm = _flip_conj(w_field, dimension)
        out = cls(dimension, band)
        out.coeffs[..., 0] = 0.5 * (e_field + _flip_conj(e_field, dimension))
        out.coeffs[..., 1] = 0.5 * (w_field + wm)
        out.coeffs[..., 2] = (w_field - wm) / 2j
        return out

    def _index(self, k) -> tuple:
        k = tuple(int(c) for c in k)
        if len(k) != self.dimension or any(abs(c) > self.band for c in k):
            raise KeyError("mode %r outside the box" % (k,))
        return tuple(c + self.band for c in k)

    def set_mode(self, k, value) -> None:
        """Raw single-mode assignment; does not maintain reality."""
        self.coeffs[self._index(k)] = np.asarray(value, dtype=complex)

    def set_mode_pair(self, k, value) -> None:
        """Assign c(k) = value and c(-k) = conj(value), keeping reality."""
        value = np.asarray(value, dtype=complex)
        self.coeffs[self._index(k)] = value
        self.coeffs[self._index(tuple(-c for c in k))] = np.conj(value)

    def symmetrized(self) -> "AlgebraMap":
        sym = 0.5 * (self.coeffs + _flip_conj(self.coeffs, self.dimension))
        return AlgebraMap(self.dimension, self.band, sym)

    def e_field(self) -> np.ndarray:
        return self.coeffs[..., 0].copy()

    def w_field(self) -> np.ndarray:
        """Spectrum of the complex scalar w = c_x + i c_y."""
        return self.coeffs[..., 1] + 1j * self.coeffs[..., 2]

    def padded(self, band: int) -> "AlgebraMap":
        """Same map on a larger box."""
        if band < self.band:
            raise ValueError("padding cannot shrink the band")
        out = AlgebraMap(self.dimension, band)
        out.coeffs[box_inner(self.dimension, band, self.band)] = self.coeffs
        return out

    def trimmed(self, tol: float):
        """Same map on the smallest box |k| <= b whose dropped modes have l1
        mass sum_{|k| > b} |c(k)| at most tol, |c(k)| the Euclidean norm of
        the coefficient 3-vector; returns (map, dropped mass).  The dropped
        modes move the map by at most that mass in sup norm.  A map with
        nothing to drop comes back as itself, with mass 0."""
        if not tol >= 0:
            raise ValueError("trim tolerance must be non-negative")
        shell = box_shells(self.dimension, self.band).ravel()
        mass = np.linalg.norm(self.coeffs, axis=-1).ravel()
        # above[b]: mass of the shells b+1..band, what keeping |k| <= b drops
        above = np.append(np.cumsum(np.bincount(shell, mass)[:0:-1])[::-1], 0.0)
        band = int(np.argmax(above <= tol))
        if band == self.band:
            return self, 0.0
        inner = box_inner(self.dimension, self.band, band)
        return AlgebraMap(self.dimension, band, self.coeffs[inner].copy()), float(above[band])

    # -- arithmetic

    def __add__(self, other: "AlgebraMap") -> "AlgebraMap":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        band = max(self.band, other.band)
        out = self.padded(band).coeffs
        out += other.padded(band).coeffs
        return AlgebraMap(self.dimension, band, out)

    def __sub__(self, other: "AlgebraMap") -> "AlgebraMap":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "AlgebraMap":
        return AlgebraMap(self.dimension, self.band, complex(scalar) * self.coeffs)

    def rotated(self, rotation: np.ndarray) -> "AlgebraMap":
        """Apply a constant rotation of algebra coordinates coefficientwise
        (the action of Ad(P) for a constant P)."""
        return AlgebraMap(self.dimension, self.band, self.coeffs @ np.asarray(rotation, dtype=float).T)

    # -- evaluation

    def evaluate_at(self, x) -> np.ndarray:
        """Values by direct summation at points x of shape (..., d): shape
        x.shape[:-1] + (3,)."""
        return np.real(np.tensordot(_phases(self.dimension, self.band, x), self.coeffs,
                                    axes=self.dimension))

    # -- serialization

    def to_dict(self) -> dict:
        """Nonzero rows [k_1, ..., k_d, re, im] per component, for k = 0 and
        the canonical half (first nonzero entry of k positive): the flat
        rows of the box from its centre on, in lexicographic order of k.
        The other half, c(-k) = conj(c(k)), is left for from_dict to
        rebuild, so only a real map survives the round trip."""
        centre = box_centre(self.dimension, self.band)
        half = self.coeffs.reshape(-1, 3)[centre:]
        comps = {}
        for ci, name in enumerate(("e", "jx", "jy")):
            flat = np.flatnonzero(half[:, ci])
            values = half[flat, ci]
            modes = box_windings(self.dimension, self.band, flat + centre)
            comps[name] = [k + [re, im] for k, re, im in zip(
                modes.tolist(), values.real.tolist(), values.imag.tolist())]
        return {"dimension": self.dimension, "band": self.band, "components": comps}

    @classmethod
    def from_dict(cls, data: dict) -> "AlgebraMap":
        """Inverse of to_dict: the rows, then c(-k) = conj(c(k)) for the
        canonical half.  A table that also lists the other half loads too;
        for a real map the two agree."""
        out = cls(int(data["dimension"]), int(data["band"]))
        d = out.dimension
        for ci, name in enumerate(("e", "jx", "jy")):
            rows = data["components"].get(name, [])
            rows = np.asarray(rows, dtype=float).reshape(len(rows), d + 2)
            k = rows[:, :d].astype(int)
            outside = max_norm(k.T) > out.band
            if outside.any():
                raise KeyError("mode %r outside the box" % (tuple(k[outside.argmax()].tolist()),))
            out.coeffs[tuple((k + out.band).T) + (ci,)] = rows[:, d] + 1j * rows[:, d + 1]
        # flat row j holds -k of flat row 2 * centre - j
        flat = out.coeffs.reshape(-1, 3)
        centre = box_centre(d, out.band)
        flat[:centre] = np.conj(flat[:centre:-1])
        return out


# -- module-level operations on AlgebraMap -----------------------------------


@lru_cache(maxsize=TABLE_ENTRIES)
def _half_index(band: int, m: int, dimension: int) -> tuple:
    """Bins of the modes |k| <= band with k_last >= 0 in an rfftn spectrum of
    an m^d grid, or in its first band + 1 columns.  Memoised per (band, m,
    dimension), read-only; an entry holds d (2 band + 1) integers at most,
    16 MiB for a box whose grid fits GRID_POINTS, so TABLE_ENTRIES x 16 MiB
    = 2 GiB at worst."""
    leading = tuple(read_only(k % m) for k in box_axes(dimension, band)[:-1])
    return leading + (read_only(np.arange(band + 1)),)


def synthesize(amap: AlgebraMap, m: int) -> np.ndarray:
    """Grid values as real 3-vectors; requires m >= 2*band+2.  A real inverse
    FFT of the k_last >= 0 half of the box: the map is real, so that half
    determines it.  Only its band + 1 columns of the last axis are nonzero,
    so the leading axes are transformed on those columns alone, and the
    real inverse over the last axis pads them to m // 2 + 1."""
    d, band = amap.dimension, amap.band
    if m < 2 * band + 2:
        raise UndersampledGridError("grid %d undersamples band %d" % (m, band))
    buf = np.zeros((3,) + (m,) * (d - 1) + (band + 1,), dtype=complex)
    buf[(slice(None),) + _half_index(band, m, d)] = components_first(amap.coeffs[..., band:, :])
    # the order of np.fft.irfftn: the leading axes first, then the real axis
    for axis in range(1, d):
        np.fft.ifft(buf, axis=axis, out=buf)
    grid = np.fft.irfft(buf, n=m, axis=d)
    grid *= float(m) ** d
    return components_last(grid)


def analyze(samples: np.ndarray, band: int) -> AlgebraMap:
    """Inverse of synthesize on band-limited data (modes |k| <= band), reality
    enforced: a real FFT gives the k_last >= 0 half, the other half is its
    flipped conjugate, and symmetrizing evens out the k_last = 0 plane.
    Only the band + 1 columns of the box are kept after the real FFT of the
    last axis, before the leading axes are transformed."""
    samples = np.asarray(samples, dtype=float)
    dimension = samples.ndim - 1
    m = samples.shape[0]
    if any(samples.shape[a] != m for a in range(dimension)):
        raise ValueError("expected a cubic grid")
    if m < 2 * band + 2:
        raise UndersampledGridError("grid %d undersamples band %d" % (m, band))
    hat = np.fft.rfft(components_first(samples), axis=dimension)[..., :band + 1].copy()
    # the order of np.fft.rfftn: the real axis first, then the leading axes backwards
    for axis in range(dimension - 1, 0, -1):
        np.fft.fft(hat, axis=axis, out=hat)
    # back to the coefficient layout, C order, before the flip and concatenation
    half = np.ascontiguousarray(components_last(
        hat[(slice(None),) + _half_index(band, m, dimension)] / float(m) ** dimension))
    coeffs = np.concatenate([_flip_conj(half[..., 1:, :], dimension), half], axis=dimension - 1)
    return AlgebraMap(dimension, band, coeffs).symmetrized()


def translate(amap: AlgebraMap, alpha) -> AlgebraMap:
    """Composition with the shift x -> x + alpha: phases exp(2 pi i k.alpha)."""
    offs = alpha.vector if isinstance(alpha, Frequency) else alpha
    phase = _phases(amap.dimension, amap.band, offs)
    return AlgebraMap(amap.dimension, amap.band, amap.coeffs * phase[..., None])


def sobolev_norm(amap: AlgebraMap, s: float) -> float:
    """(sum_k (1+|k|^2)^s |c(k)|^2)^(1/2), Euclidean |k|, all components."""
    weight = _sobolev_weight(amap.dimension, amap.band, s)
    return float(np.sqrt(np.sum(weight * np.abs(amap.coeffs) ** 2)))


def random_map(dimension: int, band: int, amplitude: float, rng,
               mean_free: bool = True) -> AlgebraMap:
    """Seeded random real map scaled to the requested H^0 norm."""
    shape = (2 * band + 1,) * dimension + (3,)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amap = AlgebraMap(dimension, band, raw).symmetrized()
    if mean_free:
        amap.coeffs[(band,) * dimension] = 0.0
    norm = sobolev_norm(amap, 0.0)
    if norm > 0:
        amap = (amplitude / norm) * amap
    return amap


# ---------------------------------------------------------------------------
# structured group-valued factors and conjugation chains


@dataclass(frozen=True)
class TorusMorphism:
    """x -> exp((k.x) e): winds through the fixed maximal torus.

    Sends lattice points of Z^d into the center {+-Id}; under fibered
    conjugation the sign ambiguity B(x+m) = (-1)^(k.m) B(x) cancels.  A
    morphism into another torus P T P^-1 is the chain P, this, P^-1.
    """

    winding: tuple

    def __post_init__(self):
        object.__setattr__(self, "winding", tuple(int(c) for c in self.winding))

    @property
    def dimension(self) -> int:
        return len(self.winding)

    def evaluate_at(self, x) -> np.ndarray:
        return torus_quat(np.vecdot(np.atleast_1d(x), self.winding))

    def grid(self, m: int, offset=None, span: float = 1.0) -> np.ndarray:
        offset = np.zeros(self.dimension) if offset is None else np.asarray(offset, dtype=float)
        grids = np.ix_(*(span * np.arange(m) / m + offset[:, None]))
        t = sum(k * g for k, g in zip(self.winding, grids))
        t = np.broadcast_to(t, (m,) * self.dimension)
        out = np.zeros((4,) + t.shape)
        np.cos(np.pi * t, out=out[0])
        np.sin(np.pi * t, out=out[1])
        return components_last(out)

    def inverse(self) -> "TorusMorphism":
        return TorusMorphism(tuple(-c for c in self.winding))

    def to_dict(self) -> dict:
        return {"type": "torus", "winding": list(self.winding)}


@dataclass(frozen=True)
class ConstantFactor:
    element: GroupElement

    @property
    def dimension(self):
        return None

    def evaluate_at(self, x) -> np.ndarray:
        return np.tile(self.element.q, np.shape(x)[:-1] + (1,))

    def grid(self, m: int, offset=None, span: float = 1.0) -> np.ndarray:
        """The quaternion itself; quat_mul broadcasts it over the grid."""
        return self.element.q

    def inverse(self) -> "ConstantFactor":
        return ConstantFactor(self.element.inverse())

    def to_dict(self) -> dict:
        return {"type": "constant", "element": self.element.q.tolist()}


@dataclass(frozen=True)
class ExpFactor:
    """x -> exp(Y(x)) for an algebra map Y.  As the conjugator of a scheme
    step (cocycle.conjugate_raw), its `field` is Y and its `lift` is exp,
    applied block by block, so exp(Y) is never a whole grid."""

    map: AlgebraMap

    @property
    def dimension(self) -> int:
        return self.map.dimension

    def evaluate_at(self, x) -> np.ndarray:
        return alg_exp_quat(self.map.evaluate_at(x))

    def field(self, m: int, offset=None) -> np.ndarray:
        """Y on the m^d grid, shifted by offset: the grid before exp."""
        return synthesize(self.map if offset is None else translate(self.map, offset), m)

    @property
    def lift(self):
        """exp, the pointwise map from `field` to the factor's grid.  Read
        from the module at each call, so a rebinding of `alg_exp_quat`, as
        perfbench's tracer makes, reaches the scheme step's exponentials."""
        return alg_exp_quat

    def grid(self, m: int, offset=None, span: float = 1.0) -> np.ndarray:
        if span == 1.0:
            return blockwise(partial(self.field, m, offset), alg_exp_quat)
        if span != 2.0:
            raise ValueError("span must be 1 or 2")
        if m % 2:
            raise ValueError("double-cover sampling needs an even grid")
        # exp is pointwise, so one period is exponentiated, then copied into
        # each of the 2^d cells, with no intermediate grid as np.tile makes
        h, d = m // 2, self.dimension
        period = components_first(blockwise(partial(self.field, h, offset), alg_exp_quat))
        tiled = np.empty((4,) + (2, h) * d)
        tiled[...] = period.reshape((4,) + (1, h) * d)
        return components_last(tiled.reshape((4,) + (m,) * d))

    def inverse(self) -> "ExpFactor":
        return ExpFactor((-1.0) * self.map)

    def to_dict(self) -> dict:
        return {"type": "exp", "map": self.map.to_dict()}


def factor_from_dict(data: dict):
    kind = data["type"]
    if kind == "torus":
        return TorusMorphism(tuple(data["winding"]))
    if kind == "constant":
        return ConstantFactor(GroupElement(np.asarray(data["element"])))
    if kind == "exp":
        return ExpFactor(AlgebraMap.from_dict(data["map"]))
    raise ValueError("unknown factor type %r" % kind)


@dataclass(frozen=True)
class ConjugationChain:
    """Ordered product of conjugation factors; the leftmost factor is the
    most recent one (applied last), matching the update H_new = G . H_old."""

    factors: tuple
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.dimension is not None and f.dimension != self.dimension:
                raise ValueError("factor dimension mismatch")

    def __len__(self) -> int:
        return len(self.factors)

    def prepended(self, factor) -> "ConjugationChain":
        return ConjugationChain((factor,) + self.factors, self.dimension)

    def inverse(self) -> "ConjugationChain":
        return ConjugationChain(tuple(f.inverse() for f in reversed(self.factors)), self.dimension)

    def evaluate_at(self, x) -> np.ndarray:
        """The product at points x of shape (..., d): shape x.shape[:-1] +
        (4,), each factor evaluated once on the whole batch."""
        q = np.tile([1.0, 0.0, 0.0, 0.0], np.shape(x)[:-1] + (1,))
        for f in self.factors:
            q = quat_mul(q, f.evaluate_at(x))
        return q

    def prefix_grids(self, m: int, offset=None, span: float = 1.0):
        """Grids (read-only views) of the application-order prefixes: prefix
        i+1 is the next newer factor's grid times prefix i, multiplied into
        prefix i in place, block by block (su2.blockwise).  The factor's
        grid is released before the yield, so a caller that transforms a
        prefix holds one grid beside its transform; a yielded grid is valid
        until the generator resumes, which may write the next prefix over
        it."""
        acc = None
        for f in reversed(self.factors):
            g = f.grid(m, offset, span)
            # a constant prefix is a point, one block: the product is new
            acc = g if acc is None else blockwise(g, quat_mul, into=acc)
            del g
            yield np.broadcast_to(acc, (m,) * self.dimension + (4,))

    def grid(self, m: int, offset=None, span: float = 1.0) -> np.ndarray:
        """The whole product: the fold's last prefix (identity if empty)."""
        last = np.broadcast_to(np.array([1.0, 0.0, 0.0, 0.0]), (m,) * self.dimension + (4,))
        for last in self.prefix_grids(m, offset, span):
            pass
        return last

    def field(self, m: int, offset=None) -> np.ndarray:
        """The chain's grid, as a conjugator of cocycle.conjugate_raw: the
        whole product, folded factor by factor."""
        return self.grid(m, offset)

    @staticmethod
    def lift(q):
        """The identity: a chain's `field` is already its grid."""
        return q

    def application_prefixes(self):
        """Partial products in the order the factors were applied: the i-th
        prefix is the product of the i oldest factors."""
        return [ConjugationChain(self.factors[len(self.factors) - i:], self.dimension)
                for i in range(1, len(self.factors) + 1)]

    def content_bound(self) -> int:
        """Crude per-axis frequency content (in half-integer units on the
        double cover) of the product: torus windings plus linearised
        exponential bands."""
        total = 0
        for f in self.factors:
            if isinstance(f, TorusMorphism):
                total += int(max_norm(f.winding))
            elif isinstance(f, ExpFactor):
                total += 2 * f.map.band
        return total

    def conjugated_band(self, band: int) -> int:
        """Band that resolves a fiber of the given band after conjugation by
        the chain: twice the content bound plus a margin, enough for
        close-to-identity exponential factors whose series tails must clear
        the resynthesis tolerance.  It sizes the grid of cocycle.conjugate
        and of a recipe's synthesis; the normal form's replay evaluates
        points, not a grid, and reads no band."""
        return band + 2 * self.content_bound() + 8

    def to_dict(self) -> dict:
        return {"dimension": self.dimension,
                "factors": [f.to_dict() for f in self.factors]}

    @classmethod
    def from_dict(cls, data: dict) -> "ConjugationChain":
        return cls(tuple(factor_from_dict(f) for f in data["factors"]),
                   int(data["dimension"]))


@lru_cache(maxsize=SPECTRUM_TABLES)
def _double_cover_weight(dimension: int, m: int, s: float) -> np.ndarray:
    """(1 + |k|^2)^s on the half-integer frequencies of a real FFT of the
    m^d double cover, the interior bins of the last axis counted twice: real
    FFTs keep the k_last >= 0 half, and those bins stand for their conjugate
    partners too.  Memoised per (dimension, m, s), read-only; an entry holds
    m^(d-1) (m // 2 + 1) doubles, at most 16 MiB for a grid of GRID_POINTS,
    so SPECTRUM_TABLES x 16 MiB = 256 MiB at worst."""
    freqs = ([np.fft.fftfreq(m, d=1.0 / m) / 2.0] * (dimension - 1)
             + [np.fft.rfftfreq(m, d=1.0 / m) / 2.0])
    k2 = sum(g ** 2 for g in np.ix_(*freqs))
    twice = np.full(m // 2 + 1, 2.0)
    twice[[0, -1]] = 1.0
    return read_only((1.0 + k2) ** s * twice)


def chain_sobolev_partial(chain: ConjugationChain, s: float, m: int):
    """H^s norms of the application-order prefix products of the chain.

    Prefixes are sampled on the double cover [0, 2)^d (torus morphisms with
    odd windings are only periodic there; for even windings this agrees with
    the single-period computation) and analysed componentwise on the
    quaternion coordinates, so frequencies live on the half-integer lattice.
    This is the Cauchy diagnostic for convergence in negative Sobolev spaces.
    """
    if m % 2:
        raise ValueError("double-cover sampling needs an even grid")
    need = 2 * chain.content_bound() + 2
    if m < need:
        raise UndersampledGridError("grid %d undersamples chain content (need >= %d)" % (m, need))
    d = chain.dimension
    weight = _double_cover_weight(d, m, s)
    norms = []
    for samples in chain.prefix_grids(m, span=2.0):
        # np.fft.rfftn's stages, the leading axes transformed in place
        hat = np.fft.rfft(components_first(samples), axis=d)
        for axis in range(d - 1, 0, -1):
            np.fft.fft(hat, axis=axis, out=hat)
        hat /= float(m) ** d
        # summed in the C order of the (..., 4) spectrum, which fixes the rounding
        power = np.empty(hat.shape[1:] + (4,))
        np.abs(components_last(hat), out=power)
        del hat  # no spectrum outlives its prefix into the next prefix grid's build
        np.square(power, out=power)
        power *= weight[..., None]
        norms.append(float(np.sqrt(np.sum(power))))
        del power
    return norms
