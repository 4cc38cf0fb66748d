import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2kam import fourier
from su2kam.arithmetic import Frequency, box_axes, box_windings, max_norm
from su2kam.cocycle import Cocycle
from su2kam.fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    GridBudgetError,
    TorusMorphism,
    UndersampledGridError,
    analyze,
    chain_sobolev_partial,
    grid_size,
    random_map,
    sobolev_norm,
    synthesize,
    translate,
)
from su2kam.su2 import GroupElement, group_distance, quat_mul, quat_normalize, torus_quat

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def field_synthesize(coeffs, m, d):
    """Reference for synthesize: sum_k c(k) exp(2 pi i k.x) on the m^d grid
    by a full complex FFT of the box |k| <= N, any trailing axes carried
    along; m >= 2N+2."""
    n = (coeffs.shape[0] - 1) // 2
    buf = np.zeros((m,) * d + coeffs.shape[d:], dtype=complex)
    buf[tuple(k % m for k in box_axes(d, n))] = coeffs
    return np.fft.ifftn(buf, axes=tuple(range(d))) * float(m) ** d


def truncate(amap, band):
    """Exact splitting into modes |k| <= band (max-norm) and the rest."""
    mask = max_norm(box_axes(amap.dimension, amap.band))[..., None] <= band
    return (AlgebraMap(amap.dimension, amap.band, np.where(mask, amap.coeffs, 0)),
            AlgebraMap(amap.dimension, amap.band, np.where(mask, 0, amap.coeffs)))


def test_synthesize_zero_and_single_mode():
    zero = AlgebraMap.zeros(1, 4)
    assert np.all(synthesize(zero, 16) == 0.0)
    amap = AlgebraMap.zeros(1, 4)
    amap.set_mode_pair((2,), np.array([0.5, 0.0, 0.0]))
    vals = synthesize(amap, 32)
    xs = np.arange(32) / 32
    assert np.allclose(vals[:, 0], np.cos(2 * np.pi * 2 * xs), atol=1e-12)


def test_analyze_synthesize_roundtrip():
    rng = np.random.default_rng(0)
    for d, band, m in ((1, 8, 24), (2, 3, 10)):
        f = random_map(d, band, 0.7, rng)
        g = analyze(synthesize(f, m), band)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


@settings(max_examples=60)
@given(d=st.integers(1, 3), band=st.integers(0, 4), extra=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_transforms_match_the_complex_reference(d, band, extra, seed):
    # extra runs over even and odd grids: chain_sobolev_partial synthesises
    # its exp factors on one period, h = m / 2 points per axis, which can be
    # odd
    rng = np.random.default_rng(seed)
    f = random_map(d, band, 1.0, rng, mean_free=False)
    m = 2 * band + 2 + extra
    reference = np.real(field_synthesize(f.coeffs, m, d))
    assert np.max(np.abs(synthesize(f, m) - reference)) < 1e-14
    # any real grid, band-limited or not: the box of a full complex FFT,
    # symmetrized
    samples = rng.standard_normal((m,) * d + (3,))
    hat = np.fft.fftn(samples, axes=tuple(range(d))) / float(m) ** d
    box = hat[np.ix_(*[np.arange(-band, band + 1) % m] * d)]
    box = 0.5 * (box + np.conj(np.flip(box, axis=tuple(range(d)))))
    assert np.max(np.abs(analyze(samples, band).coeffs - box)) < 1e-14
    with pytest.raises(UndersampledGridError):
        synthesize(f, 2 * band + 1)
    with pytest.raises(UndersampledGridError):
        analyze(samples[(slice(0, 2 * band + 1),) * d], band)


def test_undersampled_grid_rejected():
    f = AlgebraMap.zeros(1, 8)
    with pytest.raises(UndersampledGridError):
        synthesize(f, 17)
    with pytest.raises(UndersampledGridError):
        analyze(np.zeros((10, 3)), 8)


def test_translate_phases_and_isometry():
    rng = np.random.default_rng(2)
    alpha = Frequency((GOLDEN,))
    const = AlgebraMap.zeros(1, 2)
    const.set_mode((0,), np.array([0.3, 0.0, 0.1]))
    assert np.allclose(translate(const, alpha).coeffs, const.coeffs)

    f = AlgebraMap.zeros(1, 5)
    f.set_mode_pair((3,), np.array([0.2 + 0.1j, 0.0, 0.0]))
    g = translate(f, alpha)
    expected = f.coeffs[f.band + 3] * np.exp(2j * np.pi * 3 * GOLDEN)
    assert np.allclose(g.coeffs[g.band + 3], expected)

    h = random_map(1, 6, 1.0, rng)
    twice = translate(translate(h, alpha), alpha)
    once = translate(h, np.array([2 * GOLDEN]))
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12
    for s in (-4.0, -1.0, 0.0, 1.5, 3.0):
        assert abs(sobolev_norm(translate(h, alpha), s) - sobolev_norm(h, s)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_grids_match_per_mode_loops(d):
    # mode norms and phases on the coefficient box, and the max-norm of the
    # flat rows, against one loop over the windings in lexicographic order;
    # the phases of a batch of points carry the batch axis in front
    band = 3
    xs = np.random.default_rng(d).uniform(0, 1, (4, d))
    x = xs[0]
    modes = list(itertools.product(range(-band, band + 1), repeat=d))
    shape = (2 * band + 1,) * d
    euclid = [math.sqrt(sum(c * c for c in k)) for k in modes]
    assert np.array_equal(fourier.mode_norm_grid(d, band), np.reshape(euclid, shape))
    maxnorm = [max(map(abs, k)) for k in modes]
    assert np.array_equal(max_norm(box_axes(d, band)), np.reshape(maxnorm, shape))
    rows = box_windings(d, band, np.arange(len(modes)))
    assert np.array_equal(max_norm(rows.T), maxnorm)
    phases = [cmath.exp(2j * math.pi * sum(c * xa for c, xa in zip(k, x))) for k in modes]
    assert np.allclose(fourier._phases(d, band, x), np.reshape(phases, shape),
                       rtol=0.0, atol=1e-13)
    batch = [[cmath.exp(2j * math.pi * sum(c * xa for c, xa in zip(k, y))) for k in modes]
             for y in xs]
    assert np.allclose(fourier._phases(d, band, xs), np.reshape(batch, (4,) + shape),
                       rtol=0.0, atol=1e-13)


def test_sobolev_norm_examples():
    const = AlgebraMap.zeros(2, 3)
    const.set_mode((0, 0), np.array([0.3, 0.4, 0.0]))
    for s in (-2.0, 0.0, 2.0):
        assert sobolev_norm(const, s) == pytest.approx(0.5)
    single = AlgebraMap.zeros(1, 4)
    single.set_mode((3,), np.array([1.0, 0.0, 0.0]))
    assert sobolev_norm(single, 2.0) == pytest.approx((1 + 9.0) ** 1.0)


def test_sobolev_parseval_at_zero():
    rng = np.random.default_rng(3)
    f = random_map(1, 8, 0.9, rng)
    m = 64
    vals = synthesize(f, m)
    grid_l2 = np.sqrt(np.sum(vals**2) / m)
    assert abs(sobolev_norm(f, 0.0) - grid_l2) < 1e-10


def test_truncate_exact_split_and_tail_bound():
    rng = np.random.default_rng(4)
    f = random_map(1, 12, 1.3, rng)
    low, high = truncate(f, 12)
    assert np.array_equal(low.coeffs, f.coeffs)
    assert np.all(high.coeffs == 0)
    low, high = truncate(f, 0)
    assert np.all(low.coeffs[:12] == 0) and np.all(low.coeffs[13:] == 0)
    for nprime in (3, 7):
        low, high = truncate(f, nprime)
        assert np.array_equal(low.coeffs + high.coeffs, f.coeffs)
        for s in (0.5, 1.0, 2.5):
            bound = (1.0 + nprime**2) ** (-s / 2.0) * sobolev_norm(f, s)
            assert sobolev_norm(high, 0.0) <= bound + 1e-12


def _l1_mass(amap):
    return math.fsum(np.linalg.norm(amap.coeffs, axis=-1).ravel())


def test_trimmed_drops_whole_shells():
    f = AlgebraMap.zeros(1, 3)
    f.set_mode_pair((1,), [0.5, 0.0, 0.0])
    f.set_mode_pair((3,), [0.0, 6e-4, 8e-4])    # |c(+-3)| = 1e-3
    kept, dropped = f.trimmed(2e-3)
    assert kept.band == 1 and dropped == 2e-3
    assert np.array_equal(kept.coeffs, f.coeffs[2:5])
    assert f.trimmed(1.9e-3) == (f, 0.0)
    assert AlgebraMap.zeros(2, 4).trimmed(0.0)[0].band == 0
    with pytest.raises(ValueError):
        f.trimmed(-1.0)


@settings(max_examples=200)
@given(d=st.sampled_from([1, 2]), band=st.integers(0, 8),
       log_decay=st.floats(-4.0, 0.0), log_tol=st.floats(-22.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_trimmed_keeps_the_smallest_box_within_the_tolerance(d, band, log_decay,
                                                             log_tol, seed):
    # a spectrum decaying like decay^|k|, trimmed at a tolerance from far
    # below its last shell to above its whole mass
    f = random_map(d, band, 1.0, np.random.default_rng(seed), mean_free=False)
    decay = 10.0 ** (log_decay * max_norm(box_axes(d, band)))
    f = AlgebraMap(d, band, f.coeffs * decay[..., None])
    tol = 10.0 ** log_tol
    kept, dropped = f.trimmed(tol)
    low, high = truncate(f, kept.band)
    assert np.array_equal(kept.padded(band).coeffs, low.coeffs)
    assert np.array_equal(kept.padded(band).coeffs + high.coeffs, f.coeffs)
    assert dropped <= tol
    assert dropped == pytest.approx(_l1_mass(high), rel=1e-12, abs=0.0)
    if kept.band > 0:
        # one shell fewer would drop more than the tolerance
        assert _l1_mass(truncate(f, kept.band - 1)[1]) > tol
    if kept.band == band:
        assert kept is f and dropped == 0.0


def test_algebra_map_serialization_roundtrip():
    rng = np.random.default_rng(5)
    for d, band in ((1, 6), (2, 2), (3, 2)):
        f = random_map(d, band, 1.1, rng)
        g = AlgebraMap.from_dict(f.to_dict())
        assert np.array_equal(g.coeffs, f.coeffs)


def _two_half_table(f):
    """The rows of every nonzero coefficient, both halves of the box, in
    lexicographic order of k: the table the canonical-half writer replaced."""
    comps = {}
    for ci, name in enumerate(("e", "jx", "jy")):
        c = f.coeffs[..., ci]
        idx = np.argwhere(c != 0)
        comps[name] = [k + [v.real, v.imag] for k, v in zip((idx - f.band).tolist(),
                                                            c[tuple(idx.T)])]
    return {"dimension": f.dimension, "band": f.band, "components": comps}


def test_algebra_map_serialization_rows():
    f = AlgebraMap.zeros(2, 1)
    f.set_mode_pair((1, -1), [0.0, 2.0 + 1.0j, 0.0])
    f.set_mode_pair((0, -1), [0.0, 3.0, 0.0])
    f.set_mode((0, 0), [0.5, 0.0, -1.0])
    rows = f.to_dict()["components"]
    # nonzero coefficients of k = 0 and of the canonical half (first nonzero
    # entry of k positive) only, one table per component, rows in the
    # lexicographic order of k
    assert rows == {"e": [[0, 0, 0.5, 0.0]],
                    "jx": [[0, 1, 3.0, 0.0], [1, -1, 2.0, 1.0]],
                    "jy": [[0, 0, -1.0, 0.0]]}
    # against the mode-by-mode loop, on maps with zero modes
    rng = np.random.default_rng(9)
    for d, band in ((1, 5), (2, 3), (3, 2)):
        g = random_map(d, band, 1.0, rng)
        zero = rng.random(g.coeffs.shape) < 0.4
        g.coeffs[zero | np.flip(zero, axis=tuple(range(d)))] = 0.0
        expected = {name: [] for name in ("e", "jx", "jy")}
        for idx in np.ndindex(g.coeffs.shape[:-1]):
            k = [i - band for i in idx]
            for ci, name in enumerate(("e", "jx", "jy")):
                c = g.coeffs[idx + (ci,)]
                if c != 0 and tuple(k) >= (0,) * d:
                    expected[name].append(k + [c.real, c.imag])
        assert g.to_dict()["components"] == expected
        assert np.array_equal(AlgebraMap.from_dict(g.to_dict()).coeffs, g.coeffs)
        # a table with both halves, as written before, loads to the same map
        assert np.array_equal(AlgebraMap.from_dict(_two_half_table(g)).coeffs, g.coeffs)
    outside = {"dimension": 2, "band": 1, "components": {"jx": [[0, 2, 1.0, 0.0]]}}
    with pytest.raises(KeyError, match=r"\(0, 2\)"):
        AlgebraMap.from_dict(outside)


def test_evaluate_at_matches_synthesize():
    rng = np.random.default_rng(6)
    f = random_map(2, 3, 0.8, rng)
    m = 12
    vals = synthesize(f, m)
    idxs = ((0, 0), (3, 7), (11, 5))
    for idx in idxs:
        x = np.array(idx) / m
        assert np.max(np.abs(f.evaluate_at(x) - vals[idx])) < 1e-12
    # the same points as one batch
    batch = f.evaluate_at(np.array(idxs) / m)
    assert np.max(np.abs(batch - vals[tuple(np.array(idxs).T)])) < 1e-12


def test_torus_morphism_cocycle_compatibility():
    # B(x+alpha) exp(theta e) B(x)^-1 = exp((theta + k.alpha) e)
    alpha = GOLDEN
    b = TorusMorphism((3,))
    theta = 0.21
    rng = np.random.default_rng(7)
    for x in rng.uniform(0, 1, size=10):
        lhs = quat_mul(b.evaluate_at(np.array([x + alpha])),
                       quat_mul(torus_quat(theta), b.inverse().evaluate_at(np.array([x]))))
        rhs = torus_quat(theta + 3 * alpha)
        assert group_distance(GroupElement(lhs), GroupElement(rhs)) < 1e-12


def test_torus_morphism_center_ambiguity_cancels():
    b = TorusMorphism((3,))  # odd winding: B(x+1) = -B(x)
    theta = 0.37
    x = np.array([0.123])
    def conj_at(y):
        return quat_mul(b.evaluate_at(y + GOLDEN),
                        quat_mul(torus_quat(theta), b.inverse().evaluate_at(y)))
    assert np.max(np.abs(conj_at(x) - conj_at(x + 1.0))) < 1e-12


def test_torus_morphism_lattice_to_center():
    b = TorusMorphism((5, 2))
    for point in ((0, 0), (1, 0), (2, 1)):
        q = b.evaluate_at(np.array(point, dtype=float))
        assert abs(abs(q[0]) - 1.0) < 1e-12


def test_chain_needs_its_dimension():
    # no default dimension: a chain of constants for a 2D cocycle cannot
    # silently come out one-dimensional
    with pytest.raises(TypeError):
        ConjugationChain(())


def test_chain_value_and_inverse():
    rng = np.random.default_rng(8)
    y = random_map(1, 3, 0.05, rng)
    p = GroupElement(quat_normalize(rng.standard_normal(4)))
    chain = ConjugationChain((ConstantFactor(p), ExpFactor(y), TorusMorphism((2,))), 1)
    assert np.allclose(ConjugationChain((), 1).evaluate_at(np.array([0.3])), [1, 0, 0, 0])
    single = ConjugationChain((ConstantFactor(p),), 1).evaluate_at(np.array([0.9]))
    assert group_distance(GroupElement(single), p) < 1e-14
    inv = chain.inverse()
    for x in rng.uniform(0, 1, size=5):
        prod = quat_mul(chain.evaluate_at(np.array([x])), inv.evaluate_at(np.array([x])))
        assert group_distance(GroupElement(prod), GroupElement.identity()) < 1e-12


def _constant(rng) -> ConstantFactor:
    return ConstantFactor(GroupElement(quat_normalize(rng.standard_normal(4))))


def _grid_chain(kind: str) -> ConjugationChain:
    rng = np.random.default_rng(9)
    if kind == "constant-ends":
        y = random_map(1, 2, 0.1, rng)
        return ConjugationChain((_constant(rng), TorusMorphism((2,)), ExpFactor(y),
                                 _constant(rng)), 1)
    if kind == "constants-only":
        return ConjugationChain((_constant(rng), _constant(rng), _constant(rng)), 1)
    y = random_map(2, 2, 0.1, rng)
    return ConjugationChain((TorusMorphism((1, 2)), ExpFactor(y), _constant(rng)), 2)


@pytest.mark.parametrize("kind", ["constant-ends", "constants-only", "torus-exp-constant-2d"])
def test_chain_grid_matches_pointwise(kind):
    chain = _grid_chain(kind)
    d = chain.dimension
    m = 16
    offset = np.full(d, GOLDEN)
    grid = chain.grid(m)
    shifted = chain.grid(m, offset=offset)
    assert grid.shape == shifted.shape == (m,) * d + (4,)
    idxs = [(j,) + (3,) * (d - 1) for j in (0, 5, 11)]
    for idx in idxs:
        x = np.array(idx) / m
        assert np.max(np.abs(grid[idx] - chain.evaluate_at(x))) < 1e-12
        assert np.max(np.abs(shifted[idx] - chain.evaluate_at(x + offset))) < 1e-12
    # the same points as one batch
    xs, rows = np.array(idxs) / m, tuple(np.array(idxs).T)
    assert np.max(np.abs(grid[rows] - chain.evaluate_at(xs))) < 1e-12
    assert np.max(np.abs(shifted[rows] - chain.evaluate_at(xs + offset))) < 1e-12


def _mixed_chain(d: int) -> ConjugationChain:
    # newest factor first: five factors of all three kinds
    rng = np.random.default_rng(12)
    y1 = random_map(d, 2, 0.05, rng)
    y2 = random_map(d, 1, 0.08, rng)
    return ConjugationChain((ExpFactor(y1), TorusMorphism((3,) + (1,) * (d - 1)),
                             _constant(rng), ExpFactor(y2), TorusMorphism((1,) * d)), d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["algebra", "torus", "constant", "exp", "mixed-chain",
                                  "empty-chain", "fiber"])
def test_point_evaluation_takes_a_batch(d, kind):
    # an (N, d) batch of points gives one value per point, (N, 3) or (N, 4),
    # equal to the values point by point up to the rounding of one matrix
    # product against one per point, at the amplitudes of chain factors; a
    # (2, 3, d) batch keeps both axes
    rng = np.random.default_rng(30 + d)
    y = random_map(d, 2, 0.05, rng, mean_free=False)
    evaluate = {
        "algebra": y.evaluate_at,
        "torus": TorusMorphism((3,) + (-1,) * (d - 1)).evaluate_at,
        "constant": _constant(rng).evaluate_at,
        "exp": ExpFactor(y).evaluate_at,
        "mixed-chain": _mixed_chain(d).evaluate_at,
        "empty-chain": ConjugationChain((), d).evaluate_at,
        "fiber": Cocycle(Frequency(tuple(rng.uniform(0, 1, d))), _constant(rng).element,
                         y).fiber_at,
    }[kind]
    points = rng.uniform(-1.0, 3.0, (6, d))
    batch = evaluate(points)
    assert batch.shape == (6, 3 if kind == "algebra" else 4)
    single = np.array([evaluate(x) for x in points])
    assert single.shape == batch.shape
    assert np.max(np.abs(batch - single)) <= 1e-15
    assert np.max(np.abs(evaluate(points.reshape(2, 3, d)) - batch.reshape(2, 3, -1))) <= 1e-15


@pytest.mark.parametrize("d", [1, 2])
def test_chain_sobolev_partial_matches_per_prefix_reference(d):
    # a full complex FFT of each prefix's double-cover grid; the odd windings
    # (3, 1) and (1, 1) live only on the double cover, and the two pads give
    # an even and an odd period h = m / 2, whose twisted FFT ends its bins on
    # the coset differently
    chain = _mixed_chain(d)
    for pad in (8, 10):
        m = 2 * chain.content_bound() + pad
        freqs = np.fft.fftfreq(m, d=1.0 / m) / 2.0
        k2 = sum(g ** 2 for g in np.meshgrid(*[freqs] * d, indexing="ij"))
        hats = [np.fft.fftn(prefix.grid(m, span=2.0), axes=tuple(range(d))) / float(m) ** d
                for prefix in chain.application_prefixes()]
        for s in (-3.0, 0.0, 1.5):
            norms = chain_sobolev_partial(chain, s, m)
            assert len(norms) == len(chain)
            weight = (1.0 + k2) ** s
            for norm, hat in zip(norms, hats):
                ref = float(np.sqrt(np.sum(weight[..., None] * np.abs(hat) ** 2)))
                assert abs(norm - ref) <= 1e-13 * ref


@settings(max_examples=20)
@given(d=st.integers(1, 2), h=st.integers(1, 12))
def test_prefixes_flip_by_their_winding_parity_over_one_period(d, h):
    # the fact that chain_sobolev_partial's twist rests on, by direct sums
    # on the double cover: a prefix whose torus windings sum to K has
    # P(x + e_a) = (-1)^(K_a) P(x), a shift of h points on the (2h)^d grid
    for prefix in _mixed_chain(d).application_prefixes():
        winding = sum(np.array(f.winding) for f in prefix.factors
                      if isinstance(f, TorusMorphism))
        cover = prefix.grid(2 * h, span=2.0)
        for a in range(d):
            flipped = (-1.0) ** winding[a] * cover
            assert np.max(np.abs(np.roll(cover, -h, axis=a) - flipped)) <= 1e-14


def test_chain_sobolev_partial_builds_each_factor_grid_once(monkeypatch):
    # the fold builds the oldest factor's grid, then each newer factor's
    # source: an exp factor's Synthesis, any other factor's grid
    calls = []
    for cls, method in ((ConstantFactor, "grid"), (TorusMorphism, "grid"), (ExpFactor, "source")):
        def counted(self, *args, _build=getattr(cls, method), **kwargs):
            calls.append(id(self))
            return _build(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, counted)
    chain = _mixed_chain(1)
    assert isinstance(chain.factors[-1], TorusMorphism)  # the oldest
    chain_sobolev_partial(chain, -2.0, 2 * chain.content_bound() + 8)
    assert sorted(calls) == sorted(map(id, chain.factors))


def test_chain_sobolev_constants_constant():
    p = GroupElement(np.array([0.0, 1.0, 0.0, 0.0]))
    chain = ConjugationChain((ConstantFactor(p), ConstantFactor(p), ConstantFactor(p)), 1)
    norms = chain_sobolev_partial(chain, -2.0, 32)
    assert np.allclose(norms, norms[0])


def test_chain_sobolev_single_morphism_monotone():
    prev = None
    for k in (4, 8, 16, 32):
        chain = ConjugationChain((TorusMorphism((k,)),), 1)
        norm = chain_sobolev_partial(chain, -2.0, 256)[0]
        if prev is not None:
            assert norm < prev
        prev = norm


def test_chain_sobolev_undersampled_raises():
    chain = ConjugationChain((TorusMorphism((64,)),), 1)
    with pytest.raises(UndersampledGridError):
        chain_sobolev_partial(chain, -2.0, 64)


def test_chain_serialization_roundtrip():
    rng = np.random.default_rng(10)
    y = random_map(1, 2, 0.05, rng)
    p = GroupElement(quat_normalize(rng.standard_normal(4)))
    chain = ConjugationChain((ConstantFactor(p), ExpFactor(y), TorusMorphism((3,))), 1)
    back = ConjugationChain.from_dict(chain.to_dict())
    for x in (0.0, 0.31, 0.77):
        assert np.max(np.abs(back.evaluate_at(np.array([x])) -
                             chain.evaluate_at(np.array([x])))) < 1e-15
    # a torus factor is its winding; the identity frame older reports wrote loads
    assert chain.to_dict()["factors"][2] == {"type": "torus", "winding": [3]}
    old = {"type": "torus", "winding": [3], "frame": [1.0, 0.0, 0.0, 0.0]}
    assert fourier.factor_from_dict(old) == TorusMorphism((3,))


def test_random_map_scaling_and_reality():
    rng = np.random.default_rng(11)
    f = random_map(1, 5, 2.5e-3, rng)
    assert sobolev_norm(f, 0.0) == pytest.approx(2.5e-3)
    sym = f.symmetrized()
    assert np.max(np.abs(sym.coeffs - f.coeffs)) < 1e-15
    assert np.all(f.coeffs[f.band] == 0)


def test_grid_size_and_its_budget_in_total_points(monkeypatch):
    assert [grid_size(band, 1) for band in (0, 1, 7)] == [4, 8, 32]
    assert grid_size(7, 2) == 32 and grid_size(7, 3) == 32
    # the budget counts m^d points, so it binds on the dimension too
    monkeypatch.setattr(fourier, "GRID_POINTS", 32 ** 2)
    assert grid_size(7, 2) == 32
    with pytest.raises(GridBudgetError):
        grid_size(7, 3)
    monkeypatch.setattr(fourier, "GRID_POINTS", 32 ** 2 - 1)
    with pytest.raises(GridBudgetError):
        grid_size(7, 2)
