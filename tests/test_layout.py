"""Memory order of quaternion and algebra grids.

Grids keep their public shapes, (m,)*d + (4,) and (m,)*d + (3,), but are
allocated component-major, so each q[..., i] is contiguous.  The first test
pins that order; the property tests check that every helper gives the same
bits as its interleaved form, written out here as the reference, on
interleaved, component-major and broadcast-constant inputs.  The transform
references run np.fft.irfftn and rfftn over every column, so they also pin
the pruned transforms, at small sizes and at the scheme's grid sizes.  The
grid passes that run block by block (su2.blockwise), the line sources
that build their grids a block of lines at a time (exp of a synthesis, an
exp factor shifted), the logarithms written over the samples or kept to row
e, the quaternion mean's running sum and the transforms that take one
component at a time beyond one block are run at one block and at blocks that
split every grid, and give the same bits; a probe line source checks that
blockwise lets go of each block's pass results before it builds the next
block.  The chain prefix norms, which fold on one period and twist each
prefix by its winding parity, give the same bits at every block size, and
agree with the double-cover computation they replaced, kept here as the
reference on the double cover's direct sums, to 1e-15 relative.
"""

import math
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2kam import kam, su2
from su2kam.arithmetic import Frequency
from su2kam.cocycle import Cocycle, conjugate_raw, fiber_log, fiber_log_e, fiber_mean
from su2kam.fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    Synthesis,
    TorusMorphism,
    _half_index,
    analyze,
    chain_sobolev_partial,
    random_map,
    synthesize,
    translate,
)
from su2kam.su2 import (
    GroupElement,
    alg_exp_quat,
    alg_log_quat,
    blockwise,
    components_first,
    components_last,
    quat_angle,
    quat_conj,
    quat_mean,
    quat_mul,
    quat_normalize,
    torus_quat,
)

FREQUENCY = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)

# block sizes of su2.blockwise: one block for every grid here, and ragged
# runs of points that split every grid across its rows
ONE_BLOCK = 1 << 30
SPLIT = 37


def _at_blocks(points, fn, *args):
    """fn(*args) with blocks of at most `points` points."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(su2, "BLOCK_POINTS", points)
        return fn(*args)


def _component_major(grid):
    return components_last(np.ascontiguousarray(components_first(grid)))


def _layouts(grid):
    """The same grid interleaved (C order) and component-major."""
    return [np.ascontiguousarray(grid), _component_major(grid)]


def _assert_component_major(grid, shape):
    assert grid.shape == shape
    for i in range(shape[-1]):
        assert grid[..., i].flags.c_contiguous, "component %d is strided" % i


# ---------------------------------------------------------------------------
# the interleaved forms the helpers replaced, as references


def old_quat_mul(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3]
    x = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0] + a[..., 2] * b[..., 3] - a[..., 3] * b[..., 2]
    y = a[..., 0] * b[..., 2] - a[..., 1] * b[..., 3] + a[..., 2] * b[..., 0] + a[..., 3] * b[..., 1]
    z = a[..., 0] * b[..., 3] + a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1] + a[..., 3] * b[..., 0]
    return np.stack([w, x, y, z], axis=-1)


def old_quat_conj(q):
    out = np.asarray(q, dtype=float).copy()
    out[..., 1:] *= -1.0
    return out


def old_alg_exp_quat(v):
    n = np.linalg.norm(v, axis=-1)
    vec = v * (np.pi * np.sinc(n))[..., None]
    return np.concatenate([np.cos(np.pi * n)[..., None], vec], axis=-1)


def old_alg_log_quat(q):
    vec = q[..., 1:]
    s = np.linalg.norm(vec, axis=-1)
    phi = np.arctan2(s, q[..., 0])
    factor = np.where(s > 1e-300, phi / (np.pi * np.maximum(s, 1e-300)), 1.0 / np.pi)
    return vec * factor[..., None]


def old_quat_angle(q):
    return np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), q[..., 0]) / np.pi


def old_synthesize(amap, m):
    d, band = amap.dimension, amap.band
    buf = np.zeros((m,) * (d - 1) + (m // 2 + 1, 3), dtype=complex)
    buf[_half_index(band, m, d)] = amap.coeffs[..., band:, :]
    return np.fft.irfftn(buf, s=(m,) * d, axes=tuple(range(d))) * float(m) ** d


def old_analyze(samples, band):
    d = samples.ndim - 1
    m = samples.shape[0]
    hat = np.fft.rfftn(samples, axes=tuple(range(d))) / float(m) ** d
    half = hat[_half_index(band, m, d)]
    flipped = np.conj(np.flip(half[..., 1:, :], axis=tuple(range(d))))
    return AlgebraMap(d, band, np.concatenate([flipped, half], axis=d - 1)).symmetrized()


def old_prefix_grids(chain, m):
    """The fold with each factor's grid whole, and each product a new grid."""
    acc = None
    for f in reversed(chain.factors):
        g = f.grid(m)
        acc = g if acc is None else quat_mul(g, acc)
        yield np.broadcast_to(acc, (m,) * chain.dimension + (4,))


def old_torus_quat(theta):
    t = np.asarray(theta, dtype=float)
    zeros = np.zeros_like(t)
    return np.stack([np.cos(np.pi * t), np.sin(np.pi * t), zeros, zeros], axis=-1)


def old_quat_mean(samples):
    return np.mean(samples.reshape(-1, 4), axis=0)


def old_fiber_mean(samples):
    return quat_normalize(old_quat_mean(samples))


def old_chain_sobolev_partial(chain, s, m):
    """The prefix norms on the m^d double cover, its direct sums, by a
    real FFT."""
    d = chain.dimension
    freqs = [np.fft.fftfreq(m, d=1.0 / m) / 2.0] * (d - 1) + [np.fft.rfftfreq(m, d=1.0 / m) / 2.0]
    k2 = sum(g ** 2 for g in np.ix_(*freqs))
    twice = np.full(m // 2 + 1, 2.0)
    twice[[0, -1]] = 1.0
    weight = (1.0 + k2) ** s * twice
    norms = []
    for prefix in chain.application_prefixes():
        samples = np.ascontiguousarray(prefix.grid(m, span=2.0))  # the interleaved grid
        hat = np.fft.rfftn(samples, axes=tuple(range(d))) / float(m) ** d
        norms.append(float(np.sqrt(np.sum(weight[..., None] * np.abs(hat) ** 2))))
    return norms


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grids_are_component_major(d):
    m = 12
    rng = np.random.default_rng(d)
    shape = (m,) * d
    y = random_map(d, 2, 1e-2, rng)
    interleaved = np.ascontiguousarray(alg_exp_quat(synthesize(y, m)))
    const = quat_normalize(rng.standard_normal(4))
    _assert_component_major(synthesize(y, m), shape + (3,))
    _assert_component_major(alg_exp_quat(np.ascontiguousarray(synthesize(y, m))), shape + (4,))
    _assert_component_major(quat_mul(interleaved, interleaved), shape + (4,))
    _assert_component_major(quat_mul(const, interleaved), shape + (4,))
    _assert_component_major(quat_mul(interleaved, const), shape + (4,))
    _assert_component_major(torus_quat(rng.uniform(-3.0, 3.0, shape)), shape + (4,))
    winding = tuple(range(1, d + 1))
    offset = np.full(d, 0.3)
    _assert_component_major(TorusMorphism(winding).grid(m), shape + (4,))
    _assert_component_major(ExpFactor(y).grid(m), shape + (4,))
    _assert_component_major(ExpFactor(y).grid(m, offset), shape + (4,))
    phi = Cocycle(Frequency(FREQUENCY[:d]), GroupElement(const), random_map(d, 2, 1e-3, rng))
    _assert_component_major(phi.fiber_grid(m), shape + (4,))
    chain = ConjugationChain((ExpFactor(y), TorusMorphism(winding)), d)
    _assert_component_major(conjugate_raw(chain, phi, m), shape + (4,))
    _assert_component_major(_at_blocks(SPLIT, phi.fiber_grid, m), shape + (4,))
    _assert_component_major(_at_blocks(SPLIT, conjugate_raw, chain, phi, m), shape + (4,))
    # the coefficient tables keep their C order, which sobolev_norm's sum reads
    assert analyze(synthesize(y, m), 2).coeffs.flags.c_contiguous


GRIDS = st.tuples(st.integers(1, 3), st.integers(2, 9), st.integers(0, 2 ** 32 - 1))


def _quaternions(rng, shape, spread):
    """Unit quaternions near a random one, so no mean collapses and no
    logarithm meets the cut locus."""
    centre = quat_normalize(rng.standard_normal(4))
    return quat_normalize(centre + spread * rng.standard_normal(shape + (4,)))


@settings(max_examples=40)
@given(grid=GRIDS)
def test_group_helpers_keep_their_bits(grid):
    d, m, seed = grid
    rng = np.random.default_rng(seed)
    shape = (m,) * d
    a = _quaternions(rng, shape, 0.5)
    b = _quaternions(rng, shape, 0.5)
    v = rng.standard_normal(shape + (3,))
    v.reshape(-1, 3)[1::3] = 0.0  # exact zeros pin the sinc guard at n = 0
    const = quat_normalize(rng.standard_normal(4))
    tiled = np.broadcast_to(const, shape + (4,))
    near = quat_mul(a[(0,) * d], quat_conj(a))  # close to the identity: no cut locus
    for la, lb, lv, ln in zip(_layouts(a), _layouts(b), _layouts(v), _layouts(near)):
        for x, y in ((la, lb), (const, lb), (la, const), (tiled, lb), (la, tiled), (const, const)):
            assert np.array_equal(quat_mul(x, y), old_quat_mul(x, y))
        for q in (la, const, tiled):
            assert np.array_equal(quat_conj(q), old_quat_conj(q))
            assert np.array_equal(quat_angle(q), old_quat_angle(q))
        for w in (lv, v[(0,) * d], np.broadcast_to(v[(0,) * d], shape + (3,)), np.zeros(3),
                  np.zeros(shape + (3,))):
            assert np.array_equal(alg_exp_quat(w), old_alg_exp_quat(w))
        for q in (ln, near[(0,) * d], np.broadcast_to(near[(1,) * d], shape + (4,))):
            assert np.array_equal(alg_log_quat(q), old_alg_log_quat(q))
        for points in (ONE_BLOCK, SPLIT):
            assert np.array_equal(_at_blocks(points, quat_mean, la),
                                  old_quat_mean(np.ascontiguousarray(la)))
            assert np.array_equal(_at_blocks(points, fiber_mean, la),
                                  old_fiber_mean(np.ascontiguousarray(la)))
    assert np.array_equal(fiber_mean(tiled), old_fiber_mean(np.ascontiguousarray(tiled)))
    t = rng.uniform(-3.0, 3.0, shape)
    for theta in (t, t[(0,) * d], float(t[(0,) * d]), np.broadcast_to(t[(0,) * d], shape)):
        assert np.array_equal(torus_quat(theta), old_torus_quat(theta))
    assert torus_quat(float(t[(0,) * d])).shape == (4,)


# sizes the scheme's grids take (4 * band + 4, and the double covers of the
# prefix norms), odd sizes, and 3D at small sizes
SCHEME_GRIDS = ([(d, m) for d in (1, 2) for m in (72, 88, 116, 136, 172, 180, 75, 101)]
                + [(3, m) for m in (7, 12, 16)])


def _check_transforms(d, m, band, rng):
    """synthesize and analyze against np.fft.irfftn and rfftn on the full
    spectrum, bit for bit."""
    f = random_map(d, band, 1.0, rng, mean_free=False)
    assert np.array_equal(synthesize(f, m), old_synthesize(f, m))
    samples = rng.standard_normal((m,) * d + (3,))
    reference = old_analyze(samples, band).coeffs
    for layout in _layouts(samples):
        assert np.array_equal(analyze(layout, band).coeffs, reference)
    constant = np.broadcast_to(samples[(0,) * d], samples.shape)
    assert np.array_equal(analyze(constant, band).coeffs,
                          old_analyze(np.ascontiguousarray(constant), band).coeffs)


@settings(max_examples=40)
@given(grid=GRIDS)
def test_transforms_keep_their_bits(grid):
    d, m, seed = grid
    rng = np.random.default_rng(seed)
    _check_transforms(d, m, int(rng.integers(0, (m - 2) // 2 + 1)), rng)


@pytest.mark.parametrize("d, m", SCHEME_GRIDS)
def test_transforms_keep_their_bits_at_scheme_sizes(d, m):
    rng = np.random.default_rng(m)
    # the scheme's band for this size, and the largest band it resolves
    for band in sorted({max(0, (m - 4) // 4), (m - 2) // 2}):
        _check_transforms(d, m, band, rng)


@pytest.mark.parametrize("d, m", SCHEME_GRIDS)
def test_grid_passes_keep_their_bits_across_blocks(d, m):
    # the scheme's conjugation by an exp factor, which exponentiates Y block
    # by block, against the same factor in a chain of one, which folds exp(Y)
    # whole; a recipe's conjugation by a longer chain; and the initial
    # state's renormalisation, whose frame turn, theta shift and logarithms
    # all run block by block
    rng = np.random.default_rng(m)
    band = max(0, (m - 4) // 4)  # the scheme's band for this size
    phi = Cocycle(Frequency(FREQUENCY[:d]), GroupElement(quat_normalize(rng.standard_normal(4))),
                  random_map(d, band, 1e-3, rng))
    factor = ExpFactor(random_map(d, 2, 1e-3, rng))
    for conjugators in ((factor, ConjugationChain((factor,), d)), (_prefix_chain(d, rng),)):
        whole = _at_blocks(ONE_BLOCK, conjugate_raw, conjugators[-1], phi, m)
        for conjugator, points in product(conjugators, (ONE_BLOCK, SPLIT)):
            assert np.array_equal(_at_blocks(points, conjugate_raw, conjugator, phi, m), whole)
    whole, split = (_at_blocks(points, kam.initial_state, phi, kam.SchemeParams())
                    for points in (ONE_BLOCK, SPLIT))
    assert len(whole.chain) == 1  # the frame is not the identity
    assert (split.theta, split.initial_tail_l1) == (whole.theta, whole.initial_tail_l1)
    assert np.array_equal(split.perturbation.coeffs, whole.perturbation.coeffs)
    assert split.chain.to_dict() == whole.chain.to_dict()


def _prefix_chain(d, rng, winding=None):
    if winding is None:
        winding = tuple(int(c) for c in rng.integers(-1, 2, d))
    factors = (ExpFactor(random_map(d, 1, 0.1, rng)), TorusMorphism(winding),
               ConstantFactor(GroupElement(quat_normalize(rng.standard_normal(4)))))
    return ConjugationChain(factors, d)


def _check_prefix_norms(chain, m):
    """The same bits at one block and split, within 1e-15 relative of the
    double cover."""
    reference = _at_blocks(ONE_BLOCK, old_chain_sobolev_partial, chain, -2.5, m)
    norms = _at_blocks(ONE_BLOCK, chain_sobolev_partial, chain, -2.5, m)
    assert _at_blocks(SPLIT, chain_sobolev_partial, chain, -2.5, m) == norms
    assert len(norms) == len(reference) == len(chain)
    for norm, ref in zip(norms, reference):
        assert abs(norm - ref) <= 1e-15 * ref


@settings(max_examples=20)
@given(grid=GRIDS)
def test_chain_prefix_norms_keep_their_bits(grid):
    d, m, seed = grid
    rng = np.random.default_rng(seed)
    chain = _prefix_chain(d, rng)
    # the oldest factor is a constant, so the first prefix is a broadcast (4,)
    _check_prefix_norms(chain, 2 * m + 2 * chain.content_bound() + 2)  # even, resolved


@pytest.mark.parametrize("d, m", [(d, m) for d, m in SCHEME_GRIDS if m % 2 == 0])
def test_chain_prefix_norms_keep_their_bits_at_scheme_sizes(d, m):
    _check_prefix_norms(_prefix_chain(d, np.random.default_rng(m)), m)


@pytest.mark.parametrize("winding", [(2, -1), (-1, 0), (-1, 2, 0), (0, -3, 2), (-2, 0, -1)])
def test_chain_prefix_norms_on_every_coset(winding):
    # a winding odd on one axis only, each axis in turn, with a negative
    # component; then the torus (1, ..., 1) flips the parity pattern and the
    # winding again makes it odd on every axis, so that, over the windings of
    # each dimension, the twist meets the reference on every pattern
    d = len(winding)
    chain = _prefix_chain(d, np.random.default_rng(d), winding)
    chain = chain.prepended(TorusMorphism((1,) * d)).prepended(TorusMorphism(winding))
    _check_prefix_norms(chain, 2 * chain.content_bound() + 4)


def _same(q):
    return q


def _line_blocks(source, points):
    """The blocks of a line source at blocks of at most `points` points,
    and the grid blockwise assembles from them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(su2, "BLOCK_POINTS", points)
        blocks = [(block, source.block(block)) for block in su2.point_blocks(source.shape[:-1])]
        return blocks, blockwise(source, _same)


@pytest.mark.parametrize("d, m", [(1, 12), (1, 75), (2, 12), (2, 88), (2, 101), (3, 7), (3, 16)])
def test_line_sources_keep_their_bits(d, m):
    # a synthesis against exp of synthesize, and an exp factor's shifted
    # grid against exp of its translated map's synthesis; every block, and
    # the grid built from them, at one block and split
    rng = np.random.default_rng(m)
    f = random_map(d, (m - 2) // 2, 1.0, rng, mean_free=False)
    y = ExpFactor(random_map(d, 1, 0.1, rng))
    offset = np.array(FREQUENCY[:d])
    for source, reference in (
            (Synthesis(f, m), alg_exp_quat(synthesize(f, m))),
            (y.source(m, offset), alg_exp_quat(synthesize(translate(y.map, offset), m)))):
        rows = components_first(reference).reshape(reference.shape[-1], -1)
        for points in (ONE_BLOCK, SPLIT):
            blocks, grid = _line_blocks(source, points)
            assert blocks[-1][0].stop == rows.shape[1]
            for block, values in blocks:
                assert np.array_equal(values, rows[:, block])
            assert np.array_equal(grid, reference)
            _assert_component_major(grid, reference.shape)
    assert np.array_equal(synthesize(f, m), old_synthesize(f, m))


@pytest.mark.parametrize("d, m", [(1, 12), (2, 12), (2, 24), (3, 8)])
def test_prefix_fold_over_line_blocks_keeps_its_bits(d, m):
    # each exp factor's synthesis goes block by block into the prefix, or
    # into a new grid after a constant prefix
    rng = np.random.default_rng(m)
    chain = _prefix_chain(d, rng)
    chain = ConjugationChain(chain.factors[:1] + chain.factors, d)
    reference = [p.copy() for p in old_prefix_grids(chain, m)]
    for points in (ONE_BLOCK, SPLIT):
        folded = _at_blocks(points, lambda: [p.copy() for p in chain.prefix_grids(m)])
        assert len(folded) == len(reference) == len(chain)
        assert all(np.array_equal(a, b) for a, b in zip(folded, reference))


@pytest.mark.parametrize("d, m", [(1, 72), (2, 12), (2, 88), (3, 7)])
def test_logarithms_over_the_samples_keep_their_bits(d, m):
    # the logarithm written over components 1..3 of the samples, and row e
    # kept alone, against fiber_log
    rng = np.random.default_rng(m)
    samples = _component_major(_quaternions(rng, (m,) * d, 0.1))
    reference = fiber_mean(samples)
    logs = fiber_log(samples, reference)
    for points in (ONE_BLOCK, SPLIT):
        row_e = _at_blocks(points, fiber_log_e, samples, reference)
        assert np.array_equal(row_e, logs[..., 0])
        assert np.mean(row_e) == np.mean(logs[..., 0])
        written = samples.copy(order="K")
        over = _at_blocks(points, fiber_log, written, reference, written[..., 1:])
        assert np.array_equal(over, logs)
        # a split grid is written over the samples, a grid of one block is new
        assert np.shares_memory(over, written) == (points == SPLIT and m ** d > SPLIT)


@pytest.mark.parametrize("into", [False, True])
def test_blockwise_lets_go_of_each_block_before_the_next(into):
    # a probe line source checks, as it builds each block, that no pass
    # result of an earlier block is alive
    alive = []

    class Probe:
        shape = (12, 12, 4)

        def block(self, points):
            assert all(ref() is None for ref in alive), "a block outlived its pass"
            return np.ones((4, points.stop - points.start))

    def first(q):
        out = quat_conj(q)
        alive.append(weakref.ref(out))
        return out

    def last(q, *samples):
        out = quat_mul(q, *samples) if samples else quat_conj(q)
        alive.append(weakref.ref(out))
        return out

    samples = _component_major(np.full((12, 12, 4), 0.5)) if into else None
    grid = _at_blocks(SPLIT, lambda: blockwise(Probe(), first, last, into=samples))
    assert len(alive) == 2 * 4  # two passes over each of four blocks
    expected = quat_mul(quat_conj(np.ones(4)), np.full(4, 0.5)) if into else np.ones(4)
    assert np.array_equal(grid, np.broadcast_to(expected, (12, 12, 4)))


def test_point_blocks_share_the_lines_equally():
    assert su2.BLOCK_POINTS == 8192
    assert su2.point_blocks((88, 88)) == [slice(0, 88 * 88)]
    assert su2.point_blocks((108, 108)) == [slice(0, 54 * 108), slice(54 * 108, 108 * 108)]
    assert [b.stop - b.start for b in su2.point_blocks((140, 140))] == [46 * 140, 47 * 140, 47 * 140]
    assert su2.point_blocks((20000,)) == [slice(0, 20000)]  # one line is one block
    assert su2.point_blocks(()) == [slice(0, 1)]  # one point
    blocks = su2.point_blocks((30, 30, 30))
    assert len(blocks) == 4 and all((b.stop - b.start) % 30 == 0 for b in blocks)
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]] and blocks[-1].stop == 30 ** 3
