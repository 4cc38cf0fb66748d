"""Memory order of quaternion and algebra grids.

Grids keep their public shapes, (m,)*d + (4,) and (m,)*d + (3,), but are
allocated component-major, so each q[..., i] is contiguous.  The first test
pins that order; the property tests check that every helper gives the same
bits as its interleaved form, written out here as the reference, on
interleaved, component-major and broadcast-constant inputs.  The transform
references run np.fft.irfftn and rfftn over every column, so they also pin
the pruned transforms, at small sizes and at the scheme's grid sizes.  The
grid passes that run block by block (su2.blockwise) are run at one block
and at blocks that split every grid, and give the same bits.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2kam import kam, su2
from su2kam.arithmetic import Frequency
from su2kam.cocycle import Cocycle, conjugate_raw, fiber_mean
from su2kam.fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    TorusMorphism,
    _half_index,
    analyze,
    chain_sobolev_partial,
    random_map,
    synthesize,
)
from su2kam.su2 import (
    GroupElement,
    alg_exp_quat,
    alg_log_e,
    alg_log_quat,
    components_first,
    components_last,
    quat_angle,
    quat_conj,
    quat_mul,
    quat_normalize,
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


def old_fiber_mean(samples):
    return quat_normalize(np.mean(samples.reshape(-1, 4), axis=0))


def old_chain_sobolev_partial(chain, s, m):
    d = chain.dimension
    freqs = [np.fft.fftfreq(m, d=1.0 / m) / 2.0] * (d - 1) + [np.fft.rfftfreq(m, d=1.0 / m) / 2.0]
    k2 = sum(g ** 2 for g in np.ix_(*freqs))
    twice = np.full(m // 2 + 1, 2.0)
    twice[[0, -1]] = 1.0
    weight = (1.0 + k2) ** s * twice
    norms = []
    for samples in chain.prefix_grids(m, span=2.0):
        samples = np.ascontiguousarray(samples)  # the interleaved grid
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
    winding = tuple(range(1, d + 1))
    offset = np.full(d, 0.3)
    _assert_component_major(TorusMorphism(winding).grid(m), shape + (4,))
    _assert_component_major(TorusMorphism(winding).grid(m, offset, span=2.0), shape + (4,))
    _assert_component_major(ExpFactor(y).grid(m), shape + (4,))
    _assert_component_major(ExpFactor(y).grid(m, offset), shape + (4,))
    _assert_component_major(ExpFactor(y).grid(m, span=2.0), shape + (4,))
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
            assert np.array_equal(alg_log_e(q), old_alg_log_quat(q)[..., 0])
        assert np.array_equal(fiber_mean(la), old_fiber_mean(np.ascontiguousarray(la)))
    assert np.array_equal(fiber_mean(tiled), old_fiber_mean(np.ascontiguousarray(tiled)))


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
    # the scheme's conjugation by an exp factor, which lifts Y block by
    # block, against the same factor in a chain of one, which folds exp(Y)
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


def _prefix_chain(d, rng):
    winding = tuple(int(c) for c in rng.integers(-1, 2, d))
    factors = (ExpFactor(random_map(d, 1, 0.1, rng)), TorusMorphism(winding),
               ConstantFactor(GroupElement(quat_normalize(rng.standard_normal(4)))))
    return ConjugationChain(factors, d)


@settings(max_examples=20)
@given(grid=GRIDS)
def test_chain_prefix_norms_keep_their_bits(grid):
    d, m, seed = grid
    rng = np.random.default_rng(seed)
    chain = _prefix_chain(d, rng)
    m = 2 * m + 2 * chain.content_bound() + 2  # even, and resolves the content
    # the oldest factor is a constant, so the first prefix is a broadcast (4,)
    reference = _at_blocks(ONE_BLOCK, old_chain_sobolev_partial, chain, -2.5, m)
    for points in (ONE_BLOCK, SPLIT):
        assert _at_blocks(points, chain_sobolev_partial, chain, -2.5, m) == reference


@pytest.mark.parametrize("d, m", [(d, m) for d, m in SCHEME_GRIDS if m % 2 == 0])
def test_chain_prefix_norms_keep_their_bits_at_scheme_sizes(d, m):
    chain = _prefix_chain(d, np.random.default_rng(m))
    reference = _at_blocks(ONE_BLOCK, old_chain_sobolev_partial, chain, -2.5, m)
    for points in (ONE_BLOCK, SPLIT):
        assert _at_blocks(points, chain_sobolev_partial, chain, -2.5, m) == reference
