import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2kam.su2 import (
    CutLocusError,
    GroupElement,
    alg_exp_quat,
    alg_log_quat,
    diagonalize,
    group_distance,
    quat_mul,
    quat_normalize,
    quat_rotation_matrix,
    torus_quat,
    weyl_element,
)

MINUS_IDENTITY = GroupElement(np.array([-1.0, 0.0, 0.0, 0.0]))


def random_group(rng):
    return GroupElement(quat_normalize(rng.standard_normal(4)))


def random_vector(rng, scale=1.0):
    return scale * rng.standard_normal(3)


def test_exp_zero_and_e():
    assert np.allclose(alg_exp_quat(np.zeros(3)), [1, 0, 0, 0])
    minus = GroupElement(alg_exp_quat(np.array([1.0, 0.0, 0.0])))
    assert group_distance(minus, MINUS_IDENTITY) < 1e-15


def test_exp_log_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = random_vector(rng)
        n = np.linalg.norm(v)
        if n >= 0.9:
            v = (0.85 / n) * v
        w = alg_log_quat(alg_exp_quat(v))
        assert np.max(np.abs(w - v)) < 1e-12


def test_log_examples():
    assert np.linalg.norm(alg_log_quat(GroupElement.identity().q)) == 0.0
    v = alg_log_quat(alg_exp_quat(np.array([0.3, 0.0, 0.0])))
    assert np.allclose(v, [0.3, 0, 0], atol=1e-14)
    with pytest.raises(CutLocusError):
        alg_log_quat(MINUS_IDENTITY.q)


# directions bounded away from zero, so normalising them is well conditioned
directions = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array) \
    .filter(lambda u: np.linalg.norm(u) > 0.1).map(lambda u: u / np.linalg.norm(u))


@settings(max_examples=300)
@given(u=directions, radius=st.floats(0.0, 1.0 - 1e-6))
def test_exp_log_roundtrip_up_to_the_cut_locus(u, radius):
    v = radius * u
    assert np.max(np.abs(alg_log_quat(alg_exp_quat(v)) - v)) < 1e-12


@settings(max_examples=300)
@given(u=directions, depth=st.floats(0.0, 0.5), margin=st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_log_raises_within_the_cut_margin(u, depth, margin):
    # exp((1 - depth * margin) u) lies at distance depth * margin from -Id
    q = alg_exp_quat((1.0 - depth * margin) * u)
    with pytest.raises(CutLocusError):
        alg_log_quat(q, cut_margin=margin)


def test_exp_homomorphism_on_torus():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s, t = rng.uniform(-3, 3, size=2)
        lhs = GroupElement(torus_quat(s + t))
        rhs = GroupElement(torus_quat(s)) * GroupElement(torus_quat(t))
        assert group_distance(lhs, rhs) < 1e-12


def test_center_lattice():
    for n in range(-4, 5):
        q = torus_quat(float(n))
        assert abs(abs(q[0]) - 1.0) < 1e-12  # exp(n e) is central
        even = torus_quat(2.0 * n)
        assert group_distance(GroupElement(even), GroupElement.identity()) < 1e-12


def test_adjoint_identity_and_quarter_turn():
    rng = np.random.default_rng(2)
    v = random_vector(rng)
    assert np.allclose(quat_rotation_matrix(GroupElement.identity().q) @ v, v)
    quarter = alg_exp_quat(np.array([0.25, 0.0, 0.0]))
    out = quat_rotation_matrix(quarter) @ np.array([0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-12)


def test_adjoint_homomorphism_and_orthogonality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_group(rng), random_group(rng)
        v = random_vector(rng)
        lhs = quat_rotation_matrix((a * b).q) @ v
        rhs = quat_rotation_matrix(a.q) @ (quat_rotation_matrix(b.q) @ v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert abs(np.linalg.norm(quat_rotation_matrix(a.q) @ v) - np.linalg.norm(v)) < 1e-12


def test_group_distance_properties():
    rng = np.random.default_rng(4)
    assert group_distance(GroupElement.identity(), MINUS_IDENTITY) == 1.0
    for _ in range(50):
        a, b, p = random_group(rng), random_group(rng), random_group(rng)
        assert group_distance(a, a) < 1e-12
        lhs = group_distance(p * a * p.inverse(), p * b * p.inverse())
        assert abs(lhs - group_distance(a, b)) < 1e-12


def test_diagonalize_examples():
    p, theta = diagonalize(GroupElement.identity())
    assert theta == 0.0 and np.allclose(p.q, [1, 0, 0, 0])
    p, theta = diagonalize(GroupElement(torus_quat(0.2)))
    assert theta == pytest.approx(0.2, abs=1e-14)
    assert group_distance(p * GroupElement(torus_quat(0.2)) * p.inverse(),
                          GroupElement(torus_quat(theta))) < 1e-12


def test_diagonalize_construct_and_recover():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p0 = random_group(rng)
        a = p0 * GroupElement(torus_quat(0.2)) * p0.inverse()
        p, theta = diagonalize(a)
        assert theta == pytest.approx(0.2, abs=1e-12)
        assert group_distance(p * a * p.inverse(), GroupElement(torus_quat(theta))) < 1e-12


def test_diagonalize_range_and_centers():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = random_group(rng)
        p, theta = diagonalize(a)
        assert 0.0 <= theta <= 1.0
        assert group_distance(p * a * p.inverse(), GroupElement(torus_quat(theta))) < 1e-12
    p, theta = diagonalize(MINUS_IDENTITY)
    assert theta == 1.0 and np.allclose(p.q, [1, 0, 0, 0])


def branch_rule_reference(a, near):
    """The rule diagonalize(a, near) replaced, written out: diagonalize(a),
    then the nearest of +-theta + 2Z to near, + on ties.  Returns it and
    both candidates."""
    _p, t = diagonalize(a)
    candidates = [sign * t + 2.0 * np.rint((near - sign * t) / 2.0) for sign in (1.0, -1.0)]
    return min(candidates, key=lambda c: abs(c - near)), candidates


uniform_quats = st.integers(0, 2**32 - 1).map(
    lambda seed: quat_normalize(np.random.default_rng(seed).standard_normal(4)))
# t within 1e-8 to 1e-3 of an integer on one half of the draws
torus_roots = st.one_of(
    st.floats(-3.0, 3.0),
    st.builds(lambda n, side, log_gap: n + side * 10.0 ** log_gap,
              st.integers(-3, 3), st.sampled_from([-1.0, 1.0]), st.floats(-8.0, -3.0)))
near_torus_quats = st.builds(
    lambda t, u, log_size: quat_mul(torus_quat(t), alg_exp_quat(10.0 ** log_size * u)),
    torus_roots, directions, st.floats(-12.0, -3.0))


@settings(max_examples=1000)
@given(q=st.one_of(uniform_quats, near_torus_quats), near=st.floats(-6.0, 6.0))
@example(q=np.array([0.6, 0.8, 0.0, 0.0]), near=1.5)     # axis +e onto -e: the Weyl element
@example(q=np.array([0.6, -0.8, 0.0, 0.0]), near=-0.5)   # axis -e on its own branch: Id
@example(q=np.array([1.0, 0.0, 0.0, 0.0]), near=-0.5)    # the center
@example(q=np.array([-1.0, 0.0, 0.0, 0.0]), near=3.5)
def test_diagonalize_near_picks_the_nearest_branch_without_turning_about_e(q, near):
    a = GroupElement(q)
    p, theta = diagonalize(a, near)
    reference, candidates = branch_rule_reference(a, near)
    bits = np.float64(theta).tobytes()
    plus, minus = (abs(c - near) for c in candidates)
    if abs(plus - minus) <= 1e-12:
        # near an integer both representatives are equally near to within
        # rounding, which then picks the reference's; either one is nearest
        assert bits in [np.float64(c).tobytes() for c in candidates]
    else:
        assert bits == np.float64(reference).tobytes()
    assert p.q[1] == 0.0
    assert group_distance(p * a * p.inverse(), GroupElement(torus_quat(theta))) < 2e-7


def test_weyl_reverses_torus():
    w = weyl_element()
    for t in (0.1, 0.37, 0.9):
        lhs = w * GroupElement(torus_quat(t)) * w.inverse()
        assert group_distance(lhs, GroupElement(torus_quat(-t))) < 1e-14


def test_torus_quat_is_exp_of_its_root():
    # exp(theta e) has root value theta, read back by the principal log
    for theta in (0.3, 0.0, -0.45, 0.9):
        q = torus_quat(theta)
        assert np.max(np.abs(q - alg_exp_quat(np.array([theta, 0.0, 0.0])))) < 1e-15
        assert np.max(np.abs(alg_log_quat(q) - [theta, 0.0, 0.0])) < 1e-14


def test_torus_adjoint_rotates_by_the_root():
    # Ad(exp(theta e)) rotates the (jx, jy) plane by exactly 2 pi theta
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-2, 2, size=20):
        out = quat_rotation_matrix(torus_quat(float(theta))) @ np.array([0.0, 1.0, 0.0])
        expected = np.array([0.0, np.cos(2 * np.pi * theta), np.sin(2 * np.pi * theta)])
        assert np.max(np.abs(out - expected)) < 1e-12


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        GroupElement(np.zeros(3))
    # NaN compares False with everything, so it must fail the norm check
    with pytest.raises(ValueError):
        GroupElement(np.array([np.nan, 0.0, 0.0, 0.0]))
