import math

import numpy as np
import pytest

from su2kam.arithmetic import Frequency
from su2kam.cocycle import (
    Cocycle,
    NormalizationError,
    c0_distance,
    conjugate,
    conjugate_raw,
    fiber_mean,
    iterate,
    log_map,
    normalize,
)
from su2kam.fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    TorusMorphism,
    random_map,
    synthesize,
)
from su2kam.su2 import (
    GroupElement,
    alg_exp_quat,
    group_distance,
    quat_conj,
    quat_mul,
    quat_normalize,
    torus_quat,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ALPHA = Frequency((GOLDEN,))


def constant_cocycle(theta=0.17, band=0):
    return Cocycle(ALPHA, GroupElement(torus_quat(theta)), AlgebraMap.zeros(1, band))


def perturbed_cocycle(seed=0, amplitude=1e-3, band=4, theta=0.17):
    rng = np.random.default_rng(seed)
    return Cocycle(ALPHA, GroupElement(torus_quat(theta)),
                   random_map(1, band, amplitude, rng))


def test_normalize_constant_fiber():
    a0 = GroupElement(torus_quat(0.31))
    samples = np.broadcast_to(a0.q, (32, 4)).copy()
    phi = normalize(samples, ALPHA, 4)
    assert group_distance(phi.constant, a0) < 1e-12
    assert np.max(np.abs(phi.perturbation.coeffs)) < 1e-14


def test_normalize_construct_and_recover():
    rng = np.random.default_rng(1)
    a0 = GroupElement(torus_quat(0.31))
    f = random_map(1, 3, 1e-3, rng)
    m = 32
    samples = quat_mul(a0.q, alg_exp_quat(synthesize(f, m)))
    phi = normalize(samples, ALPHA, 3)
    fiber = phi.fiber_grid(m)
    assert np.max(np.abs(fiber - samples)) < 1e-10


def test_normalize_far_from_constant_fails():
    b = TorusMorphism((1,))
    samples = b.grid(64)
    with pytest.raises(NormalizationError):
        normalize(samples, ALPHA, 8)


def test_fiber_mean_rejects_a_nan_sample():
    samples = perturbed_cocycle(seed=2).fiber_grid(32)
    assert np.isfinite(fiber_mean(samples)).all()
    samples = np.array(samples)
    samples[5, 2] = np.nan
    with pytest.raises(NormalizationError):
        fiber_mean(samples)


def test_log_map_rejects_a_nan_sample():
    logs = synthesize(random_map(1, 4, 1e-3, np.random.default_rng(0)), 20)
    assert np.isfinite(log_map(logs, 4).coeffs).all()
    logs[7, 1] = np.nan
    with pytest.raises(NormalizationError, match="does not resolve"):
        log_map(logs, 4)


def test_conjugate_empty_and_constant():
    phi = perturbed_cocycle()
    same = conjugate(ConjugationChain((), 1), phi)
    assert c0_distance(phi, same) < 1e-12
    rng = np.random.default_rng(2)
    p = GroupElement(quat_normalize(rng.standard_normal(4)))
    moved = conjugate(ConjugationChain((ConstantFactor(p),), 1), constant_cocycle(0.3))
    expected = p * GroupElement(torus_quat(0.3)) * p.inverse()
    assert group_distance(moved.constant, expected) < 1e-12


def test_conjugate_roundtrip_inverse_chain():
    rng = np.random.default_rng(3)
    phi = perturbed_cocycle(seed=4)
    y = random_map(1, 2, 1e-2, rng)
    chain = ConjugationChain((ExpFactor(y), TorusMorphism((1,))), 1)
    there = conjugate(chain, phi)
    back = conjugate(chain.inverse(), there)
    assert c0_distance(back, phi) < 1e-10


def test_conjugate_functoriality():
    rng = np.random.default_rng(5)
    phi = perturbed_cocycle(seed=6, amplitude=1e-4)
    h1 = ConjugationChain((ExpFactor(random_map(1, 2, 5e-3, rng)),), 1)
    h2 = ConjugationChain((ExpFactor(random_map(1, 2, 5e-3, rng)),), 1)
    stepwise = conjugate(h2, conjugate(h1, phi))
    composed = conjugate(ConjugationChain(h2.factors + h1.factors, 1), phi)
    assert c0_distance(stepwise, composed) < 1e-10


def test_conjugate_preserves_frequency_exactly():
    phi = perturbed_cocycle(seed=7)
    out = conjugate(ConjugationChain((TorusMorphism((2,)),), 1), phi)
    assert out.alpha is phi.alpha or out.alpha == phi.alpha


def test_conjugate_raw_matches_normalized():
    phi = perturbed_cocycle(seed=8, amplitude=1e-4)
    chain = ConjugationChain((TorusMorphism((1,)),), 1)
    m = 64
    raw = conjugate_raw(chain, phi, m)
    cooked = conjugate(chain, phi)
    assert np.max(np.abs(cooked.fiber_grid(m) - raw)) < 1e-10


def test_iterate_examples():
    phi = constant_cocycle(0.2)
    assert group_distance(iterate(phi, 0, np.array([0.3])), GroupElement.identity()) == 0.0
    five = iterate(phi, 5, np.array([0.3]))
    assert group_distance(five, GroupElement(torus_quat(1.0))) < 1e-12
    with pytest.raises(ValueError):
        iterate(phi, -1, np.array([0.0]))


def test_iterate_cocycle_property():
    phi = perturbed_cocycle(seed=9)
    rng = np.random.default_rng(10)
    for _ in range(5):
        m, n = rng.integers(0, 6, size=2)
        x = rng.uniform(0, 1, size=1)
        lhs = iterate(phi, int(m + n), x)
        rhs = iterate(phi, int(m), x + n * ALPHA.vector) * iterate(phi, int(n), x)
        assert group_distance(lhs, rhs) < 1e-10


def test_iterate_conjugation_identity():
    # the n-step iterate of Conj_H(phi) is H(x+n a) phi^n(x) H(x)^-1;
    # traces agree pointwise when the conjugation is constant
    rng = np.random.default_rng(11)
    phi = perturbed_cocycle(seed=12, amplitude=1e-3)
    chain = ConjugationChain((ExpFactor(random_map(1, 2, 1e-2, rng)), TorusMorphism((1,))), 1)
    phi2 = conjugate(chain, phi)
    n = 7
    for x0 in (0.1, 0.52):
        x = np.array([x0])
        h_end = chain.evaluate_at(x + n * ALPHA.vector)
        h_start = chain.evaluate_at(x)
        expected = quat_mul(h_end, quat_mul(iterate(phi, n, x).q, quat_conj(h_start)))
        got = iterate(phi2, n, x).q
        assert np.max(np.abs(got - expected)) < 1e-9

    p = GroupElement(quat_normalize(rng.standard_normal(4)))
    phi3 = conjugate(ConjugationChain((ConstantFactor(p),), 1), phi)
    for x0 in (0.1, 0.52):
        x = np.array([x0])
        w1 = iterate(phi, n, x).q[0]
        w3 = iterate(phi3, n, x).q[0]
        assert abs(w3 - w1) < 1e-9


def test_cocycle_serialization_roundtrip():
    phi = perturbed_cocycle(seed=14)
    back = Cocycle.from_dict(phi.to_dict())
    assert back.alpha == phi.alpha
    assert np.array_equal(back.constant.q, phi.constant.q)
    assert np.array_equal(back.perturbation.coeffs, phi.perturbation.coeffs)


def test_two_dimensional_cocycle():
    alpha2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    rng = np.random.default_rng(15)
    phi = Cocycle(alpha2, GroupElement(torus_quat(0.2)), random_map(2, 2, 1e-3, rng))
    chain = ConjugationChain((TorusMorphism((1, -1)),), 2)
    out = conjugate(chain, phi)
    assert out.alpha == alpha2
    back = conjugate(chain.inverse(), out)
    assert c0_distance(back, phi) < 1e-10
