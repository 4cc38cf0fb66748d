import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from su2kam import arithmetic, cocycle, fourier, kam, su2
from su2kam.arithmetic import DiophParams, Frequency, box_axes, dist_to_Z, max_norm
from su2kam.cli import ExperimentConfig, synthesize_cocycle
from su2kam.cocycle import Cocycle, NormalizationError, conjugate, conjugate_raw, normalize
from su2kam.fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    TorusMorphism,
    chain_sobolev_partial,
    random_map,
    sobolev_norm,
    synthesize,
    translate,
)
from su2kam.kam import (
    CorruptStateError,
    DivergenceError,
    SchemeError,
    SchemeParams,
    SchemeState,
    detect_resonance,
    kam_step,
    remove_resonance,
    run_scheme,
    solve_homological,
)
from su2kam.rotation import rotation_vector
from su2kam.su2 import (
    GroupElement,
    quat_rotation_matrix,
    torus_quat,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ALPHA = Frequency((GOLDEN,))


def substitution_residual(y, theta, f_solved, alpha, m=128):
    """Grid residual of Y(x+alpha) - Ad(A).Y(x) - F_solved(x)."""
    rot = quat_rotation_matrix(torus_quat(theta))
    lhs = synthesize(translate(y, alpha), m) - synthesize(y, m) @ rot.T
    return float(np.max(np.abs(lhs - synthesize(f_solved, m))))


def test_solve_zero():
    f = AlgebraMap.zeros(1, 8)
    y, obstruction, remainder = solve_homological(0.17, f, ALPHA, 8, 4.0)
    assert np.all(y.coeffs == 0)
    assert np.all(obstruction == 0)
    assert np.all(remainder.coeffs == 0)


def test_solve_single_mode_closed_form():
    # single w-modes at +-k see the two root denominators
    theta, k = 0.17, 3
    c = 0.25 - 0.1j
    for sign, root in ((1, -theta), (-1, theta)):
        f = AlgebraMap.zeros(1, 8)
        w = np.zeros(17, dtype=complex)
        w[8 + sign * k] = c
        f = AlgebraMap.from_fields(1, 8, np.zeros(17, dtype=complex), w)
        y, obstruction, remainder = solve_homological(theta, f, ALPHA, 8, 4.0)
        den = np.exp(2j * np.pi * sign * k * GOLDEN) - np.exp(2j * np.pi * theta)
        # mode at +k sees the root -theta, mode at -k the conjugate root +theta
        assert abs(abs(den) - abs(np.exp(2j * np.pi * (k * GOLDEN + root)) - 1.0)) < 1e-14
        assert y.w_field()[8 + sign * k] == pytest.approx(c / den, rel=1e-14)
        assert np.all(remainder.coeffs == 0)
        assert substitution_residual(y, theta, f, ALPHA) < 1e-12


def test_solve_torus_component_and_obstruction():
    f = AlgebraMap.zeros(1, 4)
    f.set_mode((0,), np.array([0.3, 0.0, 0.0]))
    f.set_mode_pair((2,), np.array([0.1 + 0.05j, 0.0, 0.0]))
    y, obstruction, remainder = solve_homological(0.17, f, ALPHA, 4, 4.0)
    assert obstruction[0] == pytest.approx(0.3)
    den = np.exp(2j * np.pi * 2 * GOLDEN) - 1.0
    assert y.e_field()[4 + 2] == pytest.approx((0.1 + 0.05j) / den, rel=1e-14)
    # k = 0 torus mode is not solved; it is the obstruction, not remainder
    assert y.e_field()[4] == 0
    assert remainder.e_field()[4] == 0


def test_solve_random_residual_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_map(1, 8, 1e-3, rng, mean_free=False)
        theta = float(rng.uniform(0.05, 0.45))
        y, obstruction, remainder = solve_homological(theta, f, ALPHA, 8, 4.0)
        solved = f - remainder
        solved.coeffs[(8,) + (0,)] -= obstruction[0]
        assert substitution_residual(y, theta, solved, ALPHA) < 1e-10


def test_solve_two_dimensional():
    alpha2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    rng = np.random.default_rng(1)
    f = random_map(2, 4, 1e-3, rng, mean_free=False)
    theta = 0.21
    y, obstruction, remainder = solve_homological(theta, f, alpha2, 4, 4.0)
    rot = quat_rotation_matrix(torus_quat(theta))
    m = 20
    lhs = synthesize(translate(y, alpha2), m) - synthesize(y, m) @ rot.T
    solved = f - remainder
    solved.coeffs[(4, 4, 0)] -= obstruction[0]
    assert np.max(np.abs(lhs - synthesize(solved, m))) < 1e-10


def _full_box_solve(theta, f, alpha, n, nu):
    """Y on f's whole box by the solve's own masks: the reference the solve
    box is trimmed from."""
    d, band = f.dimension, f.band
    axes = np.meshgrid(*[np.arange(-band, band + 1)] * d, indexing="ij")
    unit = np.exp(2j * np.pi * sum(k * a for k, a in zip(axes, alpha.components)))
    e_den, w_den = unit - 1.0, unit - np.exp(2j * np.pi * theta)
    maxnorm = max_norm(box_axes(d, band))
    thr = float(n) ** -nu
    e_keep = (maxnorm <= n) & (maxnorm > 0) & (np.abs(e_den) >= thr)
    w_keep = (maxnorm <= n) & (np.abs(w_den) >= thr)
    ye = np.zeros_like(unit)
    np.divide(f.e_field(), e_den, out=ye, where=e_keep)
    yw = np.zeros_like(unit)
    np.divide(f.w_field(), w_den, out=yw, where=w_keep)
    return AlgebraMap.from_fields(d, band, ye, yw), maxnorm


@settings(max_examples=150)
@given(d=st.sampled_from([1, 2]), band=st.integers(0, 6), dn=st.integers(-5, 3),
       theta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_homological_identity_on_the_solve_box(d, band, dn, theta, seed):
    # scales n below, at and above the map's band
    alpha = ALPHA if d == 1 else Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    n = max(1, band + dn)
    f = random_map(d, band, 1.0, np.random.default_rng(seed), mean_free=False)
    y, obstruction, remainder = solve_homological(theta, f, alpha, n, 4.0)
    assert y.band == min(n, f.band)
    assert remainder.band == f.band
    # f == L(y) + obstruction + remainder, coefficientwise, with y padded
    full = y.padded(f.band)
    rot = quat_rotation_matrix(torus_quat(theta))
    rebuilt = translate(full, alpha).coeffs - full.rotated(rot).coeffs + remainder.coeffs
    rebuilt[(f.band,) * d] += obstruction
    assert np.max(np.abs(rebuilt - f.coeffs)) < 1e-12
    # the full-box solve has no mode outside the solve box, and the trim
    # keeps every other coefficient bit for bit
    reference, maxnorm = _full_box_solve(theta, f, alpha, n, 4.0)
    assert np.all(reference.coeffs[maxnorm > y.band] == 0)
    assert np.array_equal(reference.coeffs, full.coeffs)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solve_keeps_the_bits_of_its_kalpha_loop(d, monkeypatch, cold_tables):
    # the solve's k.alpha grid, a broadcast sum over the box axes, has the
    # bits of the per-axis reshape loop it replaced, written out here; the
    # grid enters the solve, built afresh, as the argument of its first exp
    alpha = Frequency(tuple(np.random.default_rng(d).uniform(0, 1, d)))
    band = 4
    f = random_map(d, band, 1e-3, np.random.default_rng(0))
    kalpha = np.zeros((2 * band + 1,) * d)
    for axis in range(d):
        ka = np.arange(-band, band + 1) * alpha.components[axis]
        shape = [1] * d
        shape[axis] = 2 * band + 1
        kalpha = kalpha + ka.reshape(shape)
    arguments = []
    exp = np.exp
    with monkeypatch.context() as patch:
        patch.setattr(np, "exp", lambda z: arguments.append(z) or exp(z))
        solve_homological(0.21, f, alpha, 3, 4.0)
    assert np.array_equal(arguments[0], 2j * np.pi * kalpha)


def test_solve_routes_small_divisors_to_remainder():
    # resonant theta: the matching w-mode cannot be solved at this scale
    theta = (3 * GOLDEN) % 1.0
    f = AlgebraMap.zeros(1, 8)
    w = np.zeros(17, dtype=complex)
    w[8 + 3] = 1e-4
    f = AlgebraMap.from_fields(1, 8, np.zeros(17, dtype=complex), w)
    y, _obstruction, remainder = solve_homological(theta, f, ALPHA, 8, 4.0)
    assert np.all(y.coeffs == 0)
    assert remainder.w_field()[8 + 3] == pytest.approx(1e-4)


def test_detect_resonance_cases():
    # planted winding inside the scale
    theta = (3 * GOLDEN + 1e-5) % 1.0
    rec = detect_resonance(theta, ALPHA, 8, 4.0)
    assert rec is not None and rec.k == (3,)
    # theta = 0 over a Diophantine frequency: no resonance at N = 32
    assert detect_resonance(0.0, ALPHA, 32, 4.0) is None
    # scan minimum at N = 32 for theta = 0 is |21 alpha|_Z ~ 0.0213
    from su2kam.arithmetic import relative_defect_minimum

    rec = relative_defect_minimum(0.0, ALPHA, 32, 4.0)
    assert abs(rec.k[0]) == 21
    assert rec.defect == pytest.approx(0.021286236252207047, abs=1e-14)


def test_remove_resonance_bookkeeping_and_grid_oracle():
    rng = np.random.default_rng(2)
    n, nu = 8, 4.0
    delta = 0.4 * float(n) ** -nu
    theta = (5 * GOLDEN + delta) % 1.0
    f = random_map(1, 4, 1e-5, rng)
    state = SchemeState(alpha=ALPHA, theta=theta, perturbation=f, scale=n,
                        chain=ConjugationChain((), 1))
    rec = detect_resonance(theta, ALPHA, n, nu)
    assert rec is not None and rec.k == (5,)
    new = remove_resonance(state, rec)
    assert new.theta == pytest.approx(theta - 5 * GOLDEN, abs=1e-14)
    assert dist_to_Z(new.theta) == pytest.approx(delta, rel=1e-9)
    assert len(new.ledger) == 1
    entry = new.ledger[0]
    assert entry.winding == (5,)
    assert entry.defect_after <= entry.threshold
    # lambda is the resonant constant: root k.alpha mod 1, next to A
    assert dist_to_Z(entry.lambda_theta - 5 * GOLDEN) < 1e-12
    assert abs(entry.lambda_theta - theta) == pytest.approx(delta, rel=1e-9)
    # grid oracle: new cocycle fiber equals the morphism conjugation pointwise
    m = 80
    old_fiber = state.cocycle().fiber_grid(m)
    chain = ConjugationChain((TorusMorphism((-5,)),), 1)
    expected = conjugate_raw(chain, state.cocycle(), m)
    got = new.cocycle().fiber_grid(m)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_remove_resonance_mode_shift():
    # single j-mode at k moves to k - k0; torus component untouched
    k0 = 3
    theta = (k0 * GOLDEN) % 1.0
    f = AlgebraMap.zeros(1, 4)
    w = np.zeros(9, dtype=complex)
    w[4 + 2] = 1e-6  # j-mode at k = 2
    e = np.zeros(9, dtype=complex)
    e[4 + 1] = 1e-6  # torus mode at k = 1
    e[4 - 1] = 1e-6
    f = AlgebraMap.from_fields(1, 4, e, w)
    state = SchemeState(alpha=ALPHA, theta=theta, perturbation=f, scale=8,
                        chain=ConjugationChain((), 1))
    rec = detect_resonance(theta, ALPHA, 8, 4.0)
    new = remove_resonance(state, rec)
    nb = new.perturbation.band
    assert nb == 4 + k0
    assert new.perturbation.w_field()[nb + 2 - k0] == pytest.approx(1e-6)
    assert new.perturbation.e_field()[nb + 1] == pytest.approx(1e-6)


# (alpha, scale, nu) per dimension: golden, the 2D test frequency, and the
# 2^(1/4) field of the 3D config of tests/test_cli.py at its n0 and nu
REMOVAL_CASES = {
    1: ((GOLDEN,), 8, 4.0),
    2: ((GOLDEN, math.sqrt(2.0) - 1.0), 4, 5.0),
    3: ((2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0), 6, 8.0),
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_removal_leaves_the_detected_defect(d):
    # |theta - k.alpha|_Z of the shifted constant is the scan's defect bit
    # for bit, so remove_resonance records the scan's defect as defect_after:
    # a removal cannot leave the winding it removed above the threshold
    components, n, nu = REMOVAL_CASES[d]
    alpha = Frequency(components)
    thr = float(n) ** -nu
    rng = np.random.default_rng(d)
    for _ in range(24):
        k = tuple(int(c) for c in rng.integers(-n, n + 1, d))
        if not any(k):
            continue
        theta = (alpha.dot(k) + rng.uniform(-0.9, 0.9) * thr) % 1.0
        rec = detect_resonance(theta, alpha, n, nu)
        assert rec is not None
        state = SchemeState(alpha=alpha, theta=theta, perturbation=AlgebraMap.zeros(d, 1),
                            scale=n, chain=ConjugationChain((), d))
        removed = remove_resonance(state, rec)
        entry = removed.ledger[-1]
        assert entry.defect_after == entry.defect_before == rec.defect
        assert float(dist_to_Z(removed.theta)) == rec.defect
        assert entry.scale == n


def test_second_resonance_after_removal_raises():
    # |(-2, 3).alpha|_Z = 0.0066 is below 2 * 4^-4: after the first removal
    # at scale 4 the constant is resonant again, which the gate reports
    chain = ConjugationChain((TorusMorphism((0, 0)),
                              ExpFactor(random_map(2, 1, 1e-3, np.random.default_rng(0)))), 2)
    phi = conjugate(chain, Cocycle(Frequency((GOLDEN, math.sqrt(2.0) - 1.0)), GroupElement(torus_quat(0.41796875)),
                                   AlgebraMap.zeros(2, 0)))
    with pytest.raises(CorruptStateError,
                       match=re.escape("constant still resonant after removal (winding (2, -3))")):
        run_scheme(phi, SchemeParams(n0=4, max_steps=2))


def test_scheme_operations_reject_a_bad_scale_or_nu():
    f = AlgebraMap.zeros(1, 2)
    with pytest.raises(ValueError, match="scale must be positive"):
        solve_homological(0.17, f, ALPHA, 0, 4.0)
    with pytest.raises(ValueError, match="nu must be positive"):
        solve_homological(0.17, f, ALPHA, 8, 0.0)
    with pytest.raises(ValueError, match="nu must be positive"):
        detect_resonance(0.17, ALPHA, 8, 0.0)


def test_kam_step_zero_perturbation():
    state = SchemeState(alpha=ALPHA, theta=0.17, perturbation=AlgebraMap.zeros(1, 4), scale=8,
                        chain=ConjugationChain((), 1))
    params = SchemeParams()
    out = kam_step(state, params)
    assert out.scale == 15
    assert abs(out.theta - 0.17) < 1e-12
    assert sobolev_norm(out.perturbation, 0.0) < 1e-13


def test_kam_step_safety_bound():
    rng = np.random.default_rng(3)
    big = random_map(1, 4, 0.5, rng)
    state = SchemeState(alpha=ALPHA, theta=0.17, perturbation=big, scale=8,
                        chain=ConjugationChain((), 1))
    with pytest.raises(SchemeError):
        kam_step(state, SchemeParams())


def test_scan_budget_stops_the_scale(monkeypatch):
    # at scale 300 a 3D step's resonance scan covers 601^3, about 217M
    # windings, past SCAN_WINDINGS: the step raises before it builds any
    # chunk of the scan or any grid
    def unreached(*args):
        raise AssertionError("the step scanned or built a grid past the budget")

    monkeypatch.setattr(kam, "conjugate_raw", unreached)
    monkeypatch.setattr(arithmetic, "box_windings", unreached)
    alpha3 = Frequency((2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0))
    f = random_map(3, 1, 1e-7, np.random.default_rng(8))
    assert sobolev_norm(f, 0.0) < 300.0 ** -kam.SAFETY_EXPONENT
    assert 601 ** 3 > arithmetic.SCAN_WINDINGS
    state = SchemeState(alpha=alpha3, theta=0.1, perturbation=f, scale=300,
                        chain=ConjugationChain((), 3))
    with pytest.raises(fourier.GridBudgetError, match="scan of 217081801 windings for scale 300 "):
        kam_step(state, SchemeParams())


def test_step_grid_follows_the_content_not_the_scale(monkeypatch):
    # a step at scale 49 on a perturbation stored on band 0 conjugates on
    # the grid of its content band, not on the 632^2 grid of the next scale
    calls = []

    def recorded(factor, phi, m):
        calls.append((factor.map, phi.perturbation.band, m))
        return conjugate_raw(factor, phi, m)

    monkeypatch.setattr(kam, "conjugate_raw", recorded)
    alpha2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    f = random_map(2, 0, 1e-9, np.random.default_rng(8), mean_free=False)
    assert f.band == 0
    state = SchemeState(alpha=alpha2, theta=0.1, perturbation=f, scale=49,
                        chain=ConjugationChain((), 2))
    out = kam_step(state, SchemeParams())
    assert out.scale == 157
    [(y, band, m)] = calls
    assert band == 0 and y.band == 0 and np.any(y.coeffs != 0)
    assert m == fourier.grid_size(max(1, band + 2 * y.band), 2) == 8


def test_run_scheme_constant_cocycle():
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), AlgebraMap.zeros(1, 2))
    nf = run_scheme(phi)
    assert nf.converged
    assert nf.steps == 0
    assert nf.resonant_count == 0
    assert nf.theta == pytest.approx(0.17, abs=1e-14)


def test_run_scheme_contraction_and_replay():
    rng = np.random.default_rng(4)
    f0 = random_map(1, 4, 1e-4, rng)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), f0)
    nf = run_scheme(phi)
    assert nf.converged and nf.steps <= 6
    assert nf.resonant_count == 0
    norms = [row.norm_f_h0 for row in nf.diagnostics]
    assert norms[-1] < 1e-12
    for a, b in zip(norms, norms[1:]):
        if b > 0:
            assert b <= a**1.4
    assert nf.replay_error() < 1e-12
    # scales strictly increase
    scales = [row.scale for row in nf.diagnostics]
    assert all(b > a for a, b in zip(scales, scales[1:]))
    # Y factors decay superpolynomially in practice: log them
    ys = [row.norm_y_h0 for row in nf.diagnostics if row.norm_y_h0 > 0]
    assert all(b < a for a, b in zip(ys, ys[1:]))


def test_replay_compares_beyond_the_first_two_orbit_points():
    # a final F doctored by eps (cos 2 pi x - 1)(cos 2 pi x - cos 2 pi alpha)
    # in e, a map of band 2 that vanishes at x = 0 and x = alpha only: the
    # replay sees it at the orbit points after those two
    rng = np.random.default_rng(4)
    nf = run_scheme(Cocycle(ALPHA, GroupElement(torus_quat(0.17)), random_map(1, 4, 1e-4, rng)))
    assert nf.converged and nf.replay_error() < 1e-12
    eps, c = 1e-6, math.cos(2 * math.pi * GOLDEN)
    off = AlgebraMap(1, 2)
    # cos^2 2 pi x = (1 + cos 4 pi x) / 2
    for k, value in ((0, 0.5 + c), (1, -(1.0 + c) / 2), (2, 0.25)):
        off.set_mode_pair((k,), [eps * value, 0.0, 0.0])
    assert np.max(np.abs(off.evaluate_at(np.array([[0.0], [GOLDEN]])))) < 1e-20
    doctored = replace(nf, perturbation=nf.perturbation + off)
    assert doctored.replay_error() > eps / 10


def test_run_scheme_planted_resonance():
    rng = np.random.default_rng(5)
    delta = 0.5 * 8.0**-4
    theta = (3 * GOLDEN + delta) % 1.0
    phi = Cocycle(ALPHA, GroupElement(torus_quat(theta)), random_map(1, 4, 1e-6, rng))
    nf = run_scheme(phi)
    assert nf.converged
    assert [r.winding for r in nf.ledger] == [(3,)]
    entry = nf.ledger[0]
    assert entry.scale == 8
    assert max(abs(c) for c in entry.winding) <= entry.scale
    assert entry.defect_before == pytest.approx(delta, rel=1e-6)
    assert entry.defect_after < entry.threshold
    assert nf.replay_error() < 1e-12


def test_run_scheme_stops_when_a_step_grows_the_perturbation(monkeypatch):
    # a step that leaves ten times the perturbation it was given: the scheme
    # raises after that step, with the state the step left
    step = kam.kam_step
    monkeypatch.setattr(kam, "kam_step", lambda state, params: replace(
        step(state, params), perturbation=10.0 * state.perturbation))
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)),
                  random_map(1, 4, 1e-4, np.random.default_rng(5)))
    with pytest.raises(DivergenceError, match=re.escape(
            "perturbation grew from 0.0001 to 0.001 at step 0")) as info:
        run_scheme(phi, SchemeParams(nu=4.0))
    assert info.value.state.step == 1


def test_run_scheme_nonperturbative_rejected():
    rng = np.random.default_rng(6)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), random_map(1, 4, 0.1, rng))
    with pytest.raises(SchemeError):
        run_scheme(phi)


def test_run_scheme_rejects_a_nan_perturbation():
    # the gate reads the H^0 norm, which one NaN coefficient makes NaN
    f = random_map(1, 4, 1e-4, np.random.default_rng(6))
    f.coeffs[4 + 1, 0] = np.nan
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), f)
    with pytest.raises(SchemeError, match="outside the perturbative regime"):
        run_scheme(phi)


def test_run_scheme_near_resonant_mass_fails_safety():
    # mass on a just-undetectable near-resonant mode amplifies past the
    # next step's safety envelope; the failure is a clean scheme error
    thr = 8.0**-4.0
    theta = (3 * GOLDEN + 2.0 * thr) % 1.0
    w = np.zeros(9, dtype=complex)
    w[4 + 3] = 8e-3
    f = AlgebraMap.from_fields(1, 4, np.zeros(9, dtype=complex), w)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(theta)), f)
    with pytest.raises(SchemeError):
        run_scheme(phi)


def test_run_scheme_frequency_never_changes():
    rng = np.random.default_rng(7)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), random_map(1, 4, 1e-4, rng))
    nf = run_scheme(phi)
    assert nf.alpha == ALPHA
    assert nf.cocycle().alpha == ALPHA


def test_run_scheme_two_dimensional():
    alpha2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    rng = np.random.default_rng(8)
    phi = Cocycle(alpha2, GroupElement(torus_quat(0.23)), random_map(2, 2, 1e-5, rng))
    nf = run_scheme(phi, SchemeParams(n0=4, max_steps=6))
    assert nf.converged
    assert nf.replay_error() < 1e-12


def test_run_scheme_identity_constant():
    # A = Id: the k = 0 off-torus denominator vanishes, so the whole constant
    # obstruction must be reabsorbed through the renormalised mean
    for seed in range(3):
        rng = np.random.default_rng(seed)
        phi = Cocycle(ALPHA, GroupElement(torus_quat(0.0)),
                      random_map(1, 4, 1e-4, rng))
        nf = run_scheme(phi)
        assert nf.converged
        assert abs(nf.theta) < 1e-6
        assert nf.replay_error() < 1e-12


@pytest.mark.parametrize("theta", [0.01, 0.17, 0.33, 0.499, 0.93])
def test_run_scheme_stress_angles(theta):
    # constants near the center (theta ~ 0, ~1) and near the equator are the
    # delicate spots for diagonalisation and branch tracking
    for seed in range(4):
        rng = np.random.default_rng(1000 + seed)
        phi = Cocycle(ALPHA, GroupElement(torus_quat(theta)),
                      random_map(1, 4, 1e-4, rng))
        nf = run_scheme(phi)
        assert nf.converged, "theta=%r seed=%d" % (theta, seed)
        assert nf.replay_error() < 1e-12
        assert abs(nf.diagnostics[-1].accumulator -
                   nf.diagnostics[-2].accumulator) < 1e-8


ALPHA2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))


def _replay_params(d, max_steps):
    # nu = tau + 2 for the tau the configs declare (2 in 1D, 3 in 2D), as
    # SchemeParams.for_dioph sets it; it keeps resonances at n0 = 4 unique
    return SchemeParams(n0=4, nu=d + 3.0, max_steps=max_steps)


def _tilted_constant(theta, tilt, azimuth):
    """exp(theta e) with its axis tilted off the torus by the angle tilt."""
    axis = np.array([math.cos(tilt), math.sin(tilt) * math.cos(azimuth),
                     math.sin(tilt) * math.sin(azimuth)])
    half = math.pi * theta
    return GroupElement(np.concatenate([[math.cos(half)], math.sin(half) * axis]))


@settings(max_examples=60)
@given(d=st.sampled_from([1, 2]), theta=st.floats(0.05, 0.95),
       log_tilt=st.floats(-9.0, -3.0), azimuth=st.floats(0.0, 2 * math.pi),
       band=st.integers(1, 3), log_amplitude=st.floats(-9.0, -4.0),
       seed=st.integers(0, 2**32 - 1), max_steps=st.sampled_from([0, 2]))
@example(d=1, theta=0.17, log_tilt=-7.0, azimuth=0.0, band=2, log_amplitude=-6.0,
         seed=0, max_steps=0)
def test_replay_of_a_tilted_constant(d, theta, log_tilt, azimuth, band,
                                     log_amplitude, seed, max_steps):
    # the part of the constant that diagonalize leaves off the torus must
    # reach the recorded perturbation, from the initial state on
    alpha = ALPHA if d == 1 else ALPHA2
    f = random_map(d, band, 10.0 ** log_amplitude, np.random.default_rng(seed))
    phi = Cocycle(alpha, _tilted_constant(theta, 10.0 ** log_tilt, azimuth), f)
    nf = run_scheme(phi, _replay_params(d, max_steps))
    assert nf.replay_error() <= 1e-13


@settings(max_examples=40)
@given(d=st.sampled_from([1, 2]), theta=st.floats(0.05, 0.95),
       winding=st.lists(st.integers(-3, 3), min_size=2, max_size=2),
       band=st.integers(0, 3), log_amplitude=st.floats(-8.0, -3.0),
       seed=st.integers(0, 2**32 - 1), max_steps=st.sampled_from([0, 2]))
def test_replay_of_a_conjugated_constant(d, theta, winding, band, log_amplitude,
                                         seed, max_steps):
    alpha = ALPHA if d == 1 else ALPHA2
    rng = np.random.default_rng(seed)
    chain = ConjugationChain(
        (TorusMorphism(tuple(winding[:d])),
         ExpFactor(random_map(d, band, 10.0 ** log_amplitude, rng))), d)
    base = Cocycle(alpha, GroupElement(torus_quat(theta)), AlgebraMap.zeros(d, 0))
    nf = run_scheme(conjugate(chain, base), _replay_params(d, max_steps))
    assert nf.replay_error() <= 1e-13


def test_negative_branch_frames_never_turn_about_the_torus():
    # the sweep-1d recipe just past the resonance at 2 alpha: its removal
    # leaves theta near -3, on the negative branch, and every later frame
    # must stay there instead of flipping the torus and flipping it back
    cfg = ExperimentConfig.from_dict({
        "frequency": {"preset": "golden"},
        "theta": (2.0 * GOLDEN) % 1.0 + 5e-7,
        "chain": [{"kind": "torus", "winding": [3]},
                  {"kind": "exp", "band": 3, "amplitude": 1e-3}],
        "perturbation": {"band": 4, "amplitude": 1e-4},
        "seed": 5,
    })
    phi, _truth = synthesize_cocycle(cfg)
    nf = run_scheme(phi, cfg.scheme_params)
    assert nf.converged and nf.resonant_count == 1
    assert nf.diagnostics[1].theta == pytest.approx(-3.0, abs=1e-5)
    frames = [f.element.q for f in nf.chain.factors if isinstance(f, ConstantFactor)]
    assert frames
    assert all(q[1] == 0.0 for q in frames)
    assert not any(np.array_equal(q, [-1.0, 0.0, 0.0, 0.0]) for q in frames)
    assert nf.replay_error() <= 1e-13


def test_three_dimensional_normal_form_replays():
    # the 3D config of test_cli.py at 1e-12: its chain replays at the orbit
    # points, where a grid of its conjugated band (99) would hold 400^3
    # points, past fourier.GRID_POINTS
    cfg = ExperimentConfig.from_dict({
        "frequency": {"value": [2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0]},
        "theta": 0.1,
        "chain": [{"kind": "torus", "winding": [1, 0, 1]},
                  {"kind": "exp", "band": 1, "amplitude": 1e-3}],
        "perturbation": {"band": 1, "amplitude": 1e-5},
        "scheme": {"n0": 6, "nu": 8.0, "stop_tolerance": 1e-12},
        "dioph": {"gamma": 32.0, "tau": 4.0, "horizon": 20},
    })
    phi, _truth = synthesize_cocycle(cfg)
    nf = run_scheme(phi, cfg.scheme_params)
    assert nf.converged
    assert nf.replay_error() <= 1e-13


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(sigma=1.5)
    with pytest.raises(ValueError):
        SchemeParams(nu=-1.0)
    with pytest.raises(ValueError):
        SchemeParams(stop_tolerance=-1e-12)
    with pytest.raises(ValueError, match="max_steps"):
        SchemeParams(max_steps=-1)
    assert SchemeParams(max_steps=0).max_steps == 0
    p = SchemeParams.for_dioph(DiophParams(3.0, 2.0, 100))
    assert p.nu == 4.0


def _two_freq_config(seed=5, stop_tolerance=1e-12, exp_factor=True):
    # the two-dimensional config of test_cli.py, by default with an exp factor
    chain = [{"kind": "torus", "winding": [1, 1]}]
    if exp_factor:
        chain.append({"kind": "exp", "band": 3, "amplitude": 1e-3})
    return ExperimentConfig.from_dict({
        "frequency": {"value": [GOLDEN, math.sqrt(2.0) - 1.0]},
        "theta": 0.1,
        "chain": chain,
        "perturbation": {"band": 2, "amplitude": 1e-5},
        "scheme": {"n0": 4, "max_steps": 8, "stop_tolerance": stop_tolerance},
        "dioph": {"gamma": 32.0, "tau": 3.0, "horizon": 60},
        "seed": seed,
    })


def test_exp_factors_are_stored_on_their_solve_box(monkeypatch):
    solves = []

    def recorded(theta, f, alpha, n, nu):
        solves.append((n, f.band))
        return solve_homological(theta, f, alpha, n, nu)

    monkeypatch.setattr(kam, "solve_homological", recorded)
    cfg = _two_freq_config()
    phi, _truth = synthesize_cocycle(cfg)
    nf = run_scheme(phi, cfg.scheme_params)
    assert nf.converged
    # application order: the oldest factor is the last one
    exps = [f for f in reversed(nf.chain.factors) if isinstance(f, ExpFactor)]
    assert [f.map.band for f in exps] == [min(n, band) for n, band in solves]
    assert any(n < band for n, band in solves)
    windings = sum(max(abs(c) for c in f.winding)
                   for f in nf.chain.factors if isinstance(f, TorusMorphism))
    assert nf.chain.content_bound() == windings + sum(2 * f.map.band for f in exps)
    # the same prefix norms as the chain stored on the perturbations' boxes
    wide_band = {id(f): band for f, (_n, band) in zip(exps, solves)}
    wide = ConjugationChain(
        tuple(ExpFactor(f.map.padded(wide_band[id(f)])) if isinstance(f, ExpFactor) else f
              for f in nf.chain.factors), nf.chain.dimension)
    assert wide.content_bound() > nf.chain.content_bound()
    reference = chain_sobolev_partial(wide, -(nf.alpha.dimension + kam.ALGEBRA_DIMENSION),
                                      2 * wide.content_bound() + 8)
    assert np.allclose(nf.chain_prefix_norms(), reference, rtol=1e-14, atol=0.0)


def test_renormalisation_stores_the_perturbation_on_its_content_box():
    cfg = _two_freq_config()
    phi, _truth = synthesize_cocycle(cfg)
    params = cfg.scheme_params
    nf = run_scheme(phi, params)
    assert nf.converged
    steps, closing = nf.diagnostics[:-1], nf.diagnostics[-1]
    assert all(row.band_stored <= row.band_next for row in steps)
    assert any(row.band_stored < row.band_next for row in steps)
    assert steps[-1].band_stored == nf.perturbation.band
    assert (closing.band_next, closing.band_stored, closing.tail_l1) == \
        (nf.perturbation.band, nf.perturbation.band, 0.0)
    drops = [nf.initial_tail_l1] + [row.tail_l1 for row in steps]
    assert all(0.0 <= t <= kam.TAIL_SHARE * params.stop_tolerance for t in drops)
    assert sum(drops) < params.stop_tolerance
    assert nf.replay_error() <= 1e-13
    doc = nf.to_dict()
    assert doc["initial_tail_l1"] == nf.initial_tail_l1
    assert [row["tail_l1"] for row in doc["diagnostics"][:-1]] == drops[1:]


def test_renormalisation_absorbs_the_constant_torus_mode():
    # c_e(0) goes into the constant at every renormalisation, so no run
    # ends on it: the two-frequency configs of the benchmark end near 1e-16
    for seed in (5, 6, 7):
        cfg = _two_freq_config(seed, exp_factor=False)
        phi, _truth = synthesize_cocycle(cfg)
        nf = run_scheme(phi, cfg.scheme_params)
        f = nf.perturbation
        assert nf.converged
        assert abs(f.e_field()[(f.band,) * f.dimension]) < 1e-15
        assert nf.to_dict()["final_residual_h0"] < 1e-15


def test_exp_factor_run_converges_below_1e_15():
    # below 1e-13 what is left of F is its constant torus mode, which grows
    # under the exact update unless it goes into the constant
    cfg = _two_freq_config(stop_tolerance=1e-15)
    phi, _truth = synthesize_cocycle(cfg)
    nf = run_scheme(phi, cfg.scheme_params)
    assert nf.converged
    assert nf.diagnostics[-1].norm_f_h0 <= 1e-15
    assert nf.replay_error() <= 1e-13


# Peak memory of one step, and of its conjugation, above the memory at entry,
# in quaternion grids of the step's conjugation size.  On 140^2, three blocks
# of whole lines, where the syntheses are built a block of lines at a time
# and the final logarithm is written over the samples, they read 2.20 and
# 1.92; with each synthesis and logarithm a whole grid they read 2.84 and
# 2.70, with whole-grid passes 3.65 and 3.25, and a conjugation that keeps
# H(x) alive beside H(x + alpha) reads 4.4 and 4.25.
PEAK_GRIDS = (2.3, 2.0)

# The same on 108^2, two blocks of 54 lines: they read 2.57 and 2.34, and
# 3.65 and 3.34 with a whole-grid synthesis and logarithm and blocks of 8192
# and 3472 points, above the 3.26 of a whole-grid conjugation.
TWO_BLOCK_PEAK_GRIDS = (2.8, 2.45)

# The same on 88^2, one block, where the passes run on the whole grid: they
# read 3.51 and 3.26, and may not exceed the 3.92 and 3.26 of the whole-grid
# passes, rounded up to 0.01 grid.
ONE_BLOCK_PEAK_GRIDS = (3.93, 3.26)

# Peak of the chain's prefix norms above the memory at entry, in grids of
# the double cover.  Folded on one period, 72^2 here, one block, and twisted
# in place, it reads 1.20, and 2.01 with np.fft.fftn in place of the axis
# transforms; on the double cover it read 2.09 with each exp factor's cover
# tiled a block of lines at a time, 2.50 with the cover tiled whole, 2.72
# with all four spectrum components at once, and 3.75 with a fold that kept
# the newest factor's grid beside a new product.
PREFIX_PEAK_GRIDS = 1.3


def _step_peaks(step):
    """Grid size and peak grids of a step of the first exp-2d benchmark
    experiment, and of its conjugation."""
    cfg = _two_freq_config()
    phi, _truth = synthesize_cocycle(cfg)
    params = cfg.scheme_params
    state = kam.initial_state(phi, params)
    for _ in range(step):
        state = kam_step(state, params)
    after, peak = traced_peak(kam_step, state, params)
    m = fourier.grid_size(after.diagnostics[-1].band_next, 2)
    grid_bytes = m * m * 4 * 8
    # the step's own conjugation: by exp(Y), Y the newest exp factor
    y = next(f for f in after.chain.factors if isinstance(f, ExpFactor))
    _samples, conjugation = traced_peak(conjugate_raw, y, state.cocycle(), m)
    return m, peak / grid_bytes, conjugation / grid_bytes


def test_step_peak_memory_stays_below_the_bound():
    # step 2 conjugates on 140^2
    m, step, conjugation = _step_peaks(2)
    assert m == 140
    assert step < PEAK_GRIDS[0] and conjugation < PEAK_GRIDS[1]


def test_two_block_step_peak_memory_stays_below_the_bound():
    # step 1 conjugates on 108^2, two blocks
    m, step, conjugation = _step_peaks(1)
    assert m == 108 and len(su2.point_blocks((m, m))) == 2
    assert step < TWO_BLOCK_PEAK_GRIDS[0] and conjugation < TWO_BLOCK_PEAK_GRIDS[1]


def test_one_block_step_peak_memory_stays_at_the_whole_grid_bound():
    # step 0 conjugates on 88^2, one block
    m, step, conjugation = _step_peaks(0)
    assert m * m <= su2.BLOCK_POINTS
    assert step <= ONE_BLOCK_PEAK_GRIDS[0] and conjugation <= ONE_BLOCK_PEAK_GRIDS[1]


def test_prefix_norms_peak_memory_stays_below_the_bound():
    cfg = _two_freq_config()
    phi, _truth = synthesize_cocycle(cfg)
    nf = run_scheme(phi, cfg.scheme_params)
    m = 2 * nf.chain.content_bound() + 8
    nf.chain_prefix_norms()  # builds the memoised weights
    norms, peak = traced_peak(nf.chain_prefix_norms)
    assert len(norms) > 2 and m >= 128
    assert peak / (m * m * 4 * 8) < PREFIX_PEAK_GRIDS


def test_scheme_grids_follow_the_content(monkeypatch):
    # the scheme of the first exp-2d benchmark experiment (config seed 5,
    # stop_tolerance 1e-12), whose grids reached 420^2 while the stored band
    # grew at every step
    sizes = []

    def recorded(band, d):
        m = fourier.grid_size(band, d)
        sizes.append(m)
        return m

    monkeypatch.setattr(kam, "grid_size", recorded)
    cfg = _two_freq_config()
    phi, _truth = synthesize_cocycle(cfg)
    run_scheme(phi, cfg.scheme_params)
    assert len(sizes) > 1 and max(sizes) <= 200


def test_prefix_norms_are_nan_past_the_grid_point_bound(monkeypatch):
    alpha2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    rng = np.random.default_rng(8)
    phi = Cocycle(alpha2, GroupElement(torus_quat(0.23)), random_map(2, 2, 1e-5, rng))
    nf = run_scheme(phi, SchemeParams(n0=4, max_steps=6))
    m = 2 * nf.chain.content_bound() + 8
    unbounded = nf.chain_prefix_norms()
    assert len(nf.chain) > 0 and np.all(np.isfinite(unbounded))
    # the bound is on the (m / 2)^d points of one period that
    # chain_sobolev_partial samples, not on the m^d of the double cover
    s = -(nf.alpha.dimension + kam.ALGEBRA_DIMENSION)
    for points in (m ** 2 - 1, (m // 2) ** 2):
        monkeypatch.setattr(fourier, "GRID_POINTS", points)
        assert nf.chain_prefix_norms() == unbounded == chain_sobolev_partial(nf.chain, s, m)
    # nor on the axis length m
    monkeypatch.setattr(fourier, "GRID_POINTS", (m // 2) ** 2 - 1)
    assert m < fourier.GRID_POINTS
    norms = nf.chain_prefix_norms()
    assert len(norms) == len(nf.chain) and np.all(np.isnan(norms))


def test_normal_form_serialization_and_csv(tmp_path):
    rng = np.random.default_rng(9)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), random_map(1, 4, 1e-4, rng))
    nf = run_scheme(phi)
    # the normal form is the final scheme state; the report reads its fields
    assert isinstance(nf, SchemeState)
    doc = nf.to_dict()
    assert doc["converged"] and doc["resonant_count"] == 0
    assert len(doc["diagnostics"]) == nf.steps + 1
    assert doc["final_residual_h0"] == sobolev_norm(nf.perturbation, 0.0)
    assert doc["final_theta"] == nf.theta
    assert rotation_vector(nf).representative == nf.accumulator
    csv_path = tmp_path / "diag.csv"
    nf.write_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg"
    assert len(lines) == nf.steps + 2


def test_final_perturbation_h0_is_computed_once(monkeypatch):
    # the loop test already holds each H^0 norm; the step and the closing row
    # reuse it, so no perturbation's H^0 norm is computed twice
    calls = []

    def recorded(amap, s):
        calls.append((amap, s))
        return sobolev_norm(amap, s)

    monkeypatch.setattr(kam, "sobolev_norm", recorded)
    cfg = _two_freq_config()
    phi, _truth = synthesize_cocycle(cfg)
    nf = run_scheme(phi, cfg.scheme_params)
    assert nf.converged
    assert sum(1 for amap, s in calls if amap is nf.perturbation and s == 0.0) == 1
    h0_maps = [id(amap) for amap, s in calls if s == 0.0]  # calls keeps them alive
    assert nf.steps >= 2 and len(h0_maps) == len(set(h0_maps))
    assert nf.diagnostics[-1].norm_f_h0 == sobolev_norm(nf.perturbation, 0.0)


def test_resynthesis_tolerance_has_one_home(monkeypatch):
    # normalize and the scheme's renormalisation both read cocycle's
    # tolerance, so at 0 both reject the round-off of a perturbed fiber
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)),
                  random_map(1, 4, 1e-4, np.random.default_rng(9)))
    monkeypatch.setattr(cocycle, "RESYNTHESIS_TOL", 0.0)
    with pytest.raises(NormalizationError, match="does not resolve"):
        normalize(phi.fiber_grid(32), ALPHA, 4)
    with pytest.raises(SchemeError, match="does not resolve"):
        run_scheme(phi)


def test_collapsed_step_mean_diverges_with_the_state(monkeypatch):
    # a conjugated fiber of Id on one half of the grid and -Id on the other
    # has a zero mean: the step diverges instead of renormalising NaNs
    def split_fiber(chain, phi, m):
        q = np.zeros((m,) * phi.dimension + (4,))
        q[..., 0] = 1.0
        q[m // 2:, ..., 0] = -1.0
        return q

    monkeypatch.setattr(kam, "conjugate_raw", split_fiber)
    f = random_map(1, 4, 1e-6, np.random.default_rng(9))
    state = SchemeState(alpha=ALPHA, theta=0.17, perturbation=f, scale=8,
                        chain=ConjugationChain((), 1))
    with pytest.raises(DivergenceError, match="mean collapses") as info:
        kam_step(state, SchemeParams())
    assert info.value.state is state
