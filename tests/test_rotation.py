import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from su2kam import arithmetic
from su2kam.arithmetic import DiophParams, Frequency, GridBudgetError
from su2kam.cli import ExperimentConfig, synthesize_cocycle
from su2kam.cocycle import Cocycle, c0_distance, conjugate
from su2kam.fourier import (
    AlgebraMap,
    ConjugationChain,
    ExpFactor,
    TorusMorphism,
    random_map,
)
from su2kam.kam import SchemeParams, run_scheme
from su2kam.rotation import (
    CLASS_DIOPHANTINE,
    CLASS_RESONANT,
    CLASS_UNDETERMINED,
    RotationVector,
    UnresolvedRotation,
    classify_arithmetic,
    equivalence_check,
    equivalence_witness,
    finite_resonance_audit,
    fold_representative,
    invariance_probe,
    rotation_vector,
)
from su2kam.su2 import GroupElement, torus_quat

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ALPHA = Frequency((GOLDEN,))
DIOPH = DiophParams(3.0, 2.0, 10**4)


def rv(x, alpha=ALPHA):
    return RotationVector(float(x), alpha, {})


def scheme_run(theta, seed=0, amplitude=1e-4, band=4):
    rng = np.random.default_rng(seed)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(theta)), random_map(1, band, amplitude, rng))
    return phi, run_scheme(phi)


def test_rotation_vector_constant_cocycle():
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), AlgebraMap.zeros(1, 1))
    nf = run_scheme(phi)
    r = rotation_vector(nf)
    assert r.representative == pytest.approx(0.17, abs=1e-14)
    assert r.provenance["resonant_steps"] == 0


def test_rotation_vector_requires_convergence():
    rng = np.random.default_rng(1)
    phi = Cocycle(ALPHA, GroupElement(torus_quat(0.17)), random_map(1, 4, 1e-4, rng))
    nf = run_scheme(phi, SchemeParams(max_steps=1, stop_tolerance=1e-30))
    assert not nf.converged
    with pytest.raises(UnresolvedRotation):
        rotation_vector(nf)


def test_rotation_vector_requires_a_small_cauchy_gap():
    # the second-to-last accumulator 1e-7 from the last, past CAUCHY_TOL
    _phi, nf = scheme_run(0.17, seed=1)
    rows = nf.diagnostics
    moved = dataclasses.replace(rows[-2], accumulator=rows[-1].accumulator + 1e-7)
    nf = dataclasses.replace(nf, diagnostics=rows[:-2] + (moved, rows[-1]))
    with pytest.raises(UnresolvedRotation, match=re.escape(
            "rotation vector not resolved at this horizon (last gap 1e-07)")):
        rotation_vector(nf)


def test_rotation_vector_accumulates_removal_shifts():
    delta = 0.3 * 8.0**-4
    theta = (4 * GOLDEN + delta) % 1.0
    phi, nf = scheme_run(theta, seed=2, amplitude=1e-6)
    assert [r.winding for r in nf.ledger] == [(4,)]
    r = rotation_vector(nf)
    # representative = theta_final + 4 alpha recovers the planted angle mod 2
    assert equivalence_check(r, rv(theta), 20)
    assert abs(fold_representative(r.representative) - theta) % 1.0 < 1e-6 or \
        abs(fold_representative(r.representative) - fold_representative(theta)) < 1e-6


def test_equivalence_reflexive_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = float(rng.uniform(-3, 3))
        assert equivalence_check(rv(x), rv(x), 10)
        shift = rng.integers(-5, 6) * GOLDEN + 2 * rng.integers(-3, 4)
        assert equivalence_check(rv(x), rv(x + shift), 10)
        assert equivalence_check(rv(x + shift), rv(x), 10)


def test_equivalence_examples():
    r = rv(0.37)
    assert equivalence_check(r, rv(0.37 + 5 * GOLDEN), 10)
    assert equivalence_check(r, rv(-0.37), 10)          # Weyl reflection
    assert equivalence_check(r, rv(0.37 + 2.0), 10)     # full period
    assert not equivalence_check(r, rv(0.37 + 1.0), 10)  # center flip is not trivial
    assert not equivalence_check(r, rv(0.37 + math.sqrt(2.0) / math.pi), 50)


def test_equivalence_transitive_with_combined_horizon():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = float(rng.uniform(0, 1))
        k1, k2 = (int(v) for v in rng.integers(-4, 5, size=2))
        m1, m2 = (int(v) for v in rng.integers(-2, 3, size=2))
        y = x + k1 * GOLDEN + 2 * m1
        z = y + k2 * GOLDEN + 2 * m2
        assert equivalence_check(rv(x), rv(y), 6)
        assert equivalence_check(rv(y), rv(z), 6)
        assert equivalence_check(rv(x), rv(z), 12)


ALPHA2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))


@st.composite
def class_moves(draw, dimension, h):
    """A reflection sign, a winding shift k.alpha and a period shift 2m,
    with |k|, |m| <= h."""
    ints = st.integers(-h, h)
    return (draw(st.sampled_from([1, -1])), tuple(draw(ints) for _ in range(dimension)),
            draw(ints))


def moved(r, move):
    sign, k, m = move
    return rv(sign * r.representative + r.alpha.dot(k) + 2 * m, r.alpha)


@settings(max_examples=60)
@given(data=st.data(), alpha=st.sampled_from([ALPHA, ALPHA2]), h=st.integers(1, 3),
       x=st.floats(-3.0, 3.0), related=st.booleans())
def test_equivalence_check_is_symmetric(data, alpha, h, x, related):
    r1 = rv(x, alpha)
    if related:
        r2 = moved(r1, data.draw(class_moves(alpha.dimension, h)))
        assert equivalence_check(r1, r2, h)
    else:
        r2 = rv(data.draw(st.floats(-3.0, 3.0)), alpha)
    assert equivalence_check(r1, r2, h) == equivalence_check(r2, r1, h)


@settings(max_examples=60)
@given(data=st.data(), alpha=st.sampled_from([ALPHA, ALPHA2]), h=st.integers(1, 3),
       x=st.floats(-3.0, 3.0))
def test_equivalence_check_is_transitive(data, alpha, h, x):
    r1 = rv(x, alpha)
    r2 = moved(r1, data.draw(class_moves(alpha.dimension, h)))
    r3 = moved(r2, data.draw(class_moves(alpha.dimension, h)))
    assert equivalence_check(r1, r2, h) and equivalence_check(r2, r3, h)
    # k2 +- k1 and m2 +- m1 are a winding and a period of max-norm <= 2 h
    assert equivalence_check(r1, r3, 2 * h)


def test_equivalence_witness_details():
    # the witness satisfies sign*r1 - r2 = k.alpha + 2m within tolerance
    r1, r2 = rv(0.2), rv(0.2 + 3 * GOLDEN + 2.0)
    w = equivalence_witness(r1, r2, 10)
    assert w is not None
    assert set(w) == {"sign", "k", "m", "residual"}
    shift = w["k"][0] * GOLDEN + 2 * w["m"]
    delta = w["sign"] * r1.representative - r2.representative
    assert delta - shift == pytest.approx(0.0, abs=1e-8)
    assert w["residual"] <= 1e-8


def test_equivalence_witness_takes_the_zero_winding_before_a_larger_k():
    # r1 - r2 = 3 alpha matches at sign +1 and k = 3, but the reflection
    # matches exactly at k = 0, which comes first
    w = equivalence_witness(rv(1.5 * GOLDEN), rv(-1.5 * GOLDEN), 10)
    assert (w["sign"], w["k"], w["m"]) == (-1, [0], 0)


def test_equivalence_witness_shifts_by_periods_past_the_horizon():
    # the horizon bounds the winding only: 102.17 is 51 periods 2 from 0.17,
    # every one of them exact, so a horizon of 1 finds it at k = 0
    w = equivalence_witness(rv(0.17), rv(102.17), 1)
    assert (w["sign"], w["k"], w["m"]) == (1, [0], -51)
    assert w["residual"] <= 1e-8


# Peak of a search over the box, in chunks of SCAN_ROWS rows of (k, |k|,
# k.alpha), d + 2 doubles a row.  The 2D search below reads 2.30 when each
# chunk is reduced before the next is built, and 3.28 when the next chunk is
# built beside the last one's reduction.
WITNESS_PEAK_CHUNKS = 2.5

# Peak of classify_arithmetic at golden's default horizon, in bytes per
# scan row: a 1D chunk is 24 B a row, its defect and bound 8 B each and the
# masks 3 B.  It reads 43.9 with the defect and the bound in place, and 72.5
# with the next chunk built beside the last one's reduction.
CLASSIFY_PEAK_ROW_BYTES = 48.0


def test_equivalence_witness_streams_the_box(monkeypatch):
    # a pair that matches nowhere makes the search scan the whole box at
    # H = 300 (361201 windings); it holds one chunk at a time, not the box
    r1, r2 = rv(0.123456789, ALPHA2), rv(0.3141592653, ALPHA2)
    witness, peak = traced_peak(equivalence_witness, r1, r2, 300, 1e-12)
    assert witness is None
    assert peak / (arithmetic.SCAN_ROWS * (ALPHA2.dimension + 2) * 8) < WITNESS_PEAK_CHUNKS

    # a box past the scan budget is refused before its first chunk
    def unreached(*args):
        raise AssertionError("a chunk of the scan was built past the budget")

    monkeypatch.setattr(arithmetic, "box_windings", unreached)
    assert 4201 ** 2 > arithmetic.SCAN_WINDINGS
    with pytest.raises(GridBudgetError):
        equivalence_witness(r1, r2, 2100, tol=1e-12)


def test_equivalence_requires_same_alpha():
    other = Frequency((math.sqrt(2.0) - 1.0,))
    with pytest.raises(ValueError):
        equivalence_check(rv(0.1), rv(0.1, other), 5)


def test_fold_representative():
    assert fold_representative(0.3) == pytest.approx(0.3)
    assert fold_representative(1.7) == pytest.approx(0.3)
    assert fold_representative(-0.3) == pytest.approx(0.3)
    assert fold_representative(2.3) == pytest.approx(0.3)


def test_classify_arithmetic_holds_one_chunk():
    # golden at its default horizon scans 20001 windings, ten chunks
    r = rv(0.17 + 3 * GOLDEN)
    classify_arithmetic(r, DIOPH)  # the peak leaves out what a first call builds
    c, peak = traced_peak(classify_arithmetic, r, DIOPH)
    assert c.classification == CLASS_DIOPHANTINE
    assert 2 * DIOPH.horizon + 1 > 4 * arithmetic.SCAN_ROWS
    assert peak / arithmetic.SCAN_ROWS < CLASSIFY_PEAK_ROW_BYTES


def test_classify_diophantine_class():
    r = rv(0.17 + 3 * GOLDEN)
    cls = classify_arithmetic(r, DIOPH)
    assert cls.classification == CLASS_DIOPHANTINE
    assert cls.witness is None
    assert cls.beta == pytest.approx(0.17 + 3 * GOLDEN - 2.0, abs=1e-12)


def test_classify_resonant_class():
    r = rv((5 * GOLDEN) % 1.0)
    cls = classify_arithmetic(r, DIOPH)
    assert cls.classification == CLASS_RESONANT
    assert cls.witness.k == (5,)
    assert cls.witness.defect < 1e-12


def test_classify_undetermined_near_resonance():
    r = rv((4 * GOLDEN + 1e-9) % 1.0)
    cls = classify_arithmetic(r, DIOPH)
    assert cls.classification == CLASS_UNDETERMINED
    assert cls.witness.k == (4,)
    assert cls.witness.defect == pytest.approx(1e-9, rel=1e-3)


def test_classify_ties_go_to_the_lexicographically_smaller_winding():
    # at beta = 0 the defects of k and -k tie exactly; the witness is the
    # least violator by (defect, |k|, lex), as in relative_defect_minimum
    alpha = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    cls = classify_arithmetic(RotationVector(0.0, alpha, {}), DiophParams(20.0, 3.0, 60))
    assert cls.classification == CLASS_UNDETERMINED
    assert cls.witness.k == (-1, -1)


def test_morphism_shift_invariant():
    # conjugation by winding k shifts the representative by k.alpha mod class
    phi, nf = scheme_run(0.17, seed=5)
    r = rotation_vector(nf)
    for k in (1, 2, -3):
        chain = ConjugationChain((TorusMorphism((k,)),), 1)
        nf2 = run_scheme(conjugate(chain, phi))
        r2 = rotation_vector(nf2)
        assert equivalence_check(r, r2, 30)
        diff = r2.representative - r.representative - k * GOLDEN
        # the raw difference is k.alpha up to the lattice and Weyl fold
        folded = min(abs(diff - 2 * round(diff / 2)),
                     abs((r2.representative + r.representative + k * GOLDEN) % 2.0),
                     abs(2 - (r2.representative + r.representative + k * GOLDEN) % 2.0))
        assert folded < 1e-6


@settings(max_examples=8)
@given(data=st.data(), dimension=st.sampled_from([1, 2]), theta=st.floats(0.05, 0.45),
       seed=st.integers(0, 2**16))
def test_rotation_class_is_invariant_under_conjugation(data, dimension, theta, seed):
    # a perturbed constant cocycle, its conjugate by exp(b) for a small b and
    # its conjugate by a torus morphism lie in one rotation class; 2D runs at
    # nu = tau + 2 = 5 for the two-frequency configs' tau = 3, since at nu = 4
    # two windings can be resonant at one scale (ROADMAP item 4)
    alpha = (ALPHA, ALPHA2)[dimension - 1]
    params = SchemeParams() if dimension == 1 else SchemeParams(n0=4, nu=5.0, max_steps=6)
    rng = np.random.default_rng(seed)
    phi = Cocycle(alpha, GroupElement(torus_quat(theta)), random_map(dimension, 2, 1e-5, rng))
    b = random_map(dimension, 2, 1e-3, rng)
    k = tuple(data.draw(st.integers(-2, 2)) for _ in range(dimension))
    r = rotation_vector(run_scheme(phi, params))
    for factor in (ExpFactor(b), TorusMorphism(k)):
        conjugated = conjugate(ConjugationChain((factor,), dimension), phi)
        assert equivalence_check(r, rotation_vector(run_scheme(conjugated, params)), 2)


def test_rotation_class_is_invariant_under_conjugation_in_3d():
    # the 3D config of test_kam.py at 1e-12 and its conjugate by a torus
    # morphism of winding (1, 0, 0) and a small exp factor: the witness of
    # their one class is that winding, matched to round-off
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
    chain = ConjugationChain((TorusMorphism((1, 0, 0)),
                              ExpFactor(random_map(3, 1, 1e-4, np.random.default_rng(1)))), 3)
    r1 = rotation_vector(run_scheme(phi, cfg.scheme_params))
    r2 = rotation_vector(run_scheme(conjugate(chain, phi), cfg.scheme_params))
    w = equivalence_witness(r1, r2, 20, 1e-10)
    assert w["k"] == [1, 0, 0]
    assert w["residual"] <= 1e-12


def test_invariance_probe_small_exponential():
    rng = np.random.default_rng(6)
    phi, _ = scheme_run(0.17, seed=7)
    b = random_map(1, 3, 1e-3, rng)
    report = invariance_probe(phi, b)
    assert report["equivalent"]
    assert report["representative_gap"] < 1e-6
    assert report["c0_distance"] > 0


def test_invariance_probe_zero_map():
    phi, _ = scheme_run(0.17, seed=8)
    report = invariance_probe(phi, AlgebraMap.zeros(1, 2))
    assert report["representative_gap"] < 1e-12


def test_continuity_trend():
    # representative gap shrinks with the C0 distance of the pair
    base, nf_base = scheme_run(0.17, seed=9, amplitude=1e-5)
    r_base = rotation_vector(nf_base)
    gaps, dists = [], []
    rng = np.random.default_rng(10)
    direction = random_map(1, 3, 1.0, rng)
    for scale in (1e-4, 1e-5, 1e-6):
        chain = ConjugationChain((ExpFactor(scale * direction),), 1)
        moved = conjugate(chain, base)
        nf2 = run_scheme(moved)
        r2 = rotation_vector(nf2)
        gaps.append(abs(r2.representative - r_base.representative))
        dists.append(c0_distance(base, moved))
    assert dists[0] > dists[1] > dists[2]
    assert gaps[0] >= gaps[1] >= gaps[2]
    ratios = [g / d for g, d in zip(gaps, dists)]
    assert max(ratios) < 10.0  # measured continuity constant stays modest


def test_audit_empty_ledger_consistent():
    phi, nf = scheme_run(0.17, seed=11)
    r = rotation_vector(nf)
    report = finite_resonance_audit(nf, r, DIOPH)
    assert report["all_inequalities_hold"]
    assert report["resonant_steps"] == 0
    assert report["resonances_ceased"]
    assert report["last_resonant_step"] is None
    assert report["issues"] == []


def test_audit_flags_resonances_that_reach_the_last_step():
    # a converged run of the Diophantine class (the recovery instance's rho,
    # 0.17 + 3 alpha), with a resonant entry moved to its last observed
    # step: the resonances do not cease before it
    _, nf = scheme_run((0.17 + 3 * GOLDEN) % 1.0, seed=11)
    r = rotation_vector(nf)
    _, resonant = scheme_run((5 * GOLDEN) % 1.0, seed=12, amplitude=1e-5)
    entry = dataclasses.replace(resonant.ledger[0], step=nf.steps - 1)
    late = dataclasses.replace(nf, ledger=nf.ledger + (entry,))
    assert late.converged
    report = finite_resonance_audit(late, r, DIOPH)
    assert report["classification"]["classification"] == CLASS_DIOPHANTINE
    assert report["all_inequalities_hold"]
    assert report["last_resonant_step"] == nf.steps - 1
    assert not report["resonances_ceased"]
    assert report["issues"] == ["Diophantine class but resonances persist to the horizon"]


def test_rotation_two_dimensional_planted_resonance():
    alpha2 = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    kalpha = GOLDEN + (math.sqrt(2.0) - 1.0)  # winding (1, 1)
    delta = 1.5e-5
    theta = (kalpha + delta) % 1.0
    rng = np.random.default_rng(21)
    phi = Cocycle(alpha2, GroupElement(torus_quat(theta)), random_map(2, 2, 1e-6, rng))
    nf = run_scheme(phi, SchemeParams(n0=4, nu=5.0, max_steps=8))
    assert nf.converged
    assert [r.winding for r in nf.ledger] == [(1, 1)]
    r = rotation_vector(nf)
    assert equivalence_check(r, RotationVector(theta, alpha2, {}), 6)


def test_audit_resonant_class_single_removal():
    theta = (5 * GOLDEN) % 1.0
    phi, nf = scheme_run(theta, seed=12, amplitude=1e-5)
    r = rotation_vector(nf)
    report = finite_resonance_audit(nf, r, DIOPH)
    assert report["resonant_steps"] == 1
    assert report["all_inequalities_hold"]
    assert report["resonances_ceased"]
    assert report["ledger_checks"][0]["winding"] == [5]
