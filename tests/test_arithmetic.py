import math
from itertools import product

import numpy as np
import pytest

from su2kam import arithmetic
from su2kam.arithmetic import (
    DiophParams,
    Frequency,
    ResonanceRecord,
    diophantine_witness,
    dist_to_Z,
    gauss_map,
    relative_defect_minimum,
)
from su2kam.kam import detect_resonance
from su2kam.rotation import (
    CLASS_DIOPHANTINE,
    CLASS_RESONANT,
    CLASS_UNDETERMINED,
    RotationVector,
    classify_arithmetic,
    equivalence_witness,
    fold_representative,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# per dimension: constants at which random frequencies both pass and fail,
# with horizons that a plain-loop oracle covers quickly
ORACLE_PARAMS = {
    1: DiophParams(3.0, 2.0, 2000),
    2: DiophParams(20.0, 3.0, 20),
    3: DiophParams(50.0, 3.5, 6),
}
# winding horizons of the equivalence oracle, which loops over the box
EQUIVALENCE_HORIZONS = {1: 10, 2: 8, 3: 4}


def box_rows(alpha, n, beta):
    """(|k|, k, |beta - k.alpha|_Z) for every 0 < |k| <= n, by a plain loop."""
    a = alpha.vector
    rows = []
    for k in product(range(-n, n + 1), repeat=alpha.dimension):
        if any(k):
            kalpha = float(np.dot(np.asarray(k, dtype=float), a))  # as Frequency.dot
            rows.append((max(abs(c) for c in k), k, abs(beta - kalpha - round(beta - kalpha))))
    return rows


def equivalence_oracle(r1, r2, horizon, tol=1e-8):
    """First r1 ~ r2 match, sign r1 - r2 = k.alpha + 2m with any integer m,
    by a plain loop over the box in the order (|k|, sign +1 before -1, k
    before -k, lexicographic order of the canonical row)."""
    d = r1.alpha.dimension
    canonical = [k for k in product(range(-horizon, horizon + 1), repeat=d) if k >= (0,) * d]
    order = sorted((max(map(abs, k)), -sign, -orientation, k, sign, orientation)
                   for k in canonical for sign in (1, -1) for orientation in (1, -1))
    for *_, k, sign, orientation in order:
        winding = [orientation * c for c in k]
        rest = sign * r1.representative - r2.representative - r1.alpha.dot(winding)
        m = np.rint(rest / 2.0)
        residual = abs(rest - 2.0 * m)
        if residual <= tol:
            return {"sign": sign, "k": winding, "m": int(m), "residual": float(residual)}
    return None


def test_dist_to_Z_examples():
    assert dist_to_Z(0.3) == pytest.approx(0.3, abs=1e-15)
    assert dist_to_Z(0.7) == pytest.approx(0.3, abs=1e-15)
    assert dist_to_Z(2.5) == 0.5


def test_dist_to_Z_rejects_nonfinite():
    with pytest.raises(ValueError):
        dist_to_Z(float("nan"))
    with pytest.raises(ValueError):
        dist_to_Z(float("inf"))


def test_dist_to_Z_periodic_and_even():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-20, 20, size=200):
        assert dist_to_Z(x) == dist_to_Z(-x)
        assert dist_to_Z(x) == dist_to_Z(x + 1.0)
        assert 0.0 <= dist_to_Z(x) <= 0.5


def test_witness_rational_half():
    alpha = Frequency((0.5,))
    for gamma in (2.5, 3.0, 10.0):
        rec = diophantine_witness(alpha, DiophParams(gamma, 2.0, 50))
        assert rec.k == (2,)
        assert rec.defect == 0.0
        assert rec.near_rational


def test_witness_golden_none():
    alpha = Frequency((GOLDEN,))
    assert diophantine_witness(alpha, DiophParams(3.0, 2.0, 10**4)) is None


def test_witness_tiny_frequency():
    rec = diophantine_witness(Frequency((1e-6,)), DiophParams(1.0, 1.1, 10))
    assert rec.k == (1,)
    assert rec.defect == pytest.approx(1e-6, rel=1e-12)


def test_witness_requires_tau_above_dimension():
    with pytest.raises(ValueError):
        diophantine_witness(Frequency((GOLDEN,)), DiophParams(1.0, 0.5, 10))


def test_witness_monotone_in_horizon():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = Frequency((float(rng.uniform(0, 1)),))
        p1 = DiophParams(2.0, 1.5, 300)
        p2 = DiophParams(2.0, 1.5, 1500)
        r1 = diophantine_witness(alpha, p1)
        if r1 is not None:
            r2 = diophantine_witness(alpha, p2)
            assert r2.k == r1.k
            assert r2.defect == r1.defect


@pytest.mark.parametrize("d", [1, 2, 3])
def test_witness_agrees_with_exhaustive_scan(d):
    # independent oracles: plain loops over the box, minimised by the
    # documented keys
    rng = np.random.default_rng(2)
    p = ORACLE_PARAMS[d]
    h = EQUIVALENCE_HORIZONS[d]
    for _ in range(6):
        alpha = Frequency(tuple(rng.uniform(0, 1, d)))

        # Diophantine witness: least canonical violator by (|k|, lex)
        expected = min(((m, k, defect) for m, k, defect in box_rows(alpha, p.horizon, 0.0)
                        if next(c for c in k if c) > 0 and defect < p.bound(m)),
                       default=None)
        rec = diophantine_witness(alpha, p)
        if expected is None:
            assert rec is None
        else:
            m, k, defect = expected
            assert (rec.k, rec.defect, rec.threshold) == (k, defect, p.bound(m))

        # relative minimum: least winding by (defect, |k|, lex)
        beta = float(rng.uniform(0, 1))
        defect, m, k = min((defect, m, k) for m, k, defect in box_rows(alpha, p.horizon, beta))
        rec = relative_defect_minimum(beta, alpha, p.horizon, 2.0)
        assert (rec.k, rec.defect, rec.threshold) == (k, defect, float(p.horizon) ** -2.0)

        # class: least violator by (defect, |k|, lex), on a random and on a
        # resonant representative
        k0 = tuple(int(c) for c in rng.integers(1, p.horizon + 1, d) * rng.choice((-1, 1), d))
        for representative in (float(rng.uniform(-2, 2)), alpha.dot(k0)):
            r = RotationVector(representative, alpha, {})
            beta = fold_representative(representative)
            expected = min(((defect, m, k) for m, k, defect in box_rows(alpha, p.horizon, beta)
                            if defect < p.bound(m)), default=None)
            cls = classify_arithmetic(r, p)
            if expected is None:
                assert cls.classification == CLASS_DIOPHANTINE
                assert cls.witness is None
                continue
            defect, m, k = expected
            assert (cls.witness.k, cls.witness.defect, cls.witness.threshold) == (
                k, defect, p.bound(m))
            exact = defect <= 1e-12
            assert cls.classification == (CLASS_RESONANT if exact else CLASS_UNDETERMINED)
        assert cls.classification == CLASS_RESONANT  # the lattice point k0

        # equivalence: a shifted copy matches, an unrelated vector may not,
        # and at a loose tolerance several windings of one |k| tie
        shifted = r.representative - 3 * alpha.dot((1,) + (0,) * (d - 1)) + 2.0
        for other, tol in ((shifted, 1e-8), (float(rng.uniform(-2, 2)), 1e-8),
                           (r.representative + 0.5, 0.05)):
            r2 = RotationVector(other, alpha, {})
            assert equivalence_witness(r, r2, h, tol) == equivalence_oracle(r, r2, h, tol)
        assert equivalence_witness(r, RotationVector(shifted, alpha, {}), h) is not None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scan_chunk_size_leaves_records_unchanged(d, monkeypatch, memoised_tables):
    # a chunk size that divides no box makes every chunk boundary fall
    # mid-shell; the records must not depend on it
    p = DiophParams(ORACLE_PARAMS[d].gamma, ORACLE_PARAMS[d].tau, 30 if d == 1 else 6)

    def records():
        rng = np.random.default_rng(4)
        out = []
        for _ in range(6):
            alpha = Frequency(tuple(rng.uniform(0, 1, d)))
            r1 = RotationVector(float(rng.uniform(-2, 2)), alpha, {})
            r2 = RotationVector(r1.representative - alpha.dot((1,) * d), alpha, {})
            # at tol 0.05 in 2D and 3D, matches of the least |k| and one sign
            # fall in different chunks, so the tie-breaks cross chunk borders
            r3 = RotationVector(r1.representative + 0.5, alpha, {})
            out += [diophantine_witness(alpha, p),
                    relative_defect_minimum(float(rng.uniform(0, 1)), alpha, p.horizon, 2.0),
                    classify_arithmetic(r1, p),
                    equivalence_witness(r1, r2, p.horizon),
                    equivalence_witness(r1, r3, p.horizon, tol=0.05)]
        return out

    before = records()
    monkeypatch.setattr(arithmetic, "SCAN_ROWS", 7)
    for table in memoised_tables:  # the memoised witness is scanned again
        table.cache_clear()
    assert records() == before


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_layout_is_lexicographic_about_its_centre(d):
    n = 2
    rows = list(product(range(-n, n + 1), repeat=d))
    k = arithmetic.box_windings(d, n, np.arange(len(rows)))
    assert list(map(tuple, k.tolist())) == rows
    # k = 0 at the centre, then exactly the canonical half, in order
    centre = arithmetic.box_centre(d, n)
    assert rows[centre] == (0,) * d
    assert list(map(tuple, k[centre + 1:].tolist())) == [
        r for r in rows if any(r) and next(c for c in r if c) > 0]
    # the dense form holds the same rows in C order, and the central
    # sub-box [-m, m]^d is the box of m
    dense = np.stack(np.broadcast_arrays(*arithmetic.box_axes(d, n)), axis=-1)
    assert np.array_equal(dense.reshape(-1, d), k)
    for m in range(n + 1):
        inner = dense[arithmetic.box_inner(d, n, m)].reshape(-1, d)
        assert list(map(tuple, inner.tolist())) == list(product(range(-m, m + 1), repeat=d))


def test_witness_two_dimensional():
    # worst defect*|k|^3 over this horizon is ~0.0322 (at k = +-(1,1)),
    # so gamma = 32 passes and gamma = 20 yields that witness
    alpha = Frequency((GOLDEN, math.sqrt(2.0) - 1.0))
    assert diophantine_witness(alpha, DiophParams(32.0, 3.0, 60)) is None
    rec = diophantine_witness(alpha, DiophParams(20.0, 3.0, 60))
    assert rec is not None
    assert tuple(abs(c) for c in rec.k) == (1, 1)
    # a frequency with an exact low-order relation: k = (2, -1)
    bad = Frequency((0.3, 0.6))
    rec = diophantine_witness(bad, DiophParams(10.0, 3.0, 20))
    assert rec is not None
    assert rec.k == (2, -1)
    assert rec.defect == 0.0


def test_relative_exact_construction():
    alpha = Frequency((GOLDEN,))
    beta = (3 * GOLDEN) % 1.0
    rec = detect_resonance(beta, alpha, 10, 3.0)
    assert rec is not None
    assert rec.k == (3,)
    assert rec.defect < 1e-15


def test_relative_zero_beta_golden():
    alpha = Frequency((GOLDEN,))
    assert detect_resonance(0.0, alpha, 10, 3.0) is None
    rec = relative_defect_minimum(0.0, alpha, 10, 3.0)
    assert abs(rec.k[0]) == 8
    assert rec.defect == pytest.approx(0.05572809000084078, abs=1e-15)
    assert rec.defect > 1e-3


def test_relative_constructed_just_below_threshold():
    alpha = Frequency((GOLDEN,))
    n, nu = 12, 3.0
    thr = float(n) ** -nu
    beta = 5 * GOLDEN + 0.5 * thr
    rec = detect_resonance(beta, alpha, n, nu)
    assert rec is not None
    assert rec.k == (5,)
    assert rec.defect == pytest.approx(0.5 * thr, rel=1e-9)


def test_relative_closed_threshold_boundary():
    # alpha = 1/2 makes every defect exactly representable
    alpha = Frequency((0.5,))
    beta = 3 * 0.5 + 0.25
    rec = detect_resonance(beta, alpha, 4, 1.0)  # threshold 4^-1 = 0.25
    assert rec is not None
    assert rec.defect == rec.threshold == 0.25


def test_relative_defect_positive_for_irrational():
    alpha = Frequency((GOLDEN,))
    for n in (5, 20, 100):
        assert relative_defect_minimum(0.0, alpha, n, 3.0).defect > 0.0


def test_relative_defect_minimum_needs_a_positive_scale():
    with pytest.raises(ValueError, match="scale must be >= 1"):
        relative_defect_minimum(0.0, Frequency((GOLDEN,)), 0, 3.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dc_iff_relative_dc_at_zero(d):
    # alpha in DC(gamma, tau, K) iff beta = 0 obeys the same relative bounds
    rng = np.random.default_rng(3)
    p = {1: DiophParams(2.5, 1.8, 500)}.get(d, ORACLE_PARAMS[d])
    for _ in range(12):
        alpha = Frequency(tuple(rng.uniform(0, 1, d)))
        absolute = diophantine_witness(alpha, p) is None
        relative = all(defect >= p.bound(m) for m, _, defect in box_rows(alpha, p.horizon, 0.0))
        assert absolute == relative


def test_gauss_map_examples():
    assert gauss_map(GOLDEN) == pytest.approx(GOLDEN, abs=1e-14)
    assert gauss_map(2.0 / 7.0) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        gauss_map(0.0)
    with pytest.raises(ValueError):
        gauss_map(1.5)


def test_resonance_record_validation():
    with pytest.raises(ValueError):
        ResonanceRecord((0,), 0.1, 0.5)
    with pytest.raises(ValueError, match="defect must be nonnegative"):
        ResonanceRecord((1,), -1e-3, 0.5)
    rec = ResonanceRecord((3, -2), 1e-15, 0.5)
    assert rec.knorm == 3
    assert rec.near_rational


def test_frequency_validation():
    with pytest.raises(ValueError):
        Frequency((1.2,))
    with pytest.raises(ValueError):
        Frequency(())
    f = Frequency((0.25, 0.75))
    assert f.dimension == 2
    assert f.dot((2, 2)) == pytest.approx(2.0)
