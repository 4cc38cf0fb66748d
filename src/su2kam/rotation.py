"""Fibered rotation vectors: estimation, equivalence, arithmetic class.

The rotation vector of a converged normal form is the torus coordinate of
the limiting constant pulled back through every resonance-removal shift:
representative = theta_final + sum_i k_i . alpha.  It is well defined only
up to the shift k . alpha of a torus morphism of winding k, the full center
periods 2m (since exp(2e) = Id) and the torus reversal r -> -r, which
together make up the equivalence class searched by `equivalence_check`:
sign r1 - r2 = k . alpha + 2m.  The horizon bounds only the winding k; every
period shift 2m is exact, so m is free.

The arithmetic class of the vector relative to alpha drives the
reducibility prediction: a Diophantine root forces the resonance ledger to
terminate, a resonant root means the cocycle reduces to a center element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product, starmap

import numpy as np

from .arithmetic import (DiophParams, Frequency, ResonanceRecord, box_centre, least_winding,
                         max_norm, scan_box)
from .cocycle import Cocycle, c0_distance, conjugate
from .fourier import AlgebraMap, ConjugationChain, ExpFactor
from .kam import NormalForm, run_scheme

CLASS_DIOPHANTINE = "diophantine-wrt-alpha"
CLASS_RESONANT = "resonant-wrt-alpha"
CLASS_UNDETERMINED = "undetermined"

EXACT_RESONANCE_TOL = 1e-12
CAUCHY_TOL = 1e-8  # largest accepted gap between the last two accumulators


class UnresolvedRotation(RuntimeError):
    """Rotation vector not resolved at this horizon."""


@dataclass(frozen=True)
class RotationVector:
    representative: float
    alpha: Frequency
    provenance: dict

    def to_dict(self) -> dict:
        return {**self.__dict__, "alpha": list(self.alpha.components)}


def rotation_vector(nf: NormalForm) -> RotationVector:
    """Accumulated torus coordinate of a converged normal form.

    The Cauchy certificate requires the accumulators of the last two
    recorded steps to agree within CAUCHY_TOL; otherwise the limit is not
    resolved at this horizon.  A run that took no step has only its closing
    row, and gap 0.
    """
    if not nf.converged:
        raise UnresolvedRotation("scheme did not converge; no rotation vector")
    last_two = [row.accumulator for row in nf.diagnostics[-2:]]
    gap = abs(last_two[-1] - last_two[0])
    if gap > CAUCHY_TOL:
        raise UnresolvedRotation(
            "rotation vector not resolved at this horizon (last gap %.3g)" % gap)
    provenance = {
        "steps": nf.steps,
        "resonant_steps": nf.resonant_count,
        "windings": [list(r.winding) for r in nf.ledger],
        "final_residual_h0": nf.diagnostics[-1].norm_f_h0,
        "cauchy_gap": gap,
    }
    return RotationVector(float(nf.accumulator), nf.alpha, provenance)


def equivalence_witness(r1: RotationVector, r2: RotationVector,
                        horizon: int, tol: float = 1e-8):
    """Least match of sign r1 - r2 = k.alpha + 2m within tol over windings
    |k| <= horizon, any integer m and both Weyl signs, by (|k|, sign +1
    before -1, k before -k, lex of the canonical row): a dict of sign, k, m
    and residual, or None.  One scan of the zero winding and the canonical
    half tries each row as k and as -k, since (-k).alpha is -(k.alpha) bit
    for bit; each chunk is reduced to its least match before the next chunk
    is built."""
    if r1.alpha != r2.alpha:
        raise ValueError("rotation vectors live over different frequencies")
    best = None
    for found in starmap(partial(_least_match, r1, r2, tol),
                         scan_box(r1.alpha, horizon, box_centre(r1.alpha.dimension, horizon))):
        # the row makes the key total, so no tie depends on the chunking
        if found and (best is None or found[0] < best[0]):
            best = found
        if best and best[0][0] == 0:  # the zero winding heads the scan
            break
    return None if best is None else best[1]


def _least_match(r1: RotationVector, r2: RotationVector, tol: float, k, knorm, kalpha):
    """(key, witness) of equivalence_witness's order for one chunk of the
    scan, or None when no row of the chunk matches."""
    best = None
    # c orders the moves: sign +1 before -1, then k before -k
    for c, (sign, orientation) in enumerate(product((1, -1), repeat=2)):
        rest = sign * r1.representative - r2.representative - orientation * kalpha
        ms = np.rint(rest / 2.0)
        residuals = np.abs(rest - 2.0 * ms)
        rows = np.flatnonzero(residuals <= tol)
        if rows.size == 0:
            continue
        i = rows[np.argmin(knorm[rows])]  # the first of least |k|, lexicographically
        key = (knorm[i], c, tuple(k[i]))
        if best is None or key < best[0]:
            best = (key, {"sign": sign, "k": (orientation * k[i]).tolist(),
                          "m": int(ms[i]), "residual": float(residuals[i])})
    return best


def equivalence_check(r1: RotationVector, r2: RotationVector,
                      horizon: int, tol: float = 1e-8) -> bool:
    """True iff the representatives agree modulo the rotation-class lattice
    at this horizon; False means 'not equivalent at this horizon'."""
    return equivalence_witness(r1, r2, horizon, tol) is not None


def fold_representative(representative: float) -> float:
    """Canonical root angle in [0, 1]: reduce mod 2 and reflect."""
    t = representative % 2.0
    return 2.0 - t if t > 1.0 else t


@dataclass(frozen=True)
class ArithmeticClassification:
    classification: str
    beta: float
    witness: ResonanceRecord | None
    horizon: int

    def to_dict(self) -> dict:
        return {**self.__dict__, "witness": self.witness and self.witness.to_dict()}


def classify_arithmetic(r: RotationVector, p: DiophParams) -> ArithmeticClassification:
    """Diophantine-versus-resonant class of the folded representative.

    Scans |beta - k.alpha|_Z against gamma^-1 |k|^-tau over the horizon.  No
    violation predicts smooth reducibility.  Otherwise the witness is the
    least violator by (defect, |k|, lex): when its defect is at most 1e-12
    it is a resonance, the vector is equivalent to a lattice point; a
    near-violation leaves the class undetermined at these constants.
    """
    beta = fold_representative(r.representative)
    witness = least_winding(r.alpha, p.horizon, beta, bound=p.bound)
    if witness is None:
        return ArithmeticClassification(CLASS_DIOPHANTINE, beta, None, p.horizon)
    exact = witness.defect <= EXACT_RESONANCE_TOL
    return ArithmeticClassification(CLASS_RESONANT if exact else CLASS_UNDETERMINED,
                                    beta, witness, p.horizon)


def invariance_probe(phi: Cocycle, b: AlgebraMap) -> dict:
    """Compare rotation vectors of phi and of its conjugate by exp(b).

    Reports both representatives, the equivalence verdict at horizon 50,
    and the gap against the C^0 distance of the two cocycles (continuity
    probe).
    """
    chain = ConjugationChain((ExpFactor(b),), phi.dimension)
    phi2 = conjugate(chain, phi)
    nf1 = run_scheme(phi)
    nf2 = run_scheme(phi2)
    r1 = rotation_vector(nf1)
    r2 = rotation_vector(nf2)
    distance = c0_distance(phi, phi2)
    gap = abs(r1.representative - r2.representative)
    return {
        "r1": r1.representative,
        "r2": r2.representative,
        "equivalent": equivalence_check(r1, r2, 50),
        "representative_gap": gap,
        "c0_distance": distance,
        "gap_to_distance_ratio": gap / distance if distance > 0 else 0.0,
    }


def finite_resonance_audit(nf: NormalForm, r: RotationVector,
                           p: DiophParams) -> dict:
    """Check the ledger inequalities and whether resonant steps terminate.

    Per resonant step the removal defect must sit below both the scale
    threshold and |k|^-nu (windings are bounded by the scale); when the
    rotation vector is Diophantine relative to alpha the resonances must
    cease strictly before the observed horizon.  Inconsistencies are
    reported, not raised.
    """
    issues = []
    checks = []
    for entry in nf.ledger:
        knorm = max_norm(entry.winding)
        flags = {
            "winding_within_scale": bool(knorm <= entry.scale),
            "defect_below_threshold": bool(entry.defect_before <= entry.threshold),
            "defect_below_winding_power":
                bool(entry.defect_before < float(knorm) ** -nf.params.nu + 1e-15),
            "post_removal_defect_ok": bool(entry.defect_after <= entry.threshold + 1e-12),
        }
        checks.append({"step": entry.step, "winding": list(entry.winding), **flags})
        issues.extend("step %d: %s failed" % (entry.step, name)
                      for name, ok in flags.items() if not ok)
    all_hold = not issues  # so far the issues are exactly the false flags
    classification = classify_arithmetic(r, p)
    last_resonant = max((e.step for e in nf.ledger), default=None)
    ceased = last_resonant is None or last_resonant < nf.steps - 1
    if classification.classification == CLASS_DIOPHANTINE and not ceased:
        issues.append("Diophantine class but resonances persist to the horizon")
    return {
        "ledger_checks": checks,
        "all_inequalities_hold": all_hold,
        "classification": classification.to_dict(),
        "resonant_steps": nf.resonant_count,
        "last_resonant_step": last_resonant,
        "steps_observed": nf.steps,
        "resonances_ceased": bool(ceased),
        "issues": issues,
    }
