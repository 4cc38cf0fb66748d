"""Iterative almost-reducibility scheme for perturbed constant cocycles.

Each step removes a detected resonance of the constant by a torus-morphism
conjugation, solves the linearised (homological) equation below a
small-divisor threshold, conjugates the cocycle exactly on a grid by the
resulting close-to-identity factor, and renormalises back to constant-times-
exponential form with the constant kept on the fixed maximal torus and the
perturbation's constant torus mode absorbed into it.  The normal form
returned to the caller is the final scheme state: its ledger of resonant
steps, accumulated conjugation chain and per-step diagnostics, the last row
of which records the final perturbation.

Scales grow like N -> N^(1+sigma); a mode is solved only when its denominator
modulus is at least N^-nu, everything else is routed to the remainder and
reabsorbed by the exact nonlinear update.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .arithmetic import (
    FREQUENCY_TABLES,
    DiophParams,
    Frequency,
    ResonanceRecord,
    box_axes,
    box_inner,
    box_shells,
    read_only,
    relative_defect_minimum,
)
from . import fourier
from .cocycle import (Cocycle, NormalizationError, conjugate_raw, fiber_log, fiber_mean,
                      log_map)
from .fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    TorusMorphism,
    chain_sobolev_partial,
    grid_size,
    sobolev_norm,
)
from .su2 import (
    CutLocusError,
    GroupElement,
    alg_log_e,
    blockwise,
    diagonalize,
    quat_angle,
    quat_conj,
    quat_mul,
    quat_rotation_matrix,
    torus_quat,
)

ALGEBRA_DIMENSION = 3  # d' for the negative-regularity diagnostic
SAFETY_EXPONENT = 2.0  # a step at scale N needs |F|_H0 <= N^-SAFETY_EXPONENT
INITIAL_BOUND = 1e-2   # largest |F|_H0 of a source cocycle the scheme accepts
TAIL_SHARE = 1e-2      # a renormalisation drops l1 mass <= TAIL_SHARE * stop_tolerance
REPLAY_POINTS = 32     # replay_error compares the fibers at x_j = j alpha mod 2, j < 32


class SchemeError(RuntimeError):
    pass


class DivergenceError(SchemeError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class CorruptStateError(SchemeError):
    pass


@dataclass(frozen=True)
class SchemeParams:
    """Knobs of the scheme; nu must exceed the tau of the base frequency."""

    n0: int = 8
    sigma: float = 0.3
    nu: float = 4.0
    max_steps: int = 20
    stop_tolerance: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1)")
        if not self.nu > 0:
            raise ValueError("nu must be positive")
        if self.n0 < 1:
            raise ValueError("initial scale must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if not self.stop_tolerance >= 0:
            raise ValueError("stop_tolerance must be non-negative")

    @classmethod
    def for_dioph(cls, p: DiophParams, **overrides) -> "SchemeParams":
        overrides.setdefault("nu", p.tau + 2.0)
        return cls(**overrides)


@dataclass(frozen=True)
class ResonantStep:
    """Ledger entry for one resonance removal."""

    step: int
    winding: tuple
    scale: int
    threshold: float
    defect_before: float
    defect_after: float
    lambda_theta: float           # torus coordinate of the resonant constant

    def to_dict(self) -> dict:
        return {**self.__dict__, "winding": list(self.winding)}


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    scale: int
    resonant: bool
    winding: tuple | None
    norm_f_h0: float
    norm_f_h1: float
    norm_f_neg: float
    norm_y_h0: float
    norm_y_h1: float
    theta: float
    accumulator: float
    chain_length: int
    band_next: int                # band the step analysed its fiber on
    band_stored: int              # band of the perturbation it stored
    tail_l1: float                # l1 mass of the modes it dropped

    def to_dict(self) -> dict:
        return {**self.__dict__,
                "winding": list(self.winding) if self.winding is not None else None}


@dataclass(frozen=True)
class SchemeState:
    """Normal form in progress; kam_step maps state to state."""

    alpha: Frequency
    theta: float
    perturbation: AlgebraMap
    scale: int
    step: int = 0
    chain: ConjugationChain = None
    ledger: tuple = ()
    diagnostics: tuple = ()
    sum_k_alpha: float = 0.0
    initial_tail_l1: float = 0.0  # l1 mass the initial renormalisation dropped

    def __post_init__(self):
        if self.chain is None:
            object.__setattr__(self, "chain",
                               ConjugationChain((), self.alpha.dimension))

    @property
    def accumulator(self) -> float:
        """Torus coordinate pulled back through all removal shifts."""
        return self.theta + self.sum_k_alpha

    def cocycle(self) -> Cocycle:
        return Cocycle(self.alpha, GroupElement(torus_quat(self.theta)), self.perturbation)

    @cached_property
    def norms(self) -> tuple:
        """H^0, H^1 and H^-(d+3) norms of the perturbation, computed once per
        state; replace() builds a new state, so no cached norm goes stale."""
        f = self.perturbation
        return (sobolev_norm(f, 0.0), sobolev_norm(f, 1.0),
                sobolev_norm(f, -(f.dimension + ALGEBRA_DIMENSION)))


@dataclass(frozen=True, kw_only=True)
class NormalForm(SchemeState):
    """Final scheme state, whose diagnostics end with the closing row, plus
    the parameters and the source cocycle the scheme ran on."""

    params: SchemeParams
    source: Cocycle

    @property
    def steps(self) -> int:
        return self.step

    @property
    def converged(self) -> bool:
        return self.diagnostics[-1].norm_f_h0 <= self.params.stop_tolerance

    @property
    def resonant_count(self) -> int:
        return len(self.ledger)

    def replay_error(self) -> float:
        """Largest distance between the chain applied to the source cocycle,
        H(x + alpha) . source(x) . H(x)^-1, and the recorded final cocycle
        A exp(F(x)), at the REPLAY_POINTS orbit points x_j = j alpha mod 2;
        the normal-form consistency invariant.  Every factor is 2-periodic
        (a torus morphism of odd winding changes sign under x -> x + 1 but
        not under x -> x + 2), so the reduction mod 2 leaves each value as
        it is and H(x_j + alpha) is the chain at x_{j+1}: the chain is
        evaluated once on the REPLAY_POINTS + 1 orbit points, and every
        value is a direct sum, with no grid."""
        orbit = np.arange(REPLAY_POINTS + 1)[:, None] * self.alpha.vector % 2.0
        h = self.chain.evaluate_at(orbit)
        replayed = quat_mul(h[1:], quat_mul(self.source.fiber_at(orbit[:-1]), quat_conj(h[:-1])))
        recorded = self.cocycle().fiber_at(orbit[:-1])
        return float(np.max(quat_angle(quat_mul(replayed, quat_conj(recorded)))))

    def chain_prefix_norms(self):
        """Negative-regularity norms of the chain prefixes in application
        order, aligned so that entry i is the full chain as it stood when i
        factors existed; nan when the grid's m^d points would exceed
        fourier.GRID_POINTS; empty for an empty chain."""
        m = 2 * self.chain.content_bound() + 8
        if m ** self.alpha.dimension > fourier.GRID_POINTS:
            return [float("nan")] * len(self.chain)
        return chain_sobolev_partial(
            self.chain, -(self.alpha.dimension + ALGEBRA_DIMENSION), m)

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha.components),
            "params": asdict(self.params),
            "converged": self.converged,
            "steps": self.steps,
            "constants": [row.theta for row in self.diagnostics],
            "final_theta": self.theta,
            "sum_k_alpha": self.sum_k_alpha,
            "resonant_count": self.resonant_count,
            "ledger": [r.to_dict() for r in self.ledger],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "final_residual_h0": self.diagnostics[-1].norm_f_h0,
            "initial_tail_l1": self.initial_tail_l1,
            "chain": self.chain.to_dict(),
        }

    def write_csv(self, path) -> None:
        """Per-step diagnostics with fixed column order:
        n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg
        """
        # the empty prefix is the identity, of norm 1
        prefix_norms = [1.0] + self.chain_prefix_norms()
        with open(path, "w") as stream:
            stream.write("n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg\n")
            for row in self.diagnostics:
                kcol = "" if row.winding is None else ";".join(str(c) for c in row.winding)
                stream.write("%d,%d,%d,%s,%.17g,%.17g,%.17g\n" % (
                    row.step, row.scale, int(row.resonant), kcol,
                    row.norm_f_h0, row.norm_f_h1, prefix_norms[row.chain_length]))


# ---------------------------------------------------------------------------
# homological solve


@lru_cache(maxsize=FREQUENCY_TABLES)
def _divisor_tables(alpha: Frequency, band: int):
    """The theta-free tables of solve_homological on the box |k| <= band:
    e(k.alpha) and the torus denominators e(k.alpha) - 1.  Memoised per
    (alpha, band), read-only; an entry holds 2 (2 band + 1)^d complex
    numbers, at most 64 MiB for a box whose grid fits fourier.GRID_POINTS,
    so FREQUENCY_TABLES x 64 MiB = 2 GiB at worst."""
    kalpha = sum(k * a for k, a in zip(box_axes(alpha.dimension, band), alpha.components))
    unit = np.exp(2j * np.pi * kalpha)
    return read_only(unit), read_only(unit - 1.0)


def solve_homological(theta: float, f: AlgebraMap, alpha: Frequency, n: int, nu: float):
    """Solve Y(x+alpha) - Ad(A).Y(x) = F(x) - obstruction, mode by mode.

    A = exp(theta e).  Torus-component denominators are e(k.alpha) - 1 with
    the k = 0 coefficient returned as the constant obstruction; the complex
    off-torus field w = c_x + i c_y has denominators e(k.alpha) - e(theta)
    (its conjugate sees the other root, e(k.alpha) - e(-theta)).  A mode is
    solved only when |k| <= n and its denominator modulus is at least n^-nu;
    everything else lands in the remainder.

    Returns (y, obstruction, remainder).  y lives on the solve box
    |k| <= min(n, f.band), outside of which it has no modes; obstruction and
    remainder live on f's box, and f == L(y.padded(f.band)) + obstruction +
    remainder exactly in coefficients.
    """
    if n < 1:
        raise ValueError("scale must be positive")
    if not nu > 0:
        raise ValueError("nu must be positive")
    thr = float(n) ** -nu
    d, band = f.dimension, f.band
    unit, e_den = _divisor_tables(alpha, band)
    w_den = unit - np.exp(2j * np.pi * theta)

    maxnorm = box_shells(d, band)
    in_box = maxnorm <= n
    is_zero = maxnorm == 0

    e_keep = in_box & ~is_zero & (np.abs(e_den) >= thr)
    w_keep = in_box & (np.abs(w_den) >= thr)
    if np.any(np.abs(e_den[e_keep]) < 1e-13) or np.any(np.abs(w_den[w_keep]) < 1e-13):
        raise SchemeError("denominator underflow on a retained mode (missed resonance?)")

    fe = f.e_field()
    fw = f.w_field()

    ye = np.zeros_like(fe)
    np.divide(fe, e_den, out=ye, where=e_keep)
    yw = np.zeros_like(fw)
    np.divide(fw, w_den, out=yw, where=w_keep)

    re = np.where(e_keep | is_zero, 0.0, fe)
    rw = np.where(w_keep, 0.0, fw)

    obstruction = np.array([float(np.real(fe[(band,) * d])), 0.0, 0.0])

    box = min(n, band)
    inner = box_inner(d, band, box)
    y = AlgebraMap.from_fields(d, box, ye[inner], yw[inner])
    remainder = AlgebraMap.from_fields(d, band, re, rw)
    return y, obstruction, remainder


def detect_resonance(theta: float, alpha: Frequency, n: int, nu: float):
    """Resonance of the constant's root at scale n: the winding minimising
    |theta - k.alpha|_Z if its defect is within the closed threshold n^-nu,
    else None.

    The scan over all signed windings covers both roots +-theta: a record for
    the root -theta at winding k coincides with one for theta at -k.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    rec = relative_defect_minimum(theta, alpha, n, nu)
    return rec if rec.defect <= rec.threshold else None


def remove_resonance(state: SchemeState, record: ResonanceRecord) -> SchemeState:
    """Conjugate by a torus morphism of winding -k: theta -> theta - k.alpha,
    j-component spectrum shifts by -k, ledger and chain are extended.

    Bookkeeping only: it judges nothing and raises nothing.  Whether the
    shifted constant is still resonant is for detect_resonance, which
    kam_step runs again after the removal.  defect_after is the record's
    defect: the scan computed |theta - k.alpha|_Z from the same operands,
    bit for bit."""
    k = record.k
    kalpha = state.alpha.dot(k)
    shifted = state.theta - kalpha
    delta = shifted - np.rint(shifted)
    lam = state.theta - delta       # resonant constant on the same torus

    # the padding by |k| makes the shift of w by -k wrap only zeros
    f = state.perturbation.padded(state.perturbation.band + record.knorm)
    w_new = np.roll(f.w_field(), tuple(-c for c in k), axis=tuple(range(f.dimension)))
    f_new = AlgebraMap.from_fields(f.dimension, f.band, f.e_field(), w_new)

    entry = ResonantStep(
        step=state.step, winding=k, scale=state.scale,
        threshold=record.threshold, defect_before=record.defect,
        defect_after=record.defect, lambda_theta=lam,
    )
    return replace(
        state,
        theta=shifted,
        perturbation=f_new,
        chain=state.chain.prepended(TorusMorphism(tuple(-c for c in k))),
        ledger=state.ledger + (entry,),
        sum_k_alpha=state.sum_k_alpha + kalpha,
    )


def _diagnostics_row(state: SchemeState, norms, band_next: int, band_stored: int,
                     tail_l1: float = 0.0, record: ResonanceRecord = None,
                     y: AlgebraMap = None) -> StepDiagnostics:
    """Row for one step: the perturbation norms it started from, the removed
    resonance and the generator Y it solved (none on the closing row), the
    constant, accumulator and chain length it left, and the band it analysed
    on, the band it stored and the l1 mass it dropped (on the closing row,
    which renormalises nothing, the final band twice and 0)."""
    return StepDiagnostics(
        step=state.step, scale=state.scale,
        resonant=record is not None,
        winding=record.k if record is not None else None,
        norm_f_h0=norms[0], norm_f_h1=norms[1], norm_f_neg=norms[2],
        norm_y_h0=sobolev_norm(y, 0.0) if y is not None else 0.0,
        norm_y_h1=sobolev_norm(y, 1.0) if y is not None else 0.0,
        theta=state.theta, accumulator=state.accumulator,
        chain_length=len(state.chain),
        band_next=band_next, band_stored=band_stored, tail_l1=tail_l1,
    )


def _renormalize(sample, band: int, chain: ConjugationChain,
                 params: SchemeParams, theta_prev: float = 0.0,
                 constant: GroupElement = None):
    """Constant-times-exponential form, on the fixed torus, of the fiber
    samples that sample() builds.

    The frame p is diagonalize(constant, theta_prev), where `constant` is
    by default the samples' cocycle.fiber_mean: p turns the constant's axis
    onto the torus direction of theta_prev's branch, never about e, and
    theta is the representative nearest theta_prev, so the torus coordinate
    is carried on from step to step (the initial state, at theta_prev 0,
    takes +e and theta in [0, 1]).  A frame other than the identity
    straightens the samples and is recorded as ConstantFactor(p); the
    identity is neither applied nor recorded.  theta then takes up the
    constant torus mode: one shift by the grid mean of the e component of
    log(exp(-theta e) . samples) moves c_e(0), which no homological solve
    removes, into the constant, as in Eliasson's scheme, and leaves it at
    round-off (a second pass changes no outcome).  The log_map of the
    samples' cocycle.fiber_log relative to exp(theta e) is taken on the band
    and stored on its content box.
    Returns the perturbation, theta, the l1 mass the trim dropped, and the
    chain.

    One sample grid is alive at a time, and none during the analysis.  The
    grid is built here, so no caller holds it.  The frame turn runs in place
    and the logarithms block by block (su2.blockwise): the shift's e
    coordinates go to one scalar grid, and the logarithms are written once,
    to their own grid, after which the sample grid is released.  The fiber
    mean, the shift's mean, and log_map's transforms and resynthesis maximum
    stay whole-grid: a sum's rounding depends on its order, and a transform
    reads every point.

    Whatever part of the straightened constant lies off the torus goes into
    the perturbation, so the renormalisation is exact up to the resynthesis
    error, which log_map bounds (a failure raises SchemeError), and up to
    the trim.  Raises NormalizationError when the fiber mean collapses and
    CutLocusError when a sample is too far from exp(theta e) for the
    logarithm.

    The trim keeps the smallest box whose dropped modes have l1 mass at most
    TAIL_SHARE * stop_tolerance.  That mass bounds the sup-norm change of
    the logarithm, and exp and fibered conjugation move a fiber by no more
    than that in the metric of replay_error.  So each renormalisation adds
    at most TAIL_SHARE * stop_tolerance to replay_error, and a converged
    run's true residual is at most the reported one plus
    (max_steps + 1) * TAIL_SHARE * stop_tolerance, the initial state's trim
    included.
    """
    samples = sample()
    if constant is None:
        constant = GroupElement(fiber_mean(samples))
    p_frame, theta = diagonalize(constant, theta_prev)
    if not np.array_equal(p_frame.q, np.array([1.0, 0.0, 0.0, 0.0])):
        samples = blockwise(quat_conj(p_frame.q), partial(_turned, p_frame.q), into=samples)
        chain = chain.prepended(ConstantFactor(p_frame))
    theta += np.mean(blockwise(samples, partial(quat_mul, quat_conj(torus_quat(theta))),
                               alg_log_e))
    logs = fiber_log(samples, torus_quat(theta))
    del samples
    try:
        f = log_map(logs, band)
    except NormalizationError as exc:
        raise SchemeError(str(exc)) from exc
    f, dropped = f.trimmed(TAIL_SHARE * params.stop_tolerance)
    return f, theta, dropped, chain


def _turned(p, p_conj, samples):
    return quat_mul(p, quat_mul(samples, p_conj))


def kam_step(state: SchemeState, params: SchemeParams) -> SchemeState:
    """One scheme step: resonance handling, homological solve, exact grid
    conjugation by exp(Y), renormalisation, scale growth.

    A resonance that detect_resonance finds is removed, and the gate then
    runs again on the shifted constant at the same scale: a second
    resonance there is not removable (Eliasson's scheme needs one per
    scale) and raises CorruptStateError."""
    norms = state.norms
    safety = float(state.scale) ** -SAFETY_EXPONENT
    if norms[0] > safety:
        raise SchemeError("perturbation %.3g above the step safety bound %.3g"
                          % (norms[0], safety))

    record = detect_resonance(state.theta, state.alpha, state.scale, params.nu)
    if record is not None:
        state = remove_resonance(state, record)
        again = detect_resonance(state.theta, state.alpha, state.scale, params.nu)
        if again is not None:
            raise CorruptStateError("constant still resonant after removal (winding %r)"
                                    % (again.k,))

    w, _obstruction, _remainder = solve_homological(
        state.theta, state.perturbation, state.alpha, state.scale, params.nu)
    rot = quat_rotation_matrix(torus_quat(state.theta))
    y = (-1.0) * w.rotated(rot)

    n_next = max(state.scale + 1, int(round(float(state.scale) ** (1.0 + params.sigma))))
    # the conjugated fiber has the band of its content, whatever the scale:
    # the band starts from the trimmed one and Y lives on its solve box
    band_next = max(1, state.perturbation.band + 2 * y.band)
    d = state.alpha.dimension

    factor = ExpFactor(y)
    chain = state.chain.prepended(factor) if np.any(y.coeffs != 0) else state.chain
    try:
        f_next, theta_next, dropped, chain = _renormalize(
            partial(conjugate_raw, factor, state.cocycle(), grid_size(band_next, d)),
            band_next, chain, params, theta_prev=state.theta)
    except (NormalizationError, CutLocusError) as exc:
        raise DivergenceError(
            "conjugated fiber left the perturbative neighborhood at step %d: %s"
            % (state.step, exc), state=state) from exc

    state = replace(state, chain=chain)
    row = _diagnostics_row(state, norms, band_next, f_next.band, dropped, record, y)
    return replace(
        state,
        theta=theta_next,
        perturbation=f_next,
        scale=n_next,
        step=state.step + 1,
        diagnostics=state.diagnostics + (row,),
    )


def initial_state(phi: Cocycle, params: SchemeParams) -> SchemeState:
    """Diagonalise the constant part and renormalise the source fiber onto
    the fixed torus as every step does; the normal form starts empty."""
    band = phi.perturbation.band
    perturbation, theta, dropped, chain = _renormalize(
        partial(phi.fiber_grid, grid_size(band, phi.dimension)), band,
        ConjugationChain((), phi.dimension), params, constant=phi.constant)
    return SchemeState(
        alpha=phi.alpha, theta=theta, perturbation=perturbation,
        scale=params.n0, chain=chain, initial_tail_l1=dropped,
    )


def run_scheme(phi: Cocycle, params: SchemeParams = SchemeParams()) -> NormalForm:
    """Iterate kam_step until the perturbation falls below stop_tolerance or
    max_steps is exhausted; returns the final state, closing row appended,
    as the normal form.  Whether nu exceeds the frequency's tau is the
    caller's to judge: the scheme runs on the nu it is given."""
    if sobolev_norm(phi.perturbation, 0.0) > INITIAL_BOUND:
        raise SchemeError("initial perturbation outside the perturbative regime")
    state = initial_state(phi, params)
    while state.step < params.max_steps and state.norms[0] > params.stop_tolerance:
        step_state = kam_step(state, params)
        h0, h0_next = state.norms[0], step_state.norms[0]
        if h0_next > h0 and h0_next > params.stop_tolerance:
            raise DivergenceError("perturbation grew from %.3g to %.3g at step %d"
                                  % (h0, h0_next, state.step), state=step_state)
        state = step_state
    band = state.perturbation.band
    closing = _diagnostics_row(state, state.norms, band, band)
    return NormalForm(**{f.name: getattr(state, f.name) for f in fields(state)}
                      | {"diagnostics": state.diagnostics + (closing,)}, params=params, source=phi)
