"""Experiment harness: synthesize cocycles with known ground truth, run the
scheme, classify the rotation vector, and emit machine-readable reports.

Subcommands:
    synthesize   build a cocycle from a config and write it with its truth
    run          full pipeline: scheme + rotation analysis + report/CSV
    rho          rotation vector only, printed as JSON
    check-dioph  Diophantine witness scan for a frequency
    report-merge concatenate run reports into one document

Values given in a config file override the corresponding command-line flags.
Reports are deterministic: identical configs (including seeds) produce
byte-identical JSON.

Exit codes: 0 success, 1 ground-truth mismatch, 2 invalid config,
3 scheme failure or grid budget exceeded, 4 rotation unresolved, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .arithmetic import (
    FREQUENCY_PRESETS,
    DiophParams,
    Frequency,
    GridBudgetError,
    diophantine_witness,
)
from .cocycle import Cocycle, NormalizationError, conjugate_raw, normalize
from .fourier import (
    AlgebraMap,
    ConjugationChain,
    ConstantFactor,
    ExpFactor,
    TorusMorphism,
    grid_size,
    random_map,
    sobolev_norm,
)
from .kam import TAIL_SHARE, SchemeError, SchemeParams, run_scheme
from .rotation import (
    RotationVector,
    UnresolvedRotation,
    equivalence_witness,
    finite_resonance_audit,
    rotation_vector,
)
from .su2 import GroupElement, blockwise, quat_mul, torus_quat

EXIT_OK = 0
EXIT_TRUTH_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_SCHEME = 3
EXIT_ROTATION = 4
EXIT_IO = 5


class ConfigError(ValueError):
    pass


JSON_TYPE_NAMES = {dict: "an object", list: "a list", int: "an integer",
                   float: "a number", str: "a string", type(None): "null"}


def _check_json_type(name: str, value, hint) -> None:
    """Raise ConfigError unless value has the JSON type of the field's
    annotation, each entry of a list[T] included; an integer counts as a
    number, a boolean as neither, and an integer or a number must lie within
    the finite doubles."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    for option in options:
        kind = typing.get_origin(option) or option
        if isinstance(value, (int, float) if kind is float else kind) \
                and not isinstance(value, bool):
            break
    else:
        expected = " or ".join(JSON_TYPE_NAMES[typing.get_origin(t) or t] for t in options)
        raise ConfigError("config field %r must be %s, got %s"
                          % (name, expected, type(value).__name__))
    # false for nan and inf, and exact for an integer of any length
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError("config field %r must be a finite double" % name)
    for entry_hint in typing.get_args(option):
        for i, entry in enumerate(value):
            _check_json_type("%s[%d]" % (name, i), entry, entry_hint)


def _check_entries(prefix: str, data: dict, hints: dict) -> None:
    """Reject any key of data that hints does not list, and
    _check_json_type on the others."""
    extra = set(data) - set(hints)
    if extra:
        raise ConfigError("unknown %s keys: %s" % (prefix.rstrip(".") or "config",
                                                  sorted(extra)))
    for name, value in data.items():
        _check_json_type(prefix + name, value, hints[name])


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one synthetic experiment, checked against
    what the code reads whenever it is built: directly, by from_dict or by
    dataclasses.replace.  Building it first takes a deep copy of its fields,
    so the config owns its JSON: a later edit to the caller's dicts and
    lists reaches none of the checked values, the echo, the digest or the
    synthesis.  It also resolves its typed parameters once, as the
    plain attributes `alpha` (the Frequency), `dioph_params` and
    `scheme_params`; they are not fields, so to_dict and digest leave them
    out."""

    frequency: dict = field(default_factory=lambda: {"preset": "golden"})
    theta: float = 0.17
    chain: list = field(default_factory=list)
    perturbation: dict | None = None
    scheme: dict = field(default_factory=dict)
    dioph: dict = field(default_factory=lambda: {f.name: f.default for f in fields(DiophParams)})
    seed: int = 0
    equivalence_horizon: int = 50
    equivalence_tolerance: float = 1e-6
    report_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        # own a copy of the caller's JSON, set past the frozen __setattr__
        vars(self).update(copy.deepcopy(vars(self)))
        for name, hint in CONFIG_FIELD_TYPES.items():
            _check_json_type(name, getattr(self, name), hint)
        for section, hints in SECTION_FIELD_TYPES.items():
            _check_entries(section + ".", getattr(self, section) or {}, hints)
        if ("preset" in self.frequency) == ("value" in self.frequency):
            raise ConfigError("frequency needs exactly one of 'preset' or 'value'")
        for i, spec in enumerate(self.chain):
            _check_json_type("chain[%d]" % i, spec, dict)
            kind = spec.get("kind")
            _check_json_type("chain[%d].kind" % i, kind, str)
            if kind not in CHAIN_ENTRY_TYPES:
                raise ConfigError("unknown chain factor kind %r" % kind)
            if kind in CHAIN_REQUIRED and CHAIN_REQUIRED[kind] not in spec:
                raise ConfigError("chain[%d] needs %r" % (i, CHAIN_REQUIRED[kind]))
            _check_entries("chain[%d]." % i, spec, CHAIN_ENTRY_TYPES[kind])
        non_negative = [(name, getattr(self, name)) for name in
                        ("seed", "equivalence_horizon", "equivalence_tolerance")]
        non_negative += [("perturbation.band", (self.perturbation or {}).get("band")),
                         ("scheme.max_steps", self.scheme.get("max_steps"))]
        non_negative += [("chain[%d].band" % i, spec.get("band"))
                         for i, spec in enumerate(self.chain)]
        for name, value in non_negative:
            if value is not None and value < 0:
                raise ConfigError("config field %r must be non-negative, got %r"
                                  % (name, value))
        try:
            if "value" in self.frequency:
                alpha = Frequency(tuple(np.atleast_1d(self.frequency["value"])))
            elif self.frequency["preset"] in FREQUENCY_PRESETS:
                alpha = Frequency((FREQUENCY_PRESETS[self.frequency["preset"]],))
            else:
                raise ValueError("unknown frequency preset %r" % self.frequency["preset"])
            dioph = DiophParams(**self.dioph)
            scheme = SchemeParams.for_dioph(dioph, **self.scheme)
            for i, spec in enumerate(self.chain):
                if spec["kind"] == "constant":
                    GroupElement(spec["element"])
                elif spec["kind"] == "torus" and np.size(spec["winding"]) != alpha.dimension:
                    raise ValueError("chain[%d].winding does not fit the %dD frequency"
                                     % (i, alpha.dimension))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # set past the frozen __setattr__, as attributes that are not fields
        vars(self).update(alpha=alpha, dioph_params=dioph, scheme_params=scheme)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from its JSON object, whose keys must all be fields."""
        extra = set(data) - set(CONFIG_FIELD_TYPES)
        if extra:
            raise ConfigError("unknown config keys: %s" % sorted(extra))
        return cls(**data)

    def digest(self) -> str:
        """SHA-256 of the config without its output paths, which change no
        result: a run report and the source `synthesize` rebuilds from its
        config echo carry the same hash."""
        canon = json.dumps({f.name: getattr(self, f.name) for f in fields(self)
                            if f.name not in ("report_path", "csv_path")}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


# The keys each section may hold, with their JSON types, resolved once: the
# config fields from their annotations, the scheme and dioph entries from
# the parameters they feed, the perturbation and frequency entries and the
# chain entries (by factor kind, with the one each kind requires) from what
# synthesize_cocycle and build_chain read
CONFIG_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
SECTION_FIELD_TYPES = {"scheme": typing.get_type_hints(SchemeParams),
                       "dioph": typing.get_type_hints(DiophParams),
                       "perturbation": {"band": int, "amplitude": float},
                       "frequency": {"preset": str, "value": list[float] | float}}
CHAIN_ENTRY_TYPES = {"torus": {"kind": str, "winding": list[int] | int},
                     "exp": {"kind": str, "band": int, "amplitude": float},
                     "constant": {"kind": str, "element": list[float]}}
CHAIN_REQUIRED = {"torus": "winding", "constant": "element"}


def build_chain(cfg: ExperimentConfig, alpha: Frequency, rng) -> ConjugationChain:
    """Conjugation chain from the factor recipe, whose kinds, windings and
    elements the config has checked; RNG draws are consumed in recipe order
    so the seed pins every coefficient.  An exp factor's band must fit the
    grid budget before its table is drawn (GridBudgetError)."""
    factors = []
    for spec in cfg.chain:
        if spec["kind"] == "torus":
            factors.append(TorusMorphism(np.atleast_1d(spec["winding"])))
        elif spec["kind"] == "exp":
            band = spec.get("band", 2)
            grid_size(band, alpha.dimension)
            factors.append(ExpFactor(random_map(alpha.dimension, band,
                                                spec.get("amplitude", 1e-3), rng)))
        else:
            factors.append(ConstantFactor(GroupElement(np.asarray(spec["element"]))))
    return ConjugationChain(tuple(factors), alpha.dimension)


def synthesize_cocycle(cfg: ExperimentConfig):
    """Build Phi = Conj_H (alpha, exp(theta e)) with H from the recipe, plus
    an optional seeded multiplicative perturbation exp(P), multiplied into
    the samples on the right block by block from its exp factor's source.
    Returns the cocycle and its ground-truth rotation class."""
    alpha = cfg.alpha
    rng = np.random.default_rng(cfg.seed)
    chain = build_chain(cfg, alpha, rng)
    base = Cocycle(alpha, GroupElement(torus_quat(cfg.theta)),
                   AlgebraMap.zeros(alpha.dimension, 0))

    pert_band = cfg.perturbation.get("band", 4) if cfg.perturbation is not None else 0
    band = chain.conjugated_band(pert_band)
    m = grid_size(band, alpha.dimension)

    samples = conjugate_raw(chain, base, m)
    if cfg.perturbation is not None:
        pert = random_map(alpha.dimension, pert_band,
                          cfg.perturbation.get("amplitude", 1e-4), rng)
        samples = blockwise(ExpFactor(pert).source(m), lambda e, q: quat_mul(q, e), into=samples)
    try:
        phi = normalize(samples, alpha, band)
    except NormalizationError as exc:
        raise ConfigError("recipe produced a non-normalizable cocycle: %s" % exc) from exc

    winding_total = sum((np.atleast_1d(spec["winding"]) for spec in cfg.chain
                         if spec["kind"] == "torus"), np.zeros(alpha.dimension, dtype=int))
    truth = {
        "theta": cfg.theta,
        "winding_total": winding_total.tolist(),
        "class_representative": cfg.theta + alpha.dot(winding_total),
    }
    return phi, truth


def prepare_experiment(cfg: ExperimentConfig):
    """Front half of `synthesize`, `rho` and `run`: judge the theorem's
    hypotheses and synthesize the cocycle.  A frequency that fails its
    Diophantine check is recorded and warned of; one that passes makes its
    tau a bound that nu must exceed, checked before any grid is built.
    Returns (report head, cocycle)."""
    dioph, params = cfg.dioph_params, cfg.scheme_params

    report = {"config": cfg.to_dict(), "config_sha256": cfg.digest(),
              "horizons": {"dioph": dioph.horizon,
                           "equivalence": cfg.equivalence_horizon},
              "thresholds": {"nu": params.nu,
                             "stop_tolerance": params.stop_tolerance}}

    witness = diophantine_witness(cfg.alpha, dioph)
    if witness is not None:
        report["frequency_warning"] = (
            "frequency fails its Diophantine check at the declared constants "
            "(winding %r, defect %.3g): out of theorem hypotheses" %
            (list(witness.k), witness.defect))
        warnings.warn(report["frequency_warning"])
    elif not params.nu > dioph.tau:
        raise ConfigError("nu must exceed the declared tau")

    phi, truth = synthesize_cocycle(cfg)
    report["ground_truth"] = truth
    return report, phi


def run_experiment(cfg: ExperimentConfig):
    """Full pipeline; returns (report dict, exit code), and writes the report
    and the CSV on each of the exit codes 0, 1 and 4 it returns.  The report
    describes the source by its band, its content band and the H^0 norm of
    that content, not by its table: the config echo rebuilds the source."""
    report, phi = prepare_experiment(cfg)
    content, _dropped = phi.perturbation.trimmed(TAIL_SHARE * cfg.scheme_params.stop_tolerance)
    report["source"] = {"band": phi.perturbation.band, "content_band": content.band,
                        "h0": sobolev_norm(content, 0.0)}
    nf = run_scheme(phi, cfg.scheme_params)
    report["normal_form"] = nf.to_dict()

    try:
        rho = rotation_vector(nf)
    except UnresolvedRotation as exc:
        report["rotation"] = {"error": str(exc)}
        code = EXIT_ROTATION
    else:
        report["rotation"] = rho.to_dict()
        report["audit"] = finite_resonance_audit(nf, rho, cfg.dioph_params)
        report["classification"] = report["audit"]["classification"]

        truth_vector = RotationVector(report["ground_truth"]["class_representative"],
                                      nf.alpha, {"source": "ground-truth"})
        match = equivalence_witness(rho, truth_vector, cfg.equivalence_horizon,
                                    tol=cfg.equivalence_tolerance)
        report["truth_comparison"] = {
            "equivalent": match is not None,
            "witness": match,
        }
        code = EXIT_OK if match is not None else EXIT_TRUTH_MISMATCH

    if cfg.csv_path:
        nf.write_csv(cfg.csv_path)
    if cfg.report_path:
        _emit(report, cfg.report_path)
    return report, code


def _dump_report(report: dict, fh) -> None:
    """One line of JSON with sorted keys, through json's C encoder (json.dump
    and indent both fall back to the pure-Python one)."""
    fh.write(json.dumps(report, sort_keys=True))
    fh.write("\n")  # apart, so that the report string is not copied


def _emit(doc: dict, path) -> None:
    """_dump_report to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            _dump_report(doc, fh)
    else:
        _dump_report(doc, sys.stdout)


def _load_config(args) -> ExperimentConfig:
    """Config from the flags with the config file on top (file wins); the
    file's scheme section is merged over the flags' key by key."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold an object")
    flags = {"theta": args.theta, "seed": args.seed, "report_path": args.report or None,
             "csv_path": args.csv or None,
             "frequency": _frequency_flag(args.frequency) if args.frequency else None}
    scheme = {name: getattr(args, name) for name in ("n0", "max_steps")
              if getattr(args, name) is not None}
    if isinstance(data.get("scheme"), dict):
        data = {**data, "scheme": {**scheme, **data["scheme"]}}
    flags = {name: value for name, value in flags.items() if value is not None}
    return ExperimentConfig.from_dict({**flags, "scheme": scheme, **data})


def _frequency_flag(text: str) -> dict:
    if text in FREQUENCY_PRESETS:
        return {"preset": text}
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError("cannot parse frequency %r" % text) from exc
    return {"value": vals}


# The failures main reports, in order: the first row whose exception class
# matches gives the stderr label and the exit code; any other exception is an
# internal fault and propagates
FAILURES = ((ValueError, "config error", EXIT_CONFIG),
            (SchemeError, "scheme error", EXIT_SCHEME),
            (GridBudgetError, "grid budget error", EXIT_SCHEME),
            (UnresolvedRotation, "rotation error", EXIT_ROTATION),
            (OSError, "io error", EXIT_IO))


def _add_common(p) -> None:
    p.add_argument("--config", help="JSON config file (overrides flags)")
    p.add_argument("--frequency", help="preset name or comma-separated components")
    p.add_argument("--theta", type=float, help="constant torus angle")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--n0", type=int, help="initial scale")
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--report", help="report JSON output path")
    p.add_argument("--csv", help="diagnostics CSV output path")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="su2kam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="build a cocycle with known truth")
    _add_common(p_syn)
    p_syn.add_argument("--output", help="cocycle JSON output path")

    p_run = sub.add_parser("run", help="synthesize, run the scheme, report")
    _add_common(p_run)

    p_rho = sub.add_parser("rho", help="rotation vector only")
    _add_common(p_rho)

    p_chk = sub.add_parser("check-dioph", help="Diophantine witness scan")
    p_chk.add_argument("--frequency", required=True)
    p_chk.add_argument("--gamma", type=float)
    p_chk.add_argument("--tau", type=float)
    p_chk.add_argument("--horizon", type=int)

    p_mrg = sub.add_parser("report-merge", help="merge run reports")
    p_mrg.add_argument("inputs", nargs="+")
    p_mrg.add_argument("--output", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except tuple(row[0] for row in FAILURES) as exc:
        _kind, label, code = next(row for row in FAILURES if isinstance(exc, row[0]))
        print("%s: %s" % (label, exc), file=sys.stderr)
        return code


def _dispatch(args) -> int:
    if args.command == "synthesize":
        report, phi = prepare_experiment(_load_config(args))
        _emit({"config_sha256": report["config_sha256"], "cocycle": phi.to_dict(),
               "ground_truth": report["ground_truth"]}, args.output)
        return EXIT_OK

    if args.command == "run":
        cfg = _load_config(args)
        report, code = run_experiment(cfg)
        if not cfg.report_path:
            _emit(report, None)
        return code

    if args.command == "rho":
        cfg = _load_config(args)
        report, phi = prepare_experiment(cfg)
        rho = rotation_vector(run_scheme(phi, cfg.scheme_params))
        _emit({"config_sha256": report["config_sha256"], "rotation": rho.to_dict()},
              args.report)
        return EXIT_OK

    if args.command == "check-dioph":
        dioph = {name: getattr(args, name) for name in ("gamma", "tau", "horizon")
                 if getattr(args, name) is not None}
        cfg = ExperimentConfig.from_dict({"frequency": _frequency_flag(args.frequency),
                                          "dioph": dioph})
        p = cfg.dioph_params
        witness = diophantine_witness(cfg.alpha, p)
        _emit({
            "alpha": list(cfg.alpha.components),
            "gamma": p.gamma, "tau": p.tau, "horizon": p.horizon,
            "diophantine_at_horizon": witness is None,
            "witness": witness and {**witness.to_dict(),
                                    "near_rational": witness.near_rational},
        }, None)
        return EXIT_OK

    reports = []  # report-merge, the last of the required subcommands
    for path in args.inputs:
        with open(path) as fh:
            reports.append(json.load(fh))
    _emit({"reports": reports}, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
