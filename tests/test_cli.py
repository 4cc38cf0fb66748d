import json
import math
import re
from dataclasses import FrozenInstanceError, astuple, replace
from pathlib import Path

import numpy as np
import pytest

from su2kam import arithmetic, cli, fourier, kam
from su2kam.arithmetic import DiophParams
from su2kam.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_ROTATION,
    EXIT_SCHEME,
    ConfigError,
    ExperimentConfig,
    main,
    run_experiment,
    synthesize_cocycle,
)
from su2kam.cocycle import conjugate_raw
from su2kam.fourier import ConjugationChain, grid_size, sobolev_norm
from su2kam.su2 import quat_angle, quat_conj, quat_mul, torus_quat

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TWO_FREQ_CONFIG = {
    "frequency": {"value": [GOLDEN, math.sqrt(2.0) - 1.0]},
    "theta": 0.1,
    "chain": [{"kind": "torus", "winding": [1, 1]}],
    "perturbation": {"band": 2, "amplitude": 1e-5},
    "scheme": {"n0": 4, "max_steps": 8},
    "dioph": {"gamma": 32.0, "tau": 3.0, "horizon": 60},
    "seed": 5,
}


@pytest.fixture(scope="module")
def two_freq_run(tmp_path_factory):
    """The two-frequency config, run twice to two report paths: (config
    path, [report path per run])."""
    root = tmp_path_factory.mktemp("two_freq_run")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TWO_FREQ_CONFIG))
    paths = [root / "a.json", root / "b.json"]
    for path in paths:
        assert main(["run", "--config", str(cfg_path), "--report", str(path)]) == EXIT_OK
    return cfg_path, paths


def recovery_config(**overrides):
    base = {
        "frequency": {"preset": "golden"},
        "theta": 0.17,
        "chain": [
            {"kind": "torus", "winding": [3]},
            {"kind": "exp", "band": 3, "amplitude": 1e-3},
        ],
        "perturbation": {"band": 4, "amplitude": 1e-4},
        "seed": 2026,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_config_roundtrip_and_digest():
    cfg = recovery_config()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again.to_dict() == cfg.to_dict()
    assert again.digest() == cfg.digest()
    assert recovery_config(seed=7).digest() != cfg.digest()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nonsense": 1})
    with pytest.raises(ConfigError):
        recovery_config(scheme={"bogus_knob": 3}).scheme_params
    with pytest.raises(ConfigError):
        recovery_config(scheme={"grid_factor": 4}).scheme_params
    with pytest.raises(ConfigError):
        ExperimentConfig(frequency={"preset": "unknown"}).alpha


def test_synthesize_constant_cocycle_truth():
    cfg = ExperimentConfig(theta=0.31, chain=[], perturbation=None)
    phi, truth = synthesize_cocycle(cfg)
    assert truth["class_representative"] == pytest.approx(0.31)
    assert truth["winding_total"] == [0]
    assert np.max(np.abs(phi.perturbation.coeffs)) < 1e-12


def test_synthesize_with_chain_truth():
    cfg = recovery_config()
    phi, truth = synthesize_cocycle(cfg)
    assert truth["winding_total"] == [3]
    assert truth["class_representative"] == pytest.approx(0.17 + 3 * GOLDEN)
    # the chain shifted the constant into the expected class
    assert phi.alpha.components[0] == pytest.approx(GOLDEN)


def test_run_experiment_recovery_and_exit_code(tmp_path):
    cfg = recovery_config(
        report_path=str(tmp_path / "report.json"),
        csv_path=str(tmp_path / "diag.csv"),
    )
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert report["truth_comparison"]["equivalent"]
    assert report["normal_form"]["converged"]
    assert report["config_sha256"] == cfg.digest()
    assert report["horizons"]["dioph"] == 10000
    assert report["thresholds"]["nu"] == 4.0
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["truth_comparison"]["equivalent"]
    lines = (tmp_path / "diag.csv").read_text().strip().splitlines()
    assert lines[0] == "n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg"


def test_run_experiment_deterministic(tmp_path):
    # the identical config, run twice, must emit byte-identical reports
    p = tmp_path / "report.json"
    cfg = recovery_config(report_path=str(p))
    run_experiment(cfg)
    first = p.read_bytes()
    run_experiment(cfg)
    assert p.read_bytes() == first


def test_report_is_one_line_of_sorted_json(tmp_path):
    p = tmp_path / "report.json"
    cfg = recovery_config(report_path=str(p))
    run_experiment(cfg)
    text = p.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    first = p.read_bytes()
    run_experiment(cfg)
    assert p.read_bytes() == first


def test_run_experiment_uses_real_ffts_and_the_c_json_encoder(tmp_path, monkeypatch):
    # every grid is real, so no complex n-d FFT runs, and a complex 1D FFT
    # takes only complex data: the leading axes of a real transform's
    # spectrum, or a chain prefix twisted onto its coset.  The report goes
    # through json's C encoder, never the pure-Python one that
    # _make_iterencode builds
    def forbidden(*args, **kwargs):
        raise AssertionError("complex FFT or pure-Python JSON encoder used")

    calls = []

    def complex_only(name, transform):
        def checked(a, *args, **kwargs):
            if not np.iscomplexobj(a):
                raise AssertionError("np.fft.%s of a real array" % name)
            calls.append(name)
            return transform(a, *args, **kwargs)
        return checked

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, complex_only(name, getattr(np.fft, name)))
    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    cfg = ExperimentConfig.from_dict({
        **TWO_FREQ_CONFIG,
        "chain": TWO_FREQ_CONFIG["chain"] + [{"kind": "exp", "band": 3, "amplitude": 1e-3}],
        "report_path": str(tmp_path / "report.json"),
        "csv_path": str(tmp_path / "diag.csv"),
    })
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert report["normal_form"]["converged"]
    assert json.loads((tmp_path / "report.json").read_text()) == json.loads(json.dumps(report))
    assert (tmp_path / "diag.csv").read_text().startswith("n,N,resonant,k,")
    assert set(calls) == {"fft", "ifft"}


def test_run_experiment_constant_cocycle():
    cfg = ExperimentConfig(theta=0.29, chain=[], perturbation=None)
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert report["normal_form"]["resonant_count"] == 0
    assert report["normal_form"]["steps"] == 0
    assert report["truth_comparison"]["equivalent"]
    assert report["rotation"]["representative"] == pytest.approx(0.29, abs=1e-12)


def test_run_experiment_liouville_warns():
    cfg = ExperimentConfig(frequency={"preset": "liouville"}, theta=0.17,
                           perturbation={"band": 2, "amplitude": 1e-6})
    with pytest.warns(UserWarning):
        report, _code = run_experiment(cfg)
    assert "out of theorem hypotheses" in report["frequency_warning"]


def test_main_run_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = recovery_config(report_path=str(tmp_path / "r.json"))
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["truth_comparison"]["equivalent"]


def test_main_unresolved_run_still_writes_its_outputs(tmp_path, capsys):
    # one step leaves the rotation unresolved (exit 4); the report and the
    # CSV are written all the same
    report_path, csv_path = tmp_path / "report.json", tmp_path / "diag.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "theta": 0.17, "perturbation": {"band": 4, "amplitude": 1e-4},
        "scheme": {"max_steps": 1}, "seed": 3,
        "report_path": str(report_path), "csv_path": str(csv_path)}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ROTATION
    assert capsys.readouterr().out == ""
    report = json.loads(report_path.read_text())
    assert report["rotation"]["error"]
    assert "truth_comparison" not in report
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg"
    assert len(rows) - 1 == report["normal_form"]["steps"] + 1


def test_main_rho_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ExperimentConfig(
        theta=0.25, chain=[], perturbation={"band": 3, "amplitude": 1e-5}).to_dict()))
    assert main(["rho", "--config", str(cfg_path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rotation"]["representative"] == pytest.approx(0.25, abs=1e-6)


def test_main_zero_max_steps_flag_reaches_the_scheme(tmp_path):
    report_path = tmp_path / "report.json"
    main(["run", "--theta", "0.25", "--max-steps", "0", "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    assert report["config"]["scheme"] == {"max_steps": 0}
    assert report["normal_form"]["params"]["max_steps"] == 0


def test_main_check_dioph(capsys):
    assert main(["check-dioph", "--frequency", "golden",
                 "--gamma", "3", "--tau", "2", "--horizon", "10000"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["diophantine_at_horizon"] is True
    assert main(["check-dioph", "--frequency", "0.5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["diophantine_at_horizon"] is False
    assert doc["witness"]["near_rational"] is True


def test_main_report_merge(tmp_path, capsys):
    docs = []
    for i in range(2):
        p = tmp_path / ("r%d.json" % i)
        p.write_text(json.dumps({"id": i}))
        docs.append(str(p))
    out = tmp_path / "merged.json"
    assert main(["report-merge", *docs, "--output", str(out)]) == EXIT_OK
    merged = json.loads(out.read_text())
    assert [r["id"] for r in merged["reports"]] == [0, 1]


def test_main_report_merge_of_run_reports(two_freq_run, tmp_path):
    # run reports, canonical-half chains and all, merge as they were written
    paths = two_freq_run[1]
    out = tmp_path / "merged.json"
    assert main(["report-merge", *map(str, paths), "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["reports"] == [json.loads(p.read_text()) for p in paths]


def test_main_flag_and_config_precedence(tmp_path, capsys):
    # config file overrides the conflicting flag
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta": 0.31}))
    assert main(["synthesize", "--config", str(cfg_path), "--theta", "0.11"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ground_truth"]["theta"] == pytest.approx(0.31)


def test_main_config_error_exit(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"frequency": {"preset": "nope"}}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    cfg_path.write_text("[1]")
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    # tau at or below the frequency dimension is invalid, mapped to config exit
    cfg_path.write_text(json.dumps({
        "frequency": {"value": [0.3, 0.7]},
        "dioph": {"gamma": 3.0, "tau": 2.0, "horizon": 50}}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    # rho runs the front half of run, so it checks nu > tau too
    cfg_path.write_text(json.dumps({"scheme": {"nu": 1.5}, "dioph": {"tau": 2.0}}))
    for command in ("run", "rho"):
        assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
        # n0 = 0 reaches SchemeParams, whose validation maps to the config exit
        assert main([command, "--theta", "0.25", "--n0", "0"]) == EXIT_CONFIG
    capsys.readouterr()
    # a frequency flag that is neither a preset nor a list of numbers
    assert main(["run", "--frequency", "0.3,abc"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: cannot parse frequency '0.3,abc'\n"
    # a Diophantine constant that DiophParams rejects
    cfg_path.write_text(json.dumps({"dioph": {"gamma": 0}}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: gamma must be positive\n"


def test_main_flags_merge_into_the_config_scheme(tmp_path):
    # the file's scheme entries win key by key; flags fill in the others
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta": 0.25, "scheme": {"n0": 8}}))
    report_path = tmp_path / "report.json"
    main(["run", "--config", str(cfg_path), "--max-steps", "0", "--n0", "4",
          "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    assert report["config"]["scheme"] == {"n0": 8, "max_steps": 0}
    assert report["normal_form"]["params"]["max_steps"] == 0
    assert report["normal_form"]["params"]["n0"] == 8


@pytest.mark.parametrize("bad", [
    {"scheme": 5},
    {"frequency": 5},
    {"theta": "a"},
    {"dioph": [1]},
    {"chain": [5]},
    {"seed": 1.5},
    {"seed": True},
    {"report_path": ["r.json"]},
    {"scheme": {"n0": "8"}},
    {"chain": [{"kind": "torus"}]},
    {"dioph": {"gamma": [1]}},
    {"chain": [{"kind": "exp", "band": [2]}]},
    {"chain": [{"kind": ["torus"], "winding": [1]}]},
    {"perturbation": {"band": [2]}},
    {"frequency": {"value": [[1]]}},
    {"frequency": {"preset": ["golden"]}},
    # unknown keys in every section, including the removed scheme options
    {"dioph": {"gama": 1e-9}},
    {"perturbation": {"band": 4, "amp": 0.5}},
    {"chain": [{"kind": "exp", "bnd": 40}]},
    {"chain": [{"kind": "spiral"}]},
    {"scheme": {"max_scale": 5}},
    {"scheme": {"safety_exponent": 2.0}},
    {"scheme": {"initial_bound": 1e-2}},
    # a turned torus is written with constant factors, not a torus frame
    {"chain": [{"kind": "torus", "winding": [1], "frame": [1, 0, 0, "0"]}]},
    # entries of list-typed fields
    {"chain": [{"kind": "torus", "winding": [1.5]}]},
    {"chain": [{"kind": "torus", "winding": [True]}]},
    {"chain": [{"kind": "constant", "element": [None, 0, 0, 0]}]},
    # a frequency needs exactly one of preset and value
    {"frequency": {"preset": "golden", "value": [0.3, 0.4]}},
    {"frequency": {}},
    # values the frequency rejects, and a winding of another dimension
    {"frequency": {"preset": "bogus"}},
    {"frequency": {"value": 1.5}},
    {"frequency": {"value": []}},
    {"chain": [{"kind": "torus", "winding": [1, 2]}]},
    # constant elements that are no unit quaternion of shape (4,)
    {"chain": [{"kind": "constant", "element": [0, 0, 0, 0]}]},
    {"chain": [{"kind": "constant", "element": [1, 0, 0]}]},
    {"chain": [{"kind": "constant", "element": [2, 0, 0, 0]}]},
    # non-finite numbers, which the json module reads as NaN and Infinity
    {"theta": math.nan},
    {"theta": math.inf},
    {"perturbation": {"amplitude": math.nan}},
    {"scheme": {"stop_tolerance": math.nan}},
    {"equivalence_tolerance": math.nan},
    {"frequency": {"value": [GOLDEN, -math.inf]}},
    # integers that no double holds
    {"theta": 10 ** 400},
    {"frequency": {"value": 10 ** 400}},
    {"perturbation": {}, "scheme": {"n0": 10 ** 400}},
    # negative counts, rejected by name before any work
    {"equivalence_horizon": -5},
    {"perturbation": {"band": -1}},
    {"chain": [{"kind": "exp", "band": -1}]},
    {"seed": -1},
    {"scheme": {"stop_tolerance": -1e-12}},
])
def test_main_wrongly_typed_config_field_exits_config(tmp_path, bad):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("element,message", [
    ([0, 0, 0, 0], "quaternion norm 0 too far from 1"),
    ([1, 0, 0], "quaternion must have shape (4,)"),
    ([2, 0, 0, 0], "quaternion norm 2 too far from 1"),
])
def test_a_bad_constant_element_exits_config_before_any_work(
        tmp_path, monkeypatch, capsys, element, message):
    def unreached(*args):
        raise AssertionError("the Diophantine scan ran on an invalid config")

    monkeypatch.setattr(cli, "diophantine_witness", unreached)
    chain = [{"kind": "constant", "element": element}]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"chain": chain}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: %s\n" % message
    # a config built directly is checked the same way
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig(chain=chain)


def test_config_owns_its_json():
    # edits to the caller's dicts and lists after from_dict reach neither
    # the echo, nor the digest, nor the synthesis
    data = {"frequency": {"preset": "golden"}, "theta": 0.17,
            "chain": [{"kind": "torus", "winding": [3]},
                      {"kind": "exp", "band": 3, "amplitude": 1e-3}],
            "perturbation": {"band": 4, "amplitude": 1e-4}, "scheme": {"n0": 8}, "seed": 3}
    cfg = ExperimentConfig.from_dict(data)
    echo, digest = cfg.to_dict(), cfg.digest()
    phi, truth = synthesize_cocycle(cfg)
    data["scheme"]["n0"] = "eight"
    data["chain"][1]["band"] = -5
    assert cfg.to_dict() == echo
    assert cfg.digest() == digest
    again, truth_again = synthesize_cocycle(cfg)
    assert again.to_dict() == phi.to_dict() and truth_again == truth
    assert cfg.scheme_params.n0 == 8


def test_config_is_frozen_and_checked_on_every_construction():
    cfg = recovery_config()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 7
    with pytest.raises(ConfigError, match="'seed' must be non-negative"):
        replace(cfg, seed=-1)
    with pytest.raises(ConfigError, match="does not fit the 1D frequency"):
        replace(cfg, chain=[{"kind": "torus", "winding": [1, 1]}])
    # the resolved parameters are attributes, not fields: the echo omits them
    moved = replace(cfg, dioph={"tau": 2.5})
    assert moved.dioph_params == DiophParams(tau=2.5) and moved.scheme_params.nu == 4.5
    assert set(moved.to_dict()) == set(cfg.to_dict()) == set(cli.CONFIG_FIELD_TYPES)


@pytest.mark.parametrize("command,config,code,label", [
    ("run", {"perturbation": {"band": 2, "amplitude": 0.05}}, EXIT_SCHEME,
     "scheme error: initial perturbation outside the perturbative regime"),
    ("rho", {"perturbation": {"band": 4, "amplitude": 1e-4}, "scheme": {"max_steps": 0}},
     EXIT_ROTATION, "rotation error: scheme did not converge; no rotation vector"),
    ("run", None, EXIT_IO, "io error: [Errno 2]"),
])
def test_main_maps_each_failure_to_its_label_and_exit_code(
        tmp_path, capsys, command, config, code, label):
    # the rows without a test of their own; the config and grid budget rows
    # are tested above and below
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(label) and len(err.splitlines()) == 1


def test_config_rejects_a_negative_count_by_name(capsys):
    def counts(value):
        return [{"seed": value}, {"equivalence_horizon": value},
                {"perturbation": {"band": value}},
                {"chain": [{"kind": "torus", "winding": [2]},
                           {"kind": "exp", "band": value}]},
                {"equivalence_tolerance": value},
                {"perturbation": {}, "scheme": {"max_steps": value}}]

    names = ["seed", "equivalence_horizon", "perturbation.band", "chain[1].band",
             "equivalence_tolerance", "scheme.max_steps"]
    for bad, name in zip(counts(-1), names):
        with pytest.raises(ConfigError, match=re.escape("%r must be non-negative" % name)):
            ExperimentConfig.from_dict(bad)
    for zero in counts(0):
        ExperimentConfig.from_dict(zero)
    # the flag reaches the same check before any work
    assert main(["run", "--max-steps", "-1", "--theta", "0.2"]) == EXIT_CONFIG
    assert "'scheme.max_steps' must be non-negative" in capsys.readouterr().err


def test_readme_example_config_loads():
    # the README's example config is documentation of the config keys, so a
    # removed or misspelt key there fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"Example config.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert cfg.scheme_params.n0 == 8 and cfg.dioph_params.horizon == 10000


def test_synthesize_reads_no_scheme_parameter(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta": 0.25, "perturbation": {"band": 3}}))
    outputs = []
    for n0 in ("4", "64"):
        assert main(["synthesize", "--config", str(cfg_path), "--n0", n0]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        outputs.append((doc["cocycle"], doc["ground_truth"]))
    assert outputs[0] == outputs[1]
    # the scheme section is still checked when the config is read
    assert main(["synthesize", "--config", str(cfg_path), "--n0", "0"]) == EXIT_CONFIG


def test_synthesize_a_non_normalizable_recipe_exits_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"chain": [{"kind": "exp", "band": 3, "amplitude": 0.3}]}))
    assert main(["synthesize", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: recipe produced a non-normalizable cocycle: ")


def test_synthesize_lets_an_internal_fault_through(monkeypatch):
    # only NormalizationError is a bad recipe; any other fault is not a config error
    def faulty(*args):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "normalize", faulty)
    with pytest.raises(RuntimeError, match="internal fault"):
        main(["synthesize", "--theta", "0.2"])


def test_dioph_defaults_live_in_dioph_params(capsys):
    assert ExperimentConfig().dioph_params == DiophParams()
    partial = ExperimentConfig.from_dict({"dioph": {"gamma": 5.0}}).dioph_params
    assert partial == DiophParams(gamma=5.0)
    # check-dioph reads its constants through the config, defaults included
    assert main(["check-dioph", "--frequency", "golden", "--tau", "2.5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["gamma"], doc["tau"], doc["horizon"]) == astuple(DiophParams(tau=2.5))
    assert main(["check-dioph", "--frequency", "golden", "--horizon", "0"]) == EXIT_CONFIG


def test_config_accepts_an_integer_where_a_number_is_due():
    cfg = ExperimentConfig.from_dict({"theta": 1, "equivalence_tolerance": 0})
    assert cfg.theta == 1 and cfg.equivalence_tolerance == 0
    cfg = ExperimentConfig.from_dict({"perturbation": {"band": 2, "amplitude": 0},
                                      "frequency": {"value": [0, 0.5]}})
    assert cfg.perturbation["amplitude"] == 0 and cfg.frequency["value"] == [0, 0.5]
    assert ExperimentConfig.from_dict({"frequency": {"value": 0}}).frequency["value"] == 0
    assert ExperimentConfig.from_dict({"perturbation": None}).perturbation is None


TURN = [math.cos(0.01), 0.0, math.sin(0.01), 0.0]


def turned_torus(winding):
    """The torus factor of `winding` turned by TURN: constant, torus, inverse."""
    return [{"kind": "constant", "element": TURN}, {"kind": "torus", "winding": winding},
            {"kind": "constant", "element": list(quat_conj(np.array(TURN)))}]


@pytest.mark.parametrize("frequency,winding", [
    ({"preset": "golden"}, [3]),
    ({"value": [GOLDEN, math.sqrt(2.0) - 1.0]}, [1, 1]),
])
def test_turned_torus_recipe_builds_p_t_p_inverse(frequency, winding):
    cfg = ExperimentConfig.from_dict({"frequency": frequency, "chain": turned_torus(winding)})
    alpha = cfg.alpha
    chain = cli.build_chain(cfg, alpha, np.random.default_rng(0))
    m = 16
    t = sum(k * g for k, g in zip(winding, np.ix_(*[np.arange(m) / m] * alpha.dimension)))
    p = chain.factors[0].element.q
    expected = quat_mul(p, quat_mul(torus_quat(t), quat_conj(p)))
    assert np.max(np.abs(chain.grid(m) - expected)) <= 1e-15


def test_run_turned_torus_recipe_matches_its_truth(tmp_path):
    cfg_path, report_path = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"theta": 0.17, "chain": turned_torus([3])}))
    assert main(["run", "--config", str(cfg_path), "--report", str(report_path)]) == EXIT_OK
    match = json.loads(report_path.read_text())["truth_comparison"]
    assert match["equivalent"] and match["witness"]["residual"] < 1e-12


@pytest.mark.parametrize("theta, m", [(102.17, -51), (1e8, -50000000)])
def test_run_matches_a_truth_many_periods_from_its_rho(tmp_path, theta, m):
    # the truth sits |m| periods 2 from rho, far past the equivalence
    # horizon, which bounds only the winding
    cfg_path, report_path = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"theta": theta}))
    assert main(["run", "--config", str(cfg_path), "--report", str(report_path)]) == EXIT_OK
    witness = json.loads(report_path.read_text())["truth_comparison"]["witness"]
    assert (witness["sign"], witness["k"], witness["m"]) == (1, [0], m)


def test_run_experiment_two_dimensional():
    cfg = ExperimentConfig.from_dict(TWO_FREQ_CONFIG)
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert report["truth_comparison"]["equivalent"]
    assert "frequency_warning" not in report


def test_main_grid_past_the_budget_exits_scheme(tmp_path, monkeypatch, capsys):
    # the source and initial grids are 52^2 points; the trimmed perturbation
    # makes the first step's grid 28^2 and the second step's, the largest, 76^2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TWO_FREQ_CONFIG))
    monkeypatch.setattr(fourier, "GRID_POINTS", 76 ** 2 - 1)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_SCHEME
    err = capsys.readouterr().err
    assert err.startswith("grid budget error: a 76^2 grid")
    assert len(err.splitlines()) == 1


def test_main_exp_band_past_the_grid_budget_exits_before_its_table(
        tmp_path, monkeypatch, capsys):
    # band 100000 needs a 400004^2 grid; its random table alone would be
    # 200001^2 complex triples, so the band is refused before the draw
    def unreached(*args):
        raise AssertionError("the exp factor's table was drawn past the budget")

    monkeypatch.setattr(cli, "random_map", unreached)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TWO_FREQ_CONFIG,
                                    "chain": [{"kind": "exp", "band": 100000}]}))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_SCHEME
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("grid budget error: a 400004^2 grid for band 100000 ")
    assert len(err.splitlines()) == 1


def test_main_scan_past_the_budget_exits_scheme(monkeypatch, capsys):
    # horizon 2100 in 2D is a box of 4201^2 windings, past SCAN_WINDINGS
    def unreached(*args):
        raise AssertionError("a chunk of the scan was built past the budget")

    monkeypatch.setattr(arithmetic, "box_windings", unreached)
    assert 4201 ** 2 > arithmetic.SCAN_WINDINGS
    frequency = ",".join(repr(c) for c in TWO_FREQ_CONFIG["frequency"]["value"])
    assert main(["check-dioph", "--frequency", frequency,
                 "--tau", "3", "--horizon", "2100"]) == EXIT_SCHEME
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("grid budget error: a scan of 17648401 windings for scale 2100 ")
    assert len(err.splitlines()) == 1


def test_run_experiment_exp_factor_seed_7_converges_at_1e_13():
    # the two-frequency config with an exp factor at stop_tolerance 1e-13 and
    # config seed 7: a fourth step on the 632^2 grid of the next scale, not on
    # the grid of its band-0 content, grows the perturbation to 9.4e-13
    cfg = ExperimentConfig.from_dict({
        "frequency": {"value": [GOLDEN, math.sqrt(2.0) - 1.0]},
        "theta": 0.1,
        "chain": [{"kind": "torus", "winding": [1, 1]},
                  {"kind": "exp", "band": 3, "amplitude": 1e-3}],
        "perturbation": {"band": 2, "amplitude": 1e-5},
        "scheme": {"n0": 4, "max_steps": 8, "stop_tolerance": 1e-13},
        "dioph": {"gamma": 32.0, "tau": 3.0, "horizon": 15},
        "seed": 7,
    })
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert report["normal_form"]["converged"]
    assert report["normal_form"]["final_residual_h0"] <= 1e-13
    assert report["truth_comparison"]["equivalent"]


def test_run_experiment_three_dimensional():
    # a frequency of the 2^(1/4) field, Diophantine at gamma 32 and tau 4 to
    # horizon 20; at 1e-12 its grids follow the content band, at most 21
    cfg = ExperimentConfig.from_dict({
        "frequency": {"value": [2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0]},
        "theta": 0.1,
        "chain": [{"kind": "torus", "winding": [1, 0, 1]},
                  {"kind": "exp", "band": 1, "amplitude": 1e-3}],
        "perturbation": {"band": 1, "amplitude": 1e-5},
        "scheme": {"n0": 6, "nu": 8.0, "stop_tolerance": 1e-12},
        "dioph": {"gamma": 32.0, "tau": 4.0, "horizon": 20},
    })
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert "frequency_warning" not in report
    assert report["normal_form"]["converged"]
    assert report["truth_comparison"]["equivalent"]
    assert report["audit"]["issues"] == []


def test_run_experiment_three_dimensional_resonant_twin():
    # the config above at theta (alpha_1 + alpha_3) mod 1 + 1e-6, 1e-6 from
    # the winding (1, 0, 1): it converges within the scale's scan budget
    # only if each renormalisation moves c_e(0) into the constant
    alpha = [2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0]
    cfg = ExperimentConfig.from_dict({
        "frequency": {"value": alpha},
        "theta": (alpha[0] + alpha[2]) % 1.0 + 1e-6,
        "chain": [{"kind": "torus", "winding": [1, 0, 1]},
                  {"kind": "exp", "band": 1, "amplitude": 1e-3}],
        "perturbation": {"band": 1, "amplitude": 1e-5},
        "scheme": {"n0": 6, "nu": 8.0, "stop_tolerance": 1e-12},
        "dioph": {"gamma": 32.0, "tau": 4.0, "horizon": 20},
    })
    report, code = run_experiment(cfg)
    assert code == EXIT_OK
    assert report["normal_form"]["converged"]
    assert report["truth_comparison"]["equivalent"]
    assert report["audit"]["issues"] == []
    # the exact match at the zero winding, not a chance hit at a larger |k|
    # under tol
    witness = report["truth_comparison"]["witness"]
    assert witness["k"] == [0, 0, 0] and witness["residual"] < 1e-8


def test_main_run_without_a_report_prints_the_report(capsys):
    # one line: the sorted JSON of the report that run_experiment returns
    assert main(["run", "--theta", "0.25"]) == EXIT_OK
    report, code = run_experiment(ExperimentConfig(theta=0.25))
    assert code == EXIT_OK
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"


def test_run_without_a_chain_writes_one_csv_row(tmp_path):
    # no perturbation and no chain: the initial state is already converged,
    # its chain stays empty, and the closing row's prefix norm is the
    # identity's
    csv_path = tmp_path / "d.csv"
    assert main(["run", "--theta", "0.17", "--csv", str(csv_path)]) == EXIT_OK
    assert csv_path.read_text() == "n,N,resonant,k,F_H0,F_H1,Hprefix_Hneg\n0,8,0,,0,0,1\n"


def test_main_output_files_match_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ExperimentConfig(
        theta=0.25, chain=[], perturbation={"band": 3, "amplitude": 1e-5}).to_dict()))
    for command, flag in (("synthesize", "--output"), ("rho", "--report")):
        out = tmp_path / (command + ".json")
        assert main([command, "--config", str(cfg_path)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert main([command, "--config", str(cfg_path), flag, str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("bad", [
    # tau = 2 does not exceed the dimension of a two-frequency alpha
    {"frequency": {"value": [GOLDEN, math.sqrt(2.0) - 1.0]}},
    # the golden frequency passes its check, so its tau = 2 bounds nu
    {"scheme": {"nu": 1.5}},
    {"scheme": {"nu": 1.5}, "dioph": {"gamma": 3.0, "tau": 2.0, "horizon": 100}},
])
def test_every_synthesizing_command_rejects_out_of_hypotheses_before_synthesis(
        tmp_path, monkeypatch, capsys, bad):
    calls = []
    monkeypatch.setattr(cli, "synthesize_cocycle", lambda cfg: calls.append(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    for command in ("synthesize", "rho", "run"):
        assert main([command, "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    expected = "tau must exceed" if "frequency" in bad else "nu must exceed the declared tau"
    assert err.count(expected) == 3
    assert calls == []


def test_synthesize_warns_on_a_failing_frequency_and_leaves_nu_unbounded(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"frequency": {"preset": "liouville"},
                                    "scheme": {"nu": 1.5}}))
    with pytest.warns(UserWarning, match="out of theorem hypotheses"):
        assert main(["synthesize", "--config", str(cfg_path)]) == EXIT_OK
    assert set(json.loads(capsys.readouterr().out)) == {"config_sha256", "cocycle",
                                                        "ground_truth"}


def test_an_empty_perturbation_is_the_default_perturbation():
    def source(perturbation):
        return synthesize_cocycle(ExperimentConfig.from_dict(
            {"perturbation": perturbation, "seed": 3}))[0]

    assert source({}).to_dict() == source({"band": 4, "amplitude": 1e-4}).to_dict()
    assert fourier.sobolev_norm(source({}).perturbation, 0.0) > 1e-5
    # null is no perturbation: only the round-off of normalising the constant
    assert fourier.sobolev_norm(source(None).perturbation, 0.0) < 1e-15


def test_config_sha256_leaves_out_the_output_paths(two_freq_run, capsys):
    # the hash pairs a run report with the source synthesize rebuilds, so the
    # report and CSV paths, which change no result, do not enter it
    cfg_path, paths = two_freq_run
    assert main(["synthesize", "--config", str(cfg_path)]) == EXIT_OK
    hashes = {json.loads(capsys.readouterr().out)["config_sha256"]}
    for path in paths:
        report = json.loads(path.read_text())
        assert report["config"]["report_path"] == str(path)
        hashes.add(report["config_sha256"])
    assert len(hashes) == 1


def test_run_report_describes_the_source_it_can_rebuild(two_freq_run):
    # the report holds no source table, only what describes the source that
    # its config echo rebuilds
    report = json.loads(two_freq_run[1][0].read_text())
    assert "cocycle" not in report
    cfg = ExperimentConfig.from_dict(report["config"])
    phi, _truth = synthesize_cocycle(cfg)
    content, _dropped = phi.perturbation.trimmed(
        kam.TAIL_SHARE * cfg.scheme_params.stop_tolerance)
    assert content.band < phi.perturbation.band
    assert report["source"] == {"band": phi.perturbation.band, "content_band": content.band,
                                "h0": sobolev_norm(content, 0.0)}


def test_run_report_chain_replays_onto_the_rebuilt_source(two_freq_run):
    # the chain, written as canonical halves, conjugates the source rebuilt
    # from the config echo to within the final residual of exp(theta e)
    report = json.loads(two_freq_run[1][0].read_text())
    nf = report["normal_form"]
    assert nf["converged"] and len(nf["chain"]["factors"]) >= 2
    phi, _truth = synthesize_cocycle(ExperimentConfig.from_dict(report["config"]))
    chain = ConjugationChain.from_dict(nf["chain"])
    m = grid_size(chain.conjugated_band(phi.perturbation.band), phi.dimension)
    replayed = conjugate_raw(chain, phi, m)
    error = np.max(quat_angle(quat_mul(replayed, quat_conj(torus_quat(nf["final_theta"])))))
    assert error <= nf["final_residual_h0"] + 1e-13


def test_readme_lists_the_top_level_keys_of_a_run_report(two_freq_run):
    # README "Outputs" documents every top-level key of a run report; only
    # frequency_warning is absent from a run whose frequency passes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.search(r"Top-level keys of a `run` report.*?\n\n((?:\|[^\n]*\n)+)", readme,
                      re.S).group(1)
    listed = set()
    for row in table.splitlines()[2:]:
        listed.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    report = json.loads(two_freq_run[1][0].read_text())
    assert listed - set(report) == {"frequency_warning"}
    assert set(report) <= listed
