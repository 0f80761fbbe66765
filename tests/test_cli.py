"""Config parsing, command execution, exit codes and output formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracbesov import besov, cli
from fracbesov.cli import ConfigError, RunConfig, execute, main, parse_config
from fracbesov.fractional import frac_power
from fracbesov.operators import build_operator


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# ------------------------------------------------------------------ parsing ----

def test_minimal_power_config(tmp_path):
    path = _write(tmp_path, "c.json", {
        "command": "power", "operator": "diagonal [1,4]",
        "vector": [1, 1], "exponent": 0.5})
    cfg = parse_config(path)
    assert cfg.command == "power"
    assert cfg.exponent == 0.5
    assert np.allclose(cfg.vector, [1, 1])


def test_inline_json_config():
    cfg = parse_config('{"command": "verify", "suite": "embed_q"}')
    assert cfg.suite == ["embed_q"]


def test_admissibility_diagnostic(tmp_path):
    path = _write(tmp_path, "c.json", {
        "command": "norm", "operator": "diagonal [1,4]", "vector": [1, 1],
        "s": 2.0, "beta": 1.0})
    with pytest.raises(ConfigError, match="s must satisfy"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "c.json", {
        "command": "norm", "operator": "diagonal [1,4]", "gamma_mode": "x"})
    with pytest.raises(ConfigError, match="gamma_mode"):
        parse_config(path)


def test_unknown_quadrature_key_rejected(capsys):
    # the one tolerance is the top-level tail_tolerance; the former
    # "quadrature" object that carried it is an unknown key
    for command in ("power", "norm"):
        config = json.dumps({"command": command, "operator": "diagonal [1,4]",
                             "quadrature": {"tail_tolerance": 1e-4}})
        assert main(["--config", config]) == 2
        assert f"unknown config keys for '{command}': ['quadrature']" in capsys.readouterr().err


_TOLERANCE_CASES = {
    "power": ({"command": "power", "operator": "dense [[2,1,0],[0,3,1],[0,0,5]]",
               "exponent": 0.5},
              lambda h, x, **tol: frac_power(h, 0.5, x, **tol)),
    "inhomogeneous": ({"s": 0.5, "q": 2}, lambda h, x, **tol: besov.inhom_quasi_norm(
        h, besov.BesovIndex(0.5, 2.0), x, **tol).value),
    "continuous": ({"s": 0.5, "q": 2}, lambda h, x, **tol: besov.continuous_quasi_norm(
        h, besov.BesovIndex(0.5, 2.0), x, **tol).value),
    "homogeneous": ({"s": 0.5, "q": 2, "alpha": 0.5}, lambda h, x, **tol: besov.homog_quasi_norm(
        h, besov.BesovIndex(0.5, 2.0, 0, 0.5), x, **tol).value),
    "breve": ({"s": 0.5, "q": 2, "alpha": 0.5}, lambda h, x, **tol: besov.breve_quasi_norm(
        h, besov.BesovIndex(0.5, 2.0, 0, 0.5), x, **tol).value),
    "semigroup": ({"s": 0.5, "q": 2}, lambda h, x, **tol: besov.semigroup_quasi_norm(
        h, 0.5, 2.0, 0, 1.0, x, **tol).value),
}


@pytest.mark.parametrize("case", list(_TOLERANCE_CASES))
def test_one_tolerance_key_reaches_every_evaluator(case, capsys):
    # power and every norm variant read the top-level tail_tolerance, and
    # the library call with the same tolerance prints the same bytes
    extra, library = _TOLERANCE_CASES[case]
    vector = [1.0, -0.5, 0.25]
    config = {"vector": vector, **extra} if case == "power" else {
        "command": "norm", "variant": case, "operator": "diagonal [1,4,9]", "vector": vector,
        **extra}
    outputs = []
    for tol in ({}, {"tail_tolerance": 1e-4}):
        assert main(["--config", json.dumps({**config, **tol})]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    handle, x = build_operator(config["operator"]), np.array(vector, dtype=complex)
    want = library(handle, x, tail_tolerance=1e-4)
    if case == "power":
        got = np.array([complex(re, im) for re, im in outputs[1]["result"]])
        assert np.array_equal(got, want)
        assert outputs[1]["quadrature"]["nodes"] != outputs[0]["quadrature"]["nodes"]
    else:
        assert outputs[1]["value"] == want != outputs[0]["value"]


_BASES = {
    "power": {"command": "power", "operator": "diagonal [1,4]", "vector": [1, 1]},
    "kfun": {"command": "kfun", "operator": "diagonal [1,4]", "vector": [1, 1]},
    "norm": {"command": "norm", "operator": "diagonal [1,4]", "vector": [1, 1]},
    "continuous": {"command": "norm", "operator": "diagonal [1,4]", "vector": [1, 1],
                   "variant": "continuous"},
    "breve": {"command": "norm", "operator": "diagonal [1,4]", "vector": [1, 1],
              "variant": "breve"},
    "verify": {"command": "verify", "suite": "embed_q"},
}


@pytest.mark.parametrize("base, extra, key", [
    ("kfun", {"seed": 1.5}, "seed"),
    ("verify", {"seed": "7"}, "seed"),
    ("verify", {"ensemble": {"count": 2.5}}, "ensemble.count"),
    ("verify", {"ensemble": {"count": 0}}, "ensemble.count"),
    ("verify", {"ensemble": {}}, "ensemble.count"),
    ("verify", {"ensemble": 3}, "ensemble"),
    ("kfun", {"t_grid": 5}, "t_grid"),
    ("kfun", {"t_grid": {"min": 0}}, "t_grid.min"),
    ("kfun", {"t_grid": {"min": -1e-3, "max": 1.0}}, "t_grid.min"),
    ("kfun", {"t_grid": {"min": "small"}}, "t_grid.min"),
    ("kfun", {"t_grid": {"min": 10.0, "max": 1.0}}, "t_grid.max"),
    ("kfun", {"t_grid": {"min": 1.0, "max": 1.0}}, "t_grid.max"),
    ("kfun", {"t_grid": {"points": 0}}, "t_grid.points"),
    ("kfun", {"t_grid": {"points": 2.5}}, "t_grid.points"),
    ("norm", {"tail_tolerance": 0}, "tail_tolerance"),
    ("norm", {"tail_tolerance": -1e-8}, "tail_tolerance"),
    ("norm", {"tail_tolerance": "1e-8"}, "tail_tolerance"),
    ("norm", {"tail_tolerance": math.inf}, "tail_tolerance"),
    ("continuous", {"tail_tolerance": 0.0}, "tail_tolerance"),
    ("continuous", {"tail_tolerance": math.nan}, "tail_tolerance"),
    ("continuous", {"tail_tolerance": True}, "tail_tolerance"),
    ("power", {"tail_tolerance": -1e-9}, "tail_tolerance"),
    ("kfun", {"theta": "half"}, "theta"),
    ("kfun", {"theta": None}, "theta"),
    ("kfun", {"theta": True}, "theta"),
    ("norm", {"s": [1]}, "s"),
    ("norm", {"s": "0.5"}, "s"),
    ("continuous", {"s": None}, "s"),
    ("norm", {"k": 1.7}, "k"),
    ("norm", {"k": "2"}, "k"),
    ("breve", {"k": 2.0}, "k"),
])
def test_invalid_value_exits_2_naming_its_key(base, extra, key, capsys):
    assert main(["--config", json.dumps({**_BASES[base], **extra})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{key} must" in err, err


def test_parse_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"command": "power",\n  "operator": oops}')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(p))


def test_unknown_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config('{"command": "solve"}')


def test_bad_operator_spec():
    for spec in ("hankel [1]", "dense [[-1,0],[0,2]]"):   # the second: Hermitian, eigenvalue -1
        with pytest.raises(ConfigError, match="operator"):
            parse_config(json.dumps({"command": "power", "operator": spec}))


def test_vector_dimension_checked():
    with pytest.raises(ConfigError, match="dimension"):
        parse_config('{"command": "power", "operator": "diagonal [1,4]", '
                     '"vector": [1, 2, 3]}')


def test_complex_entries_and_q_inf():
    cfg = parse_config('{"command": "norm", "operator": "diagonal [1,4]", '
                       '"vector": [[1, 1], 2], "s": 0.5, "q": "inf"}')
    assert cfg.vector[0] == 1 + 1j
    assert math.isinf(cfg.index.q)


def test_unknown_suite_ids():
    with pytest.raises(ConfigError, match="unknown check ids"):
        parse_config('{"command": "verify", "suite": "embed_q,bogus"}')


# ---------------------------------------------------------------- execution ----

def test_power_writes_expected_result(tmp_path):
    out = tmp_path / "power.json"
    cfg = parse_config(json.dumps({
        "command": "power", "operator": "diagonal [1,4]", "vector": [1, 1],
        "exponent": 0.5, "output": str(out)}))
    assert execute(cfg) == 0
    payload = json.loads(out.read_text())
    got = np.array([complex(re, im) for re, im in payload["result"]])
    assert np.abs(got - [1.0, 2.0]).max() <= 1e-8
    assert payload["quadrature"]["nodes"] > 0
    assert 0.0 <= payload["quadrature"]["discretization"] <= 1e-9 * np.linalg.norm(got)


@pytest.mark.parametrize("extra", [
    {"command": "power", "exponent": 0.5},
    {"command": "norm", "s": 0.5, "q": 2, "beta": 1},
    {"command": "kfun", "t_grid": {"min": 0.1, "max": 10.0, "points": 3}},
])
def test_command_builds_its_operator_once(extra, monkeypatch, tmp_path):
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_operator(spec)
    monkeypatch.setattr(cli, "build_operator", counted)
    config = json.dumps({"operator": "diagonal [1,4]", "vector": [1, 1],
                         "output": str(tmp_path / "out.json"), **extra})
    assert main(["--config", config]) == 0
    assert calls == ["diagonal [1,4]"]


def test_norm_round_trip(tmp_path):
    out = tmp_path / "norm.json"
    cfg = parse_config(json.dumps({
        "command": "norm", "operator": "diagonal [1,4]", "vector": [1, 1],
        "s": 0.5, "q": 2, "beta": 1, "output": str(out)}))
    assert execute(cfg) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == payload["leading"] + payload["sum_part"]
    # round trip: serializing the parsed payload reproduces the file
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out.read_text()


def test_norm_variants_execute(tmp_path):
    for variant in ("continuous", "homogeneous", "breve", "semigroup"):
        out = tmp_path / f"{variant}.json"
        cfg = parse_config(json.dumps({
            "command": "norm", "operator": "diagonal [1,4]", "vector": [1, 1],
            "s": 0.5, "q": 2, "alpha": 0.5 if variant in ("homogeneous", "breve") else 0,
            "beta": 1, "variant": variant, "output": str(out)}))
        assert execute(cfg) == 0
        assert json.loads(out.read_text())["value"] > 0


def test_kfun_table_csv(tmp_path):
    out = tmp_path / "k.csv"
    cfg = parse_config(json.dumps({
        "command": "kfun", "operator": "diagonal [1,4]", "vector": [1, 0],
        "alpha": 1.0, "theta": 0.5, "q": 2,
        "t_grid": {"min": 1e-4, "max": 1e4, "points": 9},
        "output": str(out), "format": "csv"}))
    assert execute(cfg) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,K"
    assert len(lines) == 10
    # full round-trip floats
    t0, k0 = lines[1].split(",")
    assert float(k0) > 0


def test_verify_pass_and_exit_codes(tmp_path):
    out = tmp_path / "verify.json"
    cfg = parse_config(json.dumps({
        "command": "verify", "suite": "embed_q,cos_estimate",
        "output": str(out)}))
    assert execute(cfg) == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert [r["check_id"] for r in payload["reports"]] == ["embed_q", "cos_estimate"]


def test_verify_ensemble_count_override(tmp_path):
    out = tmp_path / "small.json"
    cfg = parse_config(json.dumps({
        "command": "verify", "suite": "k_independence",
        "ensemble": {"count": 5}, "output": str(out)}))
    assert execute(cfg) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["samples"] == 5
    with pytest.raises(ConfigError, match="ensemble"):
        parse_config('{"command": "verify", "ensemble": {"families": 2}}')


def test_report_merges(tmp_path):
    out1 = tmp_path / "v1.json"
    cfg = parse_config(json.dumps({
        "command": "verify", "suite": "embed_q", "output": str(out1)}))
    execute(cfg)
    merged = tmp_path / "merged.json"
    cfg2 = parse_config(json.dumps({
        "command": "report", "inputs": [str(out1)], "output": str(merged)}))
    assert execute(cfg2) == 0
    payload = json.loads(merged.read_text())
    assert payload["summary"] == {"files": 1, "checks": 1, "passed": 1, "failed": 0}


# --------------------------------------------------------------------- main ----

def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "norm", "operator": "diagonal [1,4]", '
                   '"vector": [1,1], "s": 5.0}')
    assert main(["--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err

    assert main([]) == 2

    out = tmp_path / "ok.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"command": "power", "operator": "diagonal [1,4]",
                                "vector": [1, 1], "exponent": 0.5,
                                "output": str(out)}))
    assert main(["--config", str(good)]) == 0
    assert out.exists()


def test_main_maps_construction_errors_to_exit_1(capsys):
    # frac_power on a base without eigen-data is computed while the config is
    # parsed; its quadrature failure is a computation error, not a traceback
    config = json.dumps({"command": "norm", "operator": "frac_power(dense [[-1,1],[0,2]], 0.5)",
                         "vector": [1, 1]})
    assert main(["--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_main_suite_flag(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["--suite", "embed_q", "--out", str(out), "--seed", "77"]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["seed"] == 77


@pytest.mark.parametrize("config", [
    {"command": "power", "operator": "diagonal [1,4,9]", "exponent": 0.5},
    {"command": "norm", "operator": "diagonal [1,4,9]", "s": 0.5, "q": 2},
    {"command": "kfun", "operator": "diagonal [1,4,9]",
     "t_grid": {"min": 0.1, "max": 10.0, "points": 3}},
], ids=["power", "norm", "kfun"])
def test_seed_flag_draws_the_vector_of_the_config_seed(config, capsys):
    assert main(["--config", json.dumps(config), "--seed", "5"]) == 0
    flag = capsys.readouterr().out
    assert main(["--config", json.dumps({**config, "seed": 5})]) == 0
    assert capsys.readouterr().out == flag
    assert main(["--config", json.dumps(config)]) == 0
    default = json.loads(capsys.readouterr().out)
    assert {**default, "seed": 5} != json.loads(flag)


@pytest.mark.parametrize("args", [
    ["--config", '{"command": "norm", "operator": "diagonal [1,4]", "seed": -1}'],
    ["--config", '{"command": "norm", "operator": "diagonal [1,4]"}', "--seed", "-1"],
], ids=["config", "flag"])
def test_negative_seed_exits_2_where_the_vector_is_drawn(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "seed must be >= 0" in err, err


def test_negative_seed_without_a_drawn_vector(tmp_path, capsys):
    # a given vector needs no draw, and verify seeds its ensembles itself
    assert main(["--config", '{"command": "norm", "operator": "diagonal [1,4]", '
                             '"vector": [1, 1], "seed": -1}']) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == -1
    out = tmp_path / "suite.json"
    assert main(["--suite", "embed_q", "--out", str(out), "--seed", "-3"]) == 0
    assert json.loads(out.read_text())["reports"][0]["seed"] == -3


def test_csv_verify_format(tmp_path):
    out = tmp_path / "verify.csv"
    assert main(["--suite", "embed_q", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check_id,kind,verdict")
    assert lines[1].startswith("embed_q,exact_inequality,pass")


# ------------------------------------------------------------------ imports ----

_NONNORMAL = "dense [[0.5,0.4,-0.3,0.2],[0,1.2,0.4,0.1],[0,0,2.5,-0.4],[0,0,0,4]]"


@pytest.mark.parametrize("config", [
    {"command": "norm", "operator": "torus_laplacian n=8",
     "vector": [1, 0, 2, 0, 1, 0, 0, 1], "s": 0.5, "q": 2, "beta": 1,
     "variant": "inhomogeneous"},
    # the scalar K solve is a safeguarded Newton iteration on the curve's own
    # slope; the t-grid reaches both linear pieces and the curve between them
    {"command": "kfun", "operator": "diagonal [0.5,1,2,4,8,16,32]",
     "vector": [1, 1, 1, 1, 1, 1, 1], "alpha": 0.75, "theta": 0.5, "q": 2,
     "t_grid": {"min": 1e-3, "max": 1e3, "points": 13}},
    # real Gamma factors come from math.gamma
    {"command": "power", "operator": "diagonal [0.5,1,4]", "vector": [1, 1, 1],
     "exponent": 1.3},
    # a matrix without eigen-data: the Schur factor is numpy's own
    {"command": "power", "operator": _NONNORMAL, "vector": [1, -1, 2, 0.5],
     "exponent": 1.3},
    {"command": "norm", "operator": _NONNORMAL, "vector": [1, -1, 2, 0.5],
     "s": 0.4, "q": 2, "k": 0, "alpha": 0, "beta": 1, "variant": "inhomogeneous"},
], ids=["norm", "kfun", "power", "nonnormal_power", "nonnormal_norm"])
def test_spectral_command_imports_only_its_route(config):
    # scipy is imported inside the functions that call it and the harness
    # only by verify, so a spectral command, or a power or norm on a
    # non-normal matrix, loads neither
    script = ("import sys\n"
              "import fracbesov, fracbesov.cli\n"
              f"assert fracbesov.cli.main(['--config', {json.dumps(config)!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')\n"
              "             or m in ('fracbesov.harness', 'fracbesov.reference')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
