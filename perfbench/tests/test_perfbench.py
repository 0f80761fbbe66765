"""Tests of the benchmark itself: oracles, inputs, tracer and a smoke run.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from perfbench import calls, inputs, oracles, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SEED = 3


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def _case_key(case):
    return (case.half, case.op, case.operator, case.x.tobytes(),
            json.dumps(case.params, sort_keys=True, default=str))


def test_same_seed_same_inputs():
    a, b = inputs.evals_operators(SEED), inputs.evals_operators(SEED)
    for name in a:
        for attr in ("eigs", "basis", "matrix"):
            va, vb = getattr(a[name], attr), getattr(b[name], attr)
            assert (va is None and vb is None) or np.array_equal(va, vb)
    ra = [_case_key(c) for c in inputs.evals_round(SEED, 4, a)]
    rb = [_case_key(c) for c in inputs.evals_round(SEED, 4, b)]
    assert ra == rb
    ca = [json.dumps(c.config) for c in inputs.cli_round(SEED, 2, inputs.cli_operators(SEED))]
    cb = [json.dumps(c.config) for c in inputs.cli_round(SEED, 2, inputs.cli_operators(SEED))]
    assert ca == cb


def test_other_seed_other_inputs_same_make_up():
    ops = inputs.evals_operators(SEED)
    other = inputs.evals_operators(SEED + 1)
    assert not np.array_equal(ops["diag32"].eigs, other["diag32"].eigs)
    r1 = inputs.evals_round(SEED, 0, ops)
    r2 = inputs.evals_round(SEED + 1, 1, other)

    def make_up(cases):
        return [(c.half, c.op, c.operator, json.dumps(c.params, default=str)) for c in cases]
    assert make_up(r1) == make_up(r2)
    assert all(not np.array_equal(a.x, b.x) for a, b in zip(r1, r2))


# --------------------------------------------------------------------------
# oracles flag a planted perturbation
# --------------------------------------------------------------------------

def _one_case_per_kind():
    ops = inputs.evals_operators(SEED)
    seen = {}
    for case in inputs.evals_round(SEED, 0, ops):
        seen.setdefault((case.half, case.op), case)
    return ops, seen


OPS, CASES = _one_case_per_kind()
HANDLES = {name: inputs.build_handle(data) for name, data in OPS.items()}


def _perturbed(op, result):
    """Results shifted well beyond each oracle's tolerance."""
    if op == "k_functional":
        return [result * (1 + 1e-3), result * (1 - 1e-2)]
    if op == "estimate_nonnegativity_constants":
        return [dataclasses.replace(result, M=result.M * 1.01),
                dataclasses.replace(result, L=result.L * 0.5)]
    if op == "ergodic_limits":
        return [dataclasses.replace(result, limit_at_infinity=result.limit_at_infinity * 1.001),
                dataclasses.replace(result, trace_m=result.trace_m + 1e-3),
                dataclasses.replace(result, converged_at_infinity=False)]
    if hasattr(result, "tail_bound"):
        return [dataclasses.replace(result, value=result.value * (1 + 1e-2)),
                dataclasses.replace(result, tail_bound=result.value * 1e-6)]
    x = np.asarray(result)
    return [x * (1 + 1e-5), x + 1e-5 * np.linalg.norm(x) * np.eye(x.size)[0]]


@pytest.mark.parametrize("kind", sorted(CASES), ids=lambda k: ".".join(k))
def test_oracle_accepts_program_and_flags_perturbation(kind):
    case = CASES[kind]
    data = OPS[case.operator]
    check = oracles.check_spectral if case.half == "spectral" else oracles.check_composed
    result = calls.eval_case(case, HANDLES[case.operator])
    check(case, data, result)
    for bad in _perturbed(case.op, result):
        with pytest.raises(oracles.Mismatch):
            check(case, data, bad)


def _cli_payloads():
    """Payloads shaped like the CLI's, computed in-process."""
    from fracbesov import cli
    out = []
    for case in inputs.cli_round(SEED, 0, inputs.cli_operators(SEED)):
        cfg = cli.parse_config(json.dumps(case.config))
        buf = []
        orig = cli._write
        cli._write = lambda c, payload, rows=None: buf.append(payload)
        try:
            cli.execute(cfg)
        finally:
            cli._write = orig
        out.append((case, buf[0]))
    return out


def test_cli_oracles_flag_perturbation():
    for case, payload in _cli_payloads():
        oracles.check_cli(case, payload)
        bad = json.loads(json.dumps(payload))
        if "result" in bad:
            bad["result"][0][0] += 1e-4 * np.linalg.norm(np.array(payload["result"]))
        elif "value" in bad:
            bad["value"] *= 1 + 1e-2
        else:
            bad["table"][4][1] *= 1 + 1e-3
        with pytest.raises(oracles.Mismatch):
            oracles.check_cli(case, bad)


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

def test_tracer_patches_where_looked_up_and_restores():
    from fracbesov import fractional, harness, interpolation, operators, quadrature
    originals = (quadrature.integrate_multiplicative, fractional.integrate_multiplicative,
                 interpolation.frac_power, operators.OperatorHandle.__dict__["resolvent_batch"])
    tracer = Tracer()
    tracer.install()
    try:
        assert fractional.integrate_multiplicative is quadrature.integrate_multiplicative
        assert fractional.integrate_multiplicative is not originals[0]
        assert interpolation.frac_power is fractional.frac_power is not originals[2]
        case = CASES[("composed", "frac_power")]
        tracer.op_id = 7
        calls.eval_case(case, HANDLES[case.operator])
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert (quadrature.integrate_multiplicative, fractional.integrate_multiplicative,
            interpolation.frac_power, operators.OperatorHandle.__dict__["resolvent_batch"]) \
        == originals
    assert all(cd.calibration is None or not hasattr(cd.calibration, "__wrapped__")
               for cd in harness.CHECKS.values())
    assert summary["counts"]["quadrature.nodes"] > 0
    assert summary["counts"]["operators.dense_solve_rows"] > 0
    assert set(tracer.span_op) == {7}
    # self times add up to the root spans' duration
    roots = [i for i, p in enumerate(tracer.span_parent) if p == -1]
    total = sum(tracer.span_end[i] - tracer.span_start[i] for i in roots)
    assert sum(summary["self_s"].values()) == pytest.approx(total, rel=1e-9)


# --------------------------------------------------------------------------
# the command
# --------------------------------------------------------------------------

def _bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", workloads.RUNNERS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.RUNNERS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "evals", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
