"""The three workloads: suite, evals and cli.

Each run attempts whole rounds of one fixed make-up until ``seconds`` have
passed (at least one round), checks every output against its oracle
outside the timed region, and returns the end-to-end metrics (untraced
run) or the per-layer metrics (traced run).

Every workload reports every metric. A round is the workload's unit of
work, and an operation is one call a user makes:

* ``suite``: one round is the 27 checks of ``run_suite`` at the program's
  default seed, run serially; one operation is one check.
* ``evals``: one round is the seeded mix of library evaluations from
  ``inputs.evals_round``; one operation is one evaluation.
* ``cli``: one round is the ten commands of ``inputs.cli_round``, each in a
  fresh interpreter; one operation is one command.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import calls, inputs, oracles
from .tracing import COUNTS, MODULES, Tracer, merge

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 5
PROBE_REPEATS = 3
SUBPROCESS_TIMEOUT = 60

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "op_latency_s": "s",
    "spectral_ops_per_s": "1/s",
    "composed_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SUITE_CHECKS = (
    "k_independence", "alpha_independence", "full_independence", "homog_independence",
    "continuity_equiv", "embed_q", "embed_s", "translation", "lifting_pos",
    "lifting_equiv", "reiteration", "interpolation", "inverse_breve", "inverse_homog",
    "inhom_homog_cap", "domain_sandwich", "denseness", "ergodicity", "semigroup_norm",
    "homog_semigroup_norm", "subordinated_norm", "cos_estimate", "ellq_operator",
    "uniform_bounds", "moment", "spectral_map", "classical_torus")
# checks that iterate a fixed grid instead of their (empty) ensemble
GRID_SAMPLES = {"cos_estimate": 9}


def per_layer_units() -> dict[str, str]:
    units = {f"check.{cid}_s": "s" for cid in SUITE_CHECKS}
    units["harness.calibration_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.calls"] = "count"
    for name in COUNTS:
        units[name] = "count"
    for op in inputs.SPECTRAL_OPS:
        units[f"evals.spectral.{op}_ms"] = "ms"
    for op in inputs.COMPOSED_OPS:
        units[f"evals.composed.{op}_ms"] = "ms"
    units["cli.import_s"] = "s"
    units["cli.interpreter_s"] = "s"
    units["trace.round_s"] = "s"
    return units


PER_LAYER = per_layer_units()


@dataclass
class Run:
    """What one run measured."""
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    half_ops: dict = field(default_factory=lambda: {"spectral": 0, "composed": 0})
    half_s: dict = field(default_factory=lambda: {"spectral": 0.0, "composed": 0.0})
    setup_s: float = 0.0
    per_layer: dict = field(default_factory=lambda: dict.fromkeys(PER_LAYER, 0.0))
    tracer: Tracer | None = None

    def record_round(self, seconds: float, ops: list[tuple[str, float]]) -> None:
        """seconds: all operations of the round; ops: (half, seconds) of
        every operation that did not fail."""
        self.round_s.append(seconds)
        self.op_s.extend(dt for _, dt in ops)
        for half, dt in ops:
            self.half_ops[half] += 1
            self.half_s[half] += dt

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """Medians over the run; each half's throughput over the whole run."""
        return {
            "setup_s": self.setup_s,
            "round_s": statistics.median(self.round_s),
            "op_latency_s": statistics.median(self.op_s),
            "spectral_ops_per_s": self.half_ops["spectral"] / self.half_s["spectral"],
            "composed_ops_per_s": self.half_ops["composed"] / self.half_s["composed"],
            "peak_rss_mb": peak_rss_mb,
        }


# --------------------------------------------------------------------------
# subprocesses
# --------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)


def probe(what: str, seed: int, repeats: int) -> float:
    """Median set-up seconds over fresh interpreters (see probe.py)."""
    values = []
    for _ in range(repeats):
        proc = _run_child(["-m", "perfbench.probe", what, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe {what!r} failed:\n{proc.stderr}")
        values.append(float(proc.stdout.strip()))
    return statistics.median(values)


def interpreter_s(repeats: int) -> float:
    """Median wall time of a bare interpreter that does nothing."""
    values = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run_child(["-c", "pass"]).check_returncode()
        values.append(time.perf_counter() - t0)
    return statistics.median(values)


def _layer_probes(run: Run) -> None:
    run.per_layer["cli.import_s"] = probe("import", run.seed, PROBE_REPEATS)
    run.per_layer["cli.interpreter_s"] = interpreter_s(PROBE_REPEATS)


def _tracer_layers(run: Run, summary: dict, rounds: int) -> None:
    """Per-round module self time, calls and work counts."""
    for mod in MODULES:
        run.per_layer[f"{mod}.self_s"] = summary["self_s"].get(mod, 0.0) / rounds
        run.per_layer[f"{mod}.calls"] = summary["calls"].get(mod, 0) / rounds
    for name in COUNTS:
        run.per_layer[name] = summary["counts"].get(name, 0) / rounds
    run.per_layer["harness.calibration_s"] = \
        summary["name_s"].get("harness.calibration", 0.0) / rounds
    run.per_layer["trace.round_s"] = statistics.median(run.round_s)


# --------------------------------------------------------------------------
# suite
# --------------------------------------------------------------------------

def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracbesov").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _same_payload_as_before(key: str, digest: str) -> bool:
    """Compare with the digest an earlier run of the same source, seed and
    sample counts left in OUT; record it if there is none."""
    path = OUT / "suite-payloads.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def registered_samples(harness, cid: str, count_override: int | None) -> int:
    if cid in GRID_SAMPLES:
        return GRID_SAMPLES[cid]
    counts = [s.count for s in harness.CHECKS[cid].default_ensembles]
    if count_override is not None:
        counts = [min(c, count_override) for c in counts]
    return sum(counts)


def run_suite(run: Run, seconds: float, smoke: bool) -> None:
    from fracbesov import harness
    if tuple(harness.SUITE_ORDER) != SUITE_CHECKS:
        run.mismatches.append(f"registered checks changed: {harness.SUITE_ORDER}")
    # the run users make to certify the theorems: `fracbesov --suite all`,
    # at the program's default seed whatever the benchmark seed
    seed = harness.DEFAULT_SEED
    count = 2 if smoke else None
    composed = {cid for cid in harness.SUITE_ORDER
                if any(e.family == "nonnormal_upper" for e in harness.CHECKS[cid].default_ensembles)}
    digests = set()
    check_s = {cid: [] for cid in harness.SUITE_ORDER}
    start = time.perf_counter()
    while True:
        reports, ops, round_s = [], [], 0.0
        for cid in harness.SUITE_ORDER:
            if run.tracer:
                run.tracer.op_id += 1
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                report = harness.run_check(cid, None, None, None, seed, count)
            except Exception as exc:  # a check that raises is a failed operation
                run.failed += 1
                run.mismatches.append(f"check {cid} raised {exc!r}")
                continue
            finally:
                dt = time.perf_counter() - t0
                round_s += dt
            check_s[cid].append(dt)
            ops.append(("composed" if cid in composed else "spectral", dt))
            reports.append(report)
        run.record_round(round_s, ops)

        for report in reports:
            if report.verdict != "pass":
                run.mismatches.append(f"check {report.check_id}: verdict {report.verdict}")
            want = registered_samples(harness, report.check_id, count)
            if report.samples != want:
                run.mismatches.append(
                    f"check {report.check_id}: {report.samples} samples, registered {want}")
        payload = harness.reports_to_json(reports)
        digests.add(hashlib.sha256(payload.encode()).hexdigest())
        if len(digests) > 1:
            run.mismatches.append("payload differs between repetitions at one seed")
        if time.perf_counter() - start >= seconds or smoke:
            break
    key = f"{_src_digest()}:seed={seed}:count={count}"
    if not _same_payload_as_before(key, digests.pop()):
        run.mismatches.append(f"payload differs from an earlier run ({key})")
    for cid, times in check_s.items():
        if times:
            run.per_layer[f"check.{cid}_s"] = statistics.median(times)


# --------------------------------------------------------------------------
# evals
# --------------------------------------------------------------------------

def run_evals(run: Run, seconds: float, smoke: bool) -> None:
    ops = inputs.evals_operators(run.seed)
    handles = {name: inputs.build_handle(data) for name, data in ops.items()}
    latency = {f"evals.{half}.{op}_ms": [] for half, names in
               (("spectral", inputs.SPECTRAL_OPS), ("composed", inputs.COMPOSED_OPS))
               for op in names}
    start = time.perf_counter()
    round_no = 0
    while True:
        if round_no:
            fresh = inputs.nonnormal_operators(run.seed, round_no)
            ops.update(fresh)
            handles.update({name: inputs.build_handle(data) for name, data in fresh.items()})
        cases = inputs.evals_round(run.seed, round_no, ops)
        results, timed, round_s = [], [], 0.0
        for case in cases:
            if run.tracer:
                run.tracer.op_id += 1
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                result = calls.eval_case(case, handles[case.operator])
            except Exception as exc:  # recorded as a failed operation
                run.failed += 1
                run.mismatches.append(f"{case.half} {case.op} on {case.operator} "
                                      f"raised {exc!r} ({case.params})")
                continue
            finally:
                dt = time.perf_counter() - t0
                round_s += dt
            timed.append((case.half, dt))
            latency[f"evals.{case.half}.{case.op}_ms"].append(1e3 * dt)
            results.append((case, result))
        run.record_round(round_s, timed)

        if run.tracer:
            run.tracer.enabled = False
        for case, result in results:
            check = oracles.check_spectral if case.half == "spectral" else oracles.check_composed
            try:
                check(case, ops[case.operator], result)
            except oracles.Mismatch as exc:
                run.mismatches.append(f"{case.op} on {case.operator} ({case.params}): {exc}")
        if run.tracer:
            run.tracer.enabled = True
        round_no += 1
        if time.perf_counter() - start >= seconds or smoke:
            break
    for name, values in latency.items():
        run.per_layer[name] = statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def run_cli(run: Run, seconds: float, smoke: bool) -> None:
    ops = inputs.cli_operators(run.seed)
    summaries = []
    summary_path = OUT / f"cli-trace-summary-{os.getpid()}.json"
    start = time.perf_counter()
    round_no = 0
    while True:
        timed, round_s = [], 0.0
        for case in inputs.cli_round(run.seed, round_no, ops):
            config = json.dumps(case.config)
            if run.trace:
                OUT.mkdir(parents=True, exist_ok=True)
                args = ["-m", "perfbench.cli_traced", str(summary_path), "--",
                        "--config", config]
            else:
                args = ["-m", "fracbesov.cli", "--config", config]
            run.attempted += 1
            t0 = time.perf_counter()
            proc = _run_child(args)
            dt = time.perf_counter() - t0
            round_s += dt
            if proc.returncode != 0:
                run.failed += 1
                run.mismatches.append(f"command {case.config['command']} exited "
                                      f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            timed.append((case.half, dt))
            if run.trace:
                summaries.append(json.loads(summary_path.read_text()))
                summary_path.unlink()
            try:
                oracles.check_cli(case, json.loads(proc.stdout))
            except (oracles.Mismatch, ValueError, KeyError) as exc:
                run.mismatches.append(f"command {case.config} printed a wrong value: {exc!r}")
        run.record_round(round_s, timed)
        round_no += 1
        if time.perf_counter() - start >= seconds or smoke:
            break
    if run.trace:
        _tracer_layers(run, merge(summaries), round_no)


# --------------------------------------------------------------------------
# entry
# --------------------------------------------------------------------------

RUNNERS = {"suite": run_suite, "evals": run_evals, "cli": run_cli}


def execute(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Run:
    run = Run(workload, seed, trace)
    if not trace:
        run.setup_s = probe(workload, seed, SETUP_REPEATS)
    if trace and workload != "cli":
        run.tracer = Tracer()
        run.tracer.install()
    try:
        RUNNERS[workload](run, seconds, smoke)
    finally:
        if run.tracer:
            run.tracer.uninstall()
    if trace:
        _layer_probes(run)
        if run.tracer:
            _tracer_layers(run, run.tracer.summary(), len(run.round_s))
            run.tracer.write(OUT / f"trace-{workload}-seed{seed}.npz")
    return run


def peak_rss_mb(workload: str) -> float:
    # cli work happens in the children; the others in this process
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
