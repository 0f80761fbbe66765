"""Configuration-driven command line entry point.

A single JSON config document selects one of five commands:

* ``power``  — compute A^alpha x with quadrature diagnostics,
* ``norm``   — evaluate one of the quasi-norm variants,
* ``kfun``   — tabulate the K-functional over a t-grid,
* ``verify`` — run the numerical verification suite,
* ``report`` — merge previously written JSON outputs.

Unknown keys are rejected; admissibility violations are reported with the
offending key. Exit status: 0 success, 1 verification failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .besov import (
    BesovIndex,
    breve_quasi_norm,
    continuous_quasi_norm,
    homog_quasi_norm,
    inhom_quasi_norm,
    semigroup_quasi_norm,
)
from .fractional import frac_power
from .interpolation import CoupleSpec, k_functional
from .operators import DEFAULT_SEED, OperatorHandle, build_operator


class ConfigError(Exception):
    pass


_COMMANDS = ("power", "norm", "kfun", "verify", "report")
_NORM_VARIANTS = ("inhomogeneous", "continuous", "homogeneous", "breve", "semigroup")

_KEYS_COMMON = {"command", "seed", "output", "format"}
_KEYS_BY_COMMAND = {
    "power": _KEYS_COMMON | {"operator", "vector", "exponent", "tail_tolerance"},
    "norm": _KEYS_COMMON | {"operator", "vector", "variant", "s", "q", "k",
                            "alpha", "beta", "tail_tolerance"},
    "kfun": _KEYS_COMMON | {"operator", "vector", "alpha", "theta", "q", "t_grid"},
    "verify": _KEYS_COMMON | {"suite", "ensemble"},
    "report": _KEYS_COMMON | {"inputs"},
}


@dataclass
class RunConfig:
    command: str
    operator_spec: Optional[str] = None
    handle: Optional[OperatorHandle] = None  # built once from operator_spec
    vector: Optional[np.ndarray] = None  # drawn from seed by execute() when absent
    exponent: complex = 0.5
    variant: str = "inhomogeneous"
    index: Optional[BesovIndex] = None
    theta: float = 0.5
    q: float = 2.0
    alpha: complex = 1.0
    t_grid: dict = field(default_factory=lambda: {"min": 1e-6, "max": 1e6, "points": 33})
    suite: Optional[list] = None  # None runs every check
    ensemble_count: Optional[int] = None
    seed: int = DEFAULT_SEED
    output_path: Optional[str] = None
    format: str = "json"
    tail_tolerance: Optional[float] = None  # None: each evaluator's own default
    inputs: list = field(default_factory=list)


def _as_complex_cfg(value, key: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 \
            and all(isinstance(v, (int, float)) for v in value):
        return complex(value[0], value[1])
    raise ConfigError(f"{key} must be a number or a [re, im] pair, got {value!r}")


def _as_vector(value, key: str = "vector") -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a non-empty list")
    return np.array([_as_complex_cfg(v, f"{key}[{i}]") for i, v in enumerate(value)])


def _q_value(raw) -> float:
    if raw in ("inf", "infinity"):
        return math.inf
    if isinstance(raw, (int, float)) and raw > 0:
        return float(raw)
    raise ConfigError(f"q must be a positive number or \"inf\", got {raw!r}")


def _int_value(raw, key: str, least: Optional[int] = None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or (least is not None and raw < least):
        floor = "" if least is None else f" >= {least}"
        raise ConfigError(f"{key} must be an integer{floor}, got {raw!r}")
    return raw


def _positive_value(raw, key: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not 0 < raw < math.inf:
        raise ConfigError(f"{key} must be a positive finite number, got {raw!r}")
    return float(raw)


def _sub_config(raw: dict, key: str, allowed: set) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    bad = set(value) - allowed
    if bad:
        raise ConfigError(f"unknown {key} keys: {sorted(bad)}")
    return value


def parse_config(source: str) -> RunConfig:
    """Parse a config from a file path or inline JSON text."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    command = raw.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got {command!r}")
    unknown = set(raw) - _KEYS_BY_COMMAND[command]
    if unknown:
        raise ConfigError(f"unknown config keys for {command!r}: {sorted(unknown)}")

    cfg = RunConfig(command=command)
    cfg.seed = _int_value(raw.get("seed", DEFAULT_SEED), "seed")
    cfg.output_path = raw.get("output")
    cfg.format = raw.get("format", "json")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {cfg.format!r}")

    if command in ("power", "norm", "kfun"):
        if "operator" not in raw:
            raise ConfigError(f"{command} needs an \"operator\" spec string")
        cfg.operator_spec = raw["operator"]
        try:
            cfg.handle = handle = build_operator(cfg.operator_spec)
        except ValueError as exc:
            raise ConfigError(f"operator: {exc}") from exc
        if "vector" in raw:
            cfg.vector = _as_vector(raw["vector"])
            if cfg.vector.size != handle.dim:
                raise ConfigError(
                    f"vector has dimension {cfg.vector.size}, operator has {handle.dim}")

    if "tail_tolerance" in raw:
        cfg.tail_tolerance = _positive_value(raw["tail_tolerance"], "tail_tolerance")

    if command == "power":
        cfg.exponent = _as_complex_cfg(raw.get("exponent", 0.5), "exponent")
        if cfg.exponent.real <= 0:
            raise ConfigError("exponent must satisfy Re > 0")
    elif command == "norm":
        cfg.variant = raw.get("variant", "inhomogeneous")
        if cfg.variant not in _NORM_VARIANTS:
            raise ConfigError(f"variant must be one of {_NORM_VARIANTS}")
        try:
            cfg.index = BesovIndex(
                s=float(raw.get("s", 0.5)),
                q=_q_value(raw.get("q", 2.0)),
                k=int(raw.get("k", 0)),
                alpha=_as_complex_cfg(raw.get("alpha", 0.0), "alpha"),
                beta=_as_complex_cfg(raw.get("beta", 1.0), "beta"),
            )
        except ValueError as exc:
            raise ConfigError(f"index: {exc}") from exc
    elif command == "kfun":
        cfg.alpha = _as_complex_cfg(raw.get("alpha", 1.0), "alpha")
        cfg.theta = float(raw.get("theta", 0.5))
        if not 0.0 < cfg.theta < 1.0:
            raise ConfigError("theta must lie in (0, 1)")
        cfg.q = _q_value(raw.get("q", 2.0))
        cfg.t_grid.update(_sub_config(raw, "t_grid", {"min", "max", "points"}))
        tg = cfg.t_grid
        if not _positive_value(tg["max"], "t_grid.max") > _positive_value(tg["min"], "t_grid.min"):
            raise ConfigError(f"t_grid.max must exceed t_grid.min, got {tg['max']!r}")
        _int_value(tg["points"], "t_grid.points", 1)
    elif command == "verify":
        suite = raw.get("suite", "all")
        cfg.suite = _parse_suite(suite)
        if "ensemble" in raw:
            cfg.ensemble_count = _int_value(
                _sub_config(raw, "ensemble", {"count"}).get("count"), "ensemble.count", 1)
    elif command == "report":
        cfg.inputs = raw.get("inputs", [])
        if not isinstance(cfg.inputs, list) or not cfg.inputs:
            raise ConfigError("report needs a non-empty \"inputs\" list of JSON files")
    return cfg


def _parse_suite(suite) -> list:
    from .harness import SUITE_ORDER

    if suite == "all" or suite is None:
        return list(SUITE_ORDER)
    if isinstance(suite, str):
        suite = [s.strip() for s in suite.split(",") if s.strip()]
    unknown = [s for s in suite if s not in SUITE_ORDER]
    if unknown:
        raise ConfigError(f"unknown check ids: {unknown}")
    return list(suite)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def _complex_pairs(vec: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in vec]


def _write(cfg: RunConfig, payload: dict, csv_rows: Optional[tuple] = None) -> None:
    if cfg.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        if csv_rows is None:
            raise ConfigError(f"command {cfg.command!r} has no CSV representation")
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerance(cfg: RunConfig) -> dict:
    """The config's tail_tolerance as a keyword argument, or none at all, so
    that each evaluator keeps its own default (1e-9 or 1e-8)."""
    return {} if cfg.tail_tolerance is None else {"tail_tolerance": cfg.tail_tolerance}


def _exec_power(cfg: RunConfig) -> int:
    result, diag = frac_power(cfg.handle, cfg.exponent, cfg.vector, with_diagnostics=True,
                              **_tolerance(cfg))
    payload = {
        "command": "power",
        "operator": cfg.operator_spec,
        "exponent": [cfg.exponent.real, cfg.exponent.imag],
        "result": _complex_pairs(result),
        "quadrature": None if diag is None else {
            "u_min": diag.u_min, "u_max": diag.u_max, "nodes": diag.nodes,
            "tail_low": diag.tail_low, "tail_high": diag.tail_high,
            "widenings": diag.widenings, "discretization": diag.discretization,
        },
        "seed": cfg.seed,
    }
    rows = [(i, float(v.real), float(v.imag)) for i, v in enumerate(result)]
    _write(cfg, payload, (("index", "re", "im"), rows))
    return 0


_NORMS = {"inhomogeneous": inhom_quasi_norm, "continuous": continuous_quasi_norm,
          "homogeneous": homog_quasi_norm, "breve": breve_quasi_norm}


def _exec_norm(cfg: RunConfig) -> int:
    handle, idx, tol = cfg.handle, cfg.index, _tolerance(cfg)
    if cfg.variant == "semigroup":
        res = semigroup_quasi_norm(handle, idx.s, idx.q, idx.k, idx.beta, cfg.vector, **tol)
    else:
        res = _NORMS[cfg.variant](handle, idx, cfg.vector, **tol)
    payload = {
        "command": "norm",
        "variant": cfg.variant,
        "operator": cfg.operator_spec,
        "index": {"s": idx.s, "q": "inf" if math.isinf(idx.q) else idx.q, "k": idx.k,
                  "alpha": [complex(idx.alpha).real, complex(idx.alpha).imag],
                  "beta": [complex(idx.beta).real, complex(idx.beta).imag]},
        "value": res.value,
        "leading": res.leading,
        "sum_part": res.sum_part,
        "j_range": [res.j_lo, res.j_hi],
        "tail_bound": res.tail_bound,
        "seed": cfg.seed,
    }
    rows = [(cfg.variant, res.value, res.leading, res.sum_part,
             res.j_lo, res.j_hi, res.tail_bound)]
    _write(cfg, payload, (("variant", "value", "leading", "sum_part",
                           "j_lo", "j_hi", "tail_bound"), rows))
    return 0


def _exec_kfun(cfg: RunConfig) -> int:
    couple = CoupleSpec(cfg.handle, cfg.alpha, cfg.theta, cfg.q)
    tg = cfg.t_grid
    ts = np.geomspace(float(tg["min"]), float(tg["max"]), int(tg["points"]))
    ks = [k_functional(couple, float(t), cfg.vector) for t in ts]
    payload = {
        "command": "kfun",
        "operator": cfg.operator_spec,
        "alpha": [cfg.alpha.real, cfg.alpha.imag],
        "theta": cfg.theta,
        "q": "inf" if math.isinf(cfg.q) else cfg.q,
        "table": [[float(t), float(k)] for t, k in zip(ts, ks)],
        "seed": cfg.seed,
    }
    rows = [(float(t), float(k)) for t, k in zip(ts, ks)]
    _write(cfg, payload, (("t", "K"), rows))
    return 0


def _exec_verify(cfg: RunConfig) -> int:
    from .harness import reports_payload, run_suite

    reports = run_suite(cfg.suite, seed=cfg.seed,
                        count_override=cfg.ensemble_count)
    payload = reports_payload(reports)
    header = ("check_id", "kind", "verdict", "samples", "ratio_min", "ratio_max",
              "ratio_median", "ceiling", "violations", "max_violation")
    rows = [(r.check_id, r.kind, r.verdict, r.samples,
             r.ratio_min, r.ratio_max, r.ratio_median, r.ceiling,
             r.violations, r.max_violation) for r in reports]
    _write(cfg, payload, (header, rows))
    return 0 if payload["all_pass"] else 1


def _exec_report(cfg: RunConfig) -> int:
    merged = []
    for path in cfg.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                merged.append({"path": path, "payload": json.load(fh)})
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot merge {path!r}: {exc}") from exc
    verdicts = []
    for item in merged:
        pl = item["payload"]
        if isinstance(pl, dict) and "reports" in pl:
            verdicts.extend(r.get("verdict") for r in pl["reports"])
    payload = {
        "command": "report",
        "merged": merged,
        "summary": {
            "files": len(merged),
            "checks": len(verdicts),
            "passed": sum(v == "pass" for v in verdicts),
            "failed": sum(v == "fail" for v in verdicts),
        },
    }
    _write(cfg, payload)
    return 0 if payload["summary"]["failed"] == 0 else 1


_EXECUTORS = {
    "power": _exec_power,
    "norm": _exec_norm,
    "kfun": _exec_kfun,
    "verify": _exec_verify,
    "report": _exec_report,
}


def execute(cfg: RunConfig) -> int:
    if cfg.handle is not None and cfg.vector is None:
        # drawn here, once every override of the seed is applied
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0 to draw the vector, got {cfg.seed}")
        rng = np.random.default_rng(cfg.seed)
        n = cfg.handle.dim
        cfg.vector = rng.normal(size=n) + 1j * rng.normal(size=n)
    return _EXECUTORS[cfg.command](cfg)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracbesov",
        description="fractional powers, operator-adapted quasi-norms and the "
                    "numerical verification suite")
    parser.add_argument("--config", help="JSON config file (or inline JSON)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output path")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    parser.add_argument("--suite", help="comma-separated check ids, or 'all' "
                                        "(implies the verify command)")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = parse_config(args.config)
        elif args.suite:
            cfg = RunConfig(command="verify")
        else:
            parser.print_usage(sys.stderr)
            print("error: provide --config or --suite", file=sys.stderr)
            return 2
        if args.suite:
            cfg.suite = _parse_suite(args.suite)
            if cfg.command != "verify":
                raise ConfigError("--suite applies to the verify command only")
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.output_path = args.out
        if args.format is not None:
            cfg.format = args.format
        return execute(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation errors surface plainly
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
