"""Seeded inputs for the three workloads.

Everything here is plain numpy: the same seed gives the same operators,
vectors and parameters, and the program under test only ever sees the
generated values. Each round of a workload has a fixed make-up (the same
operation kinds with the same parameters on the same handles, in the same
order); only the vectors change from round to round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TORUS_N = 64
TORUS2_N = 8
DIAG_N = 32
DIAG_RANGE = (1e-2, 1e3)
SPD_N = 32
SPD_RANGE = (1.0, 100.0)
NONNORMAL_N = 6
NONNORMAL_COUNT = 2
NONNORMAL_DIAG = (0.2, 5.0)
NONNORMAL_COUPLING = 0.4

# operation kinds per spectral handle; "injective" handles also serve the
# kinds that need an injective operator (homogeneous/reversed quasi-norms,
# negative unified powers, the K-functional and interpolation norms)
SPECTRAL_PLAN = {
    "torus64": (("frac_power", 2), ("frac_power_unified", 1), ("frac_resolvent", 1),
                ("inhom_quasi_norm", 2), ("continuous_quasi_norm", 1),
                ("semigroup_quasi_norm", 2)),
    "torus8x8": (("frac_power", 2), ("frac_power_unified", 1), ("frac_resolvent", 1),
                 ("inhom_quasi_norm", 2), ("continuous_quasi_norm", 1),
                 ("semigroup_quasi_norm", 2)),
    "diag32": (("frac_power", 2), ("frac_power_unified", 1), ("frac_resolvent", 2),
               ("inhom_quasi_norm", 2), ("continuous_quasi_norm", 1),
               ("homog_quasi_norm", 2), ("breve_quasi_norm", 2),
               ("semigroup_quasi_norm", 2), ("interpolation_norm", 1),
               ("k_functional", 4)),
    "spd32": (("frac_power", 2), ("frac_power_unified", 1), ("frac_resolvent", 2),
              ("inhom_quasi_norm", 2), ("continuous_quasi_norm", 1),
              ("homog_quasi_norm", 2), ("breve_quasi_norm", 2),
              ("semigroup_quasi_norm", 2), ("interpolation_norm", 1),
              ("k_functional", 4)),
}
# per non-normal handle; ergodic_limits runs once per round, on the first
COMPOSED_PLAN = (("frac_power", 5), ("phi_apply", 5), ("frac_resolvent", 5),
                 ("estimate_nonnegativity_constants", 2))

SPECTRAL_OPS = ("frac_power", "frac_power_unified", "frac_resolvent", "inhom_quasi_norm",
                "continuous_quasi_norm", "homog_quasi_norm", "breve_quasi_norm",
                "semigroup_quasi_norm", "interpolation_norm", "k_functional")
COMPOSED_OPS = ("frac_power", "phi_apply", "frac_resolvent",
                "estimate_nonnegativity_constants", "ergodic_limits")


@dataclass(frozen=True, eq=False)
class OperatorData:
    """One operator as plain arrays, with the eigen-data the oracles use.

    ``eigs``/``basis`` are known by construction (or, for the tori, from
    the closed-form Fourier multipliers); they are never read back from the
    program. ``basis`` is None for the tori, whose transform is the FFT.
    """
    name: str
    kind: str                 # "torus", "diagonal", "dense"
    dim: int
    eigs: np.ndarray | None = None
    basis: np.ndarray | None = None
    matrix: np.ndarray | None = None
    torus: tuple | None = None

    @property
    def spectral(self) -> bool:
        return self.eigs is not None

    @property
    def injective(self) -> bool:
        return self.spectral and bool(self.eigs.min() > 0)

    def coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x in an orthonormal eigenbasis (oracle side)."""
        x = np.asarray(x, dtype=complex)
        if self.kind == "torus":
            n, dims = self.torus
            if dims == 1:
                return np.fft.fft(x, norm="ortho")
            return np.fft.fft2(x.reshape(n, n), norm="ortho").ravel()
        if self.kind == "diagonal":
            return x
        return self.basis.conj().T @ x

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=complex)
        if self.kind == "torus":
            n, dims = self.torus
            if dims == 1:
                return np.fft.ifft(c, norm="ortho")
            return np.fft.ifft2(c.reshape(n, n), norm="ortho").ravel()
        if self.kind == "diagonal":
            return c
        return self.basis @ c


def torus_data(n: int, dims: int) -> OperatorData:
    mult = 4.0 * n * n * np.sin(np.pi * np.arange(n) / n) ** 2
    eigs = mult if dims == 1 else (mult[:, None] + mult[None, :]).ravel()
    name = f"torus{n}" if dims == 1 else f"torus{n}x{n}"
    return OperatorData(name, "torus", n ** dims, eigs=eigs, torus=(n, dims))


def _pinned_loguniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    # both ends are pinned so that every seed has the same spectral range
    # (and so the same quadrature windows); the interior is log-uniform
    inner = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n - 2))
    return np.sort(np.concatenate([[lo], inner, [hi]]))


def nonnormal_matrix(rng: np.random.Generator, n: int = NONNORMAL_N) -> np.ndarray:
    """Upper-triangular non-normal matrix with spectrum in NONNORMAL_DIAG."""
    diag = _pinned_loguniform(rng, n, *NONNORMAL_DIAG)
    upper = np.triu(rng.normal(size=(n, n)), 1)
    return np.diag(diag) + NONNORMAL_COUPLING * upper


def evals_operators(seed: int) -> dict[str, OperatorData]:
    rng = np.random.default_rng([seed, 0xE7A1])
    ops = {"torus64": torus_data(TORUS_N, 1), "torus8x8": torus_data(TORUS2_N, 2)}
    ops["diag32"] = OperatorData("diag32", "diagonal", DIAG_N,
                                 eigs=_pinned_loguniform(rng, DIAG_N, *DIAG_RANGE))
    eigs = _pinned_loguniform(rng, SPD_N, *SPD_RANGE)
    q, _ = np.linalg.qr(rng.normal(size=(SPD_N, SPD_N)))
    ops["spd32"] = OperatorData("spd32", "dense", SPD_N, eigs=eigs, basis=q,
                                matrix=(q * eigs[None, :]) @ q.T)
    ops.update(nonnormal_operators(seed, 0))
    return ops


def nonnormal_operators(seed: int, round_no: int) -> dict[str, OperatorData]:
    """The non-normal matrices of one evals round.

    They are drawn afresh every round: their cost differs from matrix to
    matrix (window widths, widenings), and one pair per seed moved the
    composed throughput by 16% between seeds.
    """
    rng = np.random.default_rng([seed, 0xE7A4, round_no])
    return {f"nonnormal{i}": OperatorData(f"nonnormal{i}", "dense", NONNORMAL_N,
                                          matrix=nonnormal_matrix(rng))
            for i in range(NONNORMAL_COUNT)}


def build_handle(data: OperatorData):
    """The program's handle for one operator (this is set-up work)."""
    from fracbesov.operators import OperatorHandle
    if data.kind == "torus":
        return OperatorHandle.torus_laplacian(*data.torus)
    if data.kind == "diagonal":
        return OperatorHandle.diagonal(data.eigs)
    return OperatorHandle.dense(data.matrix)


# --------------------------------------------------------------------------
# evals: one round of the mix
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvalCase:
    half: str            # "spectral" or "composed"
    op: str
    operator: str        # key into evals_operators()
    x: np.ndarray
    params: dict = field(default_factory=dict)


def _vector(rng, n) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _non_integer(rng, lo, hi, gap=0.05) -> float:
    while True:
        a = float(rng.uniform(lo, hi))
        if abs(a - round(a)) >= gap:
            return a


def _besov_index(rng, op: str) -> dict:
    alpha = float(rng.uniform(0.0, 1.0))
    beta = float(rng.uniform(0.5, 2.0))
    lo = 0.05 if op == "semigroup_quasi_norm" else -alpha + 0.1
    # s + alpha stays below 1.9: beyond 2 the reference's 500-level block
    # sums overflow (see CHANGES.md)
    s = float(rng.uniform(lo, min(beta, 2.0 - alpha) - 0.1))
    q = [0.5, 1.0, 2.0, 4.0, math.inf][int(rng.integers(5))]
    k = int(rng.integers(-2, 3))
    return {"s": s, "q": q, "k": k, "alpha": alpha, "beta": beta}


def _spectral_params(rng, op: str, injective: bool) -> dict:
    if op == "frac_power":
        return {"alpha": _non_integer(rng, 0.05, 2.95)}
    if op == "frac_power_unified":
        alpha = float(rng.uniform(0.2, 1.0))
        beta = float(rng.uniform(0.5, 2.0))
        # Re z <= 0 needs an injective operator
        z_lo = -alpha + 0.1 if injective else 0.05
        while True:
            z = float(rng.uniform(z_lo, beta - 0.1))
            if abs(z) >= 0.05:
                return {"z": z, "alpha": alpha, "beta": beta}
    if op == "frac_resolvent":
        return {"alpha": float(rng.uniform(0.05, 0.9)),
                "lam": float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2)))),
                "companion": bool(rng.integers(2))}
    if op == "interpolation_norm":
        return {"alpha": float(rng.uniform(0.3, 1.5)), "theta": float(rng.uniform(0.2, 0.8)),
                "q": [1.0, 2.0, 4.0][int(rng.integers(3))]}
    if op == "k_functional":
        return {"alpha": float(rng.uniform(0.3, 1.5)),
                "t": float(np.exp(rng.uniform(math.log(1e-4), math.log(1e2))))}
    return _besov_index(rng, op)


def _composed_params(rng, op: str) -> dict:
    if op == "frac_power":
        alpha = _non_integer(rng, 0.05, 2.95)
        imag = float(rng.uniform(-0.5, 0.5)) if rng.integers(2) else 0.0
        return {"alpha": complex(alpha, imag)}
    if op == "phi_apply":
        # fractional parts of beta and gamma - beta stay in [0.1, 0.9]: below
        # about 0.04 the composed route cannot certify its tail (CHANGES.md)
        beta = int(rng.integers(2)) + float(rng.uniform(0.1, 0.9))
        gap = int(rng.integers(2)) + float(rng.uniform(0.1, 0.9))
        return {"beta": beta, "gamma": beta + gap,
                "lam": float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))}
    if op == "frac_resolvent":
        return {"alpha": float(rng.uniform(0.05, 0.9)),
                "lam": float(np.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
                "companion": bool(rng.integers(2))}
    if op == "ergodic_limits":
        # from 0.4 up the default t grid reaches the t -> 0 limits, so all
        # three limits are checked; below, one call costs up to 2 s
        return {"alpha": float(rng.uniform(0.4, 0.9))}
    return {}


def _round_rngs(seed: int, stream: int, round_no: int):
    """(vector rng, parameter rng) of one round.

    Vectors follow the seed and the round. Exponents, shifts and indices are
    drawn once, the same for every seed and every round: the cost of the
    quadrature routes swings by 10x with the exponent (slow decay near
    integer exponents widens the windows), so per-round or per-seed draws
    made the throughput of a run depend on which draws it reached.
    """
    return np.random.default_rng([seed, stream, round_no]), np.random.default_rng([stream])


def evals_round(seed: int, round_no: int, ops: dict[str, OperatorData]) -> list[EvalCase]:
    """The cases of one round: the same make-up every round, fresh vectors."""
    vec, par = _round_rngs(seed, 0xE7A2, round_no)
    cases = []
    for name, plan in SPECTRAL_PLAN.items():
        for op, count in plan:
            for _ in range(count):
                cases.append(EvalCase("spectral", op, name, _vector(vec, ops[name].dim),
                                      _spectral_params(par, op, ops[name].injective)))
    names = [f"nonnormal{i}" for i in range(NONNORMAL_COUNT)]
    for name in names:
        for op, count in COMPOSED_PLAN:
            for _ in range(count):
                cases.append(EvalCase("composed", op, name, _vector(vec, NONNORMAL_N),
                                      _composed_params(par, op)))
    cases.append(EvalCase("composed", "ergodic_limits", names[0], _vector(vec, NONNORMAL_N),
                          _composed_params(par, "ergodic_limits")))
    return cases


# --------------------------------------------------------------------------
# cli: one round of commands
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CliCase:
    half: str
    config: dict
    operator: OperatorData
    x: np.ndarray


def _op_spec(data: OperatorData) -> str:
    if data.kind == "torus":
        n, dims = data.torus
        return f"torus_laplacian n={n}" + (" dims=2" if dims == 2 else "")
    if data.kind == "diagonal":
        return "diagonal " + json.dumps(data.eigs.tolist())
    return "dense " + json.dumps(data.matrix.real.tolist())


def _pairs(x: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in x]


CLI_PLAN = ("power:torus64", "power:diag32", "norm:inhomogeneous:torus64",
            "norm:continuous:diag32", "norm:homogeneous:diag32", "norm:breve:diag32",
            "norm:semigroup:torus64", "kfun:diag32",
            "power:nonnormal", "norm:inhomogeneous:nonnormal")


def cli_operators(seed: int) -> dict[str, OperatorData]:
    rng = np.random.default_rng([seed, 0xC11])
    return {"torus64": torus_data(TORUS_N, 1),
            "diag32": OperatorData("diag32", "diagonal", DIAG_N,
                                   eigs=_pinned_loguniform(rng, DIAG_N, *DIAG_RANGE)),
            "nonnormal": OperatorData("nonnormal", "dense", NONNORMAL_N,
                                      matrix=nonnormal_matrix(rng))}


def cli_round(seed: int, round_no: int, ops: dict[str, OperatorData]) -> list[CliCase]:
    vec, rng = _round_rngs(seed, 0xC12, round_no)
    cases = []
    for entry in CLI_PLAN:
        parts = entry.split(":")
        data = ops[parts[-1]]
        x = _vector(vec, data.dim)
        cfg = {"command": parts[0], "operator": _op_spec(data), "vector": _pairs(x)}
        if parts[0] == "power":
            a = _non_integer(rng, 0.05, 2.95)
            cfg["exponent"] = a
        elif parts[0] == "norm":
            variant = parts[1]
            if data.kind == "dense":
                # integer exponents keep the composed route on plain solves
                idx = {"s": float(rng.uniform(0.05, 0.8)), "q": 2.0, "k": 0,
                       "alpha": 0.0, "beta": 1.0}
            else:
                idx = _besov_index(rng, "semigroup_quasi_norm" if variant == "semigroup"
                                   else "inhom_quasi_norm")
            cfg.update(variant=variant, s=idx["s"], k=idx["k"], alpha=idx["alpha"],
                       beta=idx["beta"],
                       q="inf" if math.isinf(idx["q"]) else idx["q"])
        else:
            cfg.update(alpha=float(rng.uniform(0.3, 1.5)), theta=float(rng.uniform(0.2, 0.8)),
                       q=2.0, t_grid={"min": 1e-4, "max": 1e2, "points": 9})
        half = "composed" if data.kind == "dense" else "spectral"
        cases.append(CliCase(half, cfg, data, x))
    return cases
