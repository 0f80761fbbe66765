"""Randomized verification harness.

Each structural claim about fractional powers and the operator-adapted
quasi-norms is encoded as a check over a seeded operator/vector ensemble:

* ``exact_identity`` / ``exact_inequality`` checks admit zero violations
  beyond a 1e-9 slack — they are run in the constant-explicit or termwise
  form in which they are literally true, not as equivalences;
* ``ratio_bounded`` checks record ratio statistics and compare the observed
  spread against a ceiling calibrated beforehand on a small diagonal family
  evaluated by the brute-force reference routines (observed calibration
  band x safety factor 10);
* ``limit`` and ``grid_verification`` checks test convergence and pointwise
  bounds directly.

Reports are deterministic given (suite, config, seed) and serialize to JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import reference as ref
from .besov import (
    BesovIndex,
    _lq_aggregate,
    breve_quasi_norm,
    continuous_quasi_norm,
    dyadic_blocks,
    homog_quasi_norm,
    inhom_quasi_norm,
    semigroup_quasi_norm,
)
from .fractional import (
    ergodic_limits,
    phi_apply,
    power_apply,
    spectral_frac_power,
)
from .gammafn import composition_bound_constant, gamma, moment_constant
from .interpolation import CoupleSpec, interpolation_norm
from .operators import OperatorHandle

DEFAULT_SEED = 20260810


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

@dataclass
class EnsembleSpec:
    """Reproducible operator/vector ensemble: same seed, same samples."""
    family: str = "diag_loguniform"
    params: dict = field(default_factory=dict)
    sampler: str = "gaussian"
    sampler_params: dict = field(default_factory=dict)
    count: int = 60
    seed: int = DEFAULT_SEED

    def describe(self) -> dict:
        return {
            "family": self.family, "params": dict(self.params),
            "sampler": self.sampler, "sampler_params": dict(self.sampler_params),
            "count": self.count, "seed": self.seed,
        }


@dataclass
class Sample:
    handle: OperatorHandle
    x: np.ndarray
    rng: np.random.Generator


def _make_operator(spec: EnsembleSpec, rng: np.random.Generator) -> OperatorHandle:
    p = spec.params
    fam = spec.family
    if fam == "diag_loguniform":
        n = p.get("n", 8)
        lo, hi = p.get("lam_min", 0.1), p.get("lam_max", 10.0)
        eigs = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
        return OperatorHandle.diagonal(np.sort(eigs))
    if fam == "diag_with_kernel":
        n = p.get("n", 8)
        lo, hi = p.get("lam_min", 0.1), p.get("lam_max", 10.0)
        eigs = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n - 1))
        return OperatorHandle.diagonal(np.concatenate([[0.0], np.sort(eigs)]))
    if fam == "dense_spd":
        n = p.get("n", 8)
        cond = p.get("condition", 100.0)
        eigs = np.geomspace(1.0, cond, n) * rng.uniform(0.5, 2.0)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return OperatorHandle.dense(q @ np.diag(eigs) @ q.T)
    if fam == "torus_laplacian":
        return OperatorHandle.torus_laplacian(p.get("n", 16), p.get("dims", 1))
    if fam == "nonnormal_upper":
        n = p.get("n", 6)
        coupling = p.get("coupling", 0.5)
        diag = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=n))
        upper = np.triu(rng.normal(size=(n, n)), 1)
        for _ in range(8):
            m = np.diag(np.sort(diag)) + coupling * upper
            handle = OperatorHandle.dense(m)
            if handle.constants()[0] <= 50.0:
                return handle
            coupling *= 0.5
        return handle
    if fam == "shifted":
        inner = replace(spec, family=p["base"], params=p.get("base_params", {}))
        return OperatorHandle.shifted(_make_operator(inner, rng), p.get("eps", 0.5))
    raise ValueError(f"unknown operator family {fam!r}")


def _sample_vector(spec: EnsembleSpec, handle: OperatorHandle,
                   rng: np.random.Generator) -> np.ndarray:
    n = handle.dim
    name = spec.sampler
    if name == "gaussian":
        return rng.normal(size=n) + 1j * rng.normal(size=n)
    if name == "band_limited":
        if handle.spectral is None:
            raise ValueError("band_limited needs spectral data")
        frac = spec.sampler_params.get("fraction", 0.5)
        order = np.argsort(handle.spectral.eigenvalues)
        keep = order[: max(1, int(frac * n))]
        c = np.zeros(n, dtype=complex)
        c[keep] = rng.normal(size=len(keep)) + 1j * rng.normal(size=len(keep))
        return handle.spectral.from_coeff(c)
    raise ValueError(f"unknown vector sampler {name!r}")


def draw_samples(spec: EnsembleSpec) -> list[Sample]:
    out = []
    for i in range(spec.count):
        rng = np.random.default_rng([spec.seed, i])
        handle = _make_operator(spec, rng)
        x = _sample_vector(spec, handle, rng)
        out.append(Sample(handle, x, rng))
    return out


# --------------------------------------------------------------------------
# evaluation backends (production vs brute-force reference)
# --------------------------------------------------------------------------

class _ProdBackend:
    name = "production"

    def inhom(self, s: Sample, idx: BesovIndex, x=None) -> float:
        return inhom_quasi_norm(s.handle, idx, s.x if x is None else x).value

    def sum_part(self, s, idx, x=None) -> float:
        return inhom_quasi_norm(s.handle, idx, s.x if x is None else x).sum_part

    def homog(self, s, idx, x=None) -> float:
        return homog_quasi_norm(s.handle, idx, s.x if x is None else x).value

    def breve(self, s, idx, x=None) -> float:
        return breve_quasi_norm(s.handle, idx, s.x if x is None else x).value

    def continuous(self, s, idx, x=None) -> float:
        return continuous_quasi_norm(s.handle, idx, s.x if x is None else x).value

    def semigroup_value(self, s, sm, q, k, beta, x=None) -> float:
        return semigroup_quasi_norm(s.handle, sm, q, k, beta, s.x if x is None else x).value

    def semigroup_sum(self, s, sm, q, k, beta, x=None) -> float:
        return semigroup_quasi_norm(s.handle, sm, q, k, beta, s.x if x is None else x).sum_part

    def interp(self, s, alpha, theta, q) -> float:
        return interpolation_norm(CoupleSpec(s.handle, alpha, theta, q), s.x).value

    def apply_power(self, s, z, x=None) -> np.ndarray:
        return spectral_frac_power(s.handle, z, s.x if x is None else x)

    def power_sample(self, s, a: float) -> Sample:
        return Sample(OperatorHandle.frac_power(s.handle, a), s.x, s.rng)

    def inverse_sample(self, s) -> Sample:
        return Sample(OperatorHandle.inverse(s.handle), s.x, s.rng)

    def shifted_sample(self, s, eps: float) -> Sample:
        return Sample(OperatorHandle.shifted(s.handle, eps), s.x, s.rng)


class _RefBackend:
    """Brute-force reference on eigen-coefficients (handles with eigen-data only)."""
    name = "reference"

    @staticmethod
    def _data(s: Sample, x=None):
        sd = s.handle.spectral
        vec = s.x if x is None else x
        return sd.eigenvalues, sd.to_coeff(vec)

    def inhom(self, s, idx, x=None) -> float:
        eigs, c = self._data(s, x)
        return ref.inhom_norm(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def sum_part(self, s, idx, x=None) -> float:
        eigs, c = self._data(s, x)
        return ref.sum_part(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def homog(self, s, idx, x=None) -> float:
        eigs, c = self._data(s, x)
        return ref.homog_norm(eigs, c, idx.s, idx.q, idx.alpha, idx.beta)

    def breve(self, s, idx, x=None) -> float:
        eigs, c = self._data(s, x)
        return ref.breve_norm(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def continuous(self, s, idx, x=None) -> float:
        eigs, c = self._data(s, x)
        return ref.leading_term(eigs, c, idx.k, idx.alpha) + \
            ref.continuous_sum_part(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def semigroup_value(self, s, sm, q, k, beta, x=None) -> float:
        eigs, c = self._data(s, x)
        return float(np.linalg.norm(c)) + ref.semigroup_sum_part(eigs, c, sm, q, k, beta)

    def semigroup_sum(self, s, sm, q, k, beta, x=None) -> float:
        eigs, c = self._data(s, x)
        return ref.semigroup_sum_part(eigs, c, sm, q, k, beta)

    def interp(self, s, alpha, theta, q) -> float:
        eigs, c = self._data(s)
        return ref.interpolation_norm(eigs, c, alpha, theta, q)

    def apply_power(self, s, z, x=None) -> np.ndarray:
        sd = s.handle.spectral
        eigs, c = self._data(s, x)
        return sd.from_coeff(ref.power_coeffs(eigs, c, z))

    def power_sample(self, s, a: float) -> Sample:
        sd = s.handle.spectral
        return Sample(OperatorHandle.diagonal(sd.eigenvalues ** a),
                      sd.to_coeff(s.x), s.rng)

    def inverse_sample(self, s) -> Sample:
        sd = s.handle.spectral
        return Sample(OperatorHandle.diagonal(1.0 / sd.eigenvalues),
                      sd.to_coeff(s.x), s.rng)

    def shifted_sample(self, s, eps: float) -> Sample:
        sd = s.handle.spectral
        return Sample(OperatorHandle.diagonal(sd.eigenvalues + eps),
                      sd.to_coeff(s.x), s.rng)


_PROD = _ProdBackend()
_REF = _RefBackend()


# --------------------------------------------------------------------------
# outcome / report containers
# --------------------------------------------------------------------------

@dataclass
class ToleranceProfile:
    exact_slack: float = 1e-9
    identity_slack: float = 1e-9
    spectral_map_slack: float = 1e-12
    limit_tol: float = 1e-6
    ratio_safety: float = 10.0


@dataclass
class CheckOutcome:
    ratios: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    degenerate: int = 0
    samples: int = 0


@dataclass
class EquivalenceReport:
    check_id: str
    kind: str
    statement: str
    samples: int
    ratio_min: Optional[float]
    ratio_max: Optional[float]
    ratio_median: Optional[float]
    ceiling: Optional[float]
    ceiling_provenance: Optional[str]
    violations: int
    max_violation: float
    degenerate: int
    verdict: str
    failures: list
    seed: int
    config_hash: str

    def to_payload(self) -> dict:
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "statement": self.statement,
            "samples": self.samples,
            "ratio_stats": None if self.ratio_min is None else {
                "min": self.ratio_min, "max": self.ratio_max, "median": self.ratio_median,
            },
            "ceiling": self.ceiling,
            "ceiling_provenance": self.ceiling_provenance,
            "violations": self.violations,
            "max_violation": self.max_violation,
            "degenerate": self.degenerate,
            "verdict": self.verdict,
            "failures": self.failures,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }


@dataclass
class CheckDef:
    check_id: str
    kind: str
    statement: str
    runner: Callable
    default_ensembles: list
    calibration: Optional[Callable] = None


# --------------------------------------------------------------------------
# shared check helpers
# --------------------------------------------------------------------------

def _spread_stats(ratios):
    arr = np.asarray([r for r in ratios if math.isfinite(r) and r > 0], dtype=float)
    if arr.size == 0:
        return None, None, None, False
    return float(arr.min()), float(arr.max()), float(np.median(arr)), arr.size == len(ratios)


def _fail_record(i, **kw):
    rec = {"sample": i}
    rec.update(kw)
    return rec


# --------------------------------------------------------------------------
# check implementations (runner(samples, backend, tol) -> CheckOutcome)
# --------------------------------------------------------------------------

def _run_k_independence(samples, backend, tol, index_grid=None):
    out = CheckOutcome()
    variants = [(0.45, 2.0, 0.25, 1.0), (-0.3, 1.0, 0.6, 0.7)] \
        if index_grid is None else \
        [(ix.s, ix.q, ix.alpha, ix.beta) for ix in index_grid]
    for i, s in enumerate(samples):
        out.samples += 1
        for (sm, q, a, b) in variants:
            try:
                vals = [backend.sum_part(s, BesovIndex(sm, q, k, a, b))
                        for k in range(-2, 4)]
            except ValueError:
                out.degenerate += 1
                continue
            vals = [v for v in vals if v > 0]
            if not vals:
                out.degenerate += 1
                continue
            out.ratios.append(max(vals) / min(vals))
    return out


def _run_alpha_independence(samples, backend, tol, index_grid=None):
    out = CheckOutcome()
    if index_grid is None:
        alphas = [0.3, 0.8, 1.5, 0.5 + 0.4j]
        base = (0.25, 1.5, 0, 1.2)
    else:
        alphas = [ix.alpha for ix in index_grid]
        ix0 = index_grid[0]
        base = (ix0.s, ix0.q, ix0.k, ix0.beta)
    sm, q, k, b = base
    for i, s in enumerate(samples):
        out.samples += 1
        try:
            vals = [backend.sum_part(s, BesovIndex(sm, q, k, a, b)) for a in alphas]
        except ValueError:
            out.degenerate += 1
            continue
        vals = [v for v in vals if v > 0]
        if len(vals) < len(alphas):
            out.degenerate += 1
            continue
        out.ratios.append(max(vals) / min(vals))
    return out


def _run_full_independence(samples, backend, tol, index_grid=None):
    out = CheckOutcome()
    if index_grid is None:
        index_grid = [BesovIndex(0.4, 2.0, k, a, b) for (k, a, b) in
                      ((0, 0.0, 1.0), (1, 0.5, 1.5), (-1, 1.0, 2.0),
                       (2, 0.3 + 0.2j, 0.8))]
    if len({(ix.s, ix.q) for ix in index_grid}) != 1:
        raise ValueError("full-independence grid must share (s, q)")
    for i, s in enumerate(samples):
        out.samples += 1
        try:
            vals = [backend.inhom(s, ix) for ix in index_grid]
        except ValueError:
            out.degenerate += 1
            continue
        if min(vals) <= 0:
            out.degenerate += 1
            continue
        out.ratios.append(max(vals) / min(vals))
    return out


def _run_homog_independence(samples, backend, tol, index_grid=None):
    out = CheckOutcome()
    if index_grid is None:
        index_grid = [BesovIndex(0.3, 1.0, 0, a, b) for (a, b) in
                      ((0.5, 1.0), (1.0, 1.5), (0.2, 0.7))]
    for i, s in enumerate(samples):
        out.samples += 1
        try:
            vals = [backend.homog(s, ix) for ix in index_grid]
        except ValueError:
            out.degenerate += 1
            continue
        if min(vals) <= 0:
            out.degenerate += 1
            continue
        out.ratios.append(max(vals) / min(vals))
    return out


def _run_continuity_equiv(samples, backend, tol, index_grid=None):
    out = CheckOutcome()
    idxs = index_grid if index_grid is not None else [
        BesovIndex(0.45, 2.0, 0, 0.25, 1.0),
        BesovIndex(-0.3, 1.0, 0, 0.6, 0.7),
        BesovIndex(0.6, math.inf, 1, 0.0, 1.0),
    ]
    for i, s in enumerate(samples):
        out.samples += 1
        for idx in idxs:
            try:
                dy = backend.inhom(s, idx)
                co = backend.continuous(s, idx)
            except ValueError:
                out.degenerate += 1
                continue
            if dy <= 0 or co <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(dy / co)
    return out


def _run_embed_q(samples, backend, tol):
    out = CheckOutcome()
    q_pairs = [(0.5, 1.0), (1.0, 2.0), (2.0, math.inf)]
    idx0 = BesovIndex(0.5, 2.0, 0, 0.25, 1.0)
    js = np.arange(0, 48)
    for i, s in enumerate(samples):
        out.samples += 1
        blocks = dyadic_blocks(s.handle, js, idx0, s.x)
        for q, q1 in q_pairs:
            lo_agg, hi_agg = _lq_aggregate(blocks, q1), _lq_aggregate(blocks, q)
            gap = lo_agg - hi_agg
            if gap > tol.exact_slack * max(hi_agg, 1e-300):
                out.violations.append(_fail_record(i, q=q, q1=q1, gap=gap))
    return out


def _run_embed_s(samples, backend, tol):
    out = CheckOutcome()
    s_lo, s_hi = 0.2, 0.6
    js = np.arange(0, 48)
    pq_pairs = [(0.5, 2.0), (1.0, 2.0), (0.5, 1.0)]
    for i, smp in enumerate(samples):
        out.samples += 1
        idx_hi = BesovIndex(s_hi, 1.5, 0, 0.3, 1.0)
        b_hi = dyadic_blocks(smp.handle, js, idx_hi, smp.x)
        b_lo = np.exp2(js * (s_lo - s_hi)) * b_hi      # blocks at smoothness s_lo
        for q in (0.5, 1.5, math.inf):
            gap = _lq_aggregate(b_lo, q) - _lq_aggregate(b_hi, q)
            if gap > tol.exact_slack * max(_lq_aggregate(b_hi, q), 1e-300):
                out.violations.append(_fail_record(i, q=q, gap=gap, part="termwise"))
        for p, q in pq_pairs:
            c_holder = (1.0 / (1.0 - 2.0 ** ((s_lo - s_hi) * q * p / (q - p)))) ** (1.0 / p - 1.0 / q)
            gap = _lq_aggregate(b_lo, p) - c_holder * _lq_aggregate(b_hi, q)
            if gap > tol.exact_slack * max(c_holder * _lq_aggregate(b_hi, q), 1e-300):
                out.violations.append(_fail_record(i, p=p, q=q, gap=gap, part="hoelder"))
    return out


def _run_translation(samples, backend, tol):
    out = CheckOutcome()
    cases = [(BesovIndex(0.5, 2.0, 0, 0.25, 1.0), 0.5),
             (BesovIndex(-0.2, 1.0, 1, 0.5, 0.8), 1.0)]
    for i, s in enumerate(samples):
        out.samples += 1
        for idx, eps in cases:
            base = backend.inhom(s, idx)
            shifted = backend.inhom(backend.shifted_sample(s, eps), idx)
            if base <= 0 or shifted <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(shifted / base)
    return out


def _run_lifting_pos(samples, backend, tol):
    out = CheckOutcome()
    gammas = [0.3, 0.25 + 0.2j]
    s_val, q = 0.8, 2.0
    for i, s in enumerate(samples):
        out.samples += 1
        src = backend.inhom(s, BesovIndex(s_val, q, 0, 0.5, 1.5))
        for g in gammas:
            y = backend.apply_power(s, g)
            dst = backend.inhom(s, BesovIndex(s_val - complex(g).real, q, 0, 0.5, 1.5), x=y)
            if src <= 0 or dst <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(dst / src)
    return out


def _run_lifting_equiv(samples, backend, tol):
    out = CheckOutcome()
    gammas = [0.5, 0.3 + 0.2j]
    s_val = 0.5
    for i, s in enumerate(samples):
        out.samples += 1
        for q in (1.0, math.inf):
            src = backend.inhom(s, BesovIndex(s_val, q, 0, 0.0, 1.0))
            for g in gammas:
                y = backend.apply_power(s, -complex(g))
                dst = backend.inhom(
                    s, BesovIndex(s_val + complex(g).real, q, 0, 0.0,
                                  math.ceil(s_val + complex(g).real) + 1.0), x=y)
                if src <= 0 or dst <= 0:
                    out.degenerate += 1
                    continue
                out.ratios.append(dst / src)
    return out


def _run_reiteration(samples, backend, tol):
    out = CheckOutcome()
    alphas = [1.0 / 3.0, 0.5, 0.75, 1.5]
    for i, s in enumerate(samples):
        out.samples += 1
        for a in alphas:
            powered = backend.power_sample(s, a)
            for sm in (0.3, 0.6):
                for q in (1.0, 2.0, math.inf):
                    lhs = backend.inhom(powered, BesovIndex(sm, q, 0, 0.0, math.ceil(sm) + 0.5))
                    rhs = backend.inhom(s, BesovIndex(sm * a, q, 0, 0.0, math.ceil(sm * a) + 0.5))
                    if lhs <= 0 or rhs <= 0:
                        out.degenerate += 1
                        continue
                    out.ratios.append(lhs / rhs)
    return out


def _run_interpolation(samples, backend, tol):
    out = CheckOutcome()
    for i, s in enumerate(samples):
        out.samples += 1
        shifted = backend.shifted_sample(s, 0.05)
        for alpha in (0.8, 1.4):
            for theta in (0.3, 0.6):
                for q in (1.0, 2.0):
                    lhs = backend.interp(shifted, alpha, theta, q)
                    rhs = backend.inhom(
                        shifted, BesovIndex(theta * alpha, q, 0, 0.0,
                                            math.floor(theta * alpha) + 1.0))
                    if lhs <= 0 or rhs <= 0:
                        out.degenerate += 1
                        continue
                    out.ratios.append(lhs / rhs)
    return out


def _run_inverse_breve(samples, backend, tol):
    out = CheckOutcome()
    s_val, a, b = 0.5, 0.7, 1.1
    for i, s in enumerate(samples):
        out.samples += 1
        inv = backend.inverse_sample(s)
        for q in (1.0, 2.0):
            lhs = backend.breve(s, BesovIndex(-s_val, q, 0, b, a))
            rhs = backend.inhom(inv, BesovIndex(s_val, q, 0, a, b))
            if rhs <= 0:
                out.degenerate += 1
                continue
            rel = abs(lhs - rhs) / rhs
            out.ratios.append(lhs / rhs)
            if s.handle.kind == "diagonal" and rel > tol.identity_slack:
                out.violations.append(_fail_record(i, q=q, rel=rel))
    return out


def _run_inverse_homog(samples, backend, tol):
    out = CheckOutcome()
    s_val, a, b = 0.4, 0.6, 1.2
    for i, s in enumerate(samples):
        out.samples += 1
        inv = backend.inverse_sample(s)
        for q in (1.0, 2.0):
            lhs = backend.homog(s, BesovIndex(-s_val, q, 0, b, a))
            rhs = backend.homog(inv, BesovIndex(s_val, q, 0, a, b))
            if rhs <= 0:
                out.degenerate += 1
                continue
            rel = abs(lhs - rhs) / rhs
            out.ratios.append(lhs / rhs)
            if s.handle.kind == "diagonal" and rel > tol.identity_slack:
                out.violations.append(_fail_record(i, q=q, rel=rel))
    return out


def _run_inhom_homog_cap(samples, backend, tol):
    out = CheckOutcome()
    s_val = 0.4
    for i, s in enumerate(samples):
        out.samples += 1
        for q in (1.0, 2.0):
            idx = BesovIndex(s_val, q, 0, 0.0, 1.0)
            lhs = backend.inhom(s, idx)
            rhs = backend.homog(s, idx) + float(np.linalg.norm(s.x))
            if lhs <= 0 or rhs <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(lhs / rhs)
    return out


def _run_domain_sandwich(samples, backend, tol):
    out = CheckOutcome()
    alpha, s_lo, s_hi, beta = 0.6, 0.35, 0.85, 1.2
    n_w = 1           # witness for alpha
    m_w = 1           # witness for beta - alpha
    m_b = 2           # witness for beta
    for i, s in enumerate(samples):
        out.samples += 1
        m_const, l_const = s.handle.constants()
        ax = backend.apply_power(s, alpha)
        n_ax = float(np.linalg.norm(ax))
        n_x = float(np.linalg.norm(s.x))
        c0 = composition_bound_constant(alpha, n_w) * \
            composition_bound_constant(beta - alpha, m_w) * m_const ** n_w * l_const ** m_w
        for q in (0.5, 1.0, 2.0, math.inf):
            lhs = backend.sum_part(s, BesovIndex(s_lo, q, 0, 0.0, beta))
            geom = 1.0 if math.isinf(q) else (1.0 / (1.0 - 2.0 ** ((s_lo - alpha) * q))) ** (1.0 / q)
            bound = c0 * geom * n_ax
            if lhs - bound > tol.exact_slack * max(bound, 1e-300):
                out.violations.append(_fail_record(i, q=q, side="upper", gap=lhs - bound))
            # reverse side: ||A^a x|| against the s_hi sum part
            sp = backend.sum_part(s, BesovIndex(s_hi, q, 0, 0.0, beta))
            g_pref = abs(gamma(beta) / (gamma(alpha) * gamma(beta - alpha)))
            c_rd = composition_bound_constant(beta, m_b) * \
                (l_const + m_const) ** m_b * (l_const + m_const + 1.0) ** m_b
            if math.isinf(q):
                hold = 1.0 / (1.0 - 2.0 ** (alpha - s_hi))
            elif q <= 1.0:
                hold = 1.0
            else:
                qp = q / (q - 1.0)
                hold = (1.0 / (1.0 - 2.0 ** ((alpha - s_hi) * qp))) ** (1.0 / qp)
            bound2 = g_pref * (composition_bound_constant(beta, m_b) * l_const ** m_b / alpha * n_x
                               + math.log(2.0) * 2.0 ** alpha * c_rd * hold * sp)
            if n_ax - bound2 > tol.exact_slack * max(bound2, 1e-300):
                out.violations.append(_fail_record(i, q=q, side="lower", gap=n_ax - bound2))
    return out


def _run_denseness(samples, backend, tol):
    out = CheckOutcome()
    beta = 1.5
    ms = [4, 8, 12, 16, 20, 24]
    for i, s in enumerate(samples):
        out.samples += 1
        for s_val in (0.4, -0.4):
            idx = BesovIndex(s_val, 2.0, 0, 1.0, beta)
            base = backend.inhom(s, idx)
            n_vals = 2.0 ** np.array(ms)
            approx = (n_vals ** beta)[:, None] * phi_apply(s.handle, 0.0, beta, n_vals, s.x)
            gaps = [backend.inhom(s, idx, x=s.x - ap) / max(base, 1e-300) for ap in approx]
            ok_final = gaps[-1] <= 1e-4 * max(gaps[0], 1e-300)
            decrements = np.diff(np.log2(np.maximum(gaps, 1e-280))) / np.diff(ms)
            ok_rate = np.median(decrements) <= -0.8
            if not (ok_final and ok_rate):
                out.violations.append(_fail_record(
                    i, s=s_val, final_gap=gaps[-1], first_gap=gaps[0],
                    median_rate=float(np.median(decrements))))
    return out


def _run_ergodicity(samples, backend, tol):
    out = CheckOutcome()
    for i, s in enumerate(samples):
        out.samples += 1
        sd = s.handle.spectral
        kermask = sd.eigenvalues == 0
        c = sd.to_coeff(s.x)
        x0 = sd.from_coeff(np.where(kermask, c, 0.0))
        x1 = sd.from_coeff(np.where(kermask, 0.0, c))
        scale = max(np.linalg.norm(s.x), 1e-300)
        for a in (0.5, 1.0):
            lim = ergodic_limits(s.handle, a, s.x)
            checks = {
                "limit_at_infinity": np.linalg.norm(lim.limit_at_infinity - s.x),
                "kernel_split": np.linalg.norm(lim.limit_at_zero - x0),
                "range_split": np.linalg.norm(lim.range_component - x1),
                "kernel_identity": np.linalg.norm(
                    spectral_frac_power(s.handle, a, x0)),
            }
            for name, err in checks.items():
                if err > tol.limit_tol * scale:
                    out.violations.append(_fail_record(i, alpha=a, part=name, err=float(err)))
    return out


def _run_semigroup_norm(samples, backend, tol, index_grid=None):
    out = CheckOutcome()
    if index_grid is None:
        cases = [(sm, q, beta) for sm, beta in ((0.4, 1.0), (0.8, 1.6))
                 for q in (1.0, 2.0, math.inf)]
    else:
        cases = [(ix.s, ix.q, ix.beta) for ix in index_grid]
    for i, s in enumerate(samples):
        out.samples += 1
        for sm, q, beta in cases:
            try:
                lhs = backend.semigroup_value(s, sm, q, 0, beta)
                rhs = backend.inhom(s, BesovIndex(sm, q, 0, 0.0, beta))
            except ValueError:
                out.degenerate += 1
                continue
            if lhs <= 0 or rhs <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(lhs / rhs)
    return out


def _run_homog_semigroup_norm(samples, backend, tol):
    out = CheckOutcome()
    sm, beta = 0.5, 1.0
    for i, s in enumerate(samples):
        out.samples += 1
        for q in (1.0, 2.0):
            lhs = backend.semigroup_sum(s, sm, q, -60, beta)
            rhs = backend.homog(s, BesovIndex(sm, q, 0, 0.0, beta))
            if lhs <= 0 or rhs <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(lhs / rhs)
    return out


def _run_subordinated_norm(samples, backend, tol):
    out = CheckOutcome()
    sm, q = 0.45, 2.0
    for i, s in enumerate(samples):
        out.samples += 1
        for a in (0.5, 0.7):
            powered = backend.power_sample(s, a)
            beta = math.floor(sm / a) + 1.0
            lhs = backend.semigroup_value(powered, sm / a, q, 0, beta)
            rhs = backend.inhom(s, BesovIndex(sm, q, 0, 0.0, 1.0))
            if lhs <= 0 or rhs <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(lhs / rhs)
    return out


def _run_cos_estimate(samples, backend, tol):
    out = CheckOutcome()
    ts = np.geomspace(1e-3, 1e3, 1000)
    fracs = np.linspace(0.5, 1.0, 1000)
    for a10 in range(1, 10):
        out.samples += 1
        alpha = a10 / 10.0
        cosa = math.cos(math.pi * alpha)
        k_alpha = 1.0 if alpha <= 0.5 else 0.25 * (1.0 + 3.0 / math.sin(math.pi * alpha) ** 2)
        f_t = 1.0 + 2.0 * ts * cosa + ts * ts
        us = ts[:, None] * fracs[None, :]
        f_u = 1.0 + 2.0 * us * cosa + us * us
        viol = f_u - k_alpha * f_t[:, None]
        worst = float(viol.max())
        if worst > tol.exact_slack * float(np.abs(k_alpha * f_t).max()):
            out.violations.append(_fail_record(a10, alpha=alpha, worst=worst))
    return out


def _ellq_apply(a_seq, i_idx, s, alpha, j_idx):
    v = np.exp2(i_idx[None, :] * alpha - j_idx[:, None])
    w = v ** (1.0 - s) / (1.0 + 2.0 * v * math.cos(math.pi * alpha) + v * v)
    return w @ a_seq


def _run_ellq_operator(samples, backend, tol):
    out = CheckOutcome()
    i_idx = np.arange(-24, 25)
    j_idx = np.arange(-80, 81)
    for i, s in enumerate(samples):
        out.samples += 1
        a_seq = np.abs(s.rng.normal(size=len(i_idx)))
        for s_p in (0.3, 0.7):
            for alpha in (0.3, 0.6):
                b_seq = _ellq_apply(a_seq, i_idx, s_p, alpha, j_idx)
                for q in (0.5, 1.0, 2.0, math.inf):
                    r = _lq_aggregate(np.abs(b_seq), q) / max(_lq_aggregate(a_seq, q), 1e-300)
                    out.ratios.append(r)
    return out


def _run_uniform_bounds(samples, backend, tol):
    out = CheckOutcome()
    for i, s in enumerate(samples):
        out.samples += 1
        handle = s.handle
        exact = handle.spectral is not None
        m_const, l_const = handle.constants()
        alphas = [0.6, 1.4, 0.7 + 0.5j] if exact else [0.6, 1.4]
        lo, hi = handle.scales()
        lams = np.geomspace(lo * 1e-4, hi * 1e4, 25 if exact else 9)
        for a in alphas:
            a_c = complex(a)
            n_w = int(math.floor(a_c.real)) + 1
            c_an = composition_bound_constant(a_c, n_w)
            m_bound = c_an * m_const ** n_w
            l_bound = c_an * l_const ** n_w
            nms = _composite_norms(handle, a_c, lams, kind="M")
            nls = _composite_norms(handle, a_c, lams, kind="L")
            for lam, nm, nl in zip(lams, nms, nls):
                if nm - m_bound > tol.exact_slack * m_bound:
                    out.violations.append(_fail_record(i, alpha=str(a), lam=lam,
                                                       part="M", excess=nm - m_bound))
                if nl - l_bound > tol.exact_slack * l_bound:
                    out.violations.append(_fail_record(i, alpha=str(a), lam=lam,
                                                       part="L", excess=nl - l_bound))
            for c_ratio in (0.5, 2.0):
                c_bound = c_an * (l_const + max(c_ratio, 1.0) * m_const) ** n_w
                t_vals = np.geomspace(lo * 0.01, hi * 100.0, 5 if exact else 3)
                ncs = _composite_norms(handle, a_c, t_vals, kind="C", c_ratio=c_ratio)
                for t_val, nc in zip(t_vals, ncs):
                    if nc - c_bound > tol.exact_slack * c_bound:
                        out.violations.append(_fail_record(
                            i, alpha=str(a), t=t_val, c=c_ratio, part="C",
                            excess=nc - c_bound))
    return out


def _composite_norms(handle, a: complex, lams: np.ndarray, kind: str,
                     c_ratio: float = 0.0) -> np.ndarray:
    """Euclidean operator norms of lam^a (lam+A)^{-a}, A^a (lam+A)^{-a} or
    (c_ratio lam + A)^a (lam+A)^{-a}, one per lam, through the
    eigen-multipliers or materialized matrices."""
    sd = handle.spectral
    if sd is not None:
        mu, lam = sd.eigenvalues[None, :], lams[:, None]
        if kind == "M":
            vals = (lam / (lam + mu)) ** a.real
        elif kind == "L":
            vals = np.where(mu > 0, (mu / (lam + mu)) ** a.real, 0.0)
        else:
            vals = ((c_ratio * lam + mu) / (lam + mu)) ** a.real
        return np.abs(vals).max(axis=1)
    # one block evaluation on the basis per lam: its rows are the images of
    # the basis vectors, the transpose of the matrix, which has the same 2-norm
    basis = np.eye(handle.dim, dtype=complex)
    if kind == "M":
        mats = (lams ** a)[:, None, None] * phi_apply(handle, 0.0, a, lams, basis)
    elif kind == "L":
        mats = phi_apply(handle, a, a, lams, basis)
    else:
        mats = [power_apply(OperatorHandle.shifted(handle, c_ratio * lam), a, rows)
                for lam, rows in zip(lams, phi_apply(handle, 0.0, a, lams, basis))]
    return np.linalg.norm(np.asarray(mats), 2, axis=(-2, -1))


def _run_moment(samples, backend, tol):
    out = CheckOutcome()
    for i, s in enumerate(samples):
        out.samples += 1
        handle = s.handle
        m_const = handle.constants()[0]
        slack = tol.exact_slack if handle.spectral is not None else 1e-6
        n_w = int(s.rng.integers(1, 4))
        a = float(s.rng.uniform(0.1, n_w - 0.1))
        ax = power_apply(handle, a, s.x)
        y = s.x
        for _ in range(n_w):
            y = handle.apply(y)
        c_bound = moment_constant(a, n_w, m_const)
        rhs = c_bound * np.linalg.norm(y) ** (a / n_w) * \
            np.linalg.norm(s.x) ** (1.0 - a / n_w)
        lhs = float(np.linalg.norm(ax))
        if lhs - rhs > slack * max(rhs, 1e-300):
            out.violations.append(_fail_record(i, alpha=a, n=n_w, excess=lhs - rhs))
    return out


def _run_spectral_map(samples, backend, tol):
    out = CheckOutcome()
    for i, s in enumerate(samples):
        out.samples += 1
        sd = s.handle.spectral
        for a in (0.5, 2.0, 0.7 + 0.4j):
            # rows of the block are the images of the basis vectors
            mat = spectral_frac_power(s.handle, a, np.eye(s.handle.dim, dtype=complex)).T
            got = np.sort_complex(np.linalg.eigvals(mat))
            mu = sd.eigenvalues.astype(complex)
            want = np.zeros_like(mu)
            pos = mu.real > 0
            want[pos] = np.exp(complex(a) * np.log(mu[pos]))
            want = np.sort_complex(want)
            scale = max(np.abs(want).max(), 1e-300)
            err = float(np.abs(got - want).max() / scale)
            if err > tol.spectral_map_slack:
                out.violations.append(_fail_record(i, alpha=str(a), err=err))
    return out


def _lp_fourier_norm(x: np.ndarray, smoothness: float, q: float) -> float:
    """Littlewood-Paley Besov norm on the 1-d periodic grid (euclidean case):
    ||P_0 x|| + lq-aggregate of 2^{j s} ||P_j x|| over annuli 2^{j-1} <= |k| < 2^j."""
    n = x.size
    c = np.fft.fft(x, norm="ortho")
    freqs = np.fft.fftfreq(n, d=1.0 / n)       # integer frequencies
    absk = np.abs(freqs)
    lead = abs(c[0])
    blocks = []
    j = 0
    while 2.0 ** (j - 1) <= absk.max():
        mask = (absk >= 2.0 ** (j - 1)) & (absk < 2.0 ** j)
        if mask.any():
            blocks.append(2.0 ** (j * smoothness) * np.linalg.norm(c[mask]))
        j += 1
    return lead + _lq_aggregate(np.asarray(blocks), q)


def _run_classical_torus(samples, backend, tol):
    out = CheckOutcome()
    for i, s in enumerate(samples):
        out.samples += 1
        for sm in (0.4, 0.7):
            res = backend.inhom(s, BesovIndex(sm, 2.0, 0, 0.0, 1.0))
            lp = _lp_fourier_norm(s.x, 2.0 * sm, 2.0)
            if res <= 0 or lp <= 0:
                out.degenerate += 1
                continue
            out.ratios.append(res / lp)
            half = backend.power_sample(s, 0.5)
            lhs = backend.inhom(half, BesovIndex(sm, 2.0, 0, 0.0, 1.0))
            rhs = backend.inhom(s, BesovIndex(sm / 2.0, 2.0, 0, 0.0, 1.0))
            out.ratios.append(lhs / rhs)
    return out


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

def _diag(count=60, n=8, lam_min=0.1, lam_max=10.0, sampler="gaussian"):
    return EnsembleSpec("diag_loguniform", {"n": n, "lam_min": lam_min, "lam_max": lam_max},
                        sampler, {}, count)


def _spd(count=20, n=8, condition=100.0):
    return EnsembleSpec("dense_spd", {"n": n, "condition": condition}, "gaussian", {}, count)


def _cal_diag(count=40):
    return EnsembleSpec("diag_loguniform", {"n": 4, "lam_min": 0.05, "lam_max": 20.0},
                        "gaussian", {}, count)


CHECKS: dict[str, CheckDef] = {}

# checks whose per-sample predicate ranges over a caller-supplied BesovIndex grid
INDEX_GRID_CHECKS = frozenset({
    "k_independence", "alpha_independence", "full_independence",
    "homog_independence", "continuity_equiv", "semigroup_norm"})


def _register(check_id, kind, statement, runner, ensembles, calibration="diag"):
    takes_grid = check_id in INDEX_GRID_CHECKS
    cal = None
    if kind == "ratio_bounded":
        if calibration == "diag":
            def cal(seed, grid=None, _runner=runner, _tg=takes_grid):
                samples = draw_samples(replace(_cal_diag(), seed=seed))
                if _tg:
                    return _runner(samples, _REF, ToleranceProfile(), grid)
                return _runner(samples, _REF, ToleranceProfile())
        elif callable(calibration):
            def cal(seed, grid=None, _base=calibration):
                return _base(seed)
    CHECKS[check_id] = CheckDef(check_id, kind, statement, runner, ensembles, cal)


_register(
    "k_independence", "ratio_bounded",
    "dyadic tail sums with different base levels k are equivalent semi-quasinorms",
    _run_k_independence, [_diag(60)])
_register(
    "alpha_independence", "ratio_bounded",
    "dyadic tail sums with different resolvent weights alpha are equivalent",
    _run_alpha_independence, [_diag(60)])
_register(
    "full_independence", "ratio_bounded",
    "the full inhomogeneous quasi-norm is independent of (k, alpha, beta)",
    _run_full_independence, [_diag(50), _spd(15)])
_register(
    "homog_independence", "ratio_bounded",
    "the homogeneous quasi-norm is independent of (alpha, beta)",
    _run_homog_independence, [_diag(60)])
_register(
    "continuity_equiv", "ratio_bounded",
    "dyadic level sums and the continuous-parameter integrals are equivalent",
    _run_continuity_equiv, [_diag(40)])
_register(
    "embed_q", "exact_inequality",
    "l_q monotonicity: raising q never increases the aggregate of fixed blocks",
    _run_embed_q, [_diag(100)])
_register(
    "embed_s", "exact_inequality",
    "smoothness monotonicity at k=0, termwise and with the explicit Hoelder constant",
    _run_embed_s, [_diag(100)])
_register(
    "translation", "ratio_bounded",
    "shifting the operator by eps > 0 gives an equivalent inhomogeneous quasi-norm",
    _run_translation, [_diag(60)])
_register(
    "lifting_pos", "ratio_bounded",
    "A^g maps smoothness s boundedly to smoothness s - Re g (0 < Re g < s)",
    _run_lifting_pos, [_diag(50), _spd(15)])
_register(
    "lifting_equiv", "ratio_bounded",
    "for invertible operators, the negative-power image norm is equivalent",
    _run_lifting_equiv,
    [EnsembleSpec("shifted", {"base": "diag_loguniform",
                              "base_params": {"n": 8, "lam_min": 0.1, "lam_max": 10.0},
                              "eps": 0.5}, "gaussian", {}, 50)])
_register(
    "reiteration", "ratio_bounded",
    "quasi-norms built on A^a at smoothness s match those on A at smoothness s*a",
    _run_reiteration, [_diag(50)])
_register(
    "interpolation", "ratio_bounded",
    "the real-interpolation quasi-norm of (X, dom(A^a)) at (theta, q) matches "
    "the inhomogeneous quasi-norm at smoothness theta*a",
    _run_interpolation, [_diag(30, n=6)])
_register(
    "inverse_breve", "exact_identity",
    "the reversed-level quasi-norm at -s under A equals the inhomogeneous "
    "quasi-norm at s under the inverse operator (swapped exponents, k=0)",
    _run_inverse_breve, [_diag(50), _spd(10)])
_register(
    "inverse_homog", "exact_identity",
    "the homogeneous quasi-norm at -s under A equals the one at s under the "
    "inverse operator (swapped exponents)",
    _run_inverse_homog, [_diag(50), _spd(10)])
_register(
    "inhom_homog_cap", "ratio_bounded",
    "for s > 0 on invertible operators, inhomogeneous = homogeneous + ambient",
    _run_inhom_homog_cap, [_diag(50), _spd(15)])
_register(
    "domain_sandwich", "exact_inequality",
    "fractional-domain sandwich with the explicit composition constants",
    _run_domain_sandwich, [_diag(80)])
_register(
    "denseness", "limit",
    "resolvent regularizations n^b (n+A)^{-b} x converge to x in the quasi-norm",
    _run_denseness, [_diag(40)])
_register(
    "ergodicity", "limit",
    "kernel/range splitting of t^a (t+A)^{-a} and A^a (t+A)^{-a} as t -> 0, "
    "and ker A = ker A^a",
    _run_ergodicity, [EnsembleSpec("diag_with_kernel", {"n": 8}, "gaussian", {}, 60)])
_register(
    "semigroup_norm", "ratio_bounded",
    "resolvent dyadic quasi-norms match semigroup-based quasi-norms (s > 0)",
    _run_semigroup_norm, [_diag(50), EnsembleSpec("torus_laplacian", {"n": 16},
                                                  "gaussian", {}, 10)])
_register(
    "homog_semigroup_norm", "ratio_bounded",
    "homogeneous resolvent and semigroup quasi-norms match on injective operators",
    _run_homog_semigroup_norm, [_diag(50)])
_register(
    "subordinated_norm", "ratio_bounded",
    "quasi-norms built from the semigroup generated by -A^a at smoothness s/a "
    "match the base quasi-norm at smoothness s",
    _run_subordinated_norm, [_diag(40)])
_register(
    "cos_estimate", "grid_verification",
    "1 + 2u cos(pi a) + u^2 <= K_a (1 + 2t cos(pi a) + t^2) for t/2 <= u <= t",
    _run_cos_estimate, [EnsembleSpec("diag_loguniform", {"n": 2}, "gaussian", {}, 0)])
_register(
    "ellq_operator", "ratio_bounded",
    "the dyadic kernel v^{1-s}/(1 + 2 v cos(pi a) + v^2) defines a bounded "
    "operator on l_q sequences",
    _run_ellq_operator, [_diag(40, n=2)])
_register(
    "uniform_bounds", "exact_inequality",
    "sup over lam of the composed powers obeys the explicit C_{a,n} M^n / L^n "
    "bounds",
    _run_uniform_bounds, [_diag(25), EnsembleSpec("nonnormal_upper", {"n": 5, "coupling": 0.4},
                                                  "gaussian", {}, 6)])
_register(
    "moment", "exact_inequality",
    "||A^a x|| <= C(a, n, M) ||A^n x||^{a/n} ||x||^{1 - a/n}",
    _run_moment, [_diag(300), _spd(150, n=8), EnsembleSpec(
        "nonnormal_upper", {"n": 5, "coupling": 0.4}, "gaussian", {}, 50)])
_register(
    "spectral_map", "exact_identity",
    "the spectrum of A^a is the image of the spectrum under the principal power",
    _run_spectral_map, [_diag(30), EnsembleSpec("torus_laplacian", {"n": 8},
                                                "gaussian", {}, 1), _spd(20)])


def _cal_classical_torus(seed):
    spec = EnsembleSpec("torus_laplacian", {"n": 16}, "band_limited",
                        {"fraction": 0.5}, 30, seed)
    return _run_classical_torus(draw_samples(spec), _REF, ToleranceProfile())


_register(
    "classical_torus", "ratio_bounded",
    "on the periodic grid the resolvent quasi-norm of the discrete Laplacian "
    "matches the Littlewood-Paley Fourier norm at twice the smoothness, and "
    "the half-power operator matches at half the smoothness",
    _run_classical_torus,
    [EnsembleSpec("torus_laplacian", {"n": 64}, "band_limited", {"fraction": 0.5}, 100)],
    calibration=_cal_classical_torus)

SUITE_ORDER = list(CHECKS.keys())


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def run_check(
    check_id: str,
    ensemble: Optional[list[EnsembleSpec]] = None,
    index_grid: Optional[list[BesovIndex]] = None,
    tolerance_profile: Optional[ToleranceProfile] = None,
    seed: int = DEFAULT_SEED,
    count_override: Optional[int] = None,
) -> EquivalenceReport:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    cd = CHECKS[check_id]
    if index_grid is not None and check_id not in INDEX_GRID_CHECKS:
        raise ValueError(f"check {check_id!r} does not take a BesovIndex grid")
    tol = tolerance_profile or ToleranceProfile()
    specs = ensemble if ensemble is not None else cd.default_ensembles
    if count_override is not None:
        specs = [replace(s, count=min(s.count, count_override)) for s in specs]
    check_seed = (seed ^ zlib.crc32(check_id.encode())) & 0x7FFFFFFF

    samples = []
    for j, spec in enumerate(specs):
        samples.extend(draw_samples(replace(spec, seed=check_seed + j)))

    if check_id in INDEX_GRID_CHECKS:
        outcome = cd.runner(samples, _PROD, tol, index_grid)
    else:
        outcome = cd.runner(samples, _PROD, tol)

    ceiling = None
    provenance = None
    rmin = rmax = rmed = None
    verdict = "pass"
    if cd.kind == "ratio_bounded":
        rmin, rmax, rmed, all_finite = _spread_stats(outcome.ratios)
        if rmin is None:
            verdict = "degenerate"
        else:
            cal_out = cd.calibration(check_seed + 7919, index_grid)
            cmin, cmax, _, __ = _spread_stats(cal_out.ratios)
            if cmin is None or cmin <= 0:
                verdict = "degenerate"
            else:
                ceiling = (cmax / cmin) * tol.ratio_safety
                provenance = (f"calibration: {cal_out.samples} brute-force reference "
                              f"samples, band [{cmin:.6g}, {cmax:.6g}], safety x"
                              f"{tol.ratio_safety:g}")
                if not all_finite or (rmax / rmin) > ceiling:
                    verdict = "fail"
    else:
        if outcome.violations:
            verdict = "fail"
        elif outcome.samples == 0:
            verdict = "degenerate"

    max_violation = 0.0
    for v in outcome.violations:
        for key in ("gap", "excess", "err", "rel"):
            if key in v:
                max_violation = max(max_violation, float(v[key]))
    cfg = {
        "check_id": check_id,
        "seed": seed,
        "ensembles": [s.describe() for s in specs],
    }
    return EquivalenceReport(
        check_id=check_id, kind=cd.kind, statement=cd.statement,
        samples=outcome.samples,
        ratio_min=rmin, ratio_max=rmax, ratio_median=rmed,
        ceiling=ceiling, ceiling_provenance=provenance,
        violations=len(outcome.violations), max_violation=max_violation,
        degenerate=outcome.degenerate, verdict=verdict,
        failures=outcome.violations[:20],
        seed=seed, config_hash=_config_hash(cfg))


def run_suite(
    suite: Optional[list[str]] = None,
    seed: int = DEFAULT_SEED,
    tolerance_profile: Optional[ToleranceProfile] = None,
    count_override: Optional[int] = None,
) -> list[EquivalenceReport]:
    ids = SUITE_ORDER if suite is None else list(suite)
    for cid in ids:
        if cid not in CHECKS:
            raise KeyError(f"unknown check id {cid!r}")
    return [run_check(cid, None, None, tolerance_profile, seed, count_override)
            for cid in ids]


def reports_payload(reports: list[EquivalenceReport]) -> dict:
    return {
        "schema": "fracbesov.verify/1",
        "reports": [r.to_payload() for r in reports],
        "all_pass": all(r.verdict == "pass" for r in reports),
    }


def reports_to_json(reports: list[EquivalenceReport]) -> str:
    return json.dumps(reports_payload(reports), sort_keys=True, indent=2) + "\n"
