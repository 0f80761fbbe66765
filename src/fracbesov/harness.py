"""Randomized verification harness.

Each structural claim about fractional powers and the operator-adapted
quasi-norms is encoded as a check over a seeded operator/vector ensemble.
A check yields the cases of one sample, and one of two drivers owns the
sample loop and its counts:

* a ``ratio_bounded`` check yields (lhs, rhs) pairs to ``_ratio_runner``,
  and the spread of the ratios must stay under a ceiling calibrated by the
  brute-force reference routines on a small family: a 4-point diagonal one,
  and a band-limited 16-point torus one for ``classical_torus`` (observed
  calibration band x safety factor 10). A case is degenerate, and adds no
  ratio, when a side is <= 0 or its caller-supplied index is inadmissible;
* a bound check (``exact_inequality``, ``exact_identity`` or ``limit``)
  yields (excess, allowed, context) cases to ``_bound_runner``, or None for
  a degenerate case. Its claims are run in the constant-explicit or
  termwise form in which they are literally true, so a case fails when its
  excess (how far the value lies beyond its bound or, for the identities
  and limits, the deviation itself) is above the allowed slack.

``cos_estimate`` (``grid_verification``) loops over nine alphas itself. A
failure record is the case's context with its ``sample`` and ``excess``, and
a report's ``max_violation`` is the largest excess, 0.0 when nothing fails
and inf when an excess is NaN (a NaN is never within its bound).

Six checks range over a BesovIndex grid that the caller may replace:
``k_independence``, ``alpha_independence``, ``full_independence``,
``homog_independence``, ``continuity_equiv`` and ``semigroup_norm``. Their
default grids live in the registry (``CheckDef.grid``), and a grid entry a
norm rejects with ValueError counts as degenerate. A grid that sets a field
the check would ignore raises ValueError: a ``k`` other than 0 for
``k_independence``, a ``k`` or ``alpha`` other than 0 for
``semigroup_norm``, entries of different (s, q, k, beta) for
``alpha_independence`` and of different (s, q) for ``full_independence``.

Reports are deterministic given (suite, config, seed) and serialize to JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass, field, replace
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
from .fractional import ergodic_limits, phi_apply, power_apply
from .gammafn import composition_bound_constant, gamma, moment_constant
from .interpolation import CoupleSpec, interpolation_norm
from .operators import DEFAULT_SEED, OperatorHandle


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

    def inhom(self, s: Sample, idx: BesovIndex) -> float:
        return inhom_quasi_norm(s.handle, idx, s.x).value

    def sum_part(self, s, idx) -> float:
        return inhom_quasi_norm(s.handle, idx, s.x).sum_part

    def homog(self, s, idx) -> float:
        return homog_quasi_norm(s.handle, idx, s.x).value

    def breve(self, s, idx) -> float:
        return breve_quasi_norm(s.handle, idx, s.x).value

    def continuous(self, s, idx) -> float:
        return continuous_quasi_norm(s.handle, idx, s.x).value

    def semigroup_value(self, s, sm, q, k, beta) -> float:
        return semigroup_quasi_norm(s.handle, sm, q, k, beta, s.x).value

    def semigroup_sum(self, s, sm, q, k, beta) -> float:
        return semigroup_quasi_norm(s.handle, sm, q, k, beta, s.x).sum_part

    def interp(self, s, alpha, theta, q) -> float:
        return interpolation_norm(CoupleSpec(s.handle, alpha, theta, q), s.x).value

    def apply_power(self, s, z) -> np.ndarray:
        return power_apply(s.handle, z, s.x)

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
    def _data(s: Sample):
        sd = s.handle.spectral
        return sd.eigenvalues, sd.to_coeff(s.x)

    def inhom(self, s, idx) -> float:
        eigs, c = self._data(s)
        return ref.inhom_norm(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def sum_part(self, s, idx) -> float:
        eigs, c = self._data(s)
        return ref.sum_part(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def homog(self, s, idx) -> float:
        eigs, c = self._data(s)
        return ref.homog_norm(eigs, c, idx.s, idx.q, idx.alpha, idx.beta)

    def breve(self, s, idx) -> float:
        eigs, c = self._data(s)
        return ref.breve_norm(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def continuous(self, s, idx) -> float:
        eigs, c = self._data(s)
        return ref.leading_term(eigs, c, idx.k, idx.alpha) + \
            ref.continuous_sum_part(eigs, c, idx.s, idx.q, idx.k, idx.alpha, idx.beta)

    def semigroup_value(self, s, sm, q, k, beta) -> float:
        eigs, c = self._data(s)
        return float(np.linalg.norm(c)) + ref.semigroup_sum_part(eigs, c, sm, q, k, beta)

    def semigroup_sum(self, s, sm, q, k, beta) -> float:
        eigs, c = self._data(s)
        return ref.semigroup_sum_part(eigs, c, sm, q, k, beta)

    def interp(self, s, alpha, theta, q) -> float:
        eigs, c = self._data(s)
        return ref.interpolation_norm(eigs, c, alpha, theta, q)

    def apply_power(self, s, z) -> np.ndarray:
        sd = s.handle.spectral
        eigs, c = self._data(s)
        return sd.from_coeff(ref.power_coeffs(eigs, c, z))

    def power_sample(self, s, a: float) -> Sample:
        return self._diagonal_sample(s, s.handle.spectral.eigenvalues ** a)

    def inverse_sample(self, s) -> Sample:
        return self._diagonal_sample(s, 1.0 / s.handle.spectral.eigenvalues)

    def shifted_sample(self, s, eps: float) -> Sample:
        return self._diagonal_sample(s, s.handle.spectral.eigenvalues + eps)

    @staticmethod
    def _diagonal_sample(s: Sample, eigenvalues) -> Sample:
        """The sample on diag(eigenvalues), with s's vector in eigen-coefficients."""
        return Sample(OperatorHandle.diagonal(eigenvalues), s.handle.spectral.to_coeff(s.x), s.rng)


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
        payload = asdict(self)
        stats = {key: payload.pop(f"ratio_{key}") for key in ("min", "max", "median")}
        payload["ratio_stats"] = None if self.ratio_min is None else stats
        return payload


@dataclass
class CheckDef:
    check_id: str
    kind: str
    statement: str
    runner: Callable
    default_ensembles: list
    calibration: Optional[Callable] = None
    grid: Optional[list] = None


# --------------------------------------------------------------------------
# shared check helpers
# --------------------------------------------------------------------------

def _spread_stats(ratios):
    arr = np.asarray([r for r in ratios if math.isfinite(r) and r > 0], dtype=float)
    if arr.size == 0:
        return None, None, None, False
    return float(arr.min()), float(arr.max()), float(np.median(arr)), arr.size == len(ratios)


def _above(value, bound, slack, **context):
    """The case ``value <= bound`` of a bound check, up to the relative
    slack: its excess is ``value - bound``."""
    return value - bound, slack * max(bound, 1e-300), context


def _admissible(evaluate):
    """``evaluate()``, or None when it rejects a caller-supplied index."""
    try:
        return evaluate()
    except ValueError:
        return None


def _require_shared(grid, name, **fields):
    """Raise ValueError when a grid entry's field differs from the value the
    check uses for it: the check would ignore it without a word."""
    for key, value in fields.items():
        if any(getattr(ix, key) != value for ix in grid):
            raise ValueError(f"{name} grid entries must all have {key} = {value!r}")


def _spread(evaluate):
    """(max, min) of the values ``evaluate()`` returns at the grid indices,
    or None when one of them is inadmissible."""
    vals = _admissible(evaluate)
    return None if vals is None else (max(vals), min(vals))


def _ratio_runner(pairs):
    """Runner of a ratio check: ``pairs(sample, backend, grid)`` yields one
    ``(lhs, rhs)`` per case, or None for an inadmissible grid entry. A None
    or a side <= 0 counts as degenerate; every other case adds lhs / rhs."""
    def run(samples, backend, tol, grid):
        out = CheckOutcome()
        for s in samples:
            out.samples += 1
            for pair in pairs(s, backend, grid):
                if pair is None or pair[0] <= 0 or pair[1] <= 0:
                    out.degenerate += 1
                else:
                    out.ratios.append(pair[0] / pair[1])
        return out
    return run


def _bound_runner(cases):
    """Runner of a bound check: ``cases(sample, backend, tol)`` yields one
    ``(excess, allowed, context)`` per case, or None for a degenerate case.
    A case whose excess is not at or below the allowed amount (a NaN excess
    included) is a violation, recorded as
    ``{"sample": i, "excess": excess, **context}``."""
    def run(samples, backend, tol, grid):
        out = CheckOutcome()
        for i, s in enumerate(samples):
            out.samples += 1
            for case in cases(s, backend, tol):
                if case is None:
                    out.degenerate += 1
                elif not case[0] <= case[1]:
                    out.violations.append({"sample": i, "excess": case[0], **case[2]})
        return out
    return run


# --------------------------------------------------------------------------
# check implementations: runner(samples, backend, tol, grid) -> CheckOutcome,
# mostly a case generator wrapped by _ratio_runner or _bound_runner
# --------------------------------------------------------------------------

@_ratio_runner
def _run_k_independence(s, backend, grid):
    # each grid entry fixes (s, q, alpha, beta); the base level k ranges over -2..3
    _require_shared(grid, "k-independence", k=0)
    for ix in grid:
        vals = _admissible(lambda: [
            backend.sum_part(s, BesovIndex(ix.s, ix.q, k, ix.alpha, ix.beta))
            for k in range(-2, 4)])
        vals = [v for v in vals or () if v > 0]
        yield (max(vals), min(vals)) if vals else None


@_ratio_runner
def _run_alpha_independence(s, backend, grid):
    # the grid's alphas at the (s, q, k, beta) all its entries share
    ix0 = grid[0]
    _require_shared(grid, "alpha-independence", s=ix0.s, q=ix0.q, k=ix0.k, beta=ix0.beta)
    yield _spread(lambda: [backend.sum_part(s, ix) for ix in grid])


@_ratio_runner
def _run_full_independence(s, backend, grid):
    if len({(ix.s, ix.q) for ix in grid}) != 1:
        raise ValueError("full-independence grid must share (s, q)")
    yield _spread(lambda: [backend.inhom(s, ix) for ix in grid])


@_ratio_runner
def _run_homog_independence(s, backend, grid):
    yield _spread(lambda: [backend.homog(s, ix) for ix in grid])


@_ratio_runner
def _run_continuity_equiv(s, backend, grid):
    for ix in grid:
        yield _admissible(lambda: (backend.inhom(s, ix), backend.continuous(s, ix)))


@_bound_runner
def _run_embed_q(s, backend, tol):
    blocks = dyadic_blocks(s.handle, np.arange(0, 48), BesovIndex(0.5, 2.0, 0, 0.25, 1.0), s.x)
    for q, q1 in ((0.5, 1.0), (1.0, 2.0), (2.0, math.inf)):
        yield _above(_lq_aggregate(blocks, q1), _lq_aggregate(blocks, q),
                     tol.exact_slack, q=q, q1=q1)


@_bound_runner
def _run_embed_s(s, backend, tol):
    s_lo, s_hi = 0.2, 0.6
    js = np.arange(0, 48)
    b_hi = dyadic_blocks(s.handle, js, BesovIndex(s_hi, 1.5, 0, 0.3, 1.0), s.x)
    b_lo = np.exp2(js * (s_lo - s_hi)) * b_hi      # blocks at smoothness s_lo
    for q in (0.5, 1.5, math.inf):
        yield _above(_lq_aggregate(b_lo, q), _lq_aggregate(b_hi, q),
                     tol.exact_slack, q=q, part="termwise")
    for p, q in ((0.5, 2.0), (1.0, 2.0), (0.5, 1.0)):
        c_holder = (1.0 / (1.0 - 2.0 ** ((s_lo - s_hi) * q * p / (q - p)))) ** (1.0 / p - 1.0 / q)
        yield _above(_lq_aggregate(b_lo, p), c_holder * _lq_aggregate(b_hi, q),
                     tol.exact_slack, p=p, q=q, part="hoelder")


@_ratio_runner
def _run_translation(s, backend, grid):
    for idx, eps in ((BesovIndex(0.5, 2.0, 0, 0.25, 1.0), 0.5),
                     (BesovIndex(-0.2, 1.0, 1, 0.5, 0.8), 1.0)):
        base = backend.inhom(s, idx)
        yield backend.inhom(backend.shifted_sample(s, eps), idx), base


@_ratio_runner
def _run_lifting_pos(s, backend, grid):
    s_val, q = 0.8, 2.0
    src = backend.inhom(s, BesovIndex(s_val, q, 0, 0.5, 1.5))
    for g in (0.3, 0.25 + 0.2j):
        y = replace(s, x=backend.apply_power(s, g))
        yield backend.inhom(y, BesovIndex(s_val - complex(g).real, q, 0, 0.5, 1.5)), src


@_ratio_runner
def _run_lifting_equiv(s, backend, grid):
    s_val = 0.5
    for q in (1.0, math.inf):
        src = backend.inhom(s, BesovIndex(s_val, q, 0, 0.0, 1.0))
        for g in (0.5, 0.3 + 0.2j):
            y = replace(s, x=backend.apply_power(s, -complex(g)))
            s_dst = s_val + complex(g).real
            yield backend.inhom(y, BesovIndex(s_dst, q, 0, 0.0, math.ceil(s_dst) + 1.0)), src


@_ratio_runner
def _run_reiteration(s, backend, grid):
    for a in (1.0 / 3.0, 0.5, 0.75, 1.5):
        powered = backend.power_sample(s, a)
        for sm in (0.3, 0.6):
            for q in (1.0, 2.0, math.inf):
                yield (backend.inhom(powered, BesovIndex(sm, q, 0, 0.0, math.ceil(sm) + 0.5)),
                       backend.inhom(s, BesovIndex(sm * a, q, 0, 0.0, math.ceil(sm * a) + 0.5)))


@_ratio_runner
def _run_interpolation(s, backend, grid):
    shifted = backend.shifted_sample(s, 0.05)
    for alpha in (0.8, 1.4):
        for theta in (0.3, 0.6):
            for q in (1.0, 2.0):
                yield (backend.interp(shifted, alpha, theta, q),
                       backend.inhom(shifted, BesovIndex(theta * alpha, q, 0, 0.0,
                                                         math.floor(theta * alpha) + 1.0)))


def _inverse_identity(norm, inverse_norm, s_val, a, b):
    """Cases of an index-swap identity: the ``norm`` at (-s, alpha=b, beta=a)
    under A equals the ``inverse_norm`` at (s, alpha=a, beta=b) under A^{-1},
    to a relative deviation; a case with inverse-side norm <= 0 is degenerate."""
    def cases(s, backend, tol):
        inv = backend.inverse_sample(s)
        for q in (1.0, 2.0):
            lhs = getattr(backend, norm)(s, BesovIndex(-s_val, q, 0, b, a))
            rhs = getattr(backend, inverse_norm)(inv, BesovIndex(s_val, q, 0, a, b))
            yield None if rhs <= 0 else (abs(lhs - rhs) / rhs, tol.identity_slack, {"q": q})
    return cases


@_ratio_runner
def _run_inhom_homog_cap(s, backend, grid):
    for q in (1.0, 2.0):
        idx = BesovIndex(0.4, q, 0, 0.0, 1.0)
        yield backend.inhom(s, idx), backend.homog(s, idx) + float(np.linalg.norm(s.x))


@_bound_runner
def _run_domain_sandwich(s, backend, tol):
    alpha, s_lo, s_hi, beta = 0.6, 0.35, 0.85, 1.2
    n_w = 1           # witness for alpha
    m_w = 1           # witness for beta - alpha
    m_b = 2           # witness for beta
    m_const, l_const = s.handle.constants()
    ax = backend.apply_power(s, alpha)
    n_ax = float(np.linalg.norm(ax))
    n_x = float(np.linalg.norm(s.x))
    c0 = composition_bound_constant(alpha, n_w) * \
        composition_bound_constant(beta - alpha, m_w) * m_const ** n_w * l_const ** m_w
    # the reverse side's q-independent constants
    g_pref = abs(gamma(beta) / (gamma(alpha) * gamma(beta - alpha)))
    c_b = composition_bound_constant(beta, m_b)
    c_rd = c_b * (l_const + m_const) ** m_b * (l_const + m_const + 1.0) ** m_b
    for q in (0.5, 1.0, 2.0, math.inf):
        lhs = backend.sum_part(s, BesovIndex(s_lo, q, 0, 0.0, beta))
        geom = 1.0 if math.isinf(q) else (1.0 / (1.0 - 2.0 ** ((s_lo - alpha) * q))) ** (1.0 / q)
        yield _above(lhs, c0 * geom * n_ax, tol.exact_slack, q=q, side="upper")
        # reverse side: ||A^a x|| against the s_hi sum part
        sp = backend.sum_part(s, BesovIndex(s_hi, q, 0, 0.0, beta))
        if math.isinf(q):
            hold = 1.0 / (1.0 - 2.0 ** (alpha - s_hi))
        elif q <= 1.0:
            hold = 1.0
        else:
            qp = q / (q - 1.0)
            hold = (1.0 / (1.0 - 2.0 ** ((alpha - s_hi) * qp))) ** (1.0 / qp)
        bound2 = g_pref * (c_b * l_const ** m_b / alpha * n_x
                           + math.log(2.0) * 2.0 ** alpha * c_rd * hold * sp)
        yield _above(n_ax, bound2, tol.exact_slack, q=q, side="lower")


@_bound_runner
def _run_denseness(s, backend, tol):
    beta = 1.5
    ms = [4, 8, 12, 16, 20, 24]
    n_vals = 2.0 ** np.array(ms)
    approx = (n_vals ** beta)[:, None] * phi_apply(s.handle, 0.0, beta, n_vals, s.x)
    for s_val in (0.4, -0.4):
        idx = BesovIndex(s_val, 2.0, 0, 1.0, beta)
        base = backend.inhom(s, idx)
        gaps = [backend.inhom(replace(s, x=s.x - ap), idx) / max(base, 1e-300) for ap in approx]
        final_bound = 1e-4 * max(gaps[0], 1e-300)
        rate = float(np.median(np.diff(np.log2(np.maximum(gaps, 1e-280))) / np.diff(ms)))
        # the final gap must be under its bound and the median rate at most
        # -0.8: the excess is the larger of the two overshoots
        yield (max(gaps[-1] - final_bound, rate + 0.8), 0.0,
               {"s": s_val, "final_gap": gaps[-1], "first_gap": gaps[0], "median_rate": rate})


@_bound_runner
def _run_ergodicity(s, backend, tol):
    sd = s.handle.spectral
    kermask = sd.eigenvalues == 0
    c = sd.to_coeff(s.x)
    x0 = sd.from_coeff(np.where(kermask, c, 0.0))
    x1 = sd.from_coeff(np.where(kermask, 0.0, c))
    scale = max(np.linalg.norm(s.x), 1e-300)
    for a in (0.5, 1.0):
        lim = ergodic_limits(s.handle, a, s.x)
        for part, err in (("limit_at_infinity", lim.limit_at_infinity - s.x),
                          ("kernel_split", lim.limit_at_zero - x0),
                          ("range_split", lim.range_component - x1),
                          ("kernel_identity", power_apply(s.handle, a, x0))):
            yield float(np.linalg.norm(err)), tol.limit_tol * scale, {"alpha": a, "part": part}


@_ratio_runner
def _run_semigroup_norm(s, backend, grid):
    # each grid entry gives (s, q, beta); the semigroup norm has no k and no alpha
    _require_shared(grid, "semigroup-norm", k=0, alpha=0.0)
    for ix in grid:
        yield _admissible(lambda: (backend.semigroup_value(s, ix.s, ix.q, 0, ix.beta),
                                   backend.inhom(s, ix)))


@_ratio_runner
def _run_homog_semigroup_norm(s, backend, grid):
    sm, beta = 0.5, 1.0
    for q in (1.0, 2.0):
        yield (backend.semigroup_sum(s, sm, q, -60, beta),
               backend.homog(s, BesovIndex(sm, q, 0, 0.0, beta)))


@_ratio_runner
def _run_subordinated_norm(s, backend, grid):
    sm, q = 0.45, 2.0
    for a in (0.5, 0.7):
        powered = backend.power_sample(s, a)
        beta = math.floor(sm / a) + 1.0
        yield (backend.semigroup_value(powered, sm / a, q, 0, beta),
               backend.inhom(s, BesovIndex(sm, q, 0, 0.0, 1.0)))


def _run_cos_estimate(samples, backend, tol, grid):
    # its nine samples are its alphas: it draws from a count-0 ensemble, whose
    # description still enters the config hash
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
        if not worst <= tol.exact_slack * float(np.abs(k_alpha * f_t).max()):
            out.violations.append({"sample": a10, "alpha": alpha, "excess": worst})
    return out


def _ellq_apply(a_seq, i_idx, s, alpha, j_idx):
    v = np.exp2(i_idx[None, :] * alpha - j_idx[:, None])
    w = v ** (1.0 - s) / (1.0 + 2.0 * v * math.cos(math.pi * alpha) + v * v)
    return w @ a_seq


@_ratio_runner
def _run_ellq_operator(s, backend, grid):
    i_idx = np.arange(-24, 25)
    j_idx = np.arange(-80, 81)
    a_seq = np.abs(s.rng.normal(size=len(i_idx)))
    for s_p in (0.3, 0.7):
        for alpha in (0.3, 0.6):
            b_seq = _ellq_apply(a_seq, i_idx, s_p, alpha, j_idx)
            for q in (0.5, 1.0, 2.0, math.inf):
                yield _lq_aggregate(np.abs(b_seq), q), max(_lq_aggregate(a_seq, q), 1e-300)


@_bound_runner
def _run_uniform_bounds(s, backend, tol):
    handle = s.handle
    exact = handle.spectral is not None
    m_const, l_const = handle.constants()
    alphas = [0.6, 1.4, 0.7 + 0.5j] if exact else [0.6, 1.4]
    lo, hi = handle.scales()
    lams = np.geomspace(lo * 1e-4, hi * 1e4, 25 if exact else 9)
    for a in alphas:
        a_c, label = complex(a), str(a)
        n_w = int(math.floor(a_c.real)) + 1
        c_an = composition_bound_constant(a_c, n_w)
        m_bound = c_an * m_const ** n_w
        l_bound = c_an * l_const ** n_w
        nms = _composite_norms(handle, a_c, lams, kind="M")
        nls = _composite_norms(handle, a_c, lams, kind="L")
        for lam, nm, nl in zip(lams.tolist(), nms.tolist(), nls.tolist()):
            yield _above(nm, m_bound, tol.exact_slack, alpha=label, lam=lam, part="M")
            yield _above(nl, l_bound, tol.exact_slack, alpha=label, lam=lam, part="L")
        for c_ratio in (0.5, 2.0):
            c_bound = c_an * (l_const + max(c_ratio, 1.0) * m_const) ** n_w
            t_vals = np.geomspace(lo * 0.01, hi * 100.0, 5 if exact else 3)
            ncs = _composite_norms(handle, a_c, t_vals, kind="C", c_ratio=c_ratio)
            for t_val, nc in zip(t_vals.tolist(), ncs.tolist()):
                yield _above(nc, c_bound, tol.exact_slack,
                             alpha=label, t=t_val, c=c_ratio, part="C")


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


@_bound_runner
def _run_moment(s, backend, tol):
    handle = s.handle
    m_const = handle.constants()[0]
    n_w = int(s.rng.integers(1, 4))
    a = float(s.rng.uniform(0.1, n_w - 0.1))
    ax = power_apply(handle, a, s.x)
    y = s.x
    for _ in range(n_w):
        y = handle.apply(y)
    c_bound = moment_constant(a, n_w, m_const)
    rhs = c_bound * np.linalg.norm(y) ** (a / n_w) * \
        np.linalg.norm(s.x) ** (1.0 - a / n_w)
    yield _above(float(np.linalg.norm(ax)), rhs, tol.exact_slack, alpha=a, n=n_w)


@_bound_runner
def _run_spectral_map(s, backend, tol):
    sd = s.handle.spectral
    for a in (0.5, 2.0, 0.7 + 0.4j):
        # rows of the block are the images of the basis vectors
        mat = power_apply(s.handle, a, np.eye(s.handle.dim, dtype=complex)).T
        got = np.sort_complex(np.linalg.eigvals(mat))
        mu = sd.eigenvalues.astype(complex)
        want = np.zeros_like(mu)
        pos = mu.real > 0
        want[pos] = np.exp(complex(a) * np.log(mu[pos]))
        want = np.sort_complex(want)
        scale = max(np.abs(want).max(), 1e-300)
        yield float(np.abs(got - want).max() / scale), tol.spectral_map_slack, {"alpha": str(a)}


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


@_ratio_runner
def _run_classical_torus(s, backend, grid):
    half = backend.power_sample(s, 0.5)
    for sm in (0.4, 0.7):
        yield (backend.inhom(s, BesovIndex(sm, 2.0, 0, 0.0, 1.0)),
               _lp_fourier_norm(s.x, 2.0 * sm, 2.0))
        yield (backend.inhom(half, BesovIndex(sm, 2.0, 0, 0.0, 1.0)),
               backend.inhom(s, BesovIndex(sm / 2.0, 2.0, 0, 0.0, 1.0)))


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


def _register(check_id, kind, statement, runner, ensembles, grid=None, cal_ensemble=None):
    """Register a check. A check with a default BesovIndex ``grid`` takes a
    caller-supplied one; a ratio check calibrates by running its runner on
    the reference backend over ``cal_ensemble`` (default ``_cal_diag()``)."""
    cal = None
    if kind == "ratio_bounded":
        spec = cal_ensemble or _cal_diag()

        def cal(seed, grid=None):
            return runner(draw_samples(replace(spec, seed=seed)), _REF, ToleranceProfile(), grid)
    CHECKS[check_id] = CheckDef(check_id, kind, statement, runner, ensembles, cal, grid)


_register(
    "k_independence", "ratio_bounded",
    "dyadic tail sums with different base levels k are equivalent semi-quasinorms",
    _run_k_independence, [_diag(60)],
    grid=[BesovIndex(0.45, 2.0, 0, 0.25, 1.0), BesovIndex(-0.3, 1.0, 0, 0.6, 0.7)])
_register(
    "alpha_independence", "ratio_bounded",
    "dyadic tail sums with different resolvent weights alpha are equivalent",
    _run_alpha_independence, [_diag(60)],
    grid=[BesovIndex(0.25, 1.5, 0, a, 1.2) for a in (0.3, 0.8, 1.5, 0.5 + 0.4j)])
_register(
    "full_independence", "ratio_bounded",
    "the full inhomogeneous quasi-norm is independent of (k, alpha, beta)",
    _run_full_independence, [_diag(50), _spd(15)],
    grid=[BesovIndex(0.4, 2.0, k, a, b) for (k, a, b) in
          ((0, 0.0, 1.0), (1, 0.5, 1.5), (-1, 1.0, 2.0), (2, 0.3 + 0.2j, 0.8))])
_register(
    "homog_independence", "ratio_bounded",
    "the homogeneous quasi-norm is independent of (alpha, beta)",
    _run_homog_independence, [_diag(60)],
    grid=[BesovIndex(0.3, 1.0, 0, a, b) for (a, b) in ((0.5, 1.0), (1.0, 1.5), (0.2, 0.7))])
_register(
    "continuity_equiv", "ratio_bounded",
    "dyadic level sums and the continuous-parameter integrals are equivalent",
    _run_continuity_equiv, [_diag(40)],
    grid=[BesovIndex(0.45, 2.0, 0, 0.25, 1.0), BesovIndex(-0.3, 1.0, 0, 0.6, 0.7),
          BesovIndex(0.6, math.inf, 1, 0.0, 1.0)])
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
    _bound_runner(_inverse_identity("breve", "inhom", 0.5, 0.7, 1.1)), [_diag(50), _spd(10)])
_register(
    "inverse_homog", "exact_identity",
    "the homogeneous quasi-norm at -s under A equals the one at s under the "
    "inverse operator (swapped exponents)",
    _bound_runner(_inverse_identity("homog", "homog", 0.4, 0.6, 1.2)), [_diag(50), _spd(10)])
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
                                                  "gaussian", {}, 10)],
    grid=[BesovIndex(sm, q, 0, 0.0, beta) for sm, beta in ((0.4, 1.0), (0.8, 1.6))
          for q in (1.0, 2.0, math.inf)])
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
_register(
    "classical_torus", "ratio_bounded",
    "on the periodic grid the resolvent quasi-norm of the discrete Laplacian "
    "matches the Littlewood-Paley Fourier norm at twice the smoothness, and "
    "the half-power operator matches at half the smoothness",
    _run_classical_torus,
    [EnsembleSpec("torus_laplacian", {"n": 64}, "band_limited", {"fraction": 0.5}, 100)],
    cal_ensemble=EnsembleSpec("torus_laplacian", {"n": 16}, "band_limited",
                              {"fraction": 0.5}, 30))

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
    if index_grid is not None and cd.grid is None:
        raise ValueError(f"check {check_id!r} does not take a BesovIndex grid")
    grid = cd.grid if index_grid is None else index_grid
    tol = tolerance_profile or ToleranceProfile()
    specs = ensemble if ensemble is not None else cd.default_ensembles
    if count_override is not None:
        specs = [replace(s, count=min(s.count, count_override)) for s in specs]
    check_seed = (seed ^ zlib.crc32(check_id.encode())) & 0x7FFFFFFF

    samples = []
    for j, spec in enumerate(specs):
        samples.extend(draw_samples(replace(spec, seed=check_seed + j)))

    outcome = cd.runner(samples, _PROD, tol, grid)

    ceiling = None
    provenance = None
    rmin = rmax = rmed = None
    verdict = "pass"
    if cd.kind == "ratio_bounded":
        rmin, rmax, rmed, all_finite = _spread_stats(outcome.ratios)
        if rmin is None:
            verdict = "degenerate"
        else:
            cal_out = cd.calibration(check_seed + 7919, grid)
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
    elif outcome.violations:
        verdict = "fail"
    elif outcome.samples == 0:
        verdict = "degenerate"

    excesses = [float(v["excess"]) for v in outcome.violations]
    # a NaN excess is the worst violation, whatever the order of the cases
    max_violation = math.inf if any(map(math.isnan, excesses)) else max(excesses, default=0.0)
    cfg = {"check_id": check_id, "seed": seed, "ensembles": [asdict(s) for s in specs]}
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
