"""Operator-adapted Besov quasi-norms.

Every quasi-norm here is built from the dyadic block

    b_j = || 2^{j(s+alpha)} A^beta (2^j + A)^{-alpha-beta} x ||

aggregated in l_q over a level range: j >= k (inhomogeneous), all of Z
(homogeneous, injective A), j <= k (the alternative inhomogeneous variant),
or replaced by a semigroup block 2^{j(s-beta)} A^beta e^{-2^{-j} A} x. The
continuous-parameter version integrates the same profile in t.

Infinite level sums are truncated where the blocks enter their certified
geometric regime (2^j beyond the spectral range); the exact geometric
remainder is then added in closed form and the residual model error is
reported as ``tail_bound``. Certification failure raises TailError, never a
silent truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .fractional import SemigroupUnavailableError, _cpow, phi_apply, power_apply
from .operators import EUCLIDEAN, NormKind, OperatorHandle, as_array, vector_norm
from .quadrature import DEFAULT_SCHEME, QuadratureScheme, _legendre_panels, golden_section_max

_J_CAP = 64
_EXTEND_STEP = 8
_MODEL_WINDOW = 3


class TailError(Exception):
    """Level-sum tail could not be certified within the |j| <= 64 cap."""


@dataclass(frozen=True)
class BesovIndex:
    """Smoothness/size/level/exponent tuple (s, q, k, alpha, beta).

    Admissibility: -Re alpha < s < Re beta, with Re alpha, Re beta >= 0.
    q may be any positive real or inf; 0 < q < 1 is the quasi-norm regime.
    """
    s: float
    q: float
    k: int = 0
    alpha: complex = 0.0
    beta: complex = 1.0

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if a.real < 0 or b.real < 0:
            raise ValueError("alpha and beta need nonnegative real part")
        if not (-a.real < self.s < b.real):
            raise ValueError(
                f"s must satisfy -Re alpha < s < Re beta, got s={self.s}, "
                f"alpha={self.alpha}, beta={self.beta}")
        if not self.q > 0:
            raise ValueError("q must be positive (inf allowed)")

    @property
    def quasi_triangle_constant(self) -> float:
        if math.isinf(self.q):
            return 1.0
        return max(1.0, 2.0 ** (1.0 / self.q - 1.0))


def aoki_rolewicz_p(q: float) -> float:
    """Subadditivity exponent p = ln 2 / (ln K + ln 2) of the l_q aggregate,
    K = max(1, 2^{1/q - 1})."""
    if not q > 0:
        raise ValueError("q must be positive")
    k_const = 1.0 if math.isinf(q) else max(1.0, 2.0 ** (1.0 / q - 1.0))
    return math.log(2.0) / (math.log(k_const) + math.log(2.0))


@dataclass
class NormResult:
    value: float
    leading: float
    sum_part: float
    j_lo: int
    j_hi: int
    tail_bound: float
    term_trace: Optional[list] = field(default=None, repr=False)

    @property
    def j_range_used(self) -> tuple[int, int]:
        return (self.j_lo, self.j_hi)


# --------------------------------------------------------------------------
# blocks
# --------------------------------------------------------------------------

def dyadic_block(handle: OperatorHandle, j: int, idx: BesovIndex, x,
                 norm: NormKind = EUCLIDEAN) -> float:
    """|| 2^{j(s+alpha)} A^beta (2^j+A)^{-alpha-beta} x ||.

    Only Re alpha enters the magnitude (|2^{j alpha}| = 2^{j Re alpha});
    imaginary parts act inside the operator composition.
    """
    return float(dyadic_blocks(handle, np.array([j]), idx, x, norm)[0])


def dyadic_blocks(handle: OperatorHandle, js: np.ndarray, idx: BesovIndex, x,
                  norm: NormKind = EUCLIDEAN) -> np.ndarray:
    x = as_array(x)
    js = np.asarray(js, dtype=int)
    a, b = complex(idx.alpha), complex(idx.beta)
    rows = phi_apply(handle, b, a + b, np.exp2(js.astype(float)), x)
    scalef = np.exp2(js * (idx.s + a.real))
    return scalef * np.array([vector_norm(r, norm) for r in rows])


# --------------------------------------------------------------------------
# geometric tail completion
# --------------------------------------------------------------------------

def _lq_aggregate(blocks: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(blocks.max(initial=0.0))
    return float((blocks ** q).sum() ** (1.0 / q))


def _geometric_tail(c0: float, ratio: float, q: float) -> float:
    """l_q mass of the levels c0*ratio, c0*ratio^2, ... (0 < ratio < 1)."""
    if c0 == 0.0:
        return 0.0
    if math.isinf(q):
        return c0 * ratio
    rq = ratio ** q
    return c0 * (rq / (1.0 - rq)) ** (1.0 / q)


def _combine(q: float, *parts: float) -> float:
    if math.isinf(q):
        return max(parts)
    return float(sum(p ** q for p in parts) ** (1.0 / q))


class _TailModel:
    """Geometric end model b_j ~ const * 2^{j * rate} with certification."""

    def __init__(self, const: float, rate: float, upward: bool):
        self.const = const
        self.rate = rate       # negative for decay toward +inf, positive toward -inf
        self.upward = upward

    def predict(self, j: int) -> float:
        return self.const * 2.0 ** (self.rate * j)

    def deviation(self, js: np.ndarray, blocks: np.ndarray) -> float:
        """Max relative mismatch of the last _MODEL_WINDOW blocks against the model."""
        sel = slice(-_MODEL_WINDOW, None) if self.upward else slice(0, _MODEL_WINDOW)
        jj, bb = js[sel], blocks[sel]
        pred = np.array([self.predict(int(j)) for j in jj])
        if self.const == 0.0:
            return 0.0 if bb.max(initial=0.0) == 0.0 else math.inf
        return float(np.max(np.abs(bb / pred - 1.0)))

    def tail(self, j_edge: int, q: float) -> float:
        ratio = 2.0 ** (self.rate if self.upward else -self.rate)
        return _geometric_tail(self.predict(j_edge), ratio, q)


def _certified_sum(blocks_at, handle, q: float, tail_tolerance: float,
                   j_start: int, upward: bool, model: _TailModel):
    """Aggregate the blocks ``blocks_at(js)`` from j_start outward (up or
    down) with tail completion, certified against the sum itself."""
    absolute_floor = 1e-290
    step = _EXTEND_STEP if upward else -_EXTEND_STEP
    lo_scale, hi_scale = handle.scales()
    if upward:
        j_edge = max(j_start, int(math.ceil(math.log2(max(hi_scale, 1e-300)))) + 10)
    else:
        j_edge = min(j_start, int(math.floor(math.log2(max(lo_scale, 1e-300)))) - 10)
    j_edge = int(np.clip(j_edge, -_J_CAP, _J_CAP))

    if abs(j_start) > _J_CAP:
        raise TailError(f"base level k={j_start} outside the |j| <= {_J_CAP} cap")
    js = np.arange(j_start, j_edge + 1) if upward else np.arange(j_edge, j_start + 1)
    blocks = blocks_at(js)
    while True:
        dev = model.deviation(js, blocks)
        edge = int(js[-1] if upward else js[0])
        tail = model.tail(edge, q)
        head = _lq_aggregate(blocks, q)
        value = _combine(q, head, tail)
        if math.isfinite(dev):
            tail_bound = _combine(q, head, tail * (1.0 + 2.0 * dev)) - value
        else:
            tail_bound = math.inf
        if blocks.max(initial=0.0) <= absolute_floor and model.const <= absolute_floor:
            return 0.0, js, blocks, 0.0
        if tail_bound <= tail_tolerance * max(value, absolute_floor):
            return value, js, blocks, tail_bound
        nxt_edge = edge + step
        if abs(nxt_edge) > _J_CAP:
            raise TailError(
                f"tail not certified within |j| <= {_J_CAP}: deviation={dev:.3e}, "
                f"tail={tail:.3e}, value={value:.3e} (rate={model.rate}, q={q})")
        new_js = np.arange(edge + (1 if upward else step), edge + step + (1 if upward else 0)) \
            if upward else np.arange(nxt_edge, edge)
        new_blocks = blocks_at(new_js)
        if upward:
            js = np.concatenate([js, new_js])
            blocks = np.concatenate([blocks, new_blocks])
        else:
            js = np.concatenate([new_js, js])
            blocks = np.concatenate([new_blocks, blocks])


def _upper_model(handle, idx, x, norm) -> _TailModel:
    b = complex(idx.beta)
    c_up = vector_norm(power_apply(handle, b, x), norm)
    return _TailModel(c_up, idx.s - b.real, upward=True)


def _lower_model(handle, idx, x, norm) -> _TailModel:
    a = complex(idx.alpha)
    if a == 0:
        c_dn = vector_norm(x, norm)
    else:
        c_dn = vector_norm(power_apply(OperatorHandle.inverse(handle), a, x), norm)
    return _TailModel(c_dn, idx.s + a.real, upward=False)


# --------------------------------------------------------------------------
# the quasi-norms
# --------------------------------------------------------------------------

def inhom_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                     tail_tolerance: float = 1e-8,
                     norm: NormKind = EUCLIDEAN,
                     keep_trace: bool = False) -> NormResult:
    """||(2^k+A)^{-alpha} x|| + ( sum_{j>=k} b_j^q )^{1/q}."""
    x = as_array(x)
    a = complex(idx.alpha)
    lead = vector_norm(phi_apply(handle, 0.0, a, 2.0 ** idx.k, x), norm)
    model = _upper_model(handle, idx, x, norm)
    blocks_at = partial(dyadic_blocks, handle, idx=idx, x=x, norm=norm)
    ssum, js, blocks, tail_bound = _certified_sum(
        blocks_at, handle, idx.q, tail_tolerance, idx.k, True, model)
    trace = list(zip(js.tolist(), blocks.tolist())) if keep_trace else None
    return NormResult(lead + ssum, lead, ssum, int(js[0]), int(js[-1]), tail_bound, trace)


def homog_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                     tail_tolerance: float = 1e-8,
                     norm: NormKind = EUCLIDEAN,
                     keep_trace: bool = False) -> NormResult:
    """Two-sided aggregate ( sum_{j in Z} b_j^q )^{1/q}; A must be injective
    and Re beta > 0."""
    if complex(idx.beta).real <= 0:
        raise ValueError("homogeneous quasi-norm needs Re beta > 0")
    if not handle.injective():
        raise ValueError("homogeneous quasi-norm needs an injective operator")
    x = as_array(x)
    blocks_at = partial(dyadic_blocks, handle, idx=idx, x=x, norm=norm)
    up, js_u, blocks_u, tb_u = _certified_sum(
        blocks_at, handle, idx.q, tail_tolerance, 0, True,
        _upper_model(handle, idx, x, norm))
    dn, js_d, blocks_d, tb_d = _certified_sum(
        blocks_at, handle, idx.q, tail_tolerance, -1, False,
        _lower_model(handle, idx, x, norm))
    value = _combine(idx.q, up, dn)
    trace = None
    if keep_trace:
        trace = list(zip(js_d.tolist(), blocks_d.tolist())) + \
            list(zip(js_u.tolist(), blocks_u.tolist()))
    return NormResult(value, 0.0, value, int(js_d[0]), int(js_u[-1]), tb_u + tb_d, trace)


def breve_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                     tail_tolerance: float = 1e-8,
                     norm: NormKind = EUCLIDEAN,
                     keep_trace: bool = False) -> NormResult:
    """||A^beta (2^k+A)^{-beta} x|| + ( sum_{j<=k} b_j^q )^{1/q} (injective A)."""
    if complex(idx.beta).real <= 0:
        raise ValueError("the alternative inhomogeneous quasi-norm needs Re beta > 0")
    if not handle.injective():
        raise ValueError("the alternative inhomogeneous quasi-norm needs injectivity")
    x = as_array(x)
    b = complex(idx.beta)
    lead = vector_norm(phi_apply(handle, b, b, 2.0 ** idx.k, x), norm)
    blocks_at = partial(dyadic_blocks, handle, idx=idx, x=x, norm=norm)
    ssum, js, blocks, tail_bound = _certified_sum(
        blocks_at, handle, idx.q, tail_tolerance, idx.k, False,
        _lower_model(handle, idx, x, norm))
    trace = list(zip(js.tolist(), blocks.tolist())) if keep_trace else None
    return NormResult(lead + ssum, lead, ssum, int(js[0]), int(js[-1]), tail_bound, trace)


def semigroup_quasi_norm(handle: OperatorHandle, s: float, q: float, k: int,
                         beta, x,
                         tail_tolerance: float = 1e-8,
                         norm: NormKind = EUCLIDEAN,
                         keep_trace: bool = False) -> NormResult:
    """||x|| + ( sum_{j>=k} || 2^{j(s-beta)} A^beta e^{-2^{-j} A} x ||^q )^{1/q},
    for s > 0 and Re beta > s."""
    b = complex(beta)
    if not (0.0 < s < b.real):
        raise ValueError("semigroup quasi-norm needs 0 < s < Re beta")
    x = as_array(x)
    sd = handle.spectral
    if sd is None:
        raise SemigroupUnavailableError("semigroup quasi-norm needs spectral data")
    lead = vector_norm(x, norm)
    coeff = sd.to_coeff(x)

    def blocks_at(js: np.ndarray) -> np.ndarray:
        ts = np.exp2(-js.astype(float))
        mult = _cpow(sd.eigenvalues, b)[None, :] * np.exp(-ts[:, None] * sd.eigenvalues[None, :])
        rows = sd.from_coeff(mult * coeff[None, :])
        scalef = np.exp2(js * (s - b.real))
        return scalef * np.array([vector_norm(r, norm) for r in rows])

    model = _TailModel(vector_norm(power_apply(handle, b, x), norm), s - b.real, upward=True)
    ssum, js, blocks, tail_bound = _certified_sum(blocks_at, handle, q, tail_tolerance,
                                                  k, True, model)
    trace = list(zip(js.tolist(), blocks.tolist())) if keep_trace else None
    return NormResult(lead + ssum, lead, ssum, int(js[0]), int(js[-1]), tail_bound, trace)


# --------------------------------------------------------------------------
# continuous-parameter version
# --------------------------------------------------------------------------

def continuous_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                          scheme: QuadratureScheme = DEFAULT_SCHEME,
                          norm: NormKind = EUCLIDEAN) -> NormResult:
    """||(2^k+A)^{-alpha} x|| + ( int_{2^k}^inf (t^{s+alpha} profile)^q dt/t )^{1/q}.

    Gauss-Legendre panels in u = ln t; the upper tail is completed with the
    exact exponential remainder of the geometric regime.
    """
    x = as_array(x)
    a, b = complex(idx.alpha), complex(idx.beta)
    lead = vector_norm(phi_apply(handle, 0.0, a, 2.0 ** idx.k, x), norm)
    c_up = vector_norm(power_apply(handle, b, x), norm)
    rate = idx.s - b.real     # g(u) ~ c_up * e^{rate * u}
    _, hi_scale = handle.scales()

    def g_many(us: np.ndarray) -> np.ndarray:
        rows = phi_apply(handle, b, a + b, np.exp(us), x)
        return np.exp(us * (idx.s + a.real)) * np.array([vector_norm(r, norm) for r in rows])

    u_min = idx.k * math.log(2.0)
    u_max = max(u_min + 1.0, math.log(max(hi_scale, 1e-300)) + 25.0)
    tol = scheme.tail_tolerance
    for _ in range(40):
        panels = max(4, int(math.ceil((u_max - u_min) / (0.5 * math.log(2.0)))))
        us, ws = _legendre_panels(u_min, u_max, panels)
        gs = g_many(us)
        g_end = g_many(np.array([u_max]))[0]
        model_end = c_up * math.exp(rate * u_max)
        dev = abs(g_end / model_end - 1.0) if model_end > 0 else (0.0 if g_end == 0 else math.inf)
        if math.isinf(idx.q):
            i_star = int(np.argmax(gs))
            lo_b = us[i_star - 1] if i_star > 0 else u_min
            hi_b = us[i_star + 1] if i_star + 1 < len(us) else u_max
            _, g_star = golden_section_max(lambda u: g_many(np.array([u]))[0], lo_b, hi_b)
            g_star = max(g_star, float(g_many(np.array([u_min]))[0]))
            tail_sup = model_end
            ssum = max(g_star, tail_sup)
            tail_bound = max(g_star, tail_sup * (1.0 + 2.0 * dev)) - ssum if math.isfinite(dev) else math.inf
        else:
            integral = float(np.dot(ws, gs ** idx.q))
            tail = (c_up ** idx.q) * math.exp(rate * idx.q * u_max) / max((b.real - idx.s) * idx.q, 1e-300)
            ssum = (integral + tail) ** (1.0 / idx.q)
            if math.isfinite(dev):
                tail_bound = (integral + tail * (1.0 + 2.0 * dev) ** idx.q) ** (1.0 / idx.q) - ssum
            else:
                tail_bound = math.inf
        if gs.max(initial=0.0) <= 1e-290 and c_up <= 1e-290:
            ssum, tail_bound = 0.0, 0.0
            break
        if tail_bound <= tol * max(lead + ssum, 1e-290):
            break
        u_max += 8.0
    else:
        raise TailError("continuous-norm tail not certified")
    j_hi = int(math.ceil(u_max / math.log(2.0)))
    return NormResult(lead + ssum, lead, ssum, idx.k, j_hi, tail_bound, None)
