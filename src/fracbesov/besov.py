"""Operator-adapted Besov quasi-norms.

Every quasi-norm here is built from the dyadic block

    b_j = || 2^{j(s+alpha)} A^beta (2^j + A)^{-alpha-beta} x ||

aggregated in l_q over a level range: j >= k (inhomogeneous), all of Z
(homogeneous, injective A), j <= k (the alternative inhomogeneous variant),
or replaced by a semigroup block 2^{j(s-beta)} A^beta e^{-2^{-j} A} x. The
continuous-parameter version integrates the same profile in t.

On a handle with eigen-data, in the euclidean norm, every norm an evaluation
takes comes from the coefficient energies p = |to_coeff(x)|^2 (:class:`_Norms`).
The eigen-transform is unitary and the eigenvalues mu_i are real and >= 0,
so |mu^beta (2^j + mu)^{-alpha-beta}| = mu^{Re beta} (2^j + mu)^{-Re(alpha+beta)}
and b_j^2 = 2^{2j(s + Re alpha)} sum_i mu_i^{2 Re beta}
(2^j + mu_i)^{-2 Re(alpha+beta)} p_i: only the real parts of alpha and beta
enter, and an evaluation transforms x once and maps nothing back. Every
other handle or norm applies the operators and takes the norms of the rows.

Infinite level sums end at a closed-form level. Since A^beta commutes with
the resolvent, b_j = 2^{j(s - Re beta)} ||(I + 2^{-j} A)^{-a} A^beta x||
with a = alpha + beta, and the binomial series bounds
||(I + B)^{-a} - I|| <= (1 - ||B||)^{-|a|} - 1 for every handle. So past
the level where that bound drops below half the tolerance, every block lies
within a known factor of a geometric model (see :class:`_TailModel`); the
model's remainder is added in closed form and the width of the enclosure
is reported as ``tail_bound``. ||A|| is the spectral scale in the euclidean
norm and the exact induced norm otherwise (p-norms with p in {1, 2, inf}
and weighted norms; other p raise NotImplementedError). A sum whose
enclosure stays wider than the tolerance at |j| = 64 raises TailError,
never a silent truncation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .fractional import SemigroupUnavailableError, _cpow, phi_apply, power_apply
from .operators import (EUCLIDEAN, NormKind, OperatorHandle, _induced_norms, as_array,
                        vector_norm, vector_norms)
from .quadrature import cell_sup, integrate_multiplicative

_J_CAP = 64
_NORMAL_MIN = sys.float_info.min


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
    return _Norms(handle, as_array(x), norm).blocks(idx, js)


class _Norms:
    """The norms of one vector x that the quasi-norms take: ||A^b (lam_i + A)^{-g} x||
    for every shift lam_i, ||A^z x||, and ||A^b e^{-t_i A} x||.

    With eigen-data in the euclidean norm each is sqrt(W @ p) for the
    energies p = |to_coeff(x)|^2, taken here once, and one real weight matrix
    W (shifts x n) of the real parts of the exponents (see the module
    docstring); at mu = 0 the weights follow ``fractional._multiplier_rows``.
    Every other handle or norm applies the operators and takes
    :func:`vector_norms`.
    """

    def __init__(self, handle: OperatorHandle, x: np.ndarray, norm: NormKind):
        self.handle, self.x, self.norm = handle, x, norm
        sd = handle.spectral
        self.energies = None
        if sd is not None and norm.kind == "euclidean":
            mags = np.abs(sd.to_coeff(x))
            # scaled by a power of two to top in [1/2, 1): exact, and the
            # energies neither underflow nor overflow
            self.scale = math.frexp(float(mags.max(initial=0.0)))[1]
            self.energies = np.ldexp(mags, -self.scale) ** 2
            self.eigs = sd.eigenvalues
            self.zero = self.eigs <= 0
            self.log_mu = np.log(np.where(self.zero, 1.0, self.eigs))

    def _log_power(self, b: complex) -> np.ndarray:
        """ln |mu^b| = Re b ln mu per eigenvalue: 0 at mu = 0 for b = 0, -inf
        for Re b > 0, and ValueError for any other b."""
        if not self.zero.any() or b == 0:
            return b.real * self.log_mu
        if b.real <= 0:
            raise ValueError("zero eigenvalue needs Re beta > 0 or beta = 0")
        return np.where(self.zero, -np.inf, b.real * self.log_mu)

    def _weighted(self, log_w: np.ndarray) -> np.ndarray:
        """sqrt(sum_i |w_i|^2 p_i) for the weights with ln |w| = ``log_w``."""
        return np.ldexp(np.sqrt(np.exp(2.0 * log_w) @ self.energies), self.scale)

    def shifted(self, b: complex, g: complex, lam) -> np.ndarray:
        """||A^b (lam + A)^{-g} x|| for one shift or a 1-D array of shifts."""
        if self.energies is None:
            return vector_norms(phi_apply(self.handle, b, g, lam, self.x), self.norm)
        lams = np.asarray(lam, dtype=float)[..., None]
        return self._weighted(self._log_power(b) - g.real * np.log(lams + self.eigs))

    def power(self, z: complex) -> float:
        """||A^z x||."""
        if self.energies is None:
            return vector_norm(power_apply(self.handle, z, self.x), self.norm)
        return float(self._weighted(self._log_power(z)))

    def semigroup(self, b: complex, ts: np.ndarray) -> np.ndarray:
        """||A^b e^{-t_i A} x|| for every t_i; needs eigen-data."""
        if self.energies is None:
            sd = self.handle.spectral
            mult = _cpow(sd.eigenvalues, b)[None, :] * np.exp(-ts[:, None] * sd.eigenvalues[None, :])
            return vector_norms(sd.from_coeff(mult * sd.to_coeff(self.x)[None, :]), self.norm)
        return self._weighted(self._log_power(b) - ts[:, None] * self.eigs)

    def blocks(self, idx: BesovIndex, js: np.ndarray) -> np.ndarray:
        """The dyadic blocks b_j at the levels ``js``."""
        js = np.asarray(js, dtype=int)
        a, b = complex(idx.alpha), complex(idx.beta)
        return np.exp2(js * (idx.s + a.real)) * self.shifted(b, a + b, np.exp2(js.astype(float)))


# --------------------------------------------------------------------------
# geometric tail completion
# --------------------------------------------------------------------------

def _lq_root(total: float, parts, q: float) -> float:
    """total^{1/q} for the direct sum total = sum_i parts_i^q.

    When that sum is not a finite normal float (a q-th power underflowed or
    overflowed), it is summed again over the parts scaled by the power of two
    that brings the largest into [1/2, 1), and the root is scaled back."""
    e = 0
    if not _NORMAL_MIN <= total < math.inf:
        top = float(np.max(parts, initial=0.0))
        if 0.0 < top < math.inf:
            e = math.frexp(top)[1]
            total = float((np.ldexp(np.asarray(parts, dtype=float), -e) ** q).sum())
    try:
        return math.ldexp(total ** (1.0 / q), e)
    except OverflowError:       # the aggregate itself exceeds the largest float
        return math.inf


def _lq_aggregate(blocks: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(blocks.max(initial=0.0))
    return _lq_root(float((blocks ** q).sum()), blocks, q)


def _combine(q: float, *parts: float) -> float:
    if math.isinf(q):
        return max(parts)
    try:
        total = sum(float(p) ** q for p in parts)
    except OverflowError:       # a python float's q-th power raises where numpy's is inf
        total = math.inf
    return _lq_root(total, parts, q)


def _enclose(q: float, head: float, tail: float, e: float) -> tuple[float, float, float]:
    """head (+) tail and its enclosure [head (+) (1-e) tail, head (+) (1+e) tail]."""
    spread = e * tail if tail > 0.0 else 0.0
    return _combine(q, head, tail), _combine(q, head, max(tail - spread, 0.0)), \
        _combine(q, head, tail + spread)


def _operator_radius(handle: OperatorHandle, norm: NormKind) -> float:
    """||A|| in the operator norm induced by ``norm``: the largest spectral
    scale in the euclidean norm (|eigenvalues| in a unitary eigenbasis,
    singular values otherwise), else the exact induced norm of the
    materialized matrix, which raises NotImplementedError for p-norms with
    p not in {1, 2, inf}."""
    if norm.kind == "euclidean":
        return handle.scales()[1]
    return float(_induced_norms(handle.matrix(), norm))


@dataclass(frozen=True)
class _TailModel:
    """Enclosure of the blocks beyond a level: b_j in m_j [1 - e(r_j), 1 + e(r_j)].

    m_j = const 2^{rate j} is the block with its resolvent factor dropped.
    Upward, b_j = 2^{j(s - Re beta)} ||(I + B_j)^{-a} A^beta x|| with
    B_j = 2^{-j} A and a = alpha + beta; downward, b_j = 2^{j(s + Re alpha)}
    ||(I + B_j)^{-a} A^{-alpha} x|| with B_j = 2^j A^{-1}. The binomial series
    gives ||(I + B)^{-a} - I|| <= (1 - ||B||)^{-|a|} - 1 for every handle,
    and ||e^{-tA} - I|| <= e^{t ||A||} - 1 bounds the semigroup blocks
    (``a_abs=None``). So e(r_j) bounds the deviation at level j, with
    r_j = r0 2^{-j} upward (r0 = ||A||) and r0 2^j downward (r0 = ||A^{-1}||).
    """
    const: float
    rate: float               # negative for decay toward +inf, positive toward -inf
    sign: int                 # +1 upward, -1 downward
    r0: float
    a_abs: Optional[float]

    def excess(self, j: float) -> float:
        """e(r_j), the relative deviation bound of the blocks at level j."""
        r = self.r0 * 2.0 ** (-self.sign * j)
        if self.a_abs is None:
            return math.expm1(r)
        return math.inf if r >= 1.0 else math.expm1(-self.a_abs * math.log1p(-r))

    def octaves(self, tolerance: float) -> float:
        """log2(r0 / r*) with e(r*) = tolerance / 2: the distance from level 0
        beyond which every block is within tolerance / 2 of the model."""
        if self.a_abs is None:
            r_star = math.log1p(0.5 * tolerance)
        else:
            r_star = -math.expm1(-math.log1p(0.5 * tolerance) / self.a_abs)
        return math.log2(max(self.r0, 1e-300) / r_star)

    def tail(self, j_edge: int, q: float) -> float:
        """l_q mass of the model levels c0 r, c0 r^2, ... beyond level j_edge."""
        c0, ratio = self.const * 2.0 ** (self.rate * j_edge), 2.0 ** -abs(self.rate)
        if c0 == 0.0 or math.isinf(q):
            return c0 * ratio
        rq = ratio ** q
        return c0 * (rq / (1.0 - rq)) ** (1.0 / q)


def _certified_sum(blocks_at, q: float, tail_tolerance: float, j_start: int,
                   model: _TailModel):
    """Aggregate the blocks ``blocks_at(js)`` from j_start outward (up or
    down, as the model says), completed by the model's geometric tail.

    The last level is closed-form: the first one whose outer neighbour has
    e(r) <= tail_tolerance / 2, clamped to |j| <= 64. The levels in between
    are evaluated in one call. The true sum then lies in
    [lo, hi] = [head (+) (1 - e) tail, head (+) (1 + e) tail]; the value is
    head (+) tail, and the width hi - lo (the callers' ``tail_bound``) is at
    most 2 e times the value for q >= 1. Returns (value, js, blocks, lo, hi).
    TailError is raised when the width exceeds tail_tolerance times the
    value; for q >= 1 only the clamp can cause that.
    """
    if abs(j_start) > _J_CAP:
        raise TailError(f"base level k={j_start} outside the |j| <= {_J_CAP} cap")
    sign = model.sign
    edge = sign * min(max(sign * j_start, math.ceil(model.octaves(tail_tolerance)) - 1), _J_CAP)
    js = np.arange(min(j_start, edge), max(j_start, edge) + 1)
    blocks = blocks_at(js)
    e = model.excess(edge + sign)
    value, lo, hi = _enclose(q, _lq_aggregate(blocks, q), model.tail(edge, q), e)
    if not hi - lo <= tail_tolerance * value:
        raise TailError(
            f"tail not certified within |j| <= {_J_CAP}: excess={e:.3e} beyond level "
            f"{edge}, value={value:.3e} (rate={model.rate}, q={q})")
    return value, js, blocks, lo, hi


def _upper_model(idx: BesovIndex, norms: _Norms) -> _TailModel:
    a, b = complex(idx.alpha), complex(idx.beta)
    return _TailModel(norms.power(b), idx.s - b.real, 1,
                      _operator_radius(norms.handle, norms.norm), abs(a + b))


def _lower_model(idx: BesovIndex, norms: _Norms) -> _TailModel:
    a, b = complex(idx.alpha), complex(idx.beta)
    if norms.energies is None:
        inv = OperatorHandle.inverse(norms.handle)
        const = vector_norm(power_apply(inv, a, norms.x), norms.norm)
        r0 = _operator_radius(inv, norms.norm)
    else:       # ||A^{-alpha} x|| and ||A^{-1}|| = 1 / min mu from the eigenvalues
        const, r0 = norms.power(-a), 1.0 / norms.eigs.min()
    return _TailModel(const, idx.s + a.real, -1, r0, abs(a + b))


# --------------------------------------------------------------------------
# the quasi-norms
# --------------------------------------------------------------------------

def inhom_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                     tail_tolerance: float = 1e-8,
                     norm: NormKind = EUCLIDEAN,
                     keep_trace: bool = False) -> NormResult:
    """||(2^k+A)^{-alpha} x|| + ( sum_{j>=k} b_j^q )^{1/q}."""
    norms = _Norms(handle, as_array(x), norm)
    lead = float(norms.shifted(0.0, complex(idx.alpha), 2.0 ** idx.k))
    ssum, js, blocks, lo, hi = _certified_sum(partial(norms.blocks, idx), idx.q, tail_tolerance,
                                              idx.k, _upper_model(idx, norms))
    trace = list(zip(js.tolist(), blocks.tolist())) if keep_trace else None
    return NormResult(lead + ssum, lead, ssum, int(js[0]), int(js[-1]), hi - lo, trace)


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
    norms = _Norms(handle, as_array(x), norm)
    blocks_at = partial(norms.blocks, idx)
    up, js_u, blocks_u, lo_u, hi_u = _certified_sum(
        blocks_at, idx.q, tail_tolerance, 0, _upper_model(idx, norms))
    dn, js_d, blocks_d, lo_d, hi_d = _certified_sum(
        blocks_at, idx.q, tail_tolerance, -1, _lower_model(idx, norms))
    value = _combine(idx.q, up, dn)
    tail_bound = _combine(idx.q, hi_u, hi_d) - _combine(idx.q, lo_u, lo_d)
    trace = None
    if keep_trace:
        trace = list(zip(js_d.tolist(), blocks_d.tolist())) + \
            list(zip(js_u.tolist(), blocks_u.tolist()))
    return NormResult(value, 0.0, value, int(js_d[0]), int(js_u[-1]), tail_bound, trace)


def breve_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                     tail_tolerance: float = 1e-8,
                     norm: NormKind = EUCLIDEAN,
                     keep_trace: bool = False) -> NormResult:
    """||A^beta (2^k+A)^{-beta} x|| + ( sum_{j<=k} b_j^q )^{1/q} (injective A)."""
    if complex(idx.beta).real <= 0:
        raise ValueError("the alternative inhomogeneous quasi-norm needs Re beta > 0")
    if not handle.injective():
        raise ValueError("the alternative inhomogeneous quasi-norm needs injectivity")
    norms = _Norms(handle, as_array(x), norm)
    b = complex(idx.beta)
    lead = float(norms.shifted(b, b, 2.0 ** idx.k))
    ssum, js, blocks, lo, hi = _certified_sum(partial(norms.blocks, idx), idx.q, tail_tolerance,
                                              idx.k, _lower_model(idx, norms))
    trace = list(zip(js.tolist(), blocks.tolist())) if keep_trace else None
    return NormResult(lead + ssum, lead, ssum, int(js[0]), int(js[-1]), hi - lo, trace)


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
    if handle.spectral is None:
        raise SemigroupUnavailableError("semigroup quasi-norm needs spectral data")
    norms = _Norms(handle, as_array(x), norm)
    lead = norms.power(0.0)

    def blocks_at(js: np.ndarray) -> np.ndarray:
        return np.exp2(js * (s - b.real)) * norms.semigroup(b, np.exp2(-js.astype(float)))

    model = _TailModel(norms.power(b), s - b.real, 1, _operator_radius(handle, norm), None)
    ssum, js, blocks, lo, hi = _certified_sum(blocks_at, q, tail_tolerance, k, model)
    trace = list(zip(js.tolist(), blocks.tolist())) if keep_trace else None
    return NormResult(lead + ssum, lead, ssum, int(js[0]), int(js[-1]), hi - lo, trace)


# --------------------------------------------------------------------------
# continuous-parameter version
# --------------------------------------------------------------------------

def continuous_quasi_norm(handle: OperatorHandle, idx: BesovIndex, x,
                          tail_tolerance: float = 1e-9,
                          norm: NormKind = EUCLIDEAN) -> NormResult:
    """||(2^k+A)^{-alpha} x|| + ( int_{2^k}^inf (t^{s+alpha} profile)^q dt/t )^{1/q}.

    In u = ln t the integral ends at the closed-form u_max = ln(r0 / r*) of
    the upper :class:`_TailModel`, past which the profile is within
    ``tail_tolerance`` / 4 of the model, whose remainder is added exactly.
    For finite q the head int_{u_min}^{u_max} G^q du is one
    :func:`integrate_multiplicative` call under
    u = u_min + ln((1 + mu) / (1 + mu e^{-L})), L = u_max - u_min: the weight
    (1 - e^{-L}) mu / ((1 + mu)(1 + mu e^{-L})) decays like mu and e^L / mu,
    and u ~ u_min + ln mu between the ends keeps the integrand's strip.
    ``tail_bound`` is the enclosure width with the model's excess and the
    head's tails and discretization carried through the 1/q power; above
    ``tail_tolerance`` times the value it raises TailError. For q = inf the
    sup is one :func:`cell_sup` from cells 32 to an octave, its slack in
    ``tail_bound``. With v = e^{u(s + Re alpha)} A^beta (e^u + A)^{-c} x, c =
    alpha + beta, R = e^u (e^u + A)^{-1}: v'' = ((s + Re alpha) - c R)^2 v -
    c R (I - R) v, so G = ||v|| is a sup of functions with second derivative
    >= -C G, C = (|s + Re alpha| + |c| M)^2 + |c| M L, (M, L) =
    ``handle.constants(norm)`` (grid estimates for p in {1, inf}), and
    G <= max(G_a, G_b) / (1 - C w^2 / 8) on a cell of width w.
    """
    a, b = complex(idx.alpha), complex(idx.beta)
    q = idx.q
    norms = _Norms(handle, as_array(x), norm)
    lead = float(norms.shifted(0.0, a, 2.0 ** idx.k))
    model = _upper_model(idx, norms)
    tol = tail_tolerance

    def g_many(us: np.ndarray) -> np.ndarray:
        return np.exp(us * (idx.s + a.real)) * norms.shifted(b, a + b, np.exp(us))

    u_min = idx.k * math.log(2.0)
    u_max = max(u_min + 1.0, model.octaves(0.5 * tol) * math.log(2.0))
    span = u_max - u_min
    model_end = model.const * math.exp(model.rate * u_max)
    if math.isinf(q):
        m_a, l_a = handle.constants(norm)
        curv = (abs(idx.s + a.real) + abs(a + b) * m_a) ** 2 + abs(a + b) * m_a * l_a

        def bound(ua, ub, ga, gb):      # ln of max(G_a, G_b) / (1 - C w^2 / 8)
            room = 1.0 - curv * (ub - ua) ** 2 / 8.0
            return np.maximum(ga[0], gb[0]) - np.log(room, out=np.full_like(room, -np.inf),
                                                     where=room > 0.0)

        best, slack = (-math.inf, 0.0) if model.const == 0.0 else cell_sup(
            lambda us: np.log(g_many(us)), bound, u_min, u_max,
            int(math.ceil(32 * span / math.log(2.0))), tol / 16)
        head = head_lo = math.exp(best)
        head_hi = math.exp(best + slack)
        tail = model_end
    else:
        shrink = math.exp(-span)

        def integrand(mus: np.ndarray) -> np.ndarray:
            us = u_min + np.log1p(mus) - np.log1p(mus * shrink)
            jac = -math.expm1(-span) * (mus / (1.0 + mus)) / (1.0 + mus * shrink)
            return g_many(us) ** q * jac

        total, diag = integrate_multiplicative(
            integrand, 1.0, 1.0 / shrink, tol * min(q, 1.0) / 8,
            decay_lo=1.0, decay_hi=1.0)
        spill = diag.tail_bound + diag.discretization
        head = float(total) ** (1.0 / q)
        head_lo = max(float(total) - spill, 0.0) ** (1.0 / q)
        head_hi = (float(total) + spill) ** (1.0 / q)
        tail = model_end * (-model.rate * q) ** (-1.0 / q)
    e = model.excess(u_max / math.log(2.0))
    ssum = _combine(q, head, tail)
    width = _combine(q, head_hi, (1.0 + e) * tail) - _combine(q, head_lo, max(1.0 - e, 0.0) * tail)
    if not width <= tol * (lead + ssum):
        raise TailError(f"continuous norm not certified: excess={e:.3e} at u={u_max:.3g}, "
                        f"enclosure width {width:.3e} against value {lead + ssum:.3e}")
    j_hi = int(math.ceil(u_max / math.log(2.0)))
    return NormResult(lead + ssum, lead, ssum, idx.k, j_hi, width, None)
