"""Quasi-norm evaluations against frozen high-precision sums, closed forms
and the brute-force reference module."""

import math

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbesov import reference as ref
from fracbesov.besov import (
    BesovIndex,
    TailError,
    _combine,
    _lq_aggregate,
    aoki_rolewicz_p,
    breve_quasi_norm,
    continuous_quasi_norm,
    dyadic_block,
    dyadic_blocks,
    homog_quasi_norm,
    inhom_quasi_norm,
    semigroup_quasi_norm,
)
from fracbesov.harness import run_check
from fracbesov.operators import NormKind, OperatorHandle

DIAG14 = OperatorHandle.diagonal([1.0, 4.0])
DIAG1 = OperatorHandle.diagonal([1.0])
ONES2 = np.array([1.0, 1.0], dtype=complex)
ONE = np.array([1.0 + 0j])

# frozen 40-digit mpmath evaluations of the defining sums/integrals:
INHOM_SCALAR = 1.9199714780794676      # 1 + (sum_{j>=0} 4^{j/2}/(2^j+1)^2)^{1/2}
HOMOG_SCALAR = 2.8853900817968599      # sum_Z 2^j / (2^j+1)^{3/2}
SEMIGROUP_DIAG14 = 3.3033358154279971  # sqrt(2) + l2 sum for diag(1,4)
SEMIGROUP_SUP_SCALAR = 1.4288819424803534
CONT_SCALAR = 1.7071067811865475       # 1 + sqrt(1/2)
WIDE_INHOM = 31862304.287024318        # diag(1, 2^50), x = (1, 1), (s,q,k,a,b) = (0.5,2,0,0.3,1)
SLOW_INHOM = 3310.44045786276          # diag(1e-9, 1), x = (1, 1), (s,q,k,a,b) = (0.95,0.5,0,0,1)


# ---------------------------------------------------------------- blocks ----

def test_block_eigenvector_closed_form():
    idx = BesovIndex(0.5, 2.0, 0, 0.25, 1.5)
    e1 = np.array([1.0, 0.0], dtype=complex)
    j = 2
    val = dyadic_block(DIAG14, j, idx, e1)
    lam = 2.0 ** j
    want = 2.0 ** (j * (0.5 + 0.25)) * 1.0 ** 1.5 * (lam + 1.0) ** (-(0.25 + 1.5))
    assert val == pytest.approx(want, rel=1e-12)


def test_block_zero_vector():
    idx = BesovIndex(0.5, 2.0, 0, 0.0, 1.0)
    assert dyadic_block(DIAG14, 3, idx, np.zeros(2, dtype=complex)) == 0.0


def test_block_example_sqrt089():
    idx = BesovIndex(0.5, 2.0, 0, 0.0, 1.0)
    assert dyadic_block(DIAG14, 0, idx, ONES2) == pytest.approx(
        math.sqrt(0.89), rel=1e-12)


def test_block_complex_alpha_magnitude_only():
    # |2^{j alpha}| = 2^{j Re alpha}: imaginary parts act as phases only
    idx_c = BesovIndex(0.5, 2.0, 0, 0.25 + 3.0j, 1.0)
    idx_r = BesovIndex(0.5, 2.0, 0, 0.25, 1.0)
    b_c = dyadic_block(DIAG14, 2, idx_c, ONES2)
    b_r = dyadic_block(DIAG14, 2, idx_r, ONES2)
    assert b_c == pytest.approx(b_r, rel=1e-12)


# ----------------------------------------------------------- inhomogeneous ----

def test_inhom_scalar_frozen_sum():
    r = inhom_quasi_norm(DIAG1, BesovIndex(0.5, 2.0, 0, 0.0, 1.0), ONE)
    assert r.value == pytest.approx(INHOM_SCALAR, rel=1e-8)
    assert r.tail_bound <= 1e-8 * r.value


def test_inhom_zero_vector():
    r = inhom_quasi_norm(DIAG14, BesovIndex(0.5, 2.0, 0, 0.0, 1.0),
                         np.zeros(2, dtype=complex))
    assert r.value == 0.0


def test_inhom_positive_homogeneity():
    idx = BesovIndex(0.3, 1.5, 0, 0.5, 1.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    v1 = inhom_quasi_norm(DIAG14, idx, x).value
    v3 = inhom_quasi_norm(DIAG14, idx, 3.0 * x).value
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


def test_inhom_deep_quasi_norm_regime():
    # q = 0.1 amplifies tail mass by 1/q in the aggregate; value pinned by a
    # 50-digit evaluation of the full level sum
    rng = np.random.default_rng(0)
    eigs = np.array([0.5, 3.0, 11.0])
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = OperatorHandle.diagonal(eigs)
    got = inhom_quasi_norm(h, BesovIndex(0.4, 0.1, 0, 0.3, 1.0), x)
    assert got.value == pytest.approx(473378954526595.8, rel=1e-7)
    assert got.tail_bound <= 1e-8 * got.value
    want = ref.inhom_norm(eigs, x, 0.4, 0.1, 0, 0.3, 1.0)
    assert got.value == pytest.approx(want, rel=1e-6)


def test_inhom_matches_reference_on_random_diagonals():
    rng = np.random.default_rng(1)
    for _ in range(10):
        eigs = np.exp(rng.uniform(-2, 3, 6))
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        h = OperatorHandle.diagonal(eigs)
        for idx in (BesovIndex(0.5, 2.0, 0, 0.0, 1.0),
                    BesovIndex(-0.3, 1.0, -1, 0.6, 0.8),
                    BesovIndex(0.4, math.inf, 2, 0.25, 1.3)):
            got = inhom_quasi_norm(h, idx, x).value
            want = ref.inhom_norm(eigs, x, idx.s, idx.q, idx.k, idx.alpha, idx.beta)
            assert got == pytest.approx(want, rel=1e-7)


def test_inhom_quasi_triangle():
    idx = BesovIndex(0.4, 0.5, 0, 0.0, 1.0)
    k_const = idx.quasi_triangle_constant
    assert k_const == pytest.approx(2.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        vx = inhom_quasi_norm(DIAG14, idx, x).value
        vy = inhom_quasi_norm(DIAG14, idx, y).value
        vxy = inhom_quasi_norm(DIAG14, idx, x + y).value
        assert vxy <= k_const * (vx + vy) * (1 + 1e-9)


def test_small_admissibility_gap_still_certified():
    # the closed-form geometric completion handles slow tails without the
    # level cap getting in the way
    r = inhom_quasi_norm(DIAG1, BesovIndex(0.95, 2.0, 0, 0.0, 1.0), ONE)
    want = ref.inhom_norm([1.0], ONE, 0.95, 2.0, 0, 0.0, 1.0)
    assert r.value == pytest.approx(want, rel=1e-7)
    assert r.tail_bound <= 1e-8 * r.value


def test_tail_cap_violation_raises():
    # spectrum beyond 2^64: the geometric regime is unreachable within the cap
    wide = OperatorHandle.diagonal([1.0, 2.0 ** 70])
    with pytest.raises(TailError):
        inhom_quasi_norm(wide, BesovIndex(0.5, 2.0, 0, 0.0, 1.0), ONES2)
    with pytest.raises(TailError):
        inhom_quasi_norm(DIAG14, BesovIndex(0.5, 2.0, 66, 0.0, 1.0), ONES2)


# ---------------------------------------------------------------- continuous ----

def test_continuous_scalar_closed_form():
    r = continuous_quasi_norm(DIAG1, BesovIndex(0.5, 2.0, 0, 0.0, 1.0), ONE)
    assert r.value == pytest.approx(CONT_SCALAR, rel=1e-7)


def test_continuous_sup_closed_form():
    r = continuous_quasi_norm(DIAG1, BesovIndex(0.5, math.inf, 0, 0.0, 1.0), ONE)
    assert r.value == pytest.approx(1.5, rel=1e-7)


def test_continuous_zero():
    r = continuous_quasi_norm(DIAG14, BesovIndex(0.5, 2.0, 0, 0.0, 1.0),
                              np.zeros(2, dtype=complex))
    assert r.value == 0.0


def test_continuous_vs_reference():
    rng = np.random.default_rng(3)
    eigs = np.exp(rng.uniform(-1, 2, 5))
    x = rng.normal(size=5) + 0j
    h = OperatorHandle.diagonal(eigs)
    idx = BesovIndex(0.35, 1.5, 0, 0.3, 1.0)
    got = continuous_quasi_norm(h, idx, x).value
    want = ref.leading_term(eigs, x, 0, 0.3) + \
        ref.continuous_sum_part(eigs, x, 0.35, 1.5, 0, 0.3, 1.0)
    assert got == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------- homogeneous ----

def test_homog_scalar_frozen_sum():
    r = homog_quasi_norm(DIAG1, BesovIndex(0.5, 1.0, 0, 0.5, 1.0), ONE)
    assert r.value == pytest.approx(HOMOG_SCALAR, rel=1e-8)


def test_homog_requires_injectivity():
    h = OperatorHandle.diagonal([0.0, 1.0])
    with pytest.raises(ValueError, match="injective"):
        homog_quasi_norm(h, BesovIndex(0.5, 1.0, 0, 0.5, 1.0), ONES2)


def test_homog_requires_positive_beta():
    with pytest.raises(ValueError, match="beta"):
        homog_quasi_norm(DIAG14, BesovIndex(-0.2, 1.0, 0, 0.5, 0.0), ONES2)


def test_homog_reflection_identity_exact():
    # value under A at (s, a, b) equals value under A^{-1} at (-s, b, a)
    rng = np.random.default_rng(4)
    eigs = np.exp(rng.uniform(-2, 2, 6))
    h = OperatorHandle.diagonal(eigs)
    hinv = OperatorHandle.inverse(h)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    s, a, b = 0.4, 0.6, 1.2
    for q in (1.0, 2.0, math.inf):
        lhs = homog_quasi_norm(h, BesovIndex(s, q, 0, a, b), x).value
        rhs = homog_quasi_norm(hinv, BesovIndex(-s, q, 0, b, a), x).value
        assert lhs == pytest.approx(rhs, rel=1e-9)


# -------------------------------------------------------------------- breve ----

def test_breve_leading_term():
    idx = BesovIndex(-0.5, 2.0, 0, 1.0, 1.0)
    e1 = np.array([1.0, 0.0], dtype=complex)
    r = breve_quasi_norm(DIAG14, idx, e1)
    assert r.leading == pytest.approx(0.5, rel=1e-10)      # ||A(1+A)^{-1} e1||


def test_breve_zero():
    r = breve_quasi_norm(DIAG14, BesovIndex(-0.5, 2.0, 0, 1.0, 1.0),
                         np.zeros(2, dtype=complex))
    assert r.value == 0.0


def test_breve_inverse_duality_exact():
    # breve at -s under A (swapped exponents) equals inhomogeneous at s
    # under A^{-1}, exactly at k = 0
    rng = np.random.default_rng(5)
    eigs = np.exp(rng.uniform(-2, 2, 6))
    h = OperatorHandle.diagonal(eigs)
    hinv = OperatorHandle.inverse(h)
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    s, a, b = 0.5, 0.7, 1.1
    for q in (1.0, 2.0):
        lhs = breve_quasi_norm(h, BesovIndex(-s, q, 0, b, a), x).value
        rhs = inhom_quasi_norm(hinv, BesovIndex(s, q, 0, a, b), x).value
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_breve_vs_reference():
    rng = np.random.default_rng(6)
    eigs = np.exp(rng.uniform(-1, 1, 5))
    x = rng.normal(size=5) + 0j
    h = OperatorHandle.diagonal(eigs)
    got = breve_quasi_norm(h, BesovIndex(-0.4, 1.0, 0, 0.6, 1.0), x).value
    want = ref.breve_norm(eigs, x, -0.4, 1.0, 0, 0.6, 1.0)
    assert got == pytest.approx(want, rel=1e-7)


# ----------------------------------------------------------------- semigroup ----

def test_semigroup_norm_sup_scalar():
    r = semigroup_quasi_norm(DIAG1, 0.5, math.inf, 0, 1.0, ONE)
    assert r.value == pytest.approx(SEMIGROUP_SUP_SCALAR, rel=1e-10)


def test_semigroup_norm_zero():
    r = semigroup_quasi_norm(DIAG14, 0.5, 2.0, 0, 1.0, np.zeros(2, dtype=complex))
    assert r.value == 0.0


def test_semigroup_norm_frozen_sum():
    r = semigroup_quasi_norm(DIAG14, 0.5, 2.0, 0, 1.0, ONES2)
    assert r.value == pytest.approx(SEMIGROUP_DIAG14, rel=1e-10)


def test_semigroup_norm_validation():
    with pytest.raises(ValueError):
        semigroup_quasi_norm(DIAG14, 1.5, 2.0, 0, 1.0, ONES2)   # s >= Re beta
    from fracbesov.fractional import SemigroupUnavailableError
    h = OperatorHandle.dense([[1.0, 0.5], [0.0, 2.0]])
    with pytest.raises(SemigroupUnavailableError):
        semigroup_quasi_norm(h, 0.5, 2.0, 0, 1.0, ONES2)


# -------------------------------------------------------------- index rules ----

def test_besov_index_admissibility():
    with pytest.raises(ValueError, match="s must satisfy"):
        BesovIndex(2.0, 2.0, 0, 0.0, 1.0)
    with pytest.raises(ValueError, match="s must satisfy"):
        BesovIndex(-0.5, 2.0, 0, 0.25, 1.0)
    with pytest.raises(ValueError):
        BesovIndex(0.5, 0.0, 0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative real part"):
        BesovIndex(0.5, 2.0, 0, -0.5, 1.0)
    idx = BesovIndex(0.5, 0.5, 0, 0.0, 1.0)
    assert idx.quasi_triangle_constant == pytest.approx(2.0)


def test_aoki_rolewicz_exponent():
    assert aoki_rolewicz_p(2.0) == 1.0
    assert aoki_rolewicz_p(1.0) == 1.0
    assert aoki_rolewicz_p(math.inf) == 1.0
    assert aoki_rolewicz_p(0.5) == pytest.approx(0.5, rel=1e-13)
    assert aoki_rolewicz_p(1.0 / 3.0) == pytest.approx(1.0 / 3.0, rel=1e-13)
    with pytest.raises(ValueError):
        aoki_rolewicz_p(0.0)


# ---------------------------------------------------------------- monotonic ----

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=24),
       st.sampled_from([(0.5, 1.0), (1.0, 2.0), (0.7, math.inf)]))
@example(blocks=[4.872392440093521e-160], q_pair=(1.0, 2.0))
def test_lq_aggregate_monotone_in_q(blocks, q_pair):
    q, q1 = q_pair
    b = np.asarray(blocks)
    assert _lq_aggregate(b, q1) <= _lq_aggregate(b, q) * (1 + 1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("parts, q, want", [
    ([4.872392440093521e-160], 2.0, 4.872392440093521e-160),  # square is subnormal
    ([1e-170], 2.0, 1e-170),                                   # square underflows to 0
    ([1e200, 1e200], 2.0, math.sqrt(2.0) * 1e200),             # squares overflow
])
def test_lq_aggregate_rescales_an_underflowed_or_overflowed_sum(parts, q, want):
    assert _lq_aggregate(np.array(parts), q) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert _combine(q, *parts) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_q_monotonicity_exact():
    rng = np.random.default_rng(7)
    idx = BesovIndex(0.5, 2.0, 0, 0.25, 1.0)
    js = np.arange(0, 40)
    for _ in range(10):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        blocks = dyadic_blocks(DIAG14, js, idx, x)
        prev = None
        for q in (0.5, 1.0, 2.0, math.inf):
            agg = blocks.max() if math.isinf(q) else (blocks ** q).sum() ** (1 / q)
            if prev is not None:
                assert agg <= prev * (1 + 1e-12)
            prev = agg


def test_s_monotonicity_termwise():
    rng = np.random.default_rng(8)
    js = np.arange(0, 40)
    for _ in range(10):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        b_hi = dyadic_blocks(DIAG14, js, BesovIndex(0.7, 2.0, 0, 0.0, 1.0), x)
        b_lo = dyadic_blocks(DIAG14, js, BesovIndex(0.2, 2.0, 0, 0.0, 1.0), x)
        assert np.all(b_lo <= b_hi * (1 + 1e-12))


def test_full_line_integral_identification():
    # for s > 0, q >= 1: the continuous sum from 2^0 and the full-line
    # integral differ by a bounded ratio (>= 1, since the domain only grows)
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(10):
        eigs = np.exp(rng.uniform(-1.5, 1.5, 5))
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        for q in (1.0, 2.0):
            half = ref.continuous_sum_part(eigs, x, 0.5, q, 0, 0.0, 1.0)
            full = ref.continuous_sum_part(eigs, x, 0.5, q, -60, 0.0, 1.0)
            ratios.append(full / half)
    assert min(ratios) >= 1.0 - 1e-12
    assert max(ratios) <= 16.0


def test_norm_result_tail_invariant():
    r = inhom_quasi_norm(DIAG14, BesovIndex(0.5, 2.0, 0, 0.0, 1.0), ONES2,
                         tail_tolerance=1e-8)
    assert r.tail_bound <= 1e-8 * r.value
    assert r.j_range_used[0] == 0
    r2 = inhom_quasi_norm(DIAG14, BesovIndex(0.5, 2.0, 0, 0.0, 1.0), ONES2,
                          keep_trace=True)
    assert r2.term_trace is not None and r2.term_trace[0][0] == 0


# ------------------------------------------------------- closed-form tails ----

def _nonnormal6():
    rng = np.random.default_rng(11)
    mat = np.triu(rng.normal(scale=0.4, size=(6, 6)), 1) + np.diag(np.geomspace(0.5, 4.0, 6))
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    return mat, x


def _direct_blocks(mat, idx, x, js, ord=2):
    """Dyadic blocks from scipy's fractional_matrix_power, one level at a time."""
    a, b = float(idx.alpha), float(idx.beta)
    a_beta = fractional_matrix_power(mat, b)
    out = []
    for j in js:
        res = fractional_matrix_power(2.0 ** j * np.eye(len(x)) + mat, -(a + b))
        out.append(2.0 ** (j * (idx.s + a)) * np.linalg.norm(a_beta @ res @ x, ord))
    return np.array(out)


def _lq(blocks, q):
    return blocks.max() if math.isinf(q) else (blocks ** q).sum() ** (1.0 / q)


def test_wide_spectrum_certified_at_the_level_cap():
    # the model tail starts at the |j| <= 64 cap, 14 octaves past ||A||
    h = OperatorHandle.diagonal([1.0, 2.0 ** 50])
    r = inhom_quasi_norm(h, BesovIndex(0.5, 2.0, 0, 0.3, 1.0), ONES2)
    assert r.tail_bound <= 1e-8 * r.value
    assert r.j_range_used == (0, 64)
    assert abs(r.value - WIDE_INHOM) <= r.tail_bound + 1e-12 * WIDE_INHOM


def test_slow_tail_enclosure_covers_the_frozen_sum():
    # s close to Re beta and q = 1/2: the model tail carries most of the mass
    h = OperatorHandle.diagonal([1e-9, 1.0])
    r = inhom_quasi_norm(h, BesovIndex(0.95, 0.5, 0, 0.0, 1.0), ONES2)
    assert r.tail_bound <= 1e-8 * r.value
    assert abs(r.value - SLOW_INHOM) <= r.tail_bound


@pytest.mark.parametrize("idx", [BesovIndex(0.3, 2.0, 0, 0.4, 1.0),
                                 BesovIndex(-0.2, 1.0, 0, 0.5, 0.8)])
def test_nonnormal_homog_matches_direct_sum(idx):
    mat, x = _nonnormal6()
    r = homog_quasi_norm(OperatorHandle.dense(mat), idx, x)
    assert r.tail_bound <= 1e-8 * r.value
    want = _lq(_direct_blocks(mat, idx, x, range(-200, 91)), idx.q)
    assert abs(r.value - want) <= r.tail_bound + 1e-10 * want


def test_p1_norm_certified_against_direct_sum():
    mat, x = _nonnormal6()
    idx = BesovIndex(0.4, 1.0, -2, 0.2, 1.0)
    r = inhom_quasi_norm(OperatorHandle.dense(mat), idx, x, norm=NormKind("p", p=1.0))
    assert r.tail_bound <= 1e-8 * r.value
    res = fractional_matrix_power(2.0 ** idx.k * np.eye(6) + mat, -float(idx.alpha))
    want = np.linalg.norm(res @ x, 1) + _lq(_direct_blocks(mat, idx, x, range(-2, 91), 1), 1.0)
    assert abs(r.value - want) <= r.tail_bound + 1e-10 * want


def test_p_norm_without_induced_formula_raises():
    with pytest.raises(NotImplementedError):
        inhom_quasi_norm(DIAG14, BesovIndex(0.5, 2.0, 0, 0.0, 1.0), ONES2,
                         norm=NormKind("p", p=3.0))


@pytest.mark.parametrize("check_id", ["inverse_breve", "inverse_homog"])
@pytest.mark.parametrize("seed", [3, 14])
def test_inverse_identity_checks_pass_at_more_seeds(check_id, seed):
    # each identity compares two separately certified level sums
    assert run_check(check_id, seed=seed).verdict == "pass"


# --------------------------------------------- certified continuous head ----

CONT_EIGS = (0.3, 2.0, 15.0)
CONT_X = (1.0, -0.5 + 0.3j, 0.8)


def _continuous_mp(idx: BesovIndex) -> float:
    """30-digit ||(2^k+A)^{-alpha} x|| + (int_{k ln 2}^inf G(u)^q du)^{1/q} on
    diag(CONT_EIGS), with G(u) = e^{u(s+alpha)} ||A^beta (e^u+A)^{-alpha-beta} x||."""
    import mpmath as mp
    with mp.workdps(30):
        eigs = [mp.mpf(e) for e in CONT_EIGS]
        w = [abs(mp.mpc(c)) ** 2 for c in CONT_X]
        a, b, s, q = mp.mpf(idx.alpha), mp.mpf(idx.beta), mp.mpf(idx.s), mp.mpf(idx.q)
        u0 = idx.k * mp.log(2)
        lead = mp.sqrt(sum(wi * (mp.mpf(2) ** idx.k + e) ** (-2 * a) for wi, e in zip(w, eigs)))

        def g_q(u):
            prof = sum(wi * e ** (2 * b) * (mp.exp(u) + e) ** (-2 * (a + b))
                       for wi, e in zip(w, eigs))
            return (mp.exp(u * (s + a)) * mp.sqrt(prof)) ** q

        breaks = [u0] + sorted(mp.log(e) for e in eigs if mp.log(e) > u0) + [u0 + 60, mp.inf]
        return float(lead + mp.quad(g_q, breaks) ** (1 / q))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0])
def test_continuous_within_tail_bound_of_mpmath(q):
    idx = BesovIndex(0.4, q, -1, 0.3, 1.2)
    r = continuous_quasi_norm(OperatorHandle.diagonal(CONT_EIGS), idx,
                              np.array(CONT_X, dtype=complex))
    want = _continuous_mp(idx)
    assert r.tail_bound <= 1e-9 * r.value
    # 1e-13 covers the rounding of the double-precision evaluation itself
    assert abs(r.value - want) <= r.tail_bound + 1e-13 * want


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("handle", [
    OperatorHandle.torus_laplacian(64, 1),
    OperatorHandle.diagonal(np.geomspace(1e-2, 1e3, 32)),
], ids=["torus64", "diag32"])
def test_continuous_certified_within_the_default_tolerance(handle, q):
    rng = np.random.default_rng(int(4 * q))
    x = rng.normal(size=handle.dim) + 1j * rng.normal(size=handle.dim)
    for idx in (BesovIndex(0.5, q, 0, 0.5, 1.0), BesovIndex(-0.3, q, -2, 0.8, 0.6),
                BesovIndex(1.2, q, 2, 0.2, 1.9)):
        r = continuous_quasi_norm(handle, idx, x)
        assert 0.0 < r.tail_bound <= 1e-9 * r.value


def _scan_sup(log_profile, u_lo, u_hi, points=400001):
    """max of exp(log_profile(us)) over ``points`` equally spaced us, in chunks."""
    us = np.linspace(u_lo, u_hi, points)
    return max(float(np.exp(log_profile(chunk)).max()) for chunk in np.array_split(us, 8))


def _diagonal_log_profile(eigs, x, idx):
    # ln G(u), G(u) = e^{u(s+alpha)} ||A^beta (e^u+A)^{-alpha-beta} x||, in log space
    le, lw = np.log(eigs), np.log(np.abs(x) ** 2)
    c = idx.alpha + idx.beta

    def log_profile(us):
        terms = lw + 2 * idx.beta * le - 2 * c * np.logaddexp(us[:, None], le)
        top = terms.max(axis=1, keepdims=True)
        log_sq = top[:, 0] + np.log(np.exp(terms - top).sum(axis=1))
        return us * (idx.s + idx.alpha) + 0.5 * log_sq
    return log_profile


def _sup_draw(rng, cluster):
    if cluster:
        eigs = np.concatenate([np.exp(rng.uniform(math.log(1e-2), math.log(1e-1), 3)),
                               np.exp(rng.uniform(math.log(1e2), math.log(1e3), 3))])
    else:
        eigs = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), 6))
    alpha, beta = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.5, 2.0))
    s = float(rng.uniform(-alpha + 0.1, min(beta, 2.0 - alpha) - 0.1))
    idx = BesovIndex(s, math.inf, int(rng.integers(-2, 3)), alpha, beta)
    return eigs, rng.normal(size=6) + 1j * rng.normal(size=6), idx


@pytest.mark.parametrize("cluster", [False, True], ids=["log_uniform", "two_cluster"])
def test_continuous_sup_bound_covers_a_dense_scan(cluster):
    # 30 draws each: the certified sup, widened by tail_bound, reaches the
    # largest value of G on 400001 points; the scan misses the true sup by
    # at most C h^2 / 8 < 1e-8 of it (h <= 1e-4, C <= 28)
    rng = np.random.default_rng(19 + cluster)
    for _ in range(30):
        eigs, x, idx = _sup_draw(rng, cluster)
        r = continuous_quasi_norm(OperatorHandle.diagonal(eigs), idx, x)
        u_lo = idx.k * math.log(2.0)
        scan = r.leading + _scan_sup(_diagonal_log_profile(eigs, x, idx), u_lo,
                                     max(u_lo, math.log(eigs.max())) + 20.0)
        assert r.tail_bound <= 1e-9 * r.value
        assert scan <= r.value + r.tail_bound + 1e-13 * r.value
        assert r.value <= scan + 1e-8 * r.value


def test_continuous_sup_bound_covers_a_dense_scan_without_eigen_data():
    # a 5x5 handle drawn as the nonnormal_upper ensemble draws them: the cell
    # bound takes M_A and L_A from handle.constants(), here above 1
    rng = np.random.default_rng(0)
    diag = np.sort(np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=5)))
    m = np.diag(diag) + 0.4 * np.triu(rng.normal(size=(5, 5)), 1)
    h = OperatorHandle.dense(m)
    assert h.spectral is None and h.constants()[0] > 1.5
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    idx = BesovIndex(0.6, math.inf, 1, 0.0, 1.0)
    r = continuous_quasi_norm(h, idx, x)
    # G(u) = e^{0.6 u} ||A (e^u + A)^{-1} x|| through the eigenvectors of A
    lam, vec = np.linalg.eig(m)
    coef = np.linalg.solve(vec, x)

    def log_profile(us):
        rows = (lam * coef / (np.exp(us)[:, None] + lam)) @ vec.T
        return 0.6 * us + np.log(np.linalg.norm(rows, axis=1))

    scan = r.leading + _scan_sup(log_profile, math.log(2.0), math.log(2.0) + 30.0)
    assert r.tail_bound <= 1e-9 * r.value
    assert scan <= r.value + r.tail_bound + 1e-12 * r.value
    assert r.value <= scan + 1e-8 * r.value


@pytest.mark.parametrize("eigs, x", [([1.0, 4.0], [0.0, 0.0]), ([0.0, 4.0], [1.0, 0.0])],
                         ids=["zero", "kernel"])
def test_continuous_sup_of_a_zero_profile(eigs, x):
    # A^beta x = 0 makes G vanish everywhere: no log of 0 (a RuntimeWarning)
    idx = BesovIndex(0.5, math.inf, 0, 0.0, 1.0)
    r = continuous_quasi_norm(OperatorHandle.diagonal(eigs), idx, np.array(x, dtype=complex))
    assert (r.sum_part, r.tail_bound) == (0.0, 0.0)


# ------------------------------------------------ log-space reference sums ----

def _pinned_diag32(seed: int) -> np.ndarray:
    # 32 log-uniform eigenvalues in [1e-2, 1e3] with both ends pinned
    rng = np.random.default_rng([seed, 0xE7A1])
    inner = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=30))
    return np.sort(np.concatenate([[1e-2], inner, [1e3]]))


def test_reference_continuous_with_slow_decay():
    # (beta - s) q = 0.025: at the reference's dense cut the integrand is
    # still about e^-6 of its start, so the remainder beyond the cut matters,
    # and (e^u + A)^{-alpha-beta} underflows there unless e^u is factored out
    eigs = _pinned_diag32(0)
    x = np.random.default_rng(0).normal(size=32) + 0j
    idx = BesovIndex(0.95, 0.5, 0, 0.5, 1.0)
    got = continuous_quasi_norm(OperatorHandle.diagonal(eigs), idx, x).value
    want = ref.leading_term(eigs, x, 0, 0.5) + \
        ref.continuous_sum_part(eigs, x, 0.95, 0.5, 0, 0.5, 1.0)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("seed", [26, 1, 2])
@pytest.mark.parametrize("idx", [BesovIndex(0.95, 0.5, 0, 0.9, 1.0),
                                 BesovIndex(0.87, 0.5, 2, 0.82, 1.0),
                                 BesovIndex(1.3, math.inf, 0, 1.0, 2.0),
                                 BesovIndex(1.2, math.inf, -1, 0.95, 1.8)])
def test_reference_level_sums_without_overflow(seed, idx):
    # s + alpha near or above 2 with q = 1/2 or inf: linear-space block
    # products overflow or underflow over the reference's 500-level span
    eigs = _pinned_diag32(seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    h = OperatorHandle.diagonal(eigs)
    args = (idx.s, idx.q, idx.alpha, idx.beta)
    want_inhom = ref.inhom_norm(eigs, x, idx.s, idx.q, idx.k, idx.alpha, idx.beta)
    assert inhom_quasi_norm(h, idx, x).value == pytest.approx(want_inhom, rel=1e-9)
    assert homog_quasi_norm(h, idx, x).value == pytest.approx(ref.homog_norm(eigs, x, *args),
                                                              rel=1e-9)


# ------------------------------------------------- the coefficient route ----
# With eigen-data in the euclidean norm every quasi-norm takes its norms from
# the coefficient energies |to_coeff(x)|^2; a weighted norm with unit weights
# is the same norm on the operator route, so the two must agree.

def _spd6():
    q, _ = np.linalg.qr(np.random.default_rng(44).normal(size=(6, 6)))
    return OperatorHandle.dense(q @ np.diag(np.geomspace(0.2, 50.0, 6)) @ q.T)


_ROUTE_HANDLES = {
    "diagonal": OperatorHandle.diagonal([0.3, 1.0, 7.0, 120.0]),
    "spd": _spd6(),
    "torus1": OperatorHandle.shifted(OperatorHandle.torus_laplacian(8), 0.5),
    "torus2": OperatorHandle.shifted(OperatorHandle.torus_laplacian(4, dims=2), 0.5),
}
_ROUTE_INDICES = [BesovIndex(0.3, 2.0, 0, 0.4, 1.0),
                  BesovIndex(-0.2, 0.5, 1, 0.6 + 0.8j, 1.3 - 0.5j),
                  BesovIndex(0.5, math.inf, -1, 0.2j, 0.9 + 2.0j)]


def _route_vector(n):
    rng = np.random.default_rng(45)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _quasi_norms(idx):
    return {
        "inhom": lambda h, x, norm: inhom_quasi_norm(h, idx, x, norm=norm),
        "homog": lambda h, x, norm: homog_quasi_norm(h, idx, x, norm=norm),
        "breve": lambda h, x, norm: breve_quasi_norm(h, idx, x, norm=norm),
        "continuous": lambda h, x, norm: continuous_quasi_norm(h, idx, x, norm=norm),
        "semigroup": lambda h, x, norm: semigroup_quasi_norm(
            h, abs(idx.s), idx.q, idx.k, idx.beta, x, norm=norm),
    }


def _assert_routes_agree(variant, got, want, q):
    if variant == "continuous" and math.isinf(q):
        assert abs(got.value - want.value) <= max(got.tail_bound, want.tail_bound)
    else:
        assert got.value == pytest.approx(want.value, rel=1e-13, abs=0.0)
        assert got.leading == pytest.approx(want.leading, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("variant", ["inhom", "homog", "breve", "continuous", "semigroup"])
@pytest.mark.parametrize("idx", _ROUTE_INDICES, ids=["real", "complex", "sup"])
@pytest.mark.parametrize("name", list(_ROUTE_HANDLES))
def test_coefficient_route_matches_the_operator_route(name, idx, variant):
    h = _ROUTE_HANDLES[name]
    x = _route_vector(h.dim)
    evaluate = _quasi_norms(idx)[variant]
    got = evaluate(h, x, NormKind())
    want = evaluate(h, x, NormKind("weighted", weights=np.ones(h.dim)))
    _assert_routes_agree(variant, got, want, idx.q)


_BETA_ZERO = BesovIndex(-0.3, 2.0, 0, 0.6 + 0.4j, 0.0)
_RE_BETA_POSITIVE = BesovIndex(0.2, 1.0, 0, 0.3, 0.8 + 1.5j)


@pytest.mark.parametrize("variant, idx", [
    ("inhom", _BETA_ZERO), ("continuous", _BETA_ZERO), ("inhom", _RE_BETA_POSITIVE),
    ("continuous", _RE_BETA_POSITIVE), ("semigroup", _RE_BETA_POSITIVE),
])
def test_coefficient_route_on_a_zero_eigenvalue(variant, idx):
    h = OperatorHandle.diagonal([0.0, 0.5, 3.0, 40.0])
    x = _route_vector(4)
    evaluate = _quasi_norms(idx)[variant]
    got = evaluate(h, x, NormKind())
    want = evaluate(h, x, NormKind("weighted", weights=np.ones(4)))
    _assert_routes_agree(variant, got, want, idx.q)


@pytest.mark.parametrize("norm", [NormKind(), NormKind("weighted", weights=np.ones(4))],
                         ids=["coefficient", "operator"])
def test_imaginary_beta_on_a_zero_eigenvalue_raises(norm):
    h = OperatorHandle.diagonal([0.0, 0.5, 3.0, 40.0])
    with pytest.raises(ValueError, match="zero eigenvalue"):
        inhom_quasi_norm(h, BesovIndex(-0.3, 2.0, 0, 0.6, 0.5j), _route_vector(4), norm=norm)


@pytest.mark.parametrize("variant", ["inhom", "homog", "breve", "continuous", "semigroup"])
def test_quasi_norms_transform_once_and_never_back(variant):
    from test_fractional import _counted_spd
    h, calls = _counted_spd()
    _quasi_norms(BesovIndex(0.3, 2.0, 0, 0.4 + 0.2j, 1.0))[variant](
        h, _route_vector(8), NormKind())
    assert calls == {"to": 1, "from": 0}


@pytest.mark.parametrize("variant", ["inhom", "homog", "breve", "continuous", "semigroup"])
def test_coefficient_route_is_homogeneous_down_to_tiny_vectors(variant):
    # |c|^2 of a 1e-170 vector underflows; the energies are scaled first
    h, x = _ROUTE_HANDLES["spd"], _route_vector(6)
    evaluate = _quasi_norms(_ROUTE_INDICES[1])[variant]
    want = evaluate(h, x, NormKind()).value
    assert evaluate(h, 1e-170 * x, NormKind()).value == pytest.approx(1e-170 * want, rel=1e-13,
                                                                      abs=0.0)
