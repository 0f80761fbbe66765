"""Non-negative operator handles on finite-dimensional complex spaces.

A handle bundles the action of an operator A (matvec + shifted-resolvent
solve), optional spectral data (real eigenvalues plus a unitary diagonalizing
transform pair), and cached non-negativity constants, exact in the euclidean
and weighted norms and grid estimates for p in {1, inf}:

    M_A = sup_{l>0} ||l (l+A)^{-1}||,     L_A = sup_{l>0} ||A (l+A)^{-1}||.

Supported kinds: diagonal, dense, torus_laplacian, shifted, inverse and
frac_power (real exponent). A handle with eigen-data acts by multipliers; a
handle without is its matrix, which the composite kinds compute at
construction (base + eps I, the inverse of the base, and the Balakrishnan
power of the base), and solves through one complex Schur factorization
A = Z T Z^H, computed with numpy alone (:func:`_complex_schur`); a shifted
handle takes its base's factor with the shift on the diagonal. Its
triangular form (:meth:`OperatorHandle._triangular`) is the handle on T,
where shifted solves are back-substitutions with no Z product; the
evaluators of :mod:`fracbesov.fractional` compute there. Handles are
immutable after construction (the factors are caches built on first use)
and all operations are pure.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_SEED = 20260810       # the seed of the suite's ensembles and of drawn vectors
_INJECTIVITY_RTOL = 1e-10
_LAMBDA_GRID_POINTS = 61      # of the grid estimates of M_A and L_A
_LEVEL_SET_RTOL = 1e-12       # stop once no test point beats the level by more
_LEVEL_SET_CAP = 60           # iterations before the sup is declared unbounded
_SCHUR_SWEEP_CAP = 30         # QR sweeps per eigenvalue before the Schur factor gives up
_SCHUR_EXCEPTIONAL_EVERY = 10  # sweeps without a deflation between exceptional shifts


# --------------------------------------------------------------------------
# ambient norms
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormKind:
    """Ambient vector norm: euclidean (default), p-norm, or weighted euclidean."""
    kind: str = "euclidean"
    p: Optional[float] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "p", "weighted"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "p" and (self.p is None or self.p <= 0):
            raise ValueError("p-norm needs p > 0")
        if self.kind == "weighted":
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or np.any(w <= 0):
                raise ValueError("weighted norm needs positive weights")
            object.__setattr__(self, "weights", w)

    @property
    def quasi_triangle_constant(self) -> float:
        if self.kind == "p" and self.p < 1:
            return 2.0 ** (1.0 / self.p - 1.0)
        return 1.0


EUCLIDEAN = NormKind()


def vector_norms(rows: np.ndarray, norm: NormKind = EUCLIDEAN) -> np.ndarray:
    """Norms of the rows of ``rows`` (taken along the last axis)."""
    rows = np.asarray(rows)
    if norm.kind == "euclidean":
        return np.linalg.norm(rows, axis=-1)
    a = np.abs(rows)
    if norm.kind == "p":
        if math.isinf(norm.p):
            return a.max(axis=-1, initial=0.0)
        return (a ** norm.p).sum(axis=-1) ** (1.0 / norm.p)
    return np.sqrt((norm.weights * a ** 2).sum(axis=-1))


def vector_norm(x: np.ndarray, norm: NormKind = EUCLIDEAN) -> float:
    return float(vector_norms(np.ravel(x), norm))


def as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=complex)


# --------------------------------------------------------------------------
# spectral data
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectralData:
    """Real eigenvalues plus a unitary diagonalizing transform pair on the last axis."""
    eigenvalues: np.ndarray                      # (n,), real
    to_coeff: Callable[[np.ndarray], np.ndarray]
    from_coeff: Callable[[np.ndarray], np.ndarray]


class SingularResolventError(np.linalg.LinAlgError):
    """(l + A) not solvable for l > 0: the operator is not non-negative."""


# --------------------------------------------------------------------------
# the handle
# --------------------------------------------------------------------------

class OperatorHandle:
    kind: str
    dim: int

    def __init__(self, kind, dim, *, spectral=None, matrix=None, schur=None):
        self.kind = kind
        self.dim = dim
        self.spectral = spectral
        self._matrix = matrix
        self._constants_cache: dict = {}
        self._scale_cache: Optional[tuple[float, float]] = None
        self._singular_values: Optional[np.ndarray] = None
        self._schur_cache: Optional[tuple[np.ndarray, np.ndarray]] = schur
        self._triangular_cache: Optional["OperatorHandle"] = None

    # ---- constructors ----

    @staticmethod
    def diagonal(values) -> "OperatorHandle":
        eig = np.asarray(values, dtype=float)
        if eig.ndim != 1 or eig.size < 1:
            raise ValueError("diagonal operator needs a 1-d eigenvalue list")
        if np.any(eig < 0):
            raise ValueError("diagonal entries must be >= 0 for a non-negative operator")
        ident = lambda x: np.asarray(x, dtype=complex)
        sd = SpectralData(eig, ident, ident)
        return OperatorHandle("diagonal", eig.size, spectral=sd)

    @staticmethod
    def dense(matrix) -> "OperatorHandle":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense operator needs a square matrix")
        spectral = None
        scale = np.abs(m).max() or 1.0
        if np.allclose(m, m.conj().T, atol=1e-13 * scale):
            eig, vecs = np.linalg.eigh(m)
            # as diagonal() checks its entries; a kernel eigenvalue comes out
            # of eigh at rounding level on either side of 0
            band = _INJECTIVITY_RTOL * np.abs(eig).max()
            if np.any(eig < -band):
                raise SingularResolventError(
                    "a Hermitian matrix with a negative eigenvalue is not non-negative")
            eig[np.abs(eig) <= band] = 0.0
            to = lambda x: np.asarray(x, dtype=complex) @ vecs.conj()
            fr = lambda c: np.asarray(c, dtype=complex) @ vecs.T
            spectral = SpectralData(eig.astype(float), to, fr)
        return OperatorHandle("dense", m.shape[0], spectral=spectral, matrix=m)

    @staticmethod
    def torus_laplacian(n: int, dims: int = 1) -> "OperatorHandle":
        """Discrete negative Laplacian on the periodic grid {0, 1/n, ..., (n-1)/n}^dims.

        Fourier multipliers 4 n^2 sin^2(pi k / n) per axis (grid-scaled).
        """
        if n < 2:
            raise ValueError("grid size must be >= 2")
        if dims not in (1, 2):
            raise ValueError("only 1-d and 2-d tori are supported")
        k = np.arange(n)
        mult = 4.0 * n * n * np.sin(np.pi * k / n) ** 2
        if dims == 1:
            eig = mult
            to = lambda x: np.fft.fft(np.asarray(x, dtype=complex), norm="ortho", axis=-1)
            fr = lambda c: np.fft.ifft(np.asarray(c, dtype=complex), norm="ortho", axis=-1)
            return OperatorHandle("torus_laplacian", n, spectral=SpectralData(eig, to, fr))
        eig = (mult[:, None] + mult[None, :]).ravel()

        def to2(x):
            x = np.asarray(x, dtype=complex)
            shp = x.shape[:-1] + (n, n)
            return np.fft.fft2(x.reshape(shp), norm="ortho").reshape(x.shape)

        def fr2(c):
            c = np.asarray(c, dtype=complex)
            shp = c.shape[:-1] + (n, n)
            return np.fft.ifft2(c.reshape(shp), norm="ortho").reshape(c.shape)

        return OperatorHandle("torus_laplacian", n * n, spectral=SpectralData(eig, to2, fr2))

    @staticmethod
    def shifted(base: "OperatorHandle", eps: float) -> "OperatorHandle":
        if eps < 0:
            raise ValueError("shift must be >= 0")
        s = base.spectral
        if s is None:
            # base + eps I = Z (T + eps I) Z^H: the base's factor serves
            shift = float(eps) * np.eye(base.dim)
            z, t = base._schur()
            return OperatorHandle("shifted", base.dim, matrix=base.matrix() + shift,
                                  schur=(z, t + shift))
        spectral = SpectralData(s.eigenvalues + eps, s.to_coeff, s.from_coeff)
        return OperatorHandle("shifted", base.dim, spectral=spectral)

    @staticmethod
    def inverse(base: "OperatorHandle") -> "OperatorHandle":
        if not base.injective():
            raise ValueError("inverse(...) requires an injective base operator")
        s = base.spectral
        if s is None:
            return OperatorHandle("inverse", base.dim, matrix=np.linalg.inv(base.matrix()))
        spectral = SpectralData(1.0 / s.eigenvalues, s.to_coeff, s.from_coeff)
        return OperatorHandle("inverse", base.dim, spectral=spectral)

    @staticmethod
    def frac_power(base: "OperatorHandle", exponent: float) -> "OperatorHandle":
        exponent = float(exponent)
        if exponent <= 0:
            raise ValueError("frac_power handle needs a positive real exponent")
        s = base.spectral
        if s is None:
            # Balakrishnan, not the contour: it also serves singular bases.
            # Local import: fractional builds on this module. Rows of the
            # block are the images of the basis vectors.
            from .fractional import frac_power
            power = frac_power(base, exponent, np.eye(base.dim, dtype=complex)).T
            return OperatorHandle("frac_power", base.dim, matrix=power)
        eig = np.where(s.eigenvalues > 0, s.eigenvalues, 0.0) ** exponent
        spectral = SpectralData(eig, s.to_coeff, s.from_coeff)
        return OperatorHandle("frac_power", base.dim, spectral=spectral)

    # ---- core actions ----

    def apply(self, x) -> np.ndarray:
        """A x. Exact multiplier action for spectral kinds, matvec otherwise."""
        x = as_array(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator dim {self.dim}, vector dim {x.shape[-1]}")
        s = self.spectral
        if s is not None:
            return s.from_coeff(s.to_coeff(x) * s.eigenvalues)
        return x @ self.matrix().T

    def l_compose_batch(self, lams: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per-row A (lam_i + A)^{-1} row_i for lam_i > 0, computed without the
        cancellation of the identity-decomposition form x - lam (lam+A)^{-1} x."""
        s = self.spectral
        if s is None:
            return self.apply(self.resolvent_batch(lams, rows))
        lams, rows = self._checked_shifts(lams, rows)
        denom = lams[:, None] + s.eigenvalues[None, :]
        return s.from_coeff(s.to_coeff(rows) * (s.eigenvalues[None, :] / denom))

    def resolvent(self, lam: float, x) -> np.ndarray:
        """(lam + A)^{-1} x for lam > 0."""
        return self.resolvent_many(np.asarray([lam], dtype=float), x)[0]

    def resolvent_many(self, lams: np.ndarray, x) -> np.ndarray:
        """Batched shifted solves: rows (lam_i + A)^{-1} x."""
        lams = np.asarray(lams, dtype=float)
        x = as_array(x)
        return self.resolvent_batch(lams, np.tile(x, (len(lams), 1)))

    def resolvent_batch(self, lams: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per-row shifted solves: row_i -> (lam_i + A)^{-1} row_i.

        Multipliers for spectral kinds; otherwise one back-substitution over
        the batch on the cached Schur factor (see :meth:`_schur`)."""
        lams, rows = self._checked_shifts(lams, rows)
        s = self.spectral
        if s is not None:
            denom = lams[:, None] + s.eigenvalues[None, :]
            if np.any(denom == 0):
                raise SingularResolventError("lam in the spectrum of -A")
            return s.from_coeff(s.to_coeff(rows) / denom)
        return self._schur_solve(lams, rows)

    def _checked_shifts(self, lams, rows) -> tuple[np.ndarray, np.ndarray]:
        """(lams, rows) as arrays, once rows is (len(lams), dim) and every lam is > 0."""
        lams = np.asarray(lams, dtype=float)
        rows = np.asarray(rows, dtype=complex)
        if rows.shape != (len(lams), self.dim):
            raise ValueError("rows must be (len(lams), dim)")
        if np.any(lams <= 0):
            raise ValueError("resolvent is defined here for lam > 0 only")
        return lams, rows

    def _schur_solve(self, shifts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per-row row_i -> (shift_i + A)^{-1} row_i for real or complex
        shifts: (shift + A)^{-1} = Z (shift + T)^{-1} Z^H, one back-substitution
        on the shifted triangular factor for all rows at once. The
        substitution runs on the transposed batch, one contiguous row per
        component; on a handle in Schur coordinates (:meth:`_triangular`)
        Z is the identity and neither product is taken."""
        z, t = self._schur()
        pivots = shifts[None, :] + np.diag(t)[:, None]
        if np.any(pivots == 0):
            raise SingularResolventError("shifted solve failed: operator not non-negative?")
        schur_coordinates = self._triangular_cache is self
        c = rows.T if schur_coordinates else z.conj().T @ rows.T
        w = np.empty(c.shape, dtype=complex)
        for j in range(self.dim - 1, -1, -1):
            w[j] = (c[j] - t[j, j + 1:] @ w[j + 1:]) / pivots[j]
        return w.T if schur_coordinates else (z @ w).T

    # ---- derived data ----

    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur factors (Z, T) of the matrix, A = Z T Z^H with Z
        unitary and T upper triangular (:func:`_complex_schur`); computed
        once per handle."""
        if self._schur_cache is None:
            self._schur_cache = _complex_schur(self.matrix())
        return self._schur_cache

    def _triangular(self) -> "OperatorHandle":
        """The handle on the triangular Schur factor T of A = Z T Z^H, whose
        own Schur factor is (I, T): the operator in Schur coordinates, where
        x maps to x Z^* (rows) and back by y Z^T. Built once per handle, it
        shares the singular values (Z is unitary), so its scales and
        injectivity are those of A."""
        if self._triangular_cache is None:
            _, t = self._schur()
            tri = OperatorHandle("triangular", self.dim, matrix=t,
                                 schur=(np.eye(self.dim, dtype=complex), t))
            tri._singular_values = self._spectral_magnitudes()
            tri._triangular_cache = tri
            self._triangular_cache = tri
        return self._triangular_cache

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            # only handles with eigen-data come without a matrix; rows of
            # the result are the images of the basis vectors
            self._matrix = self.apply(np.eye(self.dim, dtype=complex)).T
        return self._matrix

    def _spectral_magnitudes(self) -> np.ndarray:
        """|eigenvalues| for spectral kinds, singular values (computed once) otherwise."""
        if self.spectral is not None:
            return np.abs(self.spectral.eigenvalues)
        if self._singular_values is None:
            self._singular_values = np.linalg.svd(self.matrix(), compute_uv=False)
        return self._singular_values

    def scales(self) -> tuple[float, float]:
        """(smallest nonzero spectral scale, largest spectral scale) estimates."""
        if self._scale_cache is None:
            mags = self._spectral_magnitudes()
            hi = float(mags.max()) or 1.0
            nz = mags[mags > _INJECTIVITY_RTOL * hi]
            lo = float(nz.min()) if nz.size else hi
            self._scale_cache = (lo, hi)
        return self._scale_cache

    def injective(self) -> bool:
        mags = self._spectral_magnitudes()
        return bool(mags.min() > _INJECTIVITY_RTOL * max(mags.max(), 1e-300))

    def constants(self, norm: NormKind = EUCLIDEAN) -> tuple[float, float]:
        """(M_A, L_A), once per norm: (1, 1) for eigen-data with eigenvalues
        >= 0 in the euclidean norm; else the sups (:func:`_euclidean_constants`)
        in the euclidean, weighted and p = 2 norms, and grid (lower) estimates
        for p in {1, inf}, all raising when A is not non-negative."""
        key = (norm.kind, norm.p, None if norm.weights is None else norm.weights.tobytes())
        if key not in self._constants_cache:
            if self.spectral is not None and norm.kind == "euclidean" \
                    and np.all(self.spectral.eigenvalues >= 0):
                self._constants_cache[key] = (1.0, 1.0)
            elif norm.kind == "p" and norm.p != 2:
                _nonnegative_kernel(self.matrix())
                est = estimate_nonnegativity_constants(self, norm=norm)
                self._constants_cache[key] = (est.M, est.L)
            else:   # weights D: the similarity D^{1/2} A D^{-1/2} makes the norm euclidean
                d = np.sqrt(norm.weights) if norm.kind == "weighted" else np.ones(self.dim)
                b = (d[:, None] * self.matrix()) / d[None, :]
                self._constants_cache[key] = _euclidean_constants(b)
        return self._constants_cache[key]

    def __repr__(self):
        return f"OperatorHandle(kind={self.kind!r}, dim={self.dim})"


def _complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur factors (Z, T) of the square matrix ``a``: A = Z T Z^H,
    Z unitary, T upper triangular, with numpy alone.

    Z starts as the unitary QR factor of the eigenvectors, so T = Z^H A Z is
    upper triangular up to rounding magnified by the eigenvectors'
    condition. Rows deflate from the last one up: row k deflates once the
    norm of its part below the diagonal is at most n eps ||A||_F. Until it
    does, Wilkinson-shifted QR sweeps run on the leading (k+1) x (k+1)
    block, updating Z and the block's coupling to the deflated rows, with an
    exceptional shift after every _SCHUR_EXCEPTIONAL_EVERY sweeps without a
    deflation. Well-conditioned eigenvectors, as of every upper-triangular
    matrix, need no sweep; defective or nearly defective matrices do. Past
    _SCHUR_SWEEP_CAP sweeps per eigenvalue it raises LinAlgError rather than
    return an unconverged factor. The deflated parts below the diagonal are
    then set to zero, a backward error of at most n^1.5 eps ||A||_F."""
    a = np.asarray(a, dtype=complex)
    n = len(a)
    tol = n * np.finfo(float).eps * np.linalg.norm(a)
    z = np.linalg.qr(np.linalg.eig(a)[1])[0]
    t = z.conj().T @ a @ z
    k = n - 1 if np.linalg.norm(np.tril(t, -1)) > tol else 0
    sweeps = stall = 0
    while k > 0:
        if np.linalg.norm(t[k, :k]) <= tol:
            k, stall = k - 1, 0
            continue
        if sweeps == _SCHUR_SWEEP_CAP * n:
            raise np.linalg.LinAlgError(f"Schur factor: no convergence in {sweeps} QR sweeps")
        sweeps, stall = sweeps + 1, stall + 1
        if stall % _SCHUR_EXCEPTIONAL_EVERY == 0:
            shift = t[k, k] + 0.75 * np.linalg.norm(t[k, :k])
        else:   # the eigenvalue of the trailing 2 x 2 nearer t[k, k]
            p, q, r, s = (complex(v) for v in t[k - 1:k + 1, k - 1:k + 1].ravel())
            h = 0.5 * (p - s)
            d = cmath.sqrt(h * h + q * r)
            den = h + d if abs(h + d) >= abs(h - d) else h - d
            shift = s - q * r / den if den else s
        m = k + 1
        eye = np.eye(m)
        qm, rm = np.linalg.qr(t[:m, :m] - shift * eye)
        t[:m, :m] = rm @ qm + shift * eye
        t[:m, m:] = qm.conj().T @ t[:m, m:]
        z[:, :m] = z[:, :m] @ qm
    return z, np.triu(t)


# --------------------------------------------------------------------------
# non-negativity constants
# --------------------------------------------------------------------------

def _induced_norms(mats: np.ndarray, norm: NormKind) -> np.ndarray:
    """Exact induced norms of a stack (..., n, n): the largest singular value
    for euclidean, weighted and p = 2 norms, column/row sums for p in {1, inf}.

    The largest singular value is the square root of the top eigenvalue of
    the Gram matrix M^H M, once M is scaled by a power of two that brings its
    largest entry into [1, 2), so that the squares neither overflow nor
    underflow; the scaling and its undoing are exact."""
    if norm.kind in ("euclidean", "weighted") or norm.p == 2:
        if norm.kind == "weighted":
            d = np.sqrt(norm.weights)
            mats = (d[:, None] * mats) / d[None, :]
        up = np.ldexp(1.0, np.minimum(1 - np.frexp(np.abs(mats).max(axis=(-2, -1)))[1], 1023))
        m = mats * up[..., None, None]
        top = np.linalg.eigvalsh(m.conj().swapaxes(-2, -1) @ m)[..., -1]
        return np.sqrt(np.maximum(top, 0.0)) / up
    if norm.p == 1:
        return np.abs(mats).sum(axis=-2).max(axis=-1)
    if math.isinf(norm.p):
        return np.abs(mats).sum(axis=-1).max(axis=-1)
    raise NotImplementedError("induced norms support euclidean, weighted and p in {1, 2, inf}")


@dataclass
class ConstantsEstimate:
    M: float
    L: float
    diverging: bool


def default_lambda_grid(handle: OperatorHandle) -> np.ndarray:
    _, hi = handle.scales()
    return np.geomspace(1e-6 * hi, 1e6 * hi, _LAMBDA_GRID_POINTS)


def estimate_nonnegativity_constants(
    handle: OperatorHandle,
    lam_grid: Optional[np.ndarray] = None,
    norm: NormKind = EUCLIDEAN,
) -> ConstantsEstimate:
    """Grid estimates of M_A and L_A over log-spaced lambda: lower estimates
    of the sups that :meth:`OperatorHandle.constants` computes in the
    euclidean and weighted norms.

    The induced norms are exact at every grid point: one batched shifted
    solve over the whole grid, then the top eigenvalue of each Gram matrix
    (euclidean, weighted; :func:`_induced_norms`) or column/row sums
    (p in {1, inf}). Divergence (values still growing at the grid
    endpoints) signals that the operator is not non-negative; it is reported
    via the ``diverging`` flag, never clamped.
    """
    if lam_grid is None:
        lam_grid = default_lambda_grid(handle)
    lam_grid = np.asarray(lam_grid, dtype=float)
    n = handle.dim       # rows (lam+A)^{-1} e_i: (n, n) blocks are transposed resolvents
    res = handle.resolvent_batch(np.repeat(lam_grid, n),
                                 np.tile(np.eye(n, dtype=complex), (len(lam_grid), 1)))
    m_vals = lam_grid * _induced_norms(res.reshape(-1, n, n).transpose(0, 2, 1), norm)
    l_vals = _induced_norms(handle.apply(res).reshape(-1, n, n).transpose(0, 2, 1), norm)
    i_m, i_l = int(np.argmax(m_vals)), int(np.argmax(l_vals))
    # boundary limits the grid cannot attain: lam (lam+A)^{-1} -> I as
    # lam -> inf, and A (lam+A)^{-1} -> I as lam -> 0 for injective A
    m_best = max(float(m_vals[i_m]), 1.0)
    l_best = max(float(l_vals[i_l]), 1.0 if handle.injective() else 0.0)
    edge = (i_m in (0, len(lam_grid) - 1) and m_vals[i_m] > 1.5 * np.median(m_vals)) or \
           (i_l in (0, len(lam_grid) - 1) and l_vals[i_l] > 1.5 * np.median(l_vals))
    return ConstantsEstimate(m_best, l_best, bool(edge))


def _nonnegative_kernel(b: np.ndarray) -> tuple[float, float]:
    """(||b||, ||P||) in the euclidean norm, P the projection onto ker b along
    ran b; raises SingularResolventError for an eigenvalue on (-inf, 0) or a
    defective eigenvalue 0, where b is non-negative in no norm."""
    u, sv, vh = np.linalg.svd(b)
    tol = _INJECTIVITY_RTOL * sv[0]
    eigs = np.linalg.eigvals(b)
    if np.any((np.abs(eigs.imag) <= tol) & (eigs.real < -tol)):
        raise SingularResolventError("an eigenvalue lies on (-inf, 0): not non-negative")
    rank = int(np.sum(sv > tol))
    # P = V0 (U0^H V0)^{-1} U0^H on the null singular vectors, so ||P|| = 1 / s_min(U0^H V0)
    s_min = np.min(np.linalg.svd(u[:, rank:].conj().T @ vh[rank:].conj().T, compute_uv=False),
                   initial=1.0)
    if s_min <= _INJECTIVITY_RTOL:
        raise SingularResolventError("eigenvalue 0 is defective: not non-negative")
    return float(sv[0]), 1.0 / s_min


def _euclidean_constants(b: np.ndarray) -> tuple[float, float]:
    """(M, L) of the matrix ``b`` in the euclidean norm, to _LEVEL_SET_RTOL.

    ||l (l+B)^{-1}|| meets a level g where (l+B) w = (l/g) v, (l+B)^H v = (l/g) w;
    ||B (l+B)^{-1}|| where l w = s p - B w, l p = B^H B w / (g^2 s) - B^H p
    (p = (l+B) w / s, s = ||B|| / g). Such l are the real eigenvalues of a
    2n x 2n matrix: the level sets of Boyd & Balakrishnan and Bruinsma &
    Steinbuch (Systems & Control Letters 15 and 14, 1990). Both sups start
    from their limits as l -> 0, ||P|| = ||I - P|| with P the projection onto
    ker B along ran B (1 for injective B). Raises SingularResolventError for
    an eigenvalue on (-inf, 0), a defective eigenvalue 0 or no convergence."""
    norm_b, norm_p = _nonnegative_kernel(b)
    tol = _INJECTIVITY_RTOL * norm_b
    bh, scale, eye = b.conj().T, norm_b or 1.0, np.eye(len(b))

    def level_set_sup(norms, level_matrix):
        # raise the level to the largest norm between consecutive roots and beyond the
        # end roots; near-real roots count (a spurious one only adds a test point)
        gam = norm_p
        for _ in range(_LEVEL_SET_CAP):
            eig = np.linalg.eigvals(level_matrix(max(gam, 1.0 + _LEVEL_SET_RTOL)))  # M needs g > 1
            roots = np.sort(eig.real[(eig.real > tol) & (np.abs(eig.imag) <= 1e-2 * eig.real)])
            tests = np.concatenate([roots[:1] / 2, np.sqrt(roots[1:] * roots[:-1]), roots[-1:] * 2])
            best = np.max(norms(np.linalg.inv(tests[:, None, None] * eye + b), tests), initial=0.0)
            if best <= gam * (1.0 + _LEVEL_SET_RTOL):     # no roots, or none beats the level
                return float(gam)
            gam = best
        raise SingularResolventError("the level-set iteration did not settle: not non-negative?")

    return (level_set_sup(lambda res, lams: lams * np.linalg.norm(res, 2, axis=(-2, -1)),
                          lambda g: np.block([[b, bh / g], [b / g, bh]]) / (g ** -2 - 1.0)),
            level_set_sup(lambda res, lams: np.linalg.norm(b @ res, 2, axis=(-2, -1)),
                          lambda g: np.block([[-b, scale / g * eye], [bh @ b / (g * scale), -bh]])))


# --------------------------------------------------------------------------
# plain-text operator grammar
# --------------------------------------------------------------------------

_CALL_RE = re.compile(r"^\s*(shifted|inverse|frac_power)\s*\((.*)\)\s*$", re.S)
_LEAF_RE = re.compile(r"^\s*(diagonal|dense|torus_laplacian)\s*(.*)$", re.S)


def _split_top_level(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def build_operator(spec: str) -> OperatorHandle:
    """Parse a plain-text operator description.

    Examples: "diagonal [1,2,4]", "torus_laplacian n=16",
    "torus_laplacian n=8 dims=2", "dense [[2,1],[0,3]]",
    "inverse(diagonal [1,2,4])", "shifted(diagonal [1,4], eps=1)",
    "frac_power(torus_laplacian n=64, 0.5)".
    """
    call = _CALL_RE.match(spec)
    if call:
        name, body = call.group(1), call.group(2)
        args = _split_top_level(body)
        if not args:
            raise ValueError(f"{name}(...) needs arguments")
        base = build_operator(args[0])
        if name == "inverse":
            if len(args) != 1:
                raise ValueError("inverse(...) takes exactly one operator argument")
            return OperatorHandle.inverse(base)
        if len(args) != 2:
            raise ValueError(f"{name}(...) takes an operator and one parameter")
        parm = args[1]
        value = float(parm.split("=", 1)[1] if "=" in parm else parm)
        if name == "shifted":
            return OperatorHandle.shifted(base, value)
        return OperatorHandle.frac_power(base, value)

    leaf = _LEAF_RE.match(spec)
    if not leaf:
        raise ValueError(f"unknown operator kind in {spec!r}")
    name, rest = leaf.group(1), leaf.group(2).strip()
    if name == "diagonal":
        try:
            values = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise ValueError(f"diagonal needs a JSON list, got {rest!r}") from exc
        return OperatorHandle.diagonal(values)
    if name == "dense":
        try:
            values = json.loads(rest)
        except json.JSONDecodeError as exc:
            raise ValueError(f"dense needs a JSON matrix, got {rest!r}") from exc
        return OperatorHandle.dense(values)
    kv = dict(re.findall(r"(\w+)\s*=\s*([\w.+-]+)", rest))
    unknown = set(kv) - {"n", "dims"}
    if unknown:
        raise ValueError(f"unknown torus_laplacian parameters {sorted(unknown)}")
    if "n" not in kv:
        raise ValueError("torus_laplacian needs n=<grid size>")
    return OperatorHandle.torus_laplacian(int(kv["n"]), int(kv.get("dims", 1)))
