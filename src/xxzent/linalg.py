"""Dense real or complex linear algebra for 4x4 Hermitian problems.

Everything downstream works in the fixed product basis
{|1,1>, |1,0>, |0,1>, |0,0>} (index 0..3).  The spectral route's in-package
cyclic Jacobi eigensolver, not LAPACK, makes it an independent cross-check of
the closed-form spectrum.  The Wootters route's SVD is LAPACK's: that route
never reads the closed-form weights, so it stays independent of the X-state kernel.

Every function takes one 4x4 matrix or a (..., 4, 4) stack of them, real or
complex, and computes in that dtype; a non-finite entry is refused.  The
Jacobi solver holds the stack as per-entry vectors (entry (i, j) of every
matrix in one row) and turns the two affected rows and columns of each plane
elementwise.  Each matrix keeps its own convergence test, and a plane whose
coupling is 0 leaves its matrix untouched, so a matrix gets the same bits
alone as inside any stack.  Errors name the index of the first offending
matrix in a stack.  A matrix far from unit scale is solved divided by a power
of two, and its results scaled back exactly.  _spectral_map turns an eigensystem
back into a matrix function, for psd_sqrt and thermal's Gibbs and Wootters routes.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12
OFF_DIAGONAL_TOL = 1e-13
MAX_SWEEPS = 100

# sigma_y (x) sigma_y: real, symmetric, involutory spin-flip operator.
SPIN_FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)


class XxzentError(Exception):
    """Mixin base of every xxzent error; exit_code is the CLI exit status for it.

    Each error also keeps a builtin base (ValueError, RuntimeError or
    OverflowError), so callers may catch either.
    """

    exit_code = 1


class NonHermitianError(XxzentError, ValueError):
    """Input matrix is not Hermitian within HERMITICITY_TOL times its largest |entry|."""


class NoConvergenceError(XxzentError, RuntimeError):
    """Jacobi iteration exhausted its sweep budget (numerics bug, not user error)."""


class NotPSDError(XxzentError, ValueError):
    """Matrix has an eigenvalue below -PSD_TOL."""


class EigenSystem(NamedTuple):
    """Eigenvalues ascending; eigenvector column k pairs with eigenvalue k."""

    values: np.ndarray
    vectors: np.ndarray


# The six rotation planes (p, q) of a cyclic sweep, and a sorting network for four values.
_PLANES = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))
_SORT = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))
# Rows of a (32, n) view of the (4, 8, n) stack that hold a's entries above and on the diagonal.
_UPPER = np.array([8, 16, 17, 24, 25, 26])
_DIAGONAL = slice(0, 28, 9)


def _entries(m: np.ndarray) -> np.ndarray:
    """Per-entry vectors (4, 4, ...) of an (..., 4, 4) stack: a reduction over a matrix's
    16 entries then runs along the stack, three times faster than over 16 trailing ones."""
    return np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))


def _largest(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix of an (..., 4, 4) stack; nan where an entry is nan."""
    return np.abs(_entries(m)).reshape((16,) + m.shape[:-2]).max(axis=0)


def _stack(matrix: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Per-entry vectors (4, 4, N) of one 4x4 matrix or a stack, real or complex, its
    leading shape, and each matrix's largest |entry|, (N,); a non-finite entry is refused."""
    m = np.asarray(matrix)
    m = m.astype(np.result_type(m, float), copy=False)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {m.shape}")
    e = _entries(m.reshape(-1, 4, 4))
    largest = np.abs(e).reshape(16, -1).max(axis=0)
    bad = np.flatnonzero(~np.isfinite(largest))
    if bad.size:
        raise ValueError(f"{_which(m.shape[:-2], bad[0])} has a non-finite entry")
    return e, m.shape[:-2], largest


def _power_of_two_shift(values, lowest: int, highest: int) -> np.ndarray:
    """The s, per element, that puts max(|value|) / 2**s in [2**lowest, 2**highest)."""
    _, exponent = np.frexp(reduce(np.maximum, map(np.abs, values)))
    return exponent - 1 - np.minimum(np.maximum(exponent - 1, lowest), highest - 1)


def _normalized(largest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix, the power of two 2**-s that brings its largest |entry| into
    [2**-250, 2**250), and 2**s: a matrix times 2**k gives a solver the same bits."""
    shift = _power_of_two_shift([largest], -250, 250)
    return np.ldexp(1.0, -shift), np.ldexp(1.0, shift)


def _which(lead: tuple[int, ...], flat: int) -> str:
    """Name matrix number `flat` of a stack with leading shape `lead`."""
    if not lead:
        return "matrix"
    index = tuple(int(i) for i in np.unravel_index(flat, lead))
    return f"matrix {index[0] if len(index) == 1 else index}"


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """Largest |m[i,j] - conj(m[j,i])| over all entries, per matrix of a stack.

    A float for one matrix, an array of the leading shape for a stack.
    """
    m = np.asarray(m)
    e = _entries(m)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite entry gives a nan defect
        defect = np.abs(e - e.swapaxes(0, 1).conj()).reshape((16,) + m.shape[:-2]).max(axis=0)
    return float(defect) if m.ndim == 2 else defect


def _asymmetric(m: np.ndarray, largest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity defect of each matrix of a stack, and whether hermitian_eigen refuses it:
    a non-finite entry, or a defect above HERMITICITY_TOL times the largest |entry|."""
    defect = hermiticity_defect(m)
    return defect, ~(defect <= HERMITICITY_TOL * largest) | np.isinf(largest)


def _rotate(w: np.ndarray, p: int, q: int) -> None:
    """Zero the coupling a[p, q] of every matrix of w by one plane rotation, in place.

    w[j, i] is entry (i, j) of a for i < 4 and of its eigenvectors v below; a zero
    coupling gives nan.  With the phase of gamma = a[p, q] out, the classic angle
    t = sign(tau)/(|tau| + sqrt(1 + tau^2)), tau = (aqq - app)/2|gamma|, diagonalizes the
    block (Golub & Van Loan, section 8.5).  Columns p and q of a and v turn, a's rows p
    and q become the conjugates of its columns, and the block takes its exact values.
    """
    gamma = w[q, p]
    r = np.abs(gamma)
    # a coupling tiny beside its gap gives tau or tau^2 = inf and t = 0; a zero one, nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phase = (gamma / r).conj()
        tau = (w[q, q].real - w[p, p].real) / (2.0 * r)
        t = np.copysign(1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), tau)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        app, aqq = w[p, p] - t * r, w[q, q] + t * r
        x, y = w[p], w[q]
        turned = x * s
        x *= c
        x -= y * (s * phase)
        y *= c * phase
        y += turned
    w[:, p], w[:, q] = x[:4].conj(), y[:4].conj()
    w[p, p], w[q, q] = app, aqq
    w[p, q] = w[q, p] = 0.0


def hermitian_eigen(matrix: np.ndarray) -> EigenSystem:
    """Full eigensystem of 4x4 Hermitian matrices by cyclic Jacobi rotations.

    For one matrix, values has shape (4,) and vectors (4, 4); a stack adds
    its leading shape to both.  Raises ValueError for any other shape,
    NonHermitianError if a matrix's Hermiticity defect exceeds HERMITICITY_TOL
    times its largest |entry|, and NoConvergenceError if a matrix's largest
    off-diagonal |entry| is still above OFF_DIAGONAL_TOL times its largest
    |entry| after MAX_SWEEPS sweeps; both tests are scale-free.
    """
    e, lead, largest = _stack(matrix)
    defect, refused = _asymmetric(e.transpose(2, 0, 1), largest)
    bad = np.flatnonzero(refused)
    if bad.size:
        raise NonHermitianError(
            f"{_which(lead, bad[0])} is not Hermitian: max asymmetry "
            f"{defect[bad[0]]:.3e} > {HERMITICITY_TOL:.0e} times its largest "
            f"|entry| {largest[bad[0]]:.3e}"
        )
    n = len(largest)
    down, up = _normalized(largest)
    w = np.empty((4, 8, n), dtype=e.dtype)  # w[j, i]: entry (i, j) of a, then of v
    np.multiply(e.swapaxes(0, 1), 0.5 * down, out=w[:, 4:])  # scaled before the sum
    np.add(w[:, 4:], w[:, 4:].swapaxes(0, 1).conj(), out=w[:, :4])
    w[:, 4:] = np.eye(4)[:, :, np.newaxis]
    del e  # fewer fresh pages for the rotations' temporaries
    entries = w.reshape(32, n)  # a is exactly Hermitian: its upper triangle and diagonal
    active = np.ones(n, dtype=bool)  # above the off-diagonal tolerance at every test
    for sweep in range(MAX_SWEEPS + 1):
        off = np.abs(entries[_UPPER]).max(axis=0)
        largest = np.maximum(off, np.abs(entries[_DIAGONAL]).max(axis=0))
        active &= off > OFF_DIAGONAL_TOL * largest  # scale-free, squares nothing
        if not active.any():
            break
        if sweep == MAX_SWEEPS:
            first = np.flatnonzero(active)[0]
            raise NoConvergenceError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps "
                f"({_which(lead, first)}, largest off-diagonal entry "
                f"{off[first]:.3e} against largest entry {largest[first]:.3e})"
            )
        for p, q in _PLANES:
            coupled = active & (w[q, p] != 0.0)
            if coupled.any():
                kept = np.flatnonzero(~coupled)  # left as they are, bit for bit
                saved = np.take(w, kept, axis=2)
                _rotate(w, p, q)
                w[..., kept] = saved
    values, vectors = entries[_DIAGONAL].real.copy(), w[:, 4:]
    for j, k in _SORT:  # a compare-exchange: columns j and k swap where j holds more
        swap = values[j] > values[k]
        for pairs in (values, vectors):
            pairs[[j, k]] = np.where(swap, pairs[[k, j]], pairs[[j, k]])
    values, vectors = values.T * up[:, np.newaxis], vectors.transpose(2, 1, 0)
    return EigenSystem(values.reshape(lead + (4,)), vectors.reshape(lead + (4, 4)))


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root R with R @ R = matrix, per matrix of a stack.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero; anything more negative
    raises NotPSDError.
    """
    values, vectors = hermitian_eigen(matrix)
    lowest = values[..., 0]
    bad = np.flatnonzero(lowest < -PSD_TOL)
    if bad.size:
        raise NotPSDError(
            f"{_which(lowest.shape, bad[0])} is not positive semidefinite: "
            f"min eigenvalue {lowest.flat[bad[0]]:.3e}"
        )
    return _spectral_map(vectors, np.sqrt(np.clip(values, 0.0, None)))


def _spectral_map(vectors: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Hermitian part of V diag(f) V^H: f of a matrix from its eigenvectors and f(values)."""
    result = (vectors * f[..., np.newaxis, :]) @ vectors.conj().swapaxes(-1, -2)
    return (result + result.conj().swapaxes(-1, -2)) / 2.0


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of 4x4 real or complex matrices, descending along the last axis.

    LAPACK's SVD of each matrix over a power of two.  It forms no Gram matrix, so
    tiny singular values keep full absolute accuracy (squaring would floor them).
    """
    e, lead, largest = _stack(matrix)
    down, up = _normalized(largest)
    sigma = np.linalg.svd((e * down).transpose(2, 0, 1), compute_uv=False)
    return (sigma * up[:, np.newaxis]).reshape(lead + (4,))
