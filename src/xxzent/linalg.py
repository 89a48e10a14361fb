"""Dense real or complex linear algebra for 4x4 Hermitian problems.

Everything downstream works in the fixed product basis {|1,1>, |1,0>, |0,1>, |0,0>}
(index 0..3).  The spectral route's eigensystems and the Wootters route's singular values
are LAPACK's (eigh and the SVD); the closed forms never call LAPACK, so both routes
stay independent cross-checks of them.

Every function takes one 4x4 matrix or a (..., 4, 4) stack of them, real or
complex, and computes in that dtype; a non-finite entry is refused.  LAPACK solves
each matrix on its own, so a matrix gets the same bits alone as inside any stack.
A matrix far from unit scale is solved divided by a power of two, and its results
scaled back exactly.  Refusals are decided here: _judged judges and solves a stack
without raising, and _refuse is the one place that names a first offender and raises.
_spectral_map turns an eigensystem back into a matrix function, for thermal's Gibbs
and Wootters routes.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12

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
    """LAPACK's eigh did not converge (numerics bug, not user error)."""


class EigenSystem(NamedTuple):
    """Eigenvalues ascending; eigenvector column k pairs with eigenvalue k."""

    values: np.ndarray
    vectors: np.ndarray


def _largest(m: np.ndarray) -> np.ndarray:
    """Largest |entry| of each matrix of an (..., 4, 4) stack; nan where an entry is nan."""
    return np.abs(m).max(axis=(-2, -1))


def _stack(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One 4x4 matrix or a (..., 4, 4) stack, real or complex, as an array, and each
    matrix's largest |entry|; a non-finite entry is refused."""
    m = np.asarray(matrix)
    m = m.astype(np.result_type(m, float), copy=False)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {m.shape}")
    largest = _largest(m)
    _refuse(ValueError, ~np.isfinite(largest), "{which} has a non-finite entry")
    return m, largest


def _power_of_two_shift(values, lowest: int, highest: int) -> np.ndarray:
    """The s, per element, that puts max(|value|) / 2**s in [2**lowest, 2**highest)."""
    _, exponent = np.frexp(reduce(np.maximum, map(np.abs, values)))
    return exponent - 1 - np.minimum(np.maximum(exponent - 1, lowest), highest - 1)


def _normalized(largest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix, the power of two 2**-s that brings its largest |entry| into [2**-250, 2**250),
    with two trailing axes, and 2**s with one: a matrix times 2**k gives a solver the same bits."""
    shift = _power_of_two_shift([largest], -250, 250)
    return np.ldexp(1.0, -shift)[..., np.newaxis, np.newaxis], np.ldexp(1.0, shift)[..., np.newaxis]


def _refuse(error, bad, message: str, *columns) -> None:
    """Raise error(message) at the first entry where the mask bad holds, if any: message is
    formatted with each column's entry there, as a float, and with {which}, that entry named
    as a matrix of a stack with leading shape bad.shape ("matrix" if bad is 0-d)."""
    if np.any(bad):
        flat = np.flatnonzero(bad)[0]
        index = tuple(int(i) for i in np.unravel_index(flat, np.shape(bad)))
        which = f"matrix {index[0] if len(index) == 1 else index}" if index else "matrix"
        raise error(message.format(*(float(np.ravel(c)[flat]) for c in columns), which=which))


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """Largest |m[i,j] - conj(m[j,i])| over all entries, per matrix of a stack.

    A float for one matrix, an array of the leading shape for a stack.
    """
    m = np.asarray(m)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite entry gives a nan defect
        defect = np.abs(m - m.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


def _solve(m: np.ndarray, largest: np.ndarray, refused: np.ndarray) -> EigenSystem:
    """Eigensystems of a judged (..., 4, 4) stack: LAPACK's eigh of the exactly Hermitian
    (a + adj(a))/2 of a = m 2**-s, its values times 2**s (+-inf past the double range, quietly).
    The identity stands in for a refused matrix, which may hold a non-finite entry."""
    if np.any(refused):
        m = np.where(refused[..., np.newaxis, np.newaxis], np.eye(4), m)
        largest = np.where(refused, 1.0, largest)
    down, up = _normalized(largest)
    half = m * (0.5 * down)  # scaled before the sum
    try:
        values, vectors = np.linalg.eigh(half + half.conj().swapaxes(-1, -2))
    except np.linalg.LinAlgError as error:
        raise NoConvergenceError(f"LAPACK's eigh failed on shape {m.shape}: {error}") from error
    with np.errstate(over="ignore"):
        return EigenSystem(values * up, vectors)


def _judged(m: np.ndarray, largest=None) -> tuple[np.ndarray, np.ndarray, EigenSystem]:
    """Per matrix of a (..., 4, 4) stack, without raising: its Hermiticity defect, whether it
    is refused (a non-finite entry, or a defect above HERMITICITY_TOL times the largest
    |entry|) and its eigensystem, from one solve; largest is _largest(m), if already known."""
    largest = _largest(m) if largest is None else largest
    defect = hermiticity_defect(m)
    refused = ~(defect <= HERMITICITY_TOL * largest) | np.isinf(largest)
    return defect, refused, _solve(m, largest, refused)


def hermitian_eigen(matrix: np.ndarray) -> EigenSystem:
    """Full eigensystem of 4x4 Hermitian matrices, by LAPACK's eigh.

    For one matrix, values has shape (4,) and vectors (4, 4); a stack adds
    its leading shape to both.  Raises ValueError for any other shape,
    NonHermitianError if a matrix's Hermiticity defect exceeds HERMITICITY_TOL
    times its largest |entry|, and NoConvergenceError if LAPACK fails.  An
    eigenvalue past the double range comes back as +-inf, without a warning.
    """
    m, largest = _stack(matrix)
    defect, refused, system = _judged(m, largest)
    _refuse(NonHermitianError, refused, "{which} is not Hermitian: max asymmetry {:.3e} > "
            f"{HERMITICITY_TOL:.0e} times its largest |entry| {{:.3e}}", defect, largest)
    return system


def _spectral_map(vectors: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Hermitian part of V diag(f) V^H: f of a matrix from its eigenvectors and f(values)."""
    result = (vectors * f[..., np.newaxis, :]) @ vectors.conj().swapaxes(-1, -2)
    return (result + result.conj().swapaxes(-1, -2)) / 2.0


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of 4x4 real or complex matrices, descending along the last axis.

    LAPACK's SVD of each matrix over a power of two.  It forms no Gram matrix, so
    tiny singular values keep full absolute accuracy (squaring would floor them).
    """
    m, largest = _stack(matrix)
    down, up = _normalized(largest)
    return np.linalg.svd(m * down, compute_uv=False) * up
