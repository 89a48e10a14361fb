"""Dense real or complex linear algebra for 4x4 Hermitian problems.

Everything downstream works in the fixed product basis
{|1,1>, |1,0>, |0,1>, |0,0>} (index 0..3).  The spectral route's in-package
cyclic Jacobi eigensolver, not LAPACK, makes it an independent cross-check of
the closed-form spectrum.  The Wootters route's SVD is LAPACK's: that route
never reads the closed-form weights, so it stays independent of the X-state kernel.

Every function takes one 4x4 matrix or a (..., 4, 4) stack of them, real or
complex, and computes in that dtype; a non-finite entry is refused.  The
Jacobi rotations run over the whole stack at once, but each matrix keeps its
own convergence test, so a matrix gets the same result alone as inside any
stack.  Errors name the index of the first offending matrix in a stack.  A
matrix far from unit scale is solved divided by a power of two, and its
results scaled back exactly.
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
SPIN_FLIP = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=float,
)


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


# One sweep visits the six rotation planes (p, q) in three rounds of two
# disjoint planes, given as index arrays (p1, p2), (q1, q2).  Rotations in
# disjoint planes commute and neither changes the entries the other is
# computed from, so a round applies both at once.
_ROUNDS = tuple(
    (np.array(p), np.array(q)) for p, q in (((0, 2), (1, 3)), ((0, 1), (2, 3)), ((0, 1), (3, 2)))
)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def _stack(matrix: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Real or complex (N, 4, 4) copy of one 4x4 matrix or a stack, and its leading shape."""
    m = np.asarray(matrix)
    m = np.array(m, dtype=np.result_type(m, float))
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {m.shape}")
    bad = np.flatnonzero(~np.isfinite(m).all(axis=(-2, -1)))
    if bad.size:
        raise ValueError(f"{_which(m.shape[:-2], bad[0])} has a non-finite entry")
    return m.reshape(-1, 4, 4), m.shape[:-2]


def _power_of_two_shift(values, lowest: int, highest: int) -> np.ndarray:
    """The s, per element, that puts max(|value|) / 2**s in [2**lowest, 2**highest)."""
    _, exponent = np.frexp(reduce(np.maximum, map(np.abs, values)))
    return exponent - 1 - np.clip(exponent - 1, lowest, highest - 1)


def _normalized(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack, each matrix over the power of two that brings its largest |entry| into
    [2**-250, 2**250), and the powers, (N, 1): a matrix times 2**k gives a solver the same bits."""
    shift = _power_of_two_shift(m.reshape(-1, 16).T, -250, 250)
    return m * np.ldexp(1.0, -shift)[:, np.newaxis, np.newaxis], np.ldexp(1.0, shift)[:, np.newaxis]


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
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite entry gives a nan defect
        defect = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


def _asymmetric(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity defect of each matrix of a stack, and whether hermitian_eigen refuses it:
    a non-finite entry, or a defect above HERMITICITY_TOL times the largest |entry|."""
    largest = np.abs(m).max(axis=(-2, -1))
    defect = hermiticity_defect(m)
    return defect, ~(defect <= HERMITICITY_TOL * largest) | np.isinf(largest)


def _off_diagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest off-diagonal |entry| and largest |entry| of each matrix of an (N, 4, 4) stack."""
    mag = np.abs(a)
    return mag[:, _OFF_DIAGONAL].max(axis=-1), mag.max(axis=(-2, -1))


def _rotation(p, q, gamma, app, aqq) -> np.ndarray:
    """Unitaries (n, 4, 4) of one round, each zeroing the coupling gamma of its two planes.

    Per plane, phase out gamma, then rotate by the classic angle choice
    t = sign(tau)/(|tau| + sqrt(1+tau^2)) for the phased real block with
    diagonal (app, aqq): u equals the identity except u[p,p] = c, u[p,q] = s,
    u[q,p] = -s conj(phase) and u[q,q] = c conj(phase).  Where gamma is 0
    the plane's rotation is the exact identity c = 1, s = 0, phase = 1.
    """
    needed = gamma != 0.0
    r = np.where(needed, np.abs(gamma), 1.0)
    phase = np.where(needed, gamma / r, 1.0)
    with np.errstate(over="ignore"):  # a coupling tiny beside its gap: tau = +-inf, t = 0
        tau = (aqq - app) / (2.0 * r)
    t = np.where(needed, np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau), 0.0)
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    u = np.zeros((len(c), 4, 4), dtype=phase.dtype)
    u[:, p, p], u[:, p, q] = c, s
    u[:, q, p], u[:, q, q] = -s * phase.conj(), c * phase.conj()
    return u


def hermitian_eigen(matrix: np.ndarray) -> EigenSystem:
    """Full eigensystem of 4x4 Hermitian matrices by cyclic Jacobi rotations.

    For one matrix, values has shape (4,) and vectors (4, 4); a stack adds
    its leading shape to both.  Raises ValueError for any other shape,
    NonHermitianError if a matrix's Hermiticity defect exceeds HERMITICITY_TOL
    times its largest |entry|, and NoConvergenceError if a matrix's largest
    off-diagonal |entry| is still above OFF_DIAGONAL_TOL times its largest
    |entry| after MAX_SWEEPS sweeps; both tests are scale-free.
    """
    m, lead = _stack(matrix)
    defect, refused = _asymmetric(m)
    bad = np.flatnonzero(refused)
    if bad.size:
        raise NonHermitianError(
            f"{_which(lead, bad[0])} is not Hermitian: max asymmetry "
            f"{defect[bad[0]]:.3e} > {HERMITICITY_TOL:.0e} times its largest "
            f"|entry| {np.abs(m[bad[0]]).max():.3e}"
        )
    m, unit = _normalized(m)
    # Rows 0-3 of each 8x4 block hold a, rows 4-7 the accumulated
    # eigenvectors v: a column rotation a <- a u, v <- v u is one product.
    av = np.concatenate(
        [(m + m.conj().swapaxes(-1, -2)) / 2.0, np.broadcast_to(np.eye(4), m.shape)], axis=1
    )
    active = np.arange(len(av))  # matrices still above the off-diagonal tolerance
    for _ in range(MAX_SWEEPS):
        off, largest = _off_diagonal(av[active, :4])
        active = active[off > OFF_DIAGONAL_TOL * largest]  # scale-free, squares nothing
        if not active.size:
            break
        w = av[active]
        for p, q in _ROUNDS:
            gamma = w[:, p, q]
            u = _rotation(p, q, gamma, w[:, p, p].real, w[:, q, q].real)
            w = w @ u  # a <- a u, v <- v u
            w[:, :4] = u.conj().swapaxes(-1, -2) @ w[:, :4]  # a <- adj(u) a
        av[active] = w
    else:
        off, largest = _off_diagonal(av[active[:1], :4])
        raise NoConvergenceError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps "
            f"({_which(lead, active[0])}, largest off-diagonal entry "
            f"{off[0]:.3e} against largest entry {largest[0]:.3e})"
        )
    diag = np.diagonal(av[:, :4], axis1=-2, axis2=-1).real
    order = np.argsort(diag, axis=-1, kind="stable")
    values = np.take_along_axis(diag, order, axis=-1) * unit
    vectors = np.take_along_axis(av[:, 4:], order[:, np.newaxis, :], axis=-1)
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
    roots = np.sqrt(np.clip(values, 0.0, None))
    result = (vectors * roots[..., np.newaxis, :]) @ vectors.conj().swapaxes(-1, -2)
    return (result + result.conj().swapaxes(-1, -2)) / 2.0


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of 4x4 real or complex matrices, descending along the last axis.

    LAPACK's SVD of each matrix over a power of two.  It forms no Gram matrix, so
    tiny singular values keep full absolute accuracy (squaring would floor them).
    """
    m, lead = _stack(matrix)
    m, unit = _normalized(m)
    return (np.linalg.svd(m, compute_uv=False) * unit).reshape(lead + (4,))
