"""Dense complex linear algebra for 4x4 Hermitian problems.

Everything downstream works in the fixed product basis
{|1,1>, |1,0>, |0,1>, |0,0>} (index 0..3), so the only solver needed is a
cyclic Jacobi eigensolver for 4x4 Hermitian matrices.  Keeping the solver
in-package (rather than calling out to LAPACK) makes the spectral route a
genuinely independent cross-check of the closed-form spectrum.

Every function takes one 4x4 matrix or a (..., 4, 4) stack of them.  The
Jacobi rotations run over the whole stack at once, but each matrix keeps its
own convergence test, so a matrix gets the same result alone as inside any
stack.  Errors name the index of the first offending matrix in a stack.
"""

from __future__ import annotations

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
    dtype=complex,
)


class XxzentError(Exception):
    """Mixin base of every xxzent error; exit_code is the CLI exit status for it.

    Each error also keeps a builtin base (ValueError, RuntimeError or
    OverflowError), so callers may catch either.
    """

    exit_code = 1


class NonHermitianError(XxzentError, ValueError):
    """Input matrix is not Hermitian within HERMITICITY_TOL."""


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
    """Complex (N, 4, 4) copy of a 4x4 matrix or (..., 4, 4) stack, and its leading shape."""
    m = np.array(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a (..., 4, 4) stack, got shape {m.shape}")
    return m.reshape(-1, 4, 4), m.shape[:-2]


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
    m = np.asarray(m, dtype=complex)
    defect = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part of each matrix of an (N, 4, 4) stack."""
    return np.sqrt((np.abs(a[:, _OFF_DIAGONAL]) ** 2).sum(axis=-1))


def _rotation(gamma, app, aqq, needed):
    """Jacobi rotation (c, s, phase) zeroing the coupling gamma of a 2x2 block.

    Phase out gamma, then rotate by the classic angle choice
    t = sign(tau)/(|tau| + sqrt(1+tau^2)) for the phased real block with
    diagonal (app, aqq).  Where `needed` is False the rotation is the exact
    identity c = 1, s = 0, phase = 1.
    """
    r = np.where(needed, np.abs(gamma), 1.0)
    phase = np.where(needed, gamma / r, 1.0)
    tau = (aqq - app) / (2.0 * r)
    t = np.where(needed, np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau), 0.0)
    c = 1.0 / np.hypot(1.0, t)
    return c, t * c, phase


def hermitian_eigen(matrix: np.ndarray) -> EigenSystem:
    """Full eigensystem of 4x4 Hermitian matrices by cyclic Jacobi rotations.

    For one matrix, values has shape (4,) and vectors (4, 4); a stack adds
    its leading shape to both.  Raises ValueError for any other shape,
    NonHermitianError if a matrix fails the Hermiticity check and
    NoConvergenceError if a matrix's off-diagonal norm has not dropped below
    OFF_DIAGONAL_TOL within MAX_SWEEPS sweeps.
    """
    m, lead = _stack(matrix)
    defect = hermiticity_defect(m)
    bad = np.flatnonzero(defect > HERMITICITY_TOL)
    if bad.size:
        raise NonHermitianError(
            f"{_which(lead, bad[0])} is not Hermitian: max asymmetry "
            f"{defect[bad[0]]:.3e} > {HERMITICITY_TOL:.0e}"
        )
    # Rows 0-3 of each 8x4 block hold a, rows 4-7 the accumulated
    # eigenvectors v: a column rotation a <- a u, v <- v u is one update.
    av = np.concatenate(
        [(m + m.conj().swapaxes(-1, -2)) / 2.0, np.broadcast_to(np.eye(4), m.shape)], axis=1
    )
    active = np.arange(len(av))  # matrices still above the off-diagonal tolerance
    for _ in range(MAX_SWEEPS):
        active = active[_off_norm(av[active, :4]) > OFF_DIAGONAL_TOL]
        if not active.size:
            break
        w = av[active]
        for p, q in _ROUNDS:
            gamma = w[:, p, q]
            c, s, phase = _rotation(gamma, w[:, p, p].real, w[:, q, q].real, gamma != 0.0)
            # a <- adj(u) a u and v <- v u, for the unitary u equal to the
            # identity except u[p,p] = c, u[p,q] = s, u[q,p] = -s conj(phase)
            # and u[q,q] = c conj(phase), per plane.  Columns first, then rows;
            # the fancy-indexed slices are copies.
            s_phase, c_phase = s * phase, c * phase
            col_p, col_q = w[:, :, p], w[:, :, q]
            w[:, :, p] = c[:, None] * col_p - s_phase.conj()[:, None] * col_q
            w[:, :, q] = s[:, None] * col_p + c_phase.conj()[:, None] * col_q
            row_p, row_q = w[:, p, :], w[:, q, :]
            w[:, p, :] = c[..., None] * row_p - s_phase[..., None] * row_q
            w[:, q, :] = s[..., None] * row_p + c_phase[..., None] * row_q
        av[active] = w
    else:
        raise NoConvergenceError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps "
            f"({_which(lead, active[0])}, off-diagonal norm "
            f"{_off_norm(av[active[:1], :4])[0]:.3e})"
        )
    diag = np.diagonal(av[:, :4], axis1=-2, axis2=-1).real
    order = np.argsort(diag, axis=-1, kind="stable")
    values = np.take_along_axis(diag, order, axis=-1)
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
    """Singular values of 4x4 complex matrices, descending along the last axis.

    One-sided Jacobi: rotate column pairs until mutually orthogonal, then the
    singular values are the column norms.  No Gram matrix is ever formed, so
    tiny singular values keep full absolute accuracy instead of the sqrt-of-
    roundoff floor that squaring would impose.  A matrix is done after the
    first sweep that rotates none of its column pairs.
    """
    m, lead = _stack(matrix)
    cols = m.swapaxes(-1, -2).copy()  # cols[:, k] is column k
    active = np.arange(len(cols))  # matrices whose last sweep rotated
    for _ in range(MAX_SWEEPS):
        sub = cols[active]
        rotated = np.zeros(len(active), dtype=bool)
        for p, q in _ROUNDS:
            x, y = sub[:, p], sub[:, q]  # copies, (n, 2, 4)
            app = (x.conj() * x).sum(axis=-1).real
            aqq = (y.conj() * y).sum(axis=-1).real
            apq = (x.conj() * y).sum(axis=-1)
            scale = np.sqrt(app * aqq)
            needed = (scale != 0.0) & (np.abs(apq) > 1e-15 * scale)
            rotated |= needed.any(axis=-1)
            c, s, phase = _rotation(apq, app, aqq, needed)
            c, s, phase = c[..., None], s[..., None], phase[..., None]
            sub[:, p] = c * x - s * phase.conj() * y
            sub[:, q] = s * phase * x + c * y
        cols[active] = sub
        active = active[rotated]
        if not active.size:
            break
    else:
        raise NoConvergenceError(
            f"one-sided Jacobi did not converge in {MAX_SWEEPS} sweeps "
            f"({_which(lead, active[0])})"
        )
    norms = np.sqrt(np.sum(np.abs(cols) ** 2, axis=-1))
    return np.sort(norms, axis=-1)[:, ::-1].reshape(lead + (4,))
