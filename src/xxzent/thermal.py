"""Gibbs states of the spin pair and their concurrence.

Two independent density-matrix routes (closed form vs spectral decomposition
through the Jacobi solver) and two concurrence routes (generic Wootters vs
the X-state shortcut) cross-validate each other.  A scalar sign function g
decides concurrence positivity analytically and drives the root finders:

    |rho_23| * Z = exp(Jz/2T) * |J| * sinh(eta/T) / eta
    sqrt(rho_11 rho_44) * Z = exp(-Jz/2T)        (since E1 + E2 = Jz)

so concurrence > 0  iff  g = exp(Jz/T) * (|J|/eta) * sinh(eta/T) - 1 > 0,
independent of the uniform field B.

Each route is one function that broadcasts over parameter arrays or
(..., 4, 4) stacks of density matrices; a single point or state is the 0-d
case (a concurrence then comes back as a numpy scalar).  The guarded
functions (gibbs_closed, gibbs_spectral, thermal_concurrence and the scalar
gibbs_diagnostics) refuse what model._check_params refuses, the temperature
guard included; concurrence_values and log_sign_values are unguarded.  Every
route forms only shifted weights exp(-(E_k - E_min)/T) <= 1, so no weight
can overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    SPIN_FLIP,
    NotPSDError,
    XxzentError,
    hermitian_eigen,
    hermiticity_defect,
    psd_sqrt,
    singular_values,
)
from .model import (
    _check_params,
    _energies,
    build_hamiltonian,
)

# Largest disagreement accepted between two routes to the same quantity
# (spectrum, Gibbs state, concurrence).
ROUTE_TOL = 1e-10
DENSITY_TOL = 1e-12
XSTATE_TOL = 1e-12
_TINY = np.finfo(float).tiny

METHOD_XSTATE = "xstate-shortcut"

# Entries an X state may hold: the diagonal and the central coherence.
_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True


class InvalidDensityMatrixError(XxzentError, ValueError):
    """Input fails the Hermitian / unit-trace / PSD density-matrix checks."""


class NotXStateError(XxzentError, ValueError):
    """Matrix entries outside the X-state sparsity pattern."""


def _weights(J, Jz, B, b, T):
    """Shifted Boltzmann weights exp(-(E_k - E_min)/T) of the closed energies; broadcasts.

    Returns (emin, eta, (w1, w2, w3, w4)) in the closed-form energy labels:
    (w1, w2) for the outer product states, (w3, w4) for the inner pair with
    E3 <= E4; a weight whose exponent passes the double range is 0.  Unguarded.
    """
    energies, eta = _energies(J, Jz, B, b)
    e1, e2, e3, _ = energies
    emin = np.minimum(np.minimum(e1, e2), e3)
    with np.errstate(over="ignore"):
        return emin, eta, tuple(np.exp(-(e - emin) / T) for e in energies)


def _coherence(J, eta, w3, w4):
    """|rho_23| times the shifted partition sum; zero at eta = 0 (J = b = 0)."""
    safe = np.where(eta > 0.0, eta, 1.0)
    return np.where(eta > 0.0, np.abs(J) * (w3 - w4) / safe / 2.0, 0.0)


def _x_concurrence(coh, corner, norm):
    """X-state concurrence 2 (coh - corner) / norm, clipped to [0, 1]."""
    return np.minimum(np.maximum(0.0, 2.0 * (coh - corner) / norm), 1.0)


def _x_roots(coh, corner, inner, norm):
    """X-state Wootters roots, descending along a new last axis, divided by norm.

    coh = |rho_23|, corner = sqrt(rho_11 rho_44) and inner =
    sqrt(rho_22 rho_33), all times norm.
    """
    roots = np.stack(
        np.broadcast_arrays(inner + coh, np.maximum(inner - coh, 0.0), corner, corner),
        axis=-1,
    )
    return np.sort(roots, axis=-1)[..., ::-1] / np.asarray(norm)[..., np.newaxis]


def concurrence_values(J, Jz, B, b, T) -> np.ndarray:
    """Thermal concurrence via the X-state closed form; broadcasts over arrays.

    Total for any finite parameters with T > 0 (J = 0 gives a diagonal Gibbs
    state and hence zero).  This is the kernel behind grid sweeps; it applies
    no guard (see thermal_concurrence for the guarded function).
    """
    _, eta, (w1, w2, w3, w4) = _weights(J, Jz, B, b, T)
    zs = w1 + w2 + w3 + w4
    return _x_concurrence(_coherence(J, eta, w3, w4), np.sqrt(w1 * w2), zs)


def thermal_concurrence(J, Jz, B, b, T) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs-state concurrence and Wootters roots from the closed-form weights.

    The Gibbs state of this model is always an X state, so the closed form
    applies, J = 0 included (the state is then diagonal and the concurrence
    zero).  Broadcasts over the parameters; the roots gain a last axis of
    length 4.  Guarded.
    """
    _check_params(J=J, Jz=Jz, B=B, b=b, T=T)
    _, eta, (w1, w2, w3, w4) = _weights(J, Jz, B, b, T)
    zs = w1 + w2 + w3 + w4
    coh = _coherence(J, eta, w3, w4)
    corner = np.sqrt(w1 * w2)
    inner = np.sqrt(w3 * w4 + coh * coh)
    return _x_concurrence(coh, corner, zs), _x_roots(coh, corner, inner, zs)


def _log_ratio(a, c):
    """log(a/c) for 0 < a <= c: the log of the quotient, or log a - log c where it underflows."""
    q = a / c
    return np.where(q >= _TINY, np.log(np.maximum(q, _TINY)), np.log(a) - np.log(c))


def log_sign_values(J, Jz, b, T) -> np.ndarray:
    """log of (g+1) = Jz/T + log(|J|/eta) + log(sinh(x)), x = eta/T; broadcasts.

    Positive iff thermal concurrence is positive; requires J != 0.  It is
    evaluated as Jz/T + log(|J|/T) + log(sinh(x)/x) for x <= 1 and as
    (Jz + eta)/T + log(|J|/eta) - log 2 + log1p(-exp(-x)^2) above, so no
    quantity underflows into the log of zero and no inf - inf arises.  A
    value past the double range comes back as +-inf, which keeps its sign.
    """
    eta = np.hypot(b, J)
    with np.errstate(over="ignore"):
        x = eta / T
        near = np.clip(x, _TINY, 1.0)  # sinh(x)/x is 1.0 long before x underflows
        far = np.maximum(x, 1.0)
        return np.where(
            x <= 1.0,
            Jz / T + _log_ratio(np.abs(J), T) + np.log(np.sinh(near) / near),
            (Jz + eta) / T + _log_ratio(np.abs(J), eta) - math.log(2.0)
            + np.log1p(-np.exp(-far) ** 2),
        )


def gibbs_closed(J, Jz, B, b, T) -> np.ndarray:
    """Closed-form Gibbs states exp(-H/T)/Z over broadcast parameters, (..., 4, 4).

    Entries are assembled from shifted Boltzmann weights so the matrices
    never overflow.  Requires J != 0; guarded.
    """
    _check_params("closed-form Gibbs state", J=J, Jz=Jz, B=B, b=b, T=T)
    _, eta, (w1, w2, w3, w4) = _weights(J, Jz, B, b, T)
    zs = w1 + w2 + w3 + w4
    half_sum = 0.5 * (w3 + w4)
    half_diff = 0.5 * (w3 - w4)
    rho = np.zeros(np.shape(zs) + (4, 4), dtype=complex)
    rho[..., 0, 0] = w2 / zs
    rho[..., 1, 1] = (half_sum - (b / eta) * half_diff) / zs
    rho[..., 2, 2] = (half_sum + (b / eta) * half_diff) / zs
    rho[..., 3, 3] = w1 / zs
    rho[..., 1, 2] = rho[..., 2, 1] = -(J / eta) * half_diff / zs
    return rho


def gibbs_diagnostics(J, Jz, B, b, T) -> dict[str, float | None]:
    """Partition function and closed-form entry blocks at one point, by name.

    Z is always the energy trace sum(exp(-E_k/T)), which is what unit trace
    requires; m = cosh(eta/T), n = b sinh(eta/T)/eta and
    s = exp(Jz/2T) J sinh(eta/T)/eta are None at J = 0.  A value past the
    double range comes back as inf or nan, which a record writes as null.
    Guarded like gibbs_closed.
    """
    _check_params(J=J, Jz=Jz, B=B, b=b, T=T)
    emin, eta, weights = _weights(J, Jz, B, b, T)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.exp(-emin / T)  # exp(-E_k/T) = w_k * scale
        Z = float(sum(weights) * scale)
        if J == 0.0:
            return {"Z": Z, "m": None, "n": None, "s": None}
        _, _, w3, w4 = weights
        x = eta / T
        return {
            "Z": Z,
            "m": float(np.cosh(x)),
            "n": float(b * np.sinh(x) / eta),
            "s": float(J * (w3 - w4) * scale / (2.0 * eta)),
        }


def gibbs_spectral(J, Jz, B, b, T) -> np.ndarray:
    """Gibbs states from the Jacobi eigensystems of the Hamiltonians, (..., 4, 4).

    Independent of the closed form; accepts J = 0.  Guarded.
    """
    _check_params(J=J, Jz=Jz, B=B, b=b, T=T)
    values, vectors = hermitian_eigen(build_hamiltonian(J, Jz, B, b))
    w = np.exp(-(values - values[..., :1]) / np.asarray(T)[..., np.newaxis])
    rho = (vectors * w[..., np.newaxis, :]) @ vectors.conj().swapaxes(-1, -2)
    rho /= w.sum(axis=-1)[..., np.newaxis, np.newaxis]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def _check_density_matrix(rho: np.ndarray) -> None:
    defect = np.max(hermiticity_defect(rho))
    if defect > DENSITY_TOL:
        raise InvalidDensityMatrixError(f"not Hermitian: max asymmetry {defect:.3e}")
    trace_defect = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
    if trace_defect > DENSITY_TOL:
        raise InvalidDensityMatrixError(f"trace deviates from 1 by {trace_defect:.3e}")


def wootters_concurrence(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wootters concurrence and roots of a state or a (..., 4, 4) stack of states.

    The roots l_i are the square roots of the eigenvalues of rho @ rho_tilde
    with rho_tilde = S conj(rho) S, descending along the last axis.  They
    are computed as the singular values of the factor
    A = sqrt(rho) S conj(sqrt(rho)), which satisfies
    A adj(A) = sqrt(rho) rho_tilde sqrt(rho): never forming that product
    keeps tiny roots at full absolute accuracy (squaring would floor them at
    the square root of machine roundoff).  Every state must pass the
    Hermitian, unit-trace and PSD checks.
    """
    rho = np.asarray(rho, dtype=complex)
    _check_density_matrix(rho)
    try:
        root = psd_sqrt(rho)
    except NotPSDError as exc:
        raise InvalidDensityMatrixError(str(exc)) from exc
    roots = singular_values(root @ SPIN_FLIP @ root.conj())
    value = np.minimum(np.maximum(0.0, 2.0 * roots[..., 0] - roots.sum(axis=-1)), 1.0)
    return value, roots


def xstate_concurrence(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X-state concurrence and roots of a state or a (..., 4, 4) stack of states.

    Valid for states whose only nonzero entries are the diagonal and the
    central (|1,0>, |0,1>) coherence; raises NotXStateError otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    worst = float(np.max(np.abs(np.where(_X_PATTERN, 0.0, rho))))
    if worst > XSTATE_TOL:
        raise NotXStateError(
            f"entry outside the X pattern has magnitude {worst:.3e} > {XSTATE_TOL:g}"
        )
    diag = np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, None)
    coh = np.abs(rho[..., 1, 2])
    corner = np.sqrt(diag[..., 0] * diag[..., 3])
    inner = np.sqrt(diag[..., 1] * diag[..., 2])
    return _x_concurrence(coh, corner, 1.0), _x_roots(coh, corner, inner, 1.0)
