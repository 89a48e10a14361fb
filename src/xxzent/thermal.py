"""Gibbs states of the spin pair and their concurrence.

Two independent density-matrix routes (closed form vs spectral decomposition
through the Jacobi solver) and two concurrence routes (generic Wootters on a
density matrix vs the X-state shortcut from the closed-form weights, which
eval, sweep and the figures ship) cross-validate each other.  A scalar sign
function g decides concurrence positivity analytically and drives the root
finders:

    |rho_23| * Z = exp(Jz/2T) * (|J|/eta) * sinh(eta/T)
    sqrt(rho_11 rho_44) * Z = exp(-Jz/2T)        (since E1 + E2 = Jz)

so concurrence > 0  iff  g = exp(Jz/T) * (|J|/eta) * sinh(eta/T) - 1 > 0,
independent of the uniform field B.

Each route broadcasts over parameter arrays or (..., 4, 4) stacks of states; a
single point or state is the 0-d case.  gibbs_closed, gibbs_spectral,
thermal_concurrence and gibbs_diagnostics refuse what model._check_params refuses.
Every route forms only shifted weights exp(-(E_k - E_min)/T) <= 1, which cannot
overflow, and scales them only by weights and the ratios J/eta and b/eta.  One pass,
_state_defects, judges each density matrix without raising and returns the Jacobi
eigensystem that the Wootters route takes sqrt(rho) from.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    PSD_TOL, SPIN_FLIP, XxzentError, _asymmetric, _largest, _spectral_map, _which,
    hermitian_eigen, singular_values,
)
from .model import _check_params, _energies, _jz_plus_eta, _rescaled, build_hamiltonian

# Largest disagreement accepted between two routes to the same quantity
# (spectrum, Gibbs state, concurrence).
ROUTE_TOL = 1e-10
DENSITY_TOL = 1e-12  # largest |trace - 1| of a density matrix; linalg judges the rest
_TINY = np.finfo(float).tiny

METHOD_XSTATE = "xstate-shortcut"


class InvalidDensityMatrixError(XxzentError, ValueError):
    """Input is no density matrix: linalg refuses it, or |trace - 1| exceeds DENSITY_TOL."""


def _weights(J, Jz, B, b, T):
    """Shifted Boltzmann weights exp(-(E_k - E_min)/T) of the closed energies; broadcasts.

    Returns ((b, T), emin, eta, (w1, w2, w3, w4), coh) on model._rescaled's scaled
    parameters, weights in the closed-form labels: (w1, w2) for the outer product
    states, (w3, w4) for the inner pair, E3 <= E4; past the double range a weight is 0.
    coh = (J/eta) (w3 - w4)/2, 0 at eta = 0 (J = b = 0), is -rho_23 times the shifted
    sum: the coherence, written once, as a ratio times a weight difference.
    """
    (J, Jz, B, b, T), _ = _rescaled(J, Jz, B, b, T)
    energies, eta = _energies(J, Jz, B, b)
    e1, e2, e3, _ = energies
    emin = np.minimum(np.minimum(e1, e2), e3)
    with np.errstate(over="ignore"):
        w1, w2, w3, w4 = (np.exp((emin - e) / T) for e in energies)
    coh = J / np.where(eta > 0.0, eta, 1.0) * (0.5 * (w3 - w4))  # J = 0 where eta = 0
    return (b, T), emin, eta, (w1, w2, w3, w4), coh


def _xstate(w1, w2, w3, w4, coh):
    """(C, |rho_23| Z, sqrt(rho_11 rho_44) Z, Z) of the X-state closed form, Z the shifted sum."""
    zs = w1 + w2 + w3 + w4
    coh = np.abs(coh)
    corner = np.sqrt(w1 * w2)
    return np.minimum(np.maximum(0.0, 2.0 * (coh - corner) / zs), 1.0), coh, corner, zs


def concurrence_values(J, Jz, B, b, T) -> np.ndarray:
    """Thermal concurrence via the X-state closed form; broadcasts over arrays.

    C = 2 (|rho_23| - sqrt(rho_11 rho_44)), clipped to [0, 1].  Total for any
    finite parameters with T > 0 (J = 0 gives a diagonal Gibbs state and
    hence zero).  This is the kernel behind eval, grid sweeps and verify's
    route check; it applies no guard (see thermal_concurrence for the
    guarded function).
    """
    _, _, _, weights, coh = _weights(J, Jz, B, b, T)
    return _xstate(*weights, coh)[0]


def thermal_concurrence(J, Jz, B, b, T) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs-state concurrence and Wootters roots from the closed-form weights.

    The Gibbs state of this model is always an X state, so the closed form
    applies, J = 0 included (the state is then diagonal and the concurrence
    zero).  The value is concurrence_values; the roots, descending along a
    new last axis of length 4, are sqrt(rho_22 rho_33) +- |rho_23| and
    sqrt(rho_11 rho_44) twice.  Broadcasts over the parameters.  Guarded.
    """
    _check_params(J=J, Jz=Jz, B=B, b=b, T=T)
    _, _, _, (w1, w2, w3, w4), coh = _weights(J, Jz, B, b, T)
    value, coh, corner, zs = _xstate(w1, w2, w3, w4, coh)
    inner = np.sqrt(w3 * w4 + coh * coh)
    roots = np.stack(
        np.broadcast_arrays(inner + coh, np.maximum(inner - coh, 0.0), corner, corner),
        axis=-1,
    )
    roots = np.sort(roots, axis=-1)[..., ::-1] / np.asarray(zs)[..., np.newaxis]
    return value, roots


def _log_ratio(a, c, log_a):
    """log(a/c), 0 < a <= c: log of the quotient, or log_a - log c where a or a/c is subnormal."""
    q = a / c
    return np.where((q >= _TINY) & (a >= _TINY), np.log(np.maximum(q, _TINY)), log_a - np.log(c))


def log_sign_values(J, Jz, b, T) -> np.ndarray:
    """log of (g+1) = Jz/T + log(|J|/eta) + log(sinh(x)), x = eta/T; broadcasts.

    Positive iff thermal concurrence is positive; requires J != 0.  It is
    evaluated as Jz/t + log(|J|/t) + log(sinh(x)/x) for x <= 1, at t = max(T, eta),
    which is T there, and as (Jz + eta)/T + log(|J|/eta) - log 2 + log1p(-exp(-x)^2)
    above, on the parameters that model._rescaled scales (a T that it rounds to 0
    counts as the smallest double), so eta is finite, no quantity underflows into the
    log of zero and no inf - inf arises.  Where the scaled |J| or |J|/t is subnormal,
    log|J| comes from the given J.  A value past the double range comes back as +-inf.
    """
    (j, Jz, b, T), unit = _rescaled(J, Jz, b, T)
    log_j = np.log(np.maximum(np.abs(J), math.ulp(0.0))) - np.log(unit)  # of the unrounded J
    J, T = (np.maximum(np.abs(v), math.ulp(0.0)) for v in (j, T))
    eta = np.hypot(b, J)
    with np.errstate(over="ignore"):
        x = eta / T
        t = np.maximum(T, eta)
        near = np.maximum(eta / t, _TINY)  # sinh(x)/x is 1.0 long before x underflows
        far = np.maximum(x, 1.0)
        return np.where(
            x <= 1.0,
            Jz / t + _log_ratio(J, t, log_j) + np.log(np.sinh(near) / near),
            _jz_plus_eta(J, Jz, b, eta) / T + _log_ratio(J, eta, log_j) - math.log(2.0)
            + np.log1p(-np.exp(-far) ** 2),
        )


def gibbs_closed(J, Jz, B, b, T) -> np.ndarray:
    """Closed-form Gibbs states exp(-H/T)/Z over broadcast parameters, (..., 4, 4).

    Real symmetric, and assembled from shifted Boltzmann weights so the
    matrices never overflow.  Requires J != 0; guarded.
    """
    _check_params("closed-form Gibbs state", J=J, Jz=Jz, B=B, b=b, T=T)
    (b, _), _, eta, (w1, w2, w3, w4), coh = _weights(J, Jz, B, b, T)
    zs = w1 + w2 + w3 + w4
    half_sum = 0.5 * (w3 + w4)
    half_diff = 0.5 * (w3 - w4)
    rho = np.zeros(np.shape(zs) + (4, 4))
    rho[..., 0, 0] = w2 / zs
    rho[..., 1, 1] = (half_sum - (b / eta) * half_diff) / zs
    rho[..., 2, 2] = (half_sum + (b / eta) * half_diff) / zs
    rho[..., 3, 3] = w1 / zs
    rho[..., 1, 2] = rho[..., 2, 1] = -coh / zs
    return rho


def gibbs_diagnostics(J, Jz, B, b, T) -> dict[str, float | None]:
    """Partition function, closed-form entry blocks and sign function at one point, by name.

    Z is always the energy trace sum(exp(-E_k/T)), which is what unit trace
    requires; m = cosh(eta/T), n = sinh(eta/T)/(eta/b) and s = exp(Jz/2T) J sinh(eta/T)/eta
    are None at J = 0, and the sign function g = expm1(log_sign_values(...)) is -1 there.
    A value past the double range comes back as inf or nan, which a record
    writes as null.  Guarded like gibbs_closed.
    """
    _check_params(J=J, Jz=Jz, B=B, b=b, T=T)
    (scaled_b, scaled_T), emin, eta, weights, coh = _weights(J, Jz, B, b, T)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # eta/b at b = 0: inf
        scale = np.exp(-emin / scaled_T)  # exp(-E_k/T) = w_k * scale
        Z = float(sum(weights) * scale)
        if J == 0.0:
            return {"Z": Z, "m": None, "n": None, "s": None, "g": -1.0}
        x = eta / scaled_T
        return {
            "Z": Z,
            "m": float(np.cosh(x)),
            "n": float(np.sinh(x) / (eta / scaled_b)),  # over a ratio >= 1: covariant
            "s": float(coh * scale),
            "g": float(np.expm1(log_sign_values(J, Jz, b, T))),
        }


def gibbs_spectral(J, Jz, B, b, T) -> np.ndarray:
    """Gibbs states from the Jacobi eigensystems of the Hamiltonians, (..., 4, 4).

    Independent of the closed form; accepts J = 0.  Guarded.
    """
    _check_params(J=J, Jz=Jz, B=B, b=b, T=T)
    (J, Jz, B, b, T), _ = _rescaled(J, Jz, B, b, T)  # the state depends only on H/T
    values, vectors = hermitian_eigen(build_hamiltonian(J, Jz, B, b))
    w = np.exp(-(values - values[..., :1]) / np.asarray(T)[..., np.newaxis])
    return _spectral_map(vectors, w) / w.sum(axis=-1)[..., np.newaxis, np.newaxis]


def _state_defects(states: np.ndarray) -> tuple:
    """Per state: |trace - 1|, Hermiticity defect, EigenSystem and whether the density-matrix
    rule refuses it (linalg's, or |trace - 1| > DENSITY_TOL), without raising.  The maximally
    mixed state stands in, in the one hermitian_eigen call, for a state that linalg refuses
    before the solve.  Only a shape other than (..., 4, 4) raises.  A trace or eigenvalue past
    the double range is inf, quietly: such a state is refused by its trace or its lowest value."""
    states = np.asarray(states)
    if states.shape[-2:] != (4, 4):
        raise InvalidDensityMatrixError(f"expected (..., 4, 4) states, got shape {states.shape}")
    herm, skew = _asymmetric(states, _largest(states))
    with np.errstate(over="ignore"):
        system = hermitian_eigen(np.where(skew[..., None, None], np.eye(4) / 4, states))
        trace = np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)
    return trace, herm, system, skew | ~(trace <= DENSITY_TOL) | (system.values[..., 0] < -PSD_TOL)


def _wootters(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """wootters_concurrence and the refused mask, without raising: a refused state gets 0s."""
    _, _, (values, vectors), refused = _state_defects(rho)
    root = _spectral_map(vectors, np.sqrt(np.where(refused[..., None], 0.0, values.clip(0.0))))
    roots = singular_values(root @ SPIN_FLIP @ root.conj())
    value = np.minimum(np.maximum(0.0, 2.0 * roots[..., 0] - roots.sum(axis=-1)), 1.0)
    return value, roots, refused


def wootters_concurrence(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wootters concurrence and roots of a state or a (..., 4, 4) stack of states.

    The roots l_i are the square roots of the eigenvalues of rho @ rho_tilde
    with rho_tilde = S conj(rho) S, descending along the last axis.  They
    are LAPACK's singular values of the factor A = sqrt(rho) S conj(sqrt(rho)),
    with sqrt(rho) from the Jacobi eigensystem that judged the state.  A adj(A) is
    sqrt(rho) rho_tilde sqrt(rho), and never forming that product keeps tiny
    roots at full absolute accuracy (squaring would floor them at the square
    root of machine roundoff).  A state that _state_defects refuses raises
    InvalidDensityMatrixError with the first one's three defects (a lowest
    eigenvalue of nan where linalg refused it before the solve).
    """
    value, roots, refused = _wootters(rho)
    bad = np.flatnonzero(refused)
    if bad.size:
        state = np.reshape(rho, (-1, 4, 4))[bad[0]]
        trace, herm, (values, _), _ = _state_defects(state)
        lowest = math.nan if _asymmetric(state, _largest(state))[1] else values[0]
        raise InvalidDensityMatrixError(
            f"{_which(np.shape(rho)[:-2], bad[0])} is no density matrix: |trace - 1| "
            f"{trace:.3e}, Hermiticity defect {herm:.3e}, lowest eigenvalue {lowest:.3e}"
        )
    return value, roots
