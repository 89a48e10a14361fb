"""Reference physics for the benchmark's output checks.

Written here from the model's definition, not imported from xxzent, so a
check fails when the program drifts from the physics rather than agreeing
with itself.  Parameters follow the README: couplings J, Jz, uniform field B,
inhomogeneous field b, temperature T; Boltzmann constant 1.
"""

from __future__ import annotations

import math

import numpy as np


def energies(J, Jz, B, b):
    """Eigenvalues (E1, E2, E3, E4) of the pair Hamiltonian; broadcasts.

    E1, E2 belong to |0,0> and |1,1>; E3 <= E4 to the inner |1,0>/|0,1> block.
    """
    eta = np.hypot(b, J)
    return (0.5 * Jz - B, 0.5 * Jz + B, -0.5 * Jz - eta, -0.5 * Jz + eta)


def concurrence(J, Jz, B, b, T):
    """Thermal concurrence 2 max(0, |rho_23| - sqrt(rho_11 rho_44)); broadcasts.

    With Boltzmann weights w_k = exp(-(E_k - E0)/T) shifted by the lowest
    level E0:  Z rho_23 = (|J|/2 eta)(w3 - w4) = (|J|/2 eta) w3 (1 - e^{-2 eta/T})
    and Z sqrt(rho_11 rho_44) = exp(-(E1 + E2 - 2 E0)/2T) with E1 + E2 = Jz.
    """
    J, Jz, B, b, T = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (J, Jz, B, b, T)))
    e1, e2, e3, e4 = energies(J, Jz, B, b)
    e0 = np.minimum(np.minimum(e1, e3), e2)
    z = sum(np.exp(-(e - e0) / T) for e in (e1, e2, e3, e4))
    eta = np.hypot(b, J)
    w3 = np.exp(-(e3 - e0) / T)
    with np.errstate(invalid="ignore", divide="ignore"):
        coherence = np.where(
            eta > 0.0, np.abs(J) / (2.0 * eta) * w3 * -np.expm1(-2.0 * eta / T), 0.0
        )
    corner = np.exp(-(Jz - 2.0 * e0) / (2.0 * T))
    return np.clip(2.0 * (coherence - corner) / z, 0.0, 1.0)


def log_sign(J, Jz, b, T) -> float:
    """log(g + 1) for the sign function g = e^{Jz/T} (|J|/eta) sinh(eta/T) - 1.

    The thermal concurrence is positive iff this is positive.  Requires J != 0.
    """
    eta = math.hypot(b, J)
    x = eta / T
    log_sinh = math.log(math.sinh(x)) if x < 20.0 else x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    return Jz / T + math.log(abs(J) / eta) + log_sinh


def sign_function(J, Jz, b, T) -> float:
    """g itself; +inf where it overflows (a valid positive sign)."""
    h = log_sign(J, Jz, b, T)
    return math.expm1(h) if h < 700.0 else math.inf


def critical_temperature_exists(J, Jz, b) -> bool:
    """g(T) -> +inf as T -> 0 iff Jz + eta > 0, and g -> -1 as T -> inf."""
    return Jz + math.hypot(b, J) > 0.0


def critical_field_exists(J, Jz, T) -> bool:
    """g grows without bound in |b|, so an onset exists iff g(b=0) < 0."""
    return sign_function(J, Jz, 0.0, T) < 0.0


def ground(J, Jz, B, b):
    """(energy, concurrence, gap) of the ground level; requires J != 0.

    The inner level E3 wins when gap = E1 - E3 > 0; its state has concurrence
    |J|/eta.  Otherwise the product state |0,0> wins with concurrence 0.
    """
    e1, _, e3, _ = energies(J, Jz, B, b)
    gap = float(e1 - e3)
    if gap > 0.0:
        return float(e3), abs(J) / math.hypot(b, J), gap
    return float(e1), 0.0, gap
