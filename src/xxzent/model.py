"""Two-qubit XXZ spin pair in a uniform field B and an inhomogeneous field b.

The Hamiltonian couples the xy-plane with strength J and the z-axis with Jz;
the site fields are B+b and B-b.  In the basis {|1,1>, |1,0>, |0,1>, |0,0>}
it is real symmetric with a single 2x2 inner block, so the full eigensystem
has a closed form built from eta = sqrt(b^2 + J^2), xi = b - eta and
zeta = b + eta.

Every operation takes the parameters as plain numbers in the order
(J, Jz, B, b[, T]).  The domain check that all of them share,
_check_params, lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import XxzentError

BOUNDARY_TOL = 1e-12
NORMALIZATION_TOL = 1e-9
TEMPERATURE_GUARD = 1e-8


class InvalidParameterError(XxzentError, ValueError):
    """Coupling or field value outside the accepted domain."""


class ZeroXYCouplingError(InvalidParameterError):
    """Closed-form paths divide by J and require J != 0."""


class NotNormalizedError(XxzentError, ValueError):
    """Pure-state amplitudes deviate from unit norm beyond tolerance."""


class NonPositiveTemperatureError(XxzentError, ValueError):
    """Gibbs construction requires T > 0."""


class BoltzmannOverflowError(XxzentError, OverflowError):
    """Temperature below the overflow guard TEMPERATURE_GUARD."""


class Phase(str, Enum):
    """Ground-state phase; a str, so a JSON record holds its value."""

    DISENTANGLED = "disentangled"
    ENTANGLED = "entangled"
    BOUNDARY = "boundary"


def _refuse(error, bad, values, message: str) -> None:
    """Raise error(message) naming the first of values where bad holds, if any."""
    if np.any(bad):
        raise error(message.format(float(np.asarray(values).flat[np.flatnonzero(bad)[0]])))


def _check_params(divides_by_J: str = "", **values) -> None:
    """Refuse values outside the model's domain, by parameter name.

    Every value must be finite, B >= 0, and T > 0 and not below
    TEMPERATURE_GUARD.  This is the domain of every model operation, of the
    guarded thermal functions and of sweep axes; each keyword is a float or
    an array, and an error names its first offender.  divides_by_J names an
    operation that divides by J, which then refuses J = 0.
    """
    for name, value in values.items():
        _refuse(InvalidParameterError, ~np.isfinite(value), value,
                name + " must be finite, got {!r}")
    if "B" in values:
        _refuse(InvalidParameterError, np.less(values["B"], 0.0), values["B"],
                "uniform field B must be >= 0, got {!r}")
    if divides_by_J and np.any(np.equal(values["J"], 0.0)):
        raise ZeroXYCouplingError(divides_by_J + " requires J != 0")
    if "T" in values:
        T = values["T"]
        _refuse(NonPositiveTemperatureError, ~np.greater(T, 0.0), T,
                "temperature must be > 0, got {!r}")
        _refuse(BoltzmannOverflowError, np.less(T, TEMPERATURE_GUARD), T,
                f"temperature {{!r}} below the overflow guard {TEMPERATURE_GUARD:g}")


@dataclass(frozen=True)
class ClosedSpectrum:
    """Closed-form eigensystem; column k of `states` is the k-th eigenvector.

    Energy/eigenvector pairing: (e1, |0,0>), (e2, |1,1>), (e3, e4, the two
    normalized inner-block states with amplitude ratios xi/J and zeta/J on
    |1,0> relative to |0,1>).
    """

    e1: float
    e2: float
    e3: float
    e4: float
    eta: float
    xi: float
    zeta: float
    lam: float
    states: np.ndarray = field(repr=False)

    @property
    def energies(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3, self.e4])


@dataclass(frozen=True)
class PureState:
    """Two-qubit pure state a|0,0> + b|0,1> + c|1,0> + d|1,1>."""

    a: complex
    b: complex
    c: complex
    d: complex

    def vector(self) -> np.ndarray:
        """Amplitudes in the standard basis order {|1,1>,|1,0>,|0,1>,|0,0>}."""
        return np.array([self.d, self.c, self.b, self.a], dtype=complex)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "PureState":
        v = np.asarray(v, dtype=complex)
        return cls(a=v[3], b=v[2], c=v[1], d=v[0])

    def projector(self) -> np.ndarray:
        v = self.vector()
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class GroundStateReport:
    phase: Phase
    ground_energy: float
    ground_concurrence: float  # NaN on the boundary (degenerate ground level)
    threshold_Jz: float
    threshold_B: float


def build_hamiltonian(J, Jz, B, b) -> np.ndarray:
    """Hamiltonian matrices over broadcast parameters, shape (..., 4, 4).

    Real symmetric and traceless, in the standard basis; unguarded, so it
    accepts J = 0 and any sign of B.
    """
    J, Jz, B, b = np.broadcast_arrays(J, Jz, B, b)
    h = np.zeros(J.shape + (4, 4), dtype=complex)
    h[..., 0, 0] = (Jz + 2.0 * B) / 2.0
    h[..., 1, 1] = (-Jz + 2.0 * b) / 2.0
    h[..., 2, 2] = (-Jz - 2.0 * b) / 2.0
    h[..., 3, 3] = (Jz - 2.0 * B) / 2.0
    h[..., 1, 2] = h[..., 2, 1] = J
    return h


def _energies(J, Jz, B, b):
    """Closed-form energies ((E1, E2, E3, E4), eta) as broadcast arrays.

    The one place the closed-form levels are written: E1 for |0,0>, E2 for
    |1,1>, E3 <= E4 for the inner pair, with eta = sqrt(b^2 + J^2).
    """
    eta = np.hypot(b, J)
    energies = np.broadcast_arrays(
        0.5 * (Jz - 2.0 * B), 0.5 * (Jz + 2.0 * B), -0.5 * Jz - eta, -0.5 * Jz + eta
    )
    return tuple(energies), eta


def energy_values(J, Jz, B, b) -> np.ndarray:
    """Closed-form energies (E1, E2, E3, E4) along the last axis; broadcasts.

    Same labels as ClosedSpectrum, unsorted.  Accepts J = 0 and any sign of
    B, since no eigenvector is formed.
    """
    return np.stack(_energies(J, Jz, B, b)[0], axis=-1)


def closed_spectrum(J, Jz, B, b) -> ClosedSpectrum:
    """Closed-form energies and normalized eigenvectors; requires J != 0."""
    _check_params("closed-form spectrum", J=J, Jz=Jz, B=B, b=b)
    levels, eta = _energies(J, Jz, B, b)
    e1, e2, e3, e4, eta = (float(v) for v in (*levels, eta))
    xi = b - eta
    zeta = b + eta
    lam = xi / J
    mu = zeta / J
    states = np.zeros((4, 4), dtype=complex)
    states[3, 0] = 1.0  # |0,0>
    states[0, 1] = 1.0  # |1,1>
    n3 = math.sqrt(1.0 + lam * lam)
    states[1, 2] = lam / n3
    states[2, 2] = 1.0 / n3
    n4 = math.sqrt(1.0 + mu * mu)
    states[1, 3] = mu / n4
    states[2, 3] = 1.0 / n4
    return ClosedSpectrum(e1, e2, e3, e4, eta, xi, zeta, lam, states)


def ground_state(J, Jz, B, b) -> GroundStateReport:
    """Ground-state phase, energy and concurrence; requires J != 0.

    The level crossing happens at eta = B - Jz: below it the product state
    |0,0> wins (zero concurrence), above it the entangled inner-block state
    wins with concurrence |J|/eta, independent of Jz (the equal form
    2|lam|/(1+lam^2), lam = xi/J, cancels in xi = b - eta when |b| >> |J|).
    Within BOUNDARY_TOL times the parameter scale max(|J|, |Jz|, B, |b|) of
    the crossing the ground level is degenerate and the concurrence is
    reported as NaN.
    """
    _check_params("ground state", J=J, Jz=Jz, B=B, b=b)
    (e1, _, e3, _), eta = _energies(J, Jz, B, b)
    e1, e3, eta = float(e1), float(e3), float(eta)
    gap = eta - (B - Jz)
    threshold_jz = B - eta
    threshold_b = eta + Jz
    if abs(gap) <= BOUNDARY_TOL * max(abs(J), abs(Jz), B, abs(b)):
        return GroundStateReport(
            Phase.BOUNDARY, e3, math.nan, threshold_jz, threshold_b
        )
    if gap < 0.0:
        return GroundStateReport(
            Phase.DISENTANGLED, e1, 0.0, threshold_jz, threshold_b
        )
    return GroundStateReport(
        Phase.ENTANGLED, e3, abs(J) / eta, threshold_jz, threshold_b
    )


def pure_concurrence(state: PureState) -> float:
    """Concurrence 2|ad - bc| of a normalized pure state."""
    norm_sq = (
        abs(state.a) ** 2 + abs(state.b) ** 2 + abs(state.c) ** 2 + abs(state.d) ** 2
    )
    if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
    return 2.0 * abs(state.a * state.d - state.b * state.c)

