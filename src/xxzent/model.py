"""Two-qubit XXZ spin pair in a uniform field B and an inhomogeneous field b.

The Hamiltonian couples the xy-plane with strength J and the z-axis with Jz;
the site fields are B+b and B-b.  In the basis {|1,1>, |1,0>, |0,1>, |0,0>}
it is real symmetric with a single 2x2 inner block, so its energies have a
closed form built from eta = sqrt(b^2 + J^2).

Every operation takes the parameters as plain numbers in the order
(J, Jz, B, b[, T]).  The domain check that all of them share,
_check_params, lives here too, and refuses through linalg._refuse.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import XxzentError, _power_of_two_shift, _refuse

BOUNDARY_TOL = 1e-12


class InvalidParameterError(XxzentError, ValueError):
    """Coupling or field value outside the accepted domain."""


class ZeroXYCouplingError(InvalidParameterError):
    """Closed-form paths divide by J and require J != 0."""


class NonPositiveTemperatureError(XxzentError, ValueError):
    """Gibbs construction requires T > 0."""


class Phase(str, Enum):
    """Ground-state phase; a str, so a JSON record holds its value."""

    DISENTANGLED = "disentangled"
    ENTANGLED = "entangled"
    BOUNDARY = "boundary"


def _check_params(divides_by_J: str = "", **values) -> None:
    """Refuse values outside the model's domain, by parameter name.

    Every value must be finite, B >= 0 and T > 0.  This is the domain of every
    model operation, of the guarded thermal functions and of sweep axes; each
    keyword is a float or an array, and an error names its first offender.
    divides_by_J names an operation that divides by J, which then refuses J = 0.
    """
    for name, value in values.items():
        _refuse(InvalidParameterError, ~np.isfinite(value),
                name + " must be finite, got {!r}", value)
    if "B" in values:
        _refuse(InvalidParameterError, np.less(values["B"], 0.0),
                "uniform field B must be >= 0, got {!r}", values["B"])
    if divides_by_J:
        _refuse(ZeroXYCouplingError, np.equal(values["J"], 0.0), divides_by_J + " requires J != 0")
    if "T" in values:
        _refuse(NonPositiveTemperatureError, ~np.greater(values["T"], 0.0),
                "temperature must be > 0, got {!r}", values["T"])


def _rescaled(*params):
    """The parameters divided, elementwise and exactly, by a power of two, and that power.

    The power brings each point's largest |parameter| into [2**-64, 2**(max_exp - 3)):
    levels and eta reach about 2.5 times it.  The window reaches below 1 so that a
    grid of parameters below 1 keeps its open mesh (see sweep).  Only parameters,
    levels, eta and their differences carry the scale; the closed forms turn them
    into ratios (gaps over T, J and b over eta) and build weights and the coherence
    from ratios alone.  So an intermediate goes subnormal at one scale and not at
    another only where a quantity that carries the scale lies more than 2**958 below
    the point's largest |parameter|, and only there can a result differ from the same
    point at another scale.  Each binade below 1 takes one from that margin: 64 here.
    """
    # The usual case, from each parameter's least and greatest |value|: every point's largest
    # |parameter| lies between the largest of each.  Empty, nan or inf takes the full path.
    # Where the test fails on an open mesh, as sweep passes, some point's shift is nonzero.
    ends = np.array([(a.min(), a.max()) if a.size else (np.nan,) * 2 for a in map(np.abs, params)])
    low, high = ends.max(axis=0)
    if 2.0**-64 <= low and high < 2.0 ** (sys.float_info.max_exp - 3):
        return params, 1.0
    shift = _power_of_two_shift(params, -64, sys.float_info.max_exp - 3)
    return tuple(np.ldexp(v, -shift, dtype=float) for v in params), np.ldexp(1.0, shift)


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
    h = np.zeros(J.shape + (4, 4))
    h[..., 0, 0] = (Jz + 2.0 * B) / 2.0
    h[..., 1, 1] = (-Jz + 2.0 * b) / 2.0
    h[..., 2, 2] = (-Jz - 2.0 * b) / 2.0
    h[..., 3, 3] = (Jz - 2.0 * B) / 2.0
    h[..., 1, 2] = h[..., 2, 1] = J
    return h


def _energies(J, Jz, B, b):
    """Closed-form energies ((E1, E2, E3, E4), eta) as broadcast arrays.

    The one place the closed-form levels are written: E1 for |0,0>, E2 for
    |1,1>, E3 <= E4 for the inner pair, with eta = sqrt(b^2 + J^2).  Callers
    pass parameters scaled by _rescaled, or bounded, so no level overflows.
    """
    eta = np.hypot(b, J)
    energies = np.broadcast_arrays(
        0.5 * (Jz - 2.0 * B), 0.5 * (Jz + 2.0 * B), -0.5 * Jz - eta, -0.5 * Jz + eta
    )
    return tuple(energies), eta


def _jz_plus_eta(J, Jz, b, eta):
    """Jz + eta, the T -> 0 boundary B^f, on scaled parameters; broadcasts.  Where
    -Jz >= eta/2 the sum cancels, so it is formed there as (eta^2 - Jz^2)/(eta - Jz)
    = b (b/(eta - Jz)) + (|J| - |Jz|) ((|J| + |Jz|)/(eta - Jz)): each product is a
    parameter times a ratio of at most 1, which cannot overflow."""
    j, jz = np.abs(J), np.abs(Jz)
    across = eta + jz  # eta - Jz where the sum cancels; 0 only at J = b = Jz = 0
    return np.where(-Jz >= 0.5 * eta, b * (b / across) + (j - jz) * ((j + jz) / across), Jz + eta)


def ground_state(J, Jz, B, b) -> GroundStateReport:
    """Ground-state phase, energy and concurrence; requires J != 0.

    The level crossing happens at eta = B - Jz: below it the product state
    |0,0> wins (zero concurrence), above it the entangled inner-block state
    wins with concurrence |J|/eta, independent of Jz (the equal form
    2|lam|/(1+lam^2), lam = xi/J, cancels in xi = b - eta when |b| >> |J|).
    Within BOUNDARY_TOL times the parameter scale max(|J|, |Jz|, B, |b|) of
    the crossing the ground level is degenerate and the concurrence is
    reported as NaN.  Energies and thresholds past the double range are +-inf.
    """
    _check_params("ground state", J=J, Jz=Jz, B=B, b=b)
    scaled, unit = _rescaled(J, Jz, B, b)
    (e1, _, e3, _), eta = _energies(*scaled)
    J, Jz, B, b, e1, e3, eta, unit = (float(v) for v in (*scaled, e1, e3, eta, unit))
    gap = eta - (B - Jz)
    if abs(gap) <= BOUNDARY_TOL * max(abs(J), abs(Jz), B, abs(b)):
        phase, energy, concurrence = Phase.BOUNDARY, e3, math.nan
    elif gap < 0.0:
        phase, energy, concurrence = Phase.DISENTANGLED, e1, 0.0
    else:
        phase, energy, concurrence = Phase.ENTANGLED, e3, abs(J) / eta
    threshold_b = float(_jz_plus_eta(J, Jz, b, eta)) * unit
    return GroundStateReport(phase, energy * unit, concurrence, (B - eta) * unit, threshold_b)
