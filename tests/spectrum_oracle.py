"""Test oracles: the closed-form eigenvectors and the pure-state concurrence 2|ad - bc|.

No command uses them; the tests check hermitian_eigen (LAPACK's eigh behind
linalg's checks and scaling), the Wootters route and the ground-state concurrence
|J|/eta against them.
"""

import math
from typing import NamedTuple

import numpy as np

from xxzent.model import _check_params, _energies


class ClosedSpectrum(NamedTuple):
    """Closed-form eigensystem: e1 for |0,0>, e2 for |1,1>, e3 <= e4 for the inner pair,
    and column k of `states` the eigenvector of energies[k]."""

    e1: float
    e2: float
    e3: float
    e4: float
    eta: float
    xi: float
    zeta: float
    lam: float
    states: np.ndarray

    @property
    def energies(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3, self.e4])


def closed_spectrum(J, Jz, B, b) -> ClosedSpectrum:
    """Closed-form energies and normalized eigenvectors; requires J != 0."""
    _check_params("closed-form spectrum", J=J, Jz=Jz, B=B, b=b)
    levels, eta = _energies(J, Jz, B, b)
    e1, e2, e3, e4, eta = (float(v) for v in (*levels, eta))
    xi = b - eta
    zeta = b + eta
    lam = xi / J
    states = np.zeros((4, 4))
    states[3, 0] = states[0, 1] = 1.0  # |0,0> and |1,1>
    for k, ratio in ((2, lam), (3, zeta / J)):  # amplitude on |1,0> relative to |0,1>
        states[1:3, k] = np.array([ratio, 1.0]) / math.sqrt(1.0 + ratio * ratio)
    return ClosedSpectrum(e1, e2, e3, e4, eta, xi, zeta, lam, states)


def pure_concurrence(v) -> float:
    """2|v0 v3 - v1 v2| of a unit amplitude vector in the order {|1,1>, |1,0>, |0,1>, |0,0>}."""
    v = np.asarray(v, dtype=complex)
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
    return 2.0 * abs(v[0] * v[3] - v[1] * v[2])
