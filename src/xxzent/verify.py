"""Seeded randomized cross-validation suites.

Every suite pits one computational route against an independent one (or
against an exact symmetry) over the same reproducible parameter draws.  The
draws come from a Philox counter-based generator so runs are reproducible
from the 64-bit seed alone; see the README for the exact draw recipe.

The route suites run as whole-array calls over consecutive blocks of
BLOCK_DRAWS draws and join the per-draw errors, so a suite's maximum error,
worst point and details do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import PSD_TOL, hermitian_eigen, hermiticity_defect
from .model import build_hamiltonian, energy_values
from .thermal import (
    DENSITY_TOL,
    ROUTE_TOL,
    concurrence_values,
    gibbs_closed,
    gibbs_spectral,
    thermal_concurrence,
    wootters_concurrence,
    xstate_concurrence,
)

SYMMETRY_TOL = 1e-12

# Draws per whole-array call.  It bounds the memory the (N, 4, 4) stacks
# take: for 5000 draws, one block peaks at about 70 MB RSS against 41.5 MB
# with blocks of 512, which also ran fastest among sizes 64 to 5000.
BLOCK_DRAWS = 512

B_MONOTONIC_GRID = np.arange(0.0, 3.0 + 0.125, 0.25)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    max_error: float
    tolerance: float
    passed: bool
    worst_params: dict[str, float]
    details: dict[str, float] = field(default_factory=dict)


def draw_params(samples: int, seed: int) -> dict[str, np.ndarray]:
    """Reproducible parameter draws: |J| in [0.05,3] with random sign,
    Jz in [-3,3], B in [0,3], b in [-3,3], T in [0.05,5]."""
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random((samples, 6))
    return {
        "J": (0.05 + 2.95 * u[:, 0]) * np.where(u[:, 1] < 0.5, -1.0, 1.0),
        "Jz": -3.0 + 6.0 * u[:, 2],
        "B": 3.0 * u[:, 3],
        "b": -3.0 + 6.0 * u[:, 4],
        "T": 0.05 + 4.95 * u[:, 5],
    }


def _point(draws: dict[str, np.ndarray], i: int) -> dict[str, float]:
    return {name: float(draws[name][i]) for name in draws}


def _over_blocks(per_draw, draws: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """Call per_draw(**block) on consecutive blocks of BLOCK_DRAWS draws.

    per_draw returns a tuple of per-draw arrays; each is joined over blocks.
    """
    parts = [
        per_draw(**{name: column[start:start + BLOCK_DRAWS] for name, column in draws.items()})
        for start in range(0, len(draws["J"]), BLOCK_DRAWS)
    ]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _result(name, draws, errors, tol, details=None) -> SuiteResult:
    errors = np.asarray(errors, dtype=float)
    worst_index = int(np.argmax(errors))
    max_error = float(errors[worst_index])
    return SuiteResult(
        name=name,
        samples=len(errors),
        max_error=max_error,
        tolerance=tol,
        passed=bool(max_error <= tol),
        worst_params=_point(draws, worst_index),
        details=details or {},
    )


def _spectrum_errors(J, Jz, B, b, T):
    closed = np.sort(energy_values(J, Jz, B, b), axis=-1)
    numeric = hermitian_eigen(build_hamiltonian(J, Jz, B, b)).values
    return (np.max(np.abs(closed - numeric), axis=-1),)


def suite_spectrum(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Closed-form energies vs Jacobi eigenvalues of the Hamiltonian."""
    (errors,) = _over_blocks(_spectrum_errors, draws)
    return _result("spectrum-oracle", draws, errors, ROUTE_TOL)


def _gibbs_errors(J, Jz, B, b, T):
    """Per draw: route disagreement, then the worse of the two states' trace
    defect, Hermiticity defect and lowest eigenvalue."""
    closed = gibbs_closed(J, Jz, B, b, T)
    spectral = gibbs_spectral(J, Jz, B, b, T)
    both = np.stack([closed, spectral])
    trace = np.abs(np.trace(both, axis1=-2, axis2=-1) - 1.0)
    return (
        np.max(np.abs(closed - spectral), axis=(-2, -1)),
        np.max(trace, axis=0),
        np.max(hermiticity_defect(both), axis=0),
        np.min(hermitian_eigen(both).values[..., 0], axis=0),
    )


def suite_gibbs(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Closed-form vs spectral Gibbs states, plus density-matrix validity."""
    errors, trace, herm, lowest = _over_blocks(_gibbs_errors, draws)
    worst_trace = float(np.max(trace))
    min_eig = float(np.min(lowest))
    details = {
        "max_trace_defect": worst_trace,
        "max_hermiticity_defect": float(np.max(herm)),
        "min_eigenvalue": min_eig,
    }
    result = _result("gibbs-oracle", draws, errors, ROUTE_TOL, details)
    valid = worst_trace <= DENSITY_TOL and min_eig >= -PSD_TOL
    return replace(result, passed=result.passed and valid)


def _route_errors(J, Jz, B, b, T):
    rho = gibbs_closed(J, Jz, B, b, T)
    return (np.abs(wootters_concurrence(rho)[0] - xstate_concurrence(rho)[0]),)


def suite_routes(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Generic Wootters vs X-state shortcut on the same Gibbs states."""
    (errors,) = _over_blocks(_route_errors, draws)
    return _result("concurrence-routes", draws, errors, ROUTE_TOL)


def _mirror_suite(name, draws, mirror) -> SuiteResult:
    """Concurrence is unchanged by mirror(J, Jz, B, b) -> mirrored parameters."""

    def errors(J, Jz, B, b, T):
        value = thermal_concurrence(J, Jz, B, b, T)[0]
        return (np.abs(value - thermal_concurrence(*mirror(J, Jz, B, b), T)[0]),)

    (per_draw,) = _over_blocks(errors, draws)
    return _result(name, draws, per_draw, SYMMETRY_TOL)


def suite_b_symmetry(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Concurrence is even in the inhomogeneous field b."""
    return _mirror_suite("b-symmetry", draws, lambda J, Jz, B, b: (J, Jz, B, -b))


def suite_j_parity(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Concurrence is even in the xy coupling J."""
    return _mirror_suite("j-parity", draws, lambda J, Jz, B, b: (-J, Jz, B, b))


def suite_b_monotonic(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Concurrence is nonincreasing in the uniform field B."""
    grid = B_MONOTONIC_GRID[np.newaxis, :]
    values = concurrence_values(
        draws["J"][:, np.newaxis],
        draws["Jz"][:, np.newaxis],
        grid,
        draws["b"][:, np.newaxis],
        draws["T"][:, np.newaxis],
    )
    increase = np.max(np.diff(values, axis=1), axis=1)
    return _result("b-monotonic-in-uniform-field", draws,
                   np.maximum(increase, 0.0), SYMMETRY_TOL)


ALL_SUITES = (
    suite_spectrum,
    suite_gibbs,
    suite_routes,
    suite_b_symmetry,
    suite_j_parity,
    suite_b_monotonic,
)


def run_suites(samples: int, seed: int) -> list[SuiteResult]:
    """Run every suite over one shared set of seeded draws."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    draws = draw_params(samples, seed)
    return [suite(draws) for suite in ALL_SUITES]
