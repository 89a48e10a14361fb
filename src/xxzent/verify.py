"""Seeded randomized cross-validation suites.

Every suite pits one computational route against an independent one (or
against an exact symmetry) over the same reproducible parameter draws.  The
spectrum and Gibbs suites check the closed forms against LAPACK's eigensystems
of the Hamiltonian, which no closed form calls.  The draws come from a Philox
counter-based generator so runs are reproducible from the 64-bit seed alone;
see the README for the exact draw recipe.

Every suite runs as whole-array calls over consecutive blocks of
BLOCK_DRAWS draws and joins the per-draw errors, so a suite's maximum error,
worst point and details do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _largest, hermitian_eigen
from .model import _energies, build_hamiltonian
from .thermal import (
    ROUTE_TOL, _state_defects, _wootters, concurrence_values, gibbs_closed, gibbs_spectral,
    thermal_concurrence,
)

SYMMETRY_TOL = 1e-12

# Draws per whole-array call, which bounds the memory the (N, 4, 4) stacks take.
# `verify --samples 5000` peaks at 38.1 MB RSS with 1024, 37.4 MB with 512 and 40.4 MB
# with 2048; its suites take 0.055 s in process with 1024 or 2048 and 0.059 s with 512.
BLOCK_DRAWS = 1024

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


def _over_blocks(per_draw, draws: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """Call per_draw(**block) on consecutive blocks of BLOCK_DRAWS draws.

    per_draw returns a tuple of per-draw arrays; each is joined over blocks.
    """
    parts = [
        per_draw(**{name: column[start:start + BLOCK_DRAWS] for name, column in draws.items()})
        for start in range(0, len(draws["J"]), BLOCK_DRAWS)
    ]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _result(name, draws, errors, tol, details=None, valid=True) -> SuiteResult:
    errors = np.asarray(errors, dtype=float)
    worst_index = int(np.argmax(errors))
    max_error = float(errors[worst_index])
    return SuiteResult(
        name=name,
        samples=len(errors),
        max_error=max_error,
        tolerance=tol,
        passed=bool(max_error <= tol) and valid,
        worst_params={name: float(column[worst_index]) for name, column in draws.items()},
        details=details or {},
    )


def _spectrum_errors(J, Jz, B, b, T):
    closed = np.sort(np.stack(_energies(J, Jz, B, b)[0], axis=-1), axis=-1)
    numeric = hermitian_eigen(build_hamiltonian(J, Jz, B, b)).values
    return (np.max(np.abs(closed - numeric), axis=-1),)


def suite_spectrum(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Closed-form energies vs LAPACK's eigenvalues of the Hamiltonian."""
    (errors,) = _over_blocks(_spectrum_errors, draws)
    return _result("spectrum-oracle", draws, errors, ROUTE_TOL)


def _gibbs_errors(J, Jz, B, b, T):
    """Per draw: route disagreement, then over the two states the worse trace defect,
    Hermiticity defect and solved lowest eigenvalue, and whether either is refused."""
    closed = gibbs_closed(J, Jz, B, b, T)
    spectral = gibbs_spectral(J, Jz, B, b, T)
    j = _state_defects(np.stack([closed, spectral]))
    worst = np.max(j.trace, axis=0), np.max(j.defect, axis=0), np.fmin.reduce(j.lowest, axis=0)
    return (_largest(closed - spectral), *worst, np.any(j.refused, axis=0))


def suite_gibbs(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Closed-form vs spectral Gibbs states; it fails, without raising, where
    wootters_concurrence would refuse either state as no density matrix."""
    errors, trace, herm, lowest, refused = _over_blocks(_gibbs_errors, draws)
    details = {
        "max_trace_defect": float(np.max(trace)),
        "max_hermiticity_defect": float(np.max(herm)),
        "min_eigenvalue": float(np.fmin.reduce(lowest)),  # skips the nan of a state linalg refused
    }
    return _result("gibbs-oracle", draws, errors, ROUTE_TOL, details, valid=not refused.any())


def _route_errors(J, Jz, B, b, T):
    """Per draw: the two routes' disagreement, and whether the generic route refused
    the closed-form state as no density matrix (the rule of wootters_concurrence); a
    refused draw counts as 1, the widest gap two concurrences can have."""
    generic, _, j = _wootters(gibbs_closed(J, Jz, B, b, T))
    shipped = thermal_concurrence(J, Jz, B, b, T)[0]
    return np.where(j.refused, 1.0, np.abs(generic - shipped)), j.refused


def suite_routes(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Generic Wootters on the closed-form Gibbs state vs the shipped X-state kernel."""
    errors, refused = _over_blocks(_route_errors, draws)
    details = {"refused_states": int(np.sum(refused))} if refused.any() else None
    return _result("concurrence-routes", draws, errors, ROUTE_TOL, details)


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


def _monotonic_errors(J, Jz, B, b, T):
    """Per draw: the largest rise of the concurrence along B_MONOTONIC_GRID, or 0."""
    J, Jz, b, T = (value[:, np.newaxis] for value in (J, Jz, b, T))
    values = concurrence_values(J, Jz, B_MONOTONIC_GRID, b, T)
    return (np.maximum(np.max(np.diff(values, axis=1), axis=1), 0.0),)


def suite_b_monotonic(draws: dict[str, np.ndarray]) -> SuiteResult:
    """Concurrence is nonincreasing in the uniform field B."""
    (errors,) = _over_blocks(_monotonic_errors, draws)
    return _result("b-monotonic-in-uniform-field", draws, errors, SYMMETRY_TOL)


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    draws = draw_params(samples, seed)
    return [suite(draws) for suite in ALL_SUITES]
