"""Seeded randomized cross-validation suites.

Every suite pits one computational route against an independent one (or
against an exact symmetry) over the same reproducible parameter draws.  The
spectrum and Gibbs suites check the closed forms against LAPACK's eigensystems
of the Hamiltonian, which no closed form calls.  The draws come from a Philox
counter-based generator so runs are reproducible from the 64-bit seed alone;
see the README for the exact draw recipe.

All six suites run in one pass of whole-array calls over consecutive blocks of
BLOCK_DRAWS draws: _block builds, solves and judges each block's Gibbs states once
and returns the named per-draw columns that the rows of ALL_SUITES read, joined
over blocks, so no suite's error, worst point or details depend on the block size.
"""

from __future__ import annotations

from collections import namedtuple
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
# `verify --samples 5000` peaks at 38.2 MB RSS with 1024, 37.8 MB with 512 and 39.8 MB
# with 2048; its pass takes 0.042 s in process with 1024, 0.044 s with 2048, 0.051 s with 512.
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


def _block(J, Jz, B, b, T) -> dict[str, np.ndarray]:
    """Every suite's per-draw columns over one block; each Gibbs state is built, solved and judged
    once.  The Gibbs columns hold the worse of the two states' defects; a closed state that the
    density-matrix rule refuses counts as route error 1, the widest gap two concurrences have."""
    # The guarded route first, so that a refused draw raises before an unguarded route warns;
    # then the B grid, whose (N, 13) temporaries peak the memory, before any (N, 4, 4) stack.
    shipped = thermal_concurrence(J, Jz, B, b, T)[0]
    rise = np.diff(concurrence_values(*(v[:, np.newaxis] for v in (J, Jz)), B_MONOTONIC_GRID,
                                      *(v[:, np.newaxis] for v in (b, T))), axis=1)
    levels = np.sort(np.stack(_energies(J, Jz, B, b)[0], axis=-1), axis=-1)
    levels -= hermitian_eigen(build_hamiltonian(J, Jz, B, b)).values
    closed, spectral = gibbs_closed(J, Jz, B, b, T), gibbs_spectral(J, Jz, B, b, T)
    gap = _largest(closed - spectral)
    c, s = _state_defects(closed), _state_defects(spectral)
    del closed, spectral  # freed before the Wootters step allocates its own stacks
    generic = _wootters(c)[0]
    return {
        "levels": np.max(np.abs(levels), axis=-1),
        "states": gap,
        "trace": np.maximum(c.trace, s.trace),
        "hermiticity": np.maximum(c.defect, s.defect),
        "lowest": np.fmin(c.lowest, s.lowest),
        "refused": c.refused | s.refused,
        "routes": np.where(c.refused, 1.0, np.abs(generic - shipped)),
        "closed_refused": c.refused,
        "b_mirror": np.abs(shipped - concurrence_values(J, Jz, B, -b, T)),
        "j_mirror": np.abs(shipped - concurrence_values(-J, Jz, B, b, T)),
        "b_rise": np.maximum(np.max(rise, axis=1), 0.0),
    }


# A row of ALL_SUITES names the _block columns its result reads: its per-draw errors, a
# column that fails the suite wherever it holds, and a map of the joined columns to details.
Suite = namedtuple("Suite", "name tolerance errors refused details", defaults=(None, lambda c: {}))


def _result(suite: Suite, draws, columns) -> SuiteResult:
    errors = columns[suite.errors]
    worst = int(np.argmax(errors))
    refused = suite.refused is not None and columns[suite.refused].any()
    return SuiteResult(
        suite.name, len(errors), float(errors[worst]), suite.tolerance,
        bool(errors[worst] <= suite.tolerance) and not refused,
        {name: float(column[worst]) for name, column in draws.items()}, suite.details(columns),
    )


ALL_SUITES = (
    # closed-form energies vs LAPACK's eigenvalues of the Hamiltonian
    Suite("spectrum-oracle", ROUTE_TOL, "levels"),
    # closed-form vs spectral Gibbs states; it fails, without raising, where
    # wootters_concurrence would refuse either state as no density matrix
    Suite("gibbs-oracle", ROUTE_TOL, "states", "refused", lambda c: {
        "max_trace_defect": float(np.max(c["trace"])),
        "max_hermiticity_defect": float(np.max(c["hermiticity"])),
        "min_eigenvalue": float(np.fmin.reduce(c["lowest"])),  # skips a refused state's nan
    }),
    # generic Wootters on the closed-form Gibbs state vs the shipped X-state kernel
    Suite("concurrence-routes", ROUTE_TOL, "routes", details=lambda c: (
        {"refused_states": int(np.sum(c["closed_refused"]))} if c["closed_refused"].any() else {}
    )),
    # the concurrence is even in the inhomogeneous field b, and in the xy coupling J
    Suite("b-symmetry", SYMMETRY_TOL, "b_mirror"),
    Suite("j-parity", SYMMETRY_TOL, "j_mirror"),
    # the concurrence is nonincreasing in the uniform field B
    Suite("b-monotonic-in-uniform-field", SYMMETRY_TOL, "b_rise"),
)


def verify_draws(draws: dict[str, np.ndarray]) -> list[SuiteResult]:
    """Every suite of ALL_SUITES over the given draws, in one pass over their blocks."""
    parts = [
        _block(**{name: column[start:start + BLOCK_DRAWS] for name, column in draws.items()})
        for start in range(0, len(draws["J"]), BLOCK_DRAWS)
    ]
    columns = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    return [_result(suite, draws, columns) for suite in ALL_SUITES]


def run_suites(samples: int, seed: int) -> list[SuiteResult]:
    """Run every suite over one shared set of seeded draws."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return verify_draws(draw_params(samples, seed))
