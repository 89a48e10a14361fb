import numpy as np
import pytest

from xxzent import verify
from xxzent.model import BoltzmannOverflowError, NonPositiveTemperatureError
from xxzent.verify import (
    ALL_SUITES,
    draw_params,
    run_suites,
    suite_b_symmetry,
    suite_gibbs,
    suite_j_parity,
    suite_routes,
)


def test_draw_ranges_and_reproducibility():
    draws = draw_params(2000, 7)
    assert np.all(np.abs(draws["J"]) >= 0.05) and np.all(np.abs(draws["J"]) <= 3.0)
    assert np.any(draws["J"] < 0) and np.any(draws["J"] > 0)
    assert np.all(np.abs(draws["Jz"]) <= 3.0)
    assert np.all((draws["B"] >= 0.0) & (draws["B"] <= 3.0))
    assert np.all(np.abs(draws["b"]) <= 3.0)
    assert np.all((draws["T"] >= 0.05) & (draws["T"] <= 5.0))
    again = draw_params(2000, 7)
    for name in draws:
        assert np.array_equal(draws[name], again[name])
    different = draw_params(2000, 8)
    assert not np.array_equal(draws["J"], different["J"])


def test_all_suites_pass():
    results = run_suites(500, 42)
    assert len(results) == len(ALL_SUITES)
    for result in results:
        assert result.passed, f"{result.name}: {result.max_error} at {result.worst_params}"
        assert result.max_error <= result.tolerance
        assert set(result.worst_params) == {"J", "Jz", "B", "b", "T"}


def test_suite_results_deterministic():
    first = run_suites(300, 11)
    second = run_suites(300, 11)
    for a, b in zip(first, second):
        assert a == b


def test_gibbs_suite_reports_validity_details():
    (gibbs,) = [r for r in run_suites(100, 3) if r.name == "gibbs-oracle"]
    assert gibbs.details["max_trace_defect"] <= 1e-12
    assert gibbs.details["min_eigenvalue"] >= -1e-12


def test_results_do_not_depend_on_block_size(monkeypatch):
    samples = 1030  # not a multiple of the default block size, nor of 7
    assert samples % verify.BLOCK_DRAWS and samples % 7
    expected = run_suites(samples, 5)
    monkeypatch.setattr(verify, "BLOCK_DRAWS", 7)
    assert run_suites(samples, 5) == expected


@pytest.mark.parametrize(
    "suite", [suite_gibbs, suite_routes, suite_b_symmetry, suite_j_parity]
)
@pytest.mark.parametrize(
    "T, error",
    [
        (0.0, NonPositiveTemperatureError),
        (1e-9, BoltzmannOverflowError),  # temperature guard
        (1e-5, None),  # |E|/T >= 5000, accepted: no exponent guard
    ],
)
def test_guards_fire_in_a_later_block(suite, T, error):
    draws = draw_params(600, 9)
    draws["T"][550] = T
    if error is None:
        assert suite(draws).passed
        return
    with pytest.raises(error):
        suite(draws)
