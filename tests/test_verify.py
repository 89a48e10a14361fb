import json

import jsonschema
import numpy as np
import pytest

from xxzent import linalg, model, thermal, verify
from xxzent.cli import main
from xxzent.linalg import hermitian_eigen
from xxzent.model import NonPositiveTemperatureError
from xxzent.thermal import PSD_TOL
from xxzent.verify import ALL_SUITES, BLOCK_DRAWS, draw_params, run_suites, verify_draws


def suite_result(name, draws):
    """The named suite's result in the one pass over draws."""
    (result,) = [result for result in verify_draws(draws) if result.name == name]
    return result


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


def test_routes_fail_on_a_mutated_shipped_kernel(monkeypatch):
    # a 1% error in the coherence as the X-state kernel behind eval and sweep
    # reads it must fail verify
    xstate = thermal._xstate
    monkeypatch.setattr(thermal, "_xstate", lambda *args: xstate(*args[:4], args[4] * 1.01))
    assert not suite_result("concurrence-routes", draw_params(600, 9)).passed
    assert not all(result.passed for result in run_suites(600, 9))
    assert main(["verify", "--samples", "600"]) == 3


def test_gibbs_fails_on_a_mutated_shared_coherence(monkeypatch):
    # gibbs_closed reads the same coherence, so the concurrence routes agree on
    # a wrong one; the spectral Gibbs route catches it (a 1% cut keeps the state PSD)
    weights = thermal._weights

    def mutated(*params):
        *rest, coh = weights(*params)
        return (*rest, coh * 0.99)

    monkeypatch.setattr(thermal, "_weights", mutated)
    assert not suite_result("gibbs-oracle", draw_params(600, 9)).passed
    assert main(["verify", "--samples", "600"]) == 3


def test_gibbs_oracle_reports_a_number_for_a_state_linalg_refuses(
    monkeypatch, capsys, output_schema
):
    # one closed-form state asymmetric by 1e-3: linalg refuses it before the solve, so it
    # has no lowest eigenvalue, and min_eigenvalue is taken over the states that were solved
    closed = verify.gibbs_closed

    def skewed(*params):
        rho = closed(*params)
        rho[0, 0, 1] += 1e-3
        return rho

    monkeypatch.setattr(verify, "gibbs_closed", skewed)
    gibbs = suite_result("gibbs-oracle", draw_params(600, 9))
    assert not gibbs.passed and np.isfinite(gibbs.details["min_eigenvalue"])
    assert main(["verify", "--samples", "600", "--seed", "9"]) == 3
    record = json.loads(capsys.readouterr().out)
    jsonschema.validate(record, output_schema)
    (reported,) = [s for s in record["results"]["suites"] if s["name"] == "gibbs-oracle"]
    assert reported["details"] == gibbs.details


def test_routes_fail_on_a_closed_state_that_is_not_psd(monkeypatch, capsys, output_schema):
    # a 1% rise in the shared coherence pushes some closed-form states below
    # zero; the generic route refuses those, and verify reports it as a failure
    weights = thermal._weights

    def mutated(*params):
        *rest, coh = weights(*params)
        return (*rest, coh * 1.01)

    calls = {"_solve": 0, "singular_values": 0}
    for name, function in [(name, getattr(linalg, name)) for name in calls]:

        def counted(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        # _solve is called inside linalg, singular_values where thermal binds it
        monkeypatch.setattr(linalg if name == "_solve" else thermal, name, counted)
    monkeypatch.setattr(thermal, "_weights", mutated)
    routes = suite_result("concurrence-routes", draw_params(600, 9))
    assert not routes.passed
    assert routes.max_error == 1.0 and routes.details["refused_states"] >= 1
    # the block's one pass solves H, the spectral route's H and each Gibbs state once; the
    # closed state's solve gives its square roots for the one SVD
    assert calls == {"_solve": 4, "singular_values": 1}
    lowest = hermitian_eigen(thermal.gibbs_closed(**routes.worst_params)).values[0]
    assert lowest < -PSD_TOL
    assert main(["verify", "--samples", "600", "--seed", "9"]) == 3
    record = json.loads(capsys.readouterr().out)
    jsonschema.validate(record, output_schema)
    (reported,) = [s for s in record["results"]["suites"] if s["name"] == "concurrence-routes"]
    assert reported["worst_params"] == routes.worst_params


def test_a_non_hermitian_closed_state_fails_both_suites(monkeypatch, capsys):
    # an asymmetry of 5e-11, below ROUTE_TOL but far above linalg's Hermiticity rule:
    # the suites that read the closed state refuse every draw instead of raising
    closed = verify.gibbs_closed

    def skewed(*params):
        rho = closed(*params)
        rho[..., 1, 2] += 5e-11
        return rho

    monkeypatch.setattr(verify, "gibbs_closed", skewed)
    draws = draw_params(600, 9)
    results = {result.name: result for result in verify_draws(draws)}
    gibbs, routes = results["gibbs-oracle"], results["concurrence-routes"]
    assert not gibbs.passed and gibbs.max_error <= gibbs.tolerance
    assert not routes.passed and routes.details == {"refused_states": 600}
    assert main(["verify", "--samples", "600", "--seed", "9"]) == 3
    assert capsys.readouterr().err == ""


def _h11_with_big_b(J, Jz, B, b):
    h = model.build_hamiltonian(J, Jz, B, b)
    h[..., 1, 1] = (-Jz + 2.0 * B) / 2.0  # 2B in place of 2b
    return h


def _h_with_scaled_j(J, Jz, B, b):
    return model.build_hamiltonian(J * 1.0001, Jz, B, b)


def _h_uncoupled(J, Jz, B, b):
    h = model.build_hamiltonian(J, Jz, B, b)
    h[..., 1, 2] = h[..., 2, 1] = 0.0
    return h


def _h_inner_swapped(J, Jz, B, b):
    # the inner block's diagonal swapped: the same spectrum, other eigenvectors
    h = model.build_hamiltonian(J, Jz, B, b)
    h[..., [1, 2], [1, 2]] = h[..., [2, 1], [2, 1]]
    return h


def _e3_shifted(J, Jz, B, b):
    (e1, e2, e3, e4), eta = model._energies(J, Jz, B, b)
    return (e1, e2, e3 + 0.01 * b, e4), eta


def _coherence_raised(*params, weights=thermal._weights):
    *rest, coh = weights(*params)
    return (*rest, coh * (1.0 + 1e-9))


def _xstate_coherence_raised(w1, w2, w3, w4, coh, xstate=thermal._xstate):
    return xstate(w1, w2, w3, w4, coh * (1.0 + 1e-9))


def _levels_moved(term, entries, levels):
    """Patches that add term(J, Jz, B, b) to H's diagonal entries and to the closed levels
    (0 for E1 .. 3 for E4), in the basis order |1,1>, |1,0>, |0,1>, |0,0>."""

    def hamiltonian(J, Jz, B, b):
        h = model.build_hamiltonian(J, Jz, B, b)
        for i in entries:
            h[..., i, i] += term(J, Jz, B, b)
        return h

    def energies(J, Jz, B, b):
        values, eta = model._energies(J, Jz, B, b)
        moved = tuple(e + term(J, Jz, B, b) if k in levels else e for k, e in enumerate(values))
        return moved, eta

    return ({"build_hamiltonian": hamiltonian} if entries else {}) | {"_energies": energies}


# Each row: the mutants, by the name each replaces wherever verify or thermal binds it, and
# the exact set of suites that fail on them.  The killers depend on the closed forms and
# the suites, not on the eigensolver behind the spectral route.  Each suite is the only
# killer of at least one row.
SPECTRAL = {"spectrum-oracle", "gibbs-oracle"}
KILL_TABLE = {
    "h11_with_2B_for_2b": ({"build_hamiltonian": _h11_with_big_b}, SPECTRAL),
    "J_times_1.0001_in_H": ({"build_hamiltonian": _h_with_scaled_j}, SPECTRAL),
    "H_coupling_12_zero": ({"build_hamiltonian": _h_uncoupled}, SPECTRAL),
    "E3_plus_0.01b": ({"_energies": _e3_shifted}, SPECTRAL | {"b-symmetry"}),
    # gibbs_closed reads the same coherence (gibbs-oracle), and a raised one leaves some
    # closed states not PSD (concurrence-routes)
    "coherence_times_1+1e-9": (
        {"_weights": _coherence_raised}, {"gibbs-oracle", "concurrence-routes"}
    ),
    # a shift of every level, which no Gibbs state sees
    "levels_plus_0.01Jz": (_levels_moved(lambda J, Jz, B, b: 0.01 * Jz, [], range(4)),
                           {"spectrum-oracle"}),
    "H_inner_diagonal_swapped": ({"build_hamiltonian": _h_inner_swapped}, {"gibbs-oracle"}),
    "xstate_coherence_times_1+1e-9": (
        {"_xstate": _xstate_coherence_raised}, {"concurrence-routes"}
    ),
    # |1,1>, H's h[0,0] and E2, moved alike on both routes
    "h00_and_E2_plus_0.01b": (_levels_moved(lambda J, Jz, B, b: 0.01 * b, [0], [1]),
                              {"b-symmetry"}),
    "h00_and_E2_plus_0.01J": (_levels_moved(lambda J, Jz, B, b: 0.01 * J, [0], [1]),
                              {"j-parity"}),
    # the inner pair, h[1,1], h[2,2], E3 and E4, lowered by B/2: the concurrence can rise with B
    "inner_levels_minus_0.5B": (
        _levels_moved(lambda J, Jz, B, b: -0.5 * B, [1, 2], [2, 3]),
        {"b-monotonic-in-uniform-field"},
    ),
}


@pytest.mark.parametrize("row", KILL_TABLE)
def test_kill_table(monkeypatch, row):
    mutants, killers = KILL_TABLE[row]
    for name, mutant in mutants.items():
        for module in (verify, thermal):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, mutant)
    assert {result.name for result in run_suites(1000, 42) if not result.passed} == killers


@pytest.mark.parametrize(
    "samples, seed, message", [(0, 1, "samples must be >= 1"), (10, -1, "seed must be >= 0")]
)
def test_run_suites_refuses_bad_arguments(samples, seed, message):
    with pytest.raises(ValueError, match=message):
        run_suites(samples, seed)


def test_results_do_not_depend_on_block_size(monkeypatch):
    samples = 1030  # not a multiple of the default block size, nor of 7
    assert samples % verify.BLOCK_DRAWS and samples % 7
    expected = run_suites(samples, 5)
    monkeypatch.setattr(verify, "BLOCK_DRAWS", 7)
    assert run_suites(samples, 5) == expected


@pytest.mark.parametrize(
    "suite",
    ["gibbs-oracle", "concurrence-routes", "b-symmetry", "j-parity"],
    ids=["suite_gibbs", "suite_routes", "suite_b_symmetry", "suite_j_parity"],
)
@pytest.mark.parametrize(
    "T, error",
    [
        (0.0, NonPositiveTemperatureError),
        (1e-9, None),  # far below every level gap, accepted
        (1e-5, None),  # |E|/T >= 5000, accepted: no exponent guard
    ],
)
def test_guards_fire_in_a_later_block(suite, T, error):
    draws = draw_params(600, 9)
    draws["T"][550] = T
    if error is None:
        assert suite_result(suite, draws).passed
        return
    with pytest.raises(error):
        suite_result(suite, draws)


def test_one_pass_builds_solves_and_judges_each_state_once(monkeypatch):
    # per block: one closed-form state, one guarded concurrence and one SVD, and four solves
    # per draw (H, the spectral route's H, and the judgement of each Gibbs state)
    calls = {"gibbs_closed": 0, "thermal_concurrence": 0, "singular_values": 0, "_solve": 0}
    for module, name in [(verify, "gibbs_closed"), (verify, "thermal_concurrence"),
                         (thermal, "singular_values"), (linalg, "_solve")]:

        def counted(*args, name=name, function=getattr(module, name)):
            calls[name] += args[0][..., 0, 0].size if name == "_solve" else 1
            return function(*args)

        monkeypatch.setattr(module, name, counted)
    samples = 2 * BLOCK_DRAWS + 5
    run_suites(samples, 3)
    assert calls == {
        "gibbs_closed": 3, "thermal_concurrence": 3, "singular_values": 3, "_solve": 4 * samples
    }
