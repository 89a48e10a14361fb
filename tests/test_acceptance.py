"""Acceptance suite: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them
on success)."""

import math
import time

import numpy as np
import pytest

from spectrum_oracle import pure_concurrence
from xxzent.model import Phase, ground_state
from xxzent.sweep import critical_temperature, figure_data
from xxzent.thermal import concurrence_values, thermal_concurrence, wootters_concurrence
from xxzent.verify import draw_params, verify_draws

SEED = 20260810
N_DRAWS = 10_000

TC_REFERENCE = 1 / math.log(1 + math.sqrt(2))


@pytest.fixture(scope="module")
def draws():
    return draw_params(N_DRAWS, SEED)


@pytest.fixture(scope="module")
def suites(draws):
    """Each suite's result, by name, from the one pass over the draws."""
    return {result.name: result for result in verify_draws(draws)}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_spectrum_oracle(suites):
    result = suites["spectrum-oracle"]
    report(1, "spectrum-oracle", result.max_error <= 1e-10,
           f"max |dE| = {result.max_error:.3e} over {result.samples} draws, tol 1e-10")


def test_02_gibbs_oracle(suites):
    result = suites["gibbs-oracle"]
    ok = (
        result.max_error <= 1e-10
        and result.details["max_trace_defect"] <= 1e-12
        and result.details["min_eigenvalue"] >= -1e-12
    )
    report(2, "gibbs-oracle", ok,
           f"max entry diff = {result.max_error:.3e} (tol 1e-10), "
           f"trace defect = {result.details['max_trace_defect']:.3e} (tol 1e-12), "
           f"min eigenvalue = {result.details['min_eigenvalue']:.3e} (floor -1e-12)")


def test_03_concurrence_route_agreement(suites):
    routes = suites["concurrence-routes"]
    rng = np.random.Generator(np.random.Philox(SEED + 1))
    vectors = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(1000)]
    states = [v / np.linalg.norm(v) for v in vectors]
    generic, _ = wootters_concurrence(np.stack([np.outer(v, v.conj()) for v in states]))
    expected = np.array([pure_concurrence(v) for v in states])
    worst_pure = float(np.max(np.abs(generic - expected)))
    ok = routes.max_error <= 1e-10 and worst_pure <= 1e-10
    report(3, "concurrence-routes", ok,
           f"wootters vs xstate = {routes.max_error:.3e}, "
           f"pure-projector vs 2|ad-bc| = {worst_pure:.3e}, tol 1e-10")


def test_04_homogeneous_ground_anchor():
    rng = np.random.Generator(np.random.Philox(SEED + 2))
    worst = 0.0
    checked = 0
    while checked < 2000:
        j = (1 if rng.random() < 0.5 else -1) * (0.05 + 2.95 * rng.random())
        jz = -3 + 6 * rng.random()
        threshold = abs(j) + jz
        if threshold <= 0.05:
            continue
        B = 0.99 * threshold * rng.random()
        checked += 1
        result = ground_state(j, jz, B, 0.0)
        assert result.phase is Phase.ENTANGLED
        worst = max(worst, abs(result.ground_concurrence - 1.0))
    report(4, "homogeneous-ground-anchor", worst <= 1e-12,
           f"max |C - 1| = {worst:.3e} over {checked} draws, tol 1e-12")


def test_05_isotropic_case_anchor():
    target = 1 / math.sqrt(1 + 0.458**2)
    # the fig2 preset point Jz = J = -1, b = 0.458 at doubled parameters
    closed = ground_state(-2.0, -2.0, 0.0, 0.916).ground_concurrence
    corner = figure_data(2)[0].values[0, 0]  # B = 0, lowest T = 0.01
    ok = (
        abs(closed - 0.909180) <= 1e-5
        and corner <= target
        and target - corner <= 1e-3
    )
    report(5, "isotropic-case-anchor", ok,
           f"closed form = {closed:.6f} (0.909180 +- 1e-5), "
           f"fig2 low-T corner = {corner:.6f}, gap {target - corner:.2e} <= 1e-3")


def test_06_symmetry_suite(suites):
    b_sym = suites["b-symmetry"]
    j_par = suites["j-parity"]
    ok = b_sym.max_error <= 1e-12 and j_par.max_error <= 1e-12
    report(6, "symmetry-suite", ok,
           f"max |C(b)-C(-b)| = {b_sym.max_error:.3e}, "
           f"max |C(J)-C(-J)| = {j_par.max_error:.3e}, tol 1e-12")


def test_07_jz_enhancement():
    b = np.linspace(-3.0, 3.0, 21)[:, None]
    T = np.linspace(0.1, 3.0, 21)[None, :]
    stack = np.stack(
        [concurrence_values(1.0, jz, 0.0, b, T) for jz in (0.0, 0.3, 0.6, 0.9)]
    )
    worst_drop = float(np.min(np.diff(stack, axis=0)))
    tc_low = critical_temperature(1.0, 0.0, 0.0, 0.0).location
    tc_high = critical_temperature(1.0, 0.9, 0.0, 0.0).location
    ok = worst_drop >= -1e-12 and tc_high > tc_low
    report(7, "jz-enhancement", ok,
           f"min concurrence step across Jz grid = {worst_drop:.3e} (>= -1e-12), "
           f"Tc(Jz=0.9) = {tc_high:.6f} > Tc(Jz=0) = {tc_low:.6f}")


def test_08_critical_temperature_anchor():
    p = (1.0, 0.0, 0.0, 0.0)  # J, Jz, B, b
    tc = critical_temperature(*p).location
    below = thermal_concurrence(*p, tc * (1 - 1e-4))[0]
    above = thermal_concurrence(*p, tc * (1 + 1e-4))[0]
    ok = (
        abs(tc - 1.134593) <= 1e-6
        and abs(tc - TC_REFERENCE) <= 1e-6
        and below > 0.0
        and above == 0.0
    )
    report(8, "critical-temperature-anchor", ok,
           f"Tc = {tc:.9f} (1.134593 +- 1e-6), C(Tc(1-1e-4)) = {below:.2e} > 0, "
           f"C(Tc(1+1e-4)) = {above}")


def test_09_uniform_field_behavior(suites):
    rng = np.random.Generator(np.random.Philox(SEED + 3))
    u = rng.random((1000, 4))
    J = (0.05 + 2.95 * u[:, 0]) * np.where(u[:, 1] < 0.5, -1.0, 1.0)
    Jz = -3.0 + 6.0 * u[:, 2]
    b = -3.0 + 6.0 * u[:, 3]
    T = 0.05 + 4.95 * rng.random(1000)
    fields = np.array([0.0, 1.0, 2.0, 5.0])
    values = concurrence_values(
        J[:, None], Jz[:, None], fields[None, :], b[:, None], T[:, None]
    )
    positive = values > 0.0
    sign_invariant = bool(np.all(positive == positive[:, :1]))

    monotonic = suites["b-monotonic-in-uniform-field"]

    boundary_b0 = ground_state(1.0, 0.4, 0.0, 0.0).threshold_B
    boundary_b08 = ground_state(1.0, 0.4, 0.0, 0.8).threshold_B
    boundaries_ok = (
        abs(boundary_b0 - 1.4) <= 1e-12
        and abs(boundary_b08 - 1.6806248474865697) <= 1e-9
        and boundary_b08 > boundary_b0
    )
    ok = sign_invariant and monotonic.passed and boundaries_ok
    report(9, "uniform-field-behavior", ok,
           f"sign invariant over B in {{0,1,2,5}} on 1000 draws: {sign_invariant}, "
           f"max B-increase = {monotonic.max_error:.3e} (tol 1e-12), "
           f"B^f(b=0) = {boundary_b0:.4f} < B^f(b=0.8) = {boundary_b08:.4f}")


def test_10_figure_regeneration():
    start = time.perf_counter()
    grids = {f: figure_data(f) for f in range(1, 6)}
    elapsed = time.perf_counter() - start

    fig1_sym = max(
        float(np.max(np.abs(g.values - g.values[::-1, ...])))
        for g in grids[1][:1]
    )
    fig3_sym = max(
        float(np.max(np.abs(g.values - g.values[::-1, :]))) for g in grids[3]
    )
    low, mid, high = grids[4]
    fig4_ordered = bool(
        np.all(high.values >= mid.values - 1e-12)
        and np.all(mid.values >= low.values - 1e-12)
    )
    fig5_drop = grids[5][1].values.max() < grids[5][0].values.max()
    ok = (
        elapsed <= 10.0
        and fig1_sym <= 1e-12
        and fig3_sym <= 1e-12
        and fig4_ordered
        and fig5_drop
    )
    report(10, "figure-regeneration", ok,
           f"runtime = {elapsed:.2f} s (<= 10 s), fig1/fig3 b-asymmetry = "
           f"{max(fig1_sym, fig3_sym):.2e} (tol 1e-12), fig4 ordered: {fig4_ordered}, "
           f"fig5 max {grids[5][1].values.max():.4f} < {grids[5][0].values.max():.4f}")
