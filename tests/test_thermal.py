import itertools
import json
import math

import numpy as np
import pytest

from spectrum_oracle import closed_spectrum, pure_concurrence
from xxzent import linalg, thermal
from xxzent.cli import main
from xxzent.linalg import HERMITICITY_TOL, NonHermitianError, hermitian_eigen, hermiticity_defect
from xxzent.model import (
    InvalidParameterError,
    NonPositiveTemperatureError,
    ZeroXYCouplingError,
    _energies,
    build_hamiltonian,
    ground_state,
)
from xxzent.sweep import critical_field
from xxzent.thermal import (
    ROUTE_TOL,
    InvalidDensityMatrixError,
    concurrence_values,
    gibbs_closed,
    gibbs_diagnostics,
    gibbs_spectral,
    log_sign_values,
    thermal_concurrence,
    wootters_concurrence,
)

# frozen reference: 2*max(0, sinh(1) - 1) / (2 + 2*cosh(1))
C_REFERENCE = 2 * (math.sinh(1) - 1) / (2 + 2 * math.cosh(1))
Z_REFERENCE = 2 + 2 * math.cosh(1)
P_REFERENCE = (1.0, 0.0, 0.0, 0.0)  # J, Jz, B, b
GUARDED = (gibbs_closed, gibbs_spectral, thermal_concurrence)


def random_draw(rng, t_range=(0.05, 5.0)):
    """((J, Jz, B, b), T), the model parameters as floats."""
    p = tuple(float(x) for x in (
        rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3),
        rng.uniform(-3, 3), rng.uniform(0, 3), rng.uniform(-3, 3),
    ))
    return p, rng.uniform(*t_range)


def draw_columns(rng, n):
    draws = [random_draw(rng) for _ in range(n)]
    columns = [np.array(column) for column in zip(*(p for p, _ in draws))]
    return draws, (*columns, np.array([T for _, T in draws]))


def concurrence(p, T):
    """Thermal concurrence at one point, as a float."""
    return float(thermal_concurrence(*p, T)[0])


def sign_function(J, Jz, B, b, T):
    """g = exp(Jz/T) (|J|/eta) sinh(eta/T) - 1, as eval reports it."""
    return float(np.expm1(log_sign_values(J, Jz, b, T)))


def bell_projector():
    s = 1 / math.sqrt(2)
    v = np.array([0.0, -s, s, 0.0], dtype=complex)
    return np.outer(v, v.conj())


class TestGibbsClosed:
    def test_reference_point(self):
        rho = gibbs_closed(*P_REFERENCE, 1.0)
        diag = gibbs_diagnostics(*P_REFERENCE, 1.0)
        assert diag["Z"] == pytest.approx(Z_REFERENCE, abs=1e-13)
        expected = np.diag([1.0, math.cosh(1), math.cosh(1), 1.0]).astype(complex)
        expected[1, 2] = expected[2, 1] = -math.sinh(1)
        assert np.max(np.abs(rho - expected / Z_REFERENCE)) <= 1e-14
        assert diag["m"] == pytest.approx(math.cosh(1), abs=1e-15)
        assert diag["n"] == 0.0
        assert diag["s"] == pytest.approx(math.sinh(1), abs=1e-15)

    def test_infinite_temperature_limit(self):
        rho = gibbs_closed(1.0, 0.4, 0.5, 0.2, 1e6)
        assert np.max(np.abs(rho.diagonal() - 0.25)) <= 1e-5
        assert abs(rho[1, 2]) <= 1e-5

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(301)
        for _ in range(300):
            p, T = random_draw(rng)
            rho = gibbs_closed(*p, T)
            h = build_hamiltonian(*p)
            assert np.max(np.abs(rho @ h - h @ rho)) <= 1e-12

    def test_unit_trace_and_psd(self):
        rng = np.random.default_rng(302)
        for _ in range(300):
            p, T = random_draw(rng)
            rho = gibbs_closed(*p, T)
            diag = gibbs_diagnostics(*p, T)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert hermiticity_defect(rho) <= 1e-12
            assert hermitian_eigen(rho).values[0] >= -1e-12
            assert diag["Z"] > 0
            assert diag["m"] >= 1.0
            J, _, _, b = p
            eta = float(np.hypot(b, J))
            assert abs(diag["n"]) <= math.sinh(eta / T) * (1 + 1e-12)

    def test_rejects_bad_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            gibbs_closed(*P_REFERENCE, 0.0)
        with pytest.raises(NonPositiveTemperatureError):
            gibbs_closed(*P_REFERENCE, -1.0)

    def test_accepts_every_positive_temperature(self):
        # J = T = 1e-9 is the reference point scaled down, so the same state
        rho = gibbs_closed(*(1e-9 * x for x in P_REFERENCE), 1e-9)
        assert np.array_equal(rho, gibbs_closed(*P_REFERENCE, 1.0))
        # and at its own scale, far below the level gap, a valid state
        rho = gibbs_closed(*P_REFERENCE, 1e-9)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert hermitian_eigen(rho).values[0] >= -1e-12

    def test_exponent_guard(self):
        # |E|/T is about 2900 here: no exponent guard refuses it, and the
        # shifted weights still give a unit-trace PSD state
        rho = gibbs_closed(3.0, 3.0, 3.0, 3.0, 0.002)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert hermiticity_defect(rho) <= 1e-12
        assert hermitian_eigen(rho).values[0] >= -1e-12

    def test_rejects_zero_coupling(self):
        with pytest.raises(ZeroXYCouplingError):
            gibbs_closed(0.0, 1.0, 0.0, 0.0, 1.0)


class TestGibbsSpectral:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(303)
        _, columns = draw_columns(rng, 2000)
        closed = gibbs_closed(*columns)
        spectral = gibbs_spectral(*columns)
        assert np.max(np.abs(closed - spectral)) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-12, 1e-14, 1e-300, 1e-320, 1e300])
    def test_scale_free(self, scale):
        # the state depends only on H/T: a coupling far below 1 is still resolved
        rho = gibbs_spectral(scale, 0.0, 0.0, scale, scale)
        assert np.max(np.abs(rho - gibbs_spectral(1.0, 0.0, 0.0, 1.0, 1.0))) <= 1e-16

    def test_top_of_the_double_range(self):
        rho = gibbs_spectral(1.5e308, 0.0, 0.0, 1.35e308, 1e308)
        assert np.array_equal(rho, gibbs_spectral(1.5, 0.0, 0.0, 1.35, 1.0))

    def test_diagonal_hamiltonian(self):
        rho = gibbs_spectral(0.0, 1.0, 0.0, 0.0, 1.0)
        off = rho - np.diag(rho.diagonal())
        assert np.max(np.abs(off)) == 0.0
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_low_temperature_projector(self):
        spec = closed_spectrum(*P_REFERENCE)
        ground = np.outer(spec.states[:, 2], spec.states[:, 2].conj())
        rho = gibbs_spectral(*P_REFERENCE, 0.05)
        assert np.max(np.abs(rho - ground)) <= 1e-8


def half_mixed(asymmetry):
    """diag(1/2, 1/2, 0, 0) with `asymmetry` at [0, 1] alone."""
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    rho[0, 1] = asymmetry
    return rho


# States that wootters_concurrence refuses, each for one reason.
REFUSED = {
    "asym8e-13": half_mixed(8e-13),  # over 1e-12 of the largest entry 0.5, under 1e-12 absolute
    "asym2e-12": half_mixed(2e-12),
    "one-sided-inf": half_mixed(np.inf),
    "trace": np.diag([0.5, 0.5, 0.0, 1e-9]),
    "nan": np.diag([0.5, 0.5, 0.0, np.nan]),
    "negative": np.diag([0.6, 0.5, 0.0, -0.1]),
}


class TestWootters:
    def test_maximally_mixed(self):
        value, roots = wootters_concurrence(np.eye(4, dtype=complex) / 4)
        assert value == 0.0
        assert np.allclose(roots, 0.25, atol=1e-12)

    def test_bell_projector(self):
        value, roots = wootters_concurrence(bell_projector())
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(roots, [1.0, 0.0, 0.0, 0.0], atol=1e-7)

    def test_pure_state_consistency(self):
        rng = np.random.default_rng(304)
        vectors = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(1000)]
        states = [v / np.linalg.norm(v) for v in vectors]
        values, _ = wootters_concurrence(np.stack([np.outer(v, v.conj()) for v in states]))
        expected = np.array([pure_concurrence(v) for v in states])
        assert np.max(np.abs(values - expected)) <= 1e-10

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidDensityMatrixError):
            wootters_concurrence(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1e-3
        with pytest.raises(InvalidDensityMatrixError):
            wootters_concurrence(rho)

    def test_rejects_negative_state(self):
        rho = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(InvalidDensityMatrixError):
            wootters_concurrence(rho)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(1, 2), (0, 0)])
    def test_rejects_non_finite_entry(self, entry, where):
        # one state of a stack; a nan defect or trace must fail the checks, not pass them
        rho = np.stack([np.eye(4) / 4] * 3)
        rho[(1, *where)] = rho[(1, *where[::-1])] = entry
        with pytest.raises(InvalidDensityMatrixError):
            wootters_concurrence(rho)

    # One rule, whichever part of it fires: linalg judges the matrix, thermal the trace.
    @pytest.mark.parametrize("name", REFUSED)
    def test_every_refusal_is_invalid_density_matrix(self, name):
        with pytest.raises(InvalidDensityMatrixError):
            wootters_concurrence(REFUSED[name])

    def test_state_defects_refuse_the_same_states_without_raising(self):
        states = np.stack([np.eye(4) / 4, *REFUSED.values()])
        judged = thermal._state_defects(states)
        assert judged.refused.tolist() == [False] + [True] * len(REFUSED)
        # nan where linalg refused the state before the solve: both asymmetries, inf and nan
        assert np.isnan(judged.lowest).tolist() == [False, True, True, True, False, True, False]
        values, vectors = judged.system
        assert judged.trace[0] == judged.defect[0] == 0.0 and values[0, 0] == 0.25
        assert values.shape == (len(states), 4) and vectors.shape == states.shape

    @pytest.mark.parametrize("name", REFUSED)
    def test_refusal_names_the_state_and_its_defects(self, name):
        states = np.stack([np.eye(4) / 4, np.eye(4) / 4, REFUSED[name], np.eye(4)])
        with pytest.raises(InvalidDensityMatrixError) as raised:
            wootters_concurrence(states)
        message = str(raised.value)
        assert message.startswith("matrix 2 is no density matrix: ")
        # the expected defects come from outside the pass that the message is formatted from
        state = REFUSED[name]
        lowest = np.linalg.eigvalsh(state)[0] if name in ("trace", "negative") else math.nan
        assert message.endswith(
            f"|trace - 1| {abs(np.trace(state) - 1.0):.3e}, "
            f"Hermiticity defect {hermiticity_defect(state):.3e}, lowest eigenvalue {lowest:.3e}"
        )

    def test_a_refused_stack_is_judged_and_solved_once(self, monkeypatch):
        solve, calls = linalg._solve, []
        monkeypatch.setattr(linalg, "_solve", lambda *args: calls.append(1) or solve(*args))
        states = np.stack([np.eye(4) / 4, *REFUSED.values()])
        with pytest.raises(InvalidDensityMatrixError, match="^matrix 1 "):
            wootters_concurrence(states)
        assert len(calls) == 1

    def test_refuses_a_state_past_the_double_range(self):
        # its trace and top eigenvalue overflow: the refused state's zero root keeps the SVD finite
        with pytest.raises(InvalidDensityMatrixError, match="inf"):
            wootters_concurrence(np.full((4, 4), 1e308))

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 3), ()])
    def test_refuses_a_shape_that_holds_no_two_qubit_state(self, shape):
        with pytest.raises(InvalidDensityMatrixError, match="got shape"):
            wootters_concurrence(np.full(shape, 1.0 / 3))

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["scale-1", "scale-2**-40"])
    def test_hermiticity_is_judged_relative_to_the_largest_entry(self, scale):
        # just over and just under HERMITICITY_TOL times the largest |entry| 0.5, at any scale
        over, under = (half_mixed(0.5 * f * HERMITICITY_TOL) * scale for f in (1.01, 0.99))
        with pytest.raises(NonHermitianError):
            hermitian_eigen(over)
        hermitian_eigen(under)
        with pytest.raises(InvalidDensityMatrixError):
            wootters_concurrence(over)
        if scale == 1.0:
            assert wootters_concurrence(under)[0] == 0.0


class TestXState:
    def test_agrees_with_wootters(self):
        rng = np.random.default_rng(305)
        _, columns = draw_columns(rng, 2000)
        x_values, x_roots = thermal_concurrence(*columns)
        w_values, w_roots = wootters_concurrence(gibbs_closed(*columns))
        assert np.max(np.abs(x_values - w_values)) <= 1e-10
        assert np.max(np.abs(x_roots - w_roots)) <= 1e-8


class TestThermalConcurrence:
    def test_reference_point(self):
        value, roots = thermal_concurrence(*P_REFERENCE, 1.0)
        assert value == pytest.approx(C_REFERENCE, abs=1e-13)
        assert np.ndim(value) == 0 and np.shape(roots) == (4,)

    def test_vanishes_above_critical_temperature(self):
        assert concurrence(P_REFERENCE, 2.0) == 0.0
        assert sign_function(*P_REFERENCE, 2.0) < 0.0

    def test_positivity_iff_sign_positive(self):
        rng = np.random.default_rng(307)
        for _ in range(2000):
            p, T = random_draw(rng)
            g = sign_function(*p, T)
            if abs(g) <= 1e-12:
                continue
            assert (concurrence(p, T) > 0.0) == (g > 0.0)

    def test_sign_invariant_in_uniform_field(self):
        signs = set()
        for B in (0.0, 1.0, 2.0, 5.0):
            value = concurrence((1.0, 0.4, B, 0.8), 0.6)
            signs.add(value > 0.0)
        assert len(signs) == 1

    def test_matches_spectral_route(self):
        # the shipped closed form against the spectral Gibbs state and the generic
        # Wootters formula, which share none of its formulas
        _, columns = draw_columns(np.random.default_rng(308), 500)
        closed, _ = thermal_concurrence(*columns)
        spectral, _ = wootters_concurrence(gibbs_spectral(*columns))
        assert np.max(np.abs(closed - spectral)) <= ROUTE_TOL

    def test_accepts_zero_coupling(self):
        assert concurrence((0.0, 1.0, 0.5, 0.3), 1.0) == 0.0

    def test_roots_match_wootters(self):
        rng = np.random.default_rng(309)
        for _ in range(300):
            p, T = random_draw(rng, t_range=(0.3, 5.0))
            _, direct = thermal_concurrence(*p, T)
            _, generic = wootters_concurrence(gibbs_closed(*p, T))
            assert np.max(np.abs(direct - generic)) <= 1e-10

    def test_jz_enhancement(self):
        for b in np.linspace(-3, 3, 7):
            for T in np.linspace(0.1, 3, 7):
                values = [
                    concurrence((1.0, jz, 0.0, b), T)
                    for jz in (0.0, 0.3, 0.6, 0.9)
                ]
                assert np.all(np.diff(values) >= -1e-12)

    def test_zero_temperature_limit(self):
        for p in (
            (1.0, 0.4, 0.5, 0.3),
            (1.0, 0.0, 2.0, 0.0),
            (-1.5, -0.2, 0.3, 0.7),
            (2.0, 1.0, 2.0, -1.2),
        ):
            report = ground_state(*p)
            thermal = concurrence(p, 0.01)
            assert abs(thermal - report.ground_concurrence) <= 1e-3

    def test_range_and_state_validity(self):
        rng = np.random.default_rng(310)
        for _ in range(500):
            p, T = random_draw(rng)
            value = concurrence(p, T)
            assert 0.0 <= value <= 1.0


class TestConcurrenceSign:
    def test_root_of_reference_model(self):
        T = 1 / math.log(1 + math.sqrt(2))
        assert abs(sign_function(*P_REFERENCE, T)) <= 1e-10

    def test_direct_value(self):
        assert sign_function(*P_REFERENCE, 0.5) == pytest.approx(
            math.sinh(2) - 1, abs=1e-12
        )

    def test_independent_of_uniform_field(self, capsys):
        # eval reports g; its value must not move with B
        signs = []
        for B in ("0", "3"):
            main(["eval", "--j", "1", "--jz", "0.4", "--big-b", B, "--b", "0.8", "--t", "0.7"])
            signs.append(json.loads(capsys.readouterr().out)["diagnostics"]["g"])
        assert signs[0] == signs[1] == sign_function(1.0, 0.4, 0.0, 0.8, 0.7)

    # critical_field(axis="B") reports the sign of g at one point, guarded
    def test_rejects_zero_coupling(self):
        with pytest.raises(ZeroXYCouplingError):
            critical_field(0.0, 1.0, 0.0, 0.0, 1.0, "B")

    def test_rejects_bad_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            critical_field(*P_REFERENCE, -0.5, "B")

    def test_log_form_is_overflow_safe(self):
        h = float(log_sign_values(3.0, 3.0, 3.0, 1e-3))
        assert math.isfinite(h) and h > 0


class TestSymmetries:
    def test_even_in_inhomogeneous_field(self):
        rng = np.random.default_rng(311)
        for _ in range(500):
            p, T = random_draw(rng)
            J, Jz, B, b = p
            assert concurrence(p, T) == concurrence((J, Jz, B, -b), T)

    def test_even_in_coupling(self):
        rng = np.random.default_rng(312)
        for _ in range(500):
            p, T = random_draw(rng)
            J, Jz, B, b = p
            assert concurrence(p, T) == concurrence((-J, Jz, B, b), T)

    def test_nonincreasing_in_uniform_field(self):
        rng = np.random.default_rng(313)
        grid = np.arange(0.0, 3.25, 0.25)
        for _ in range(300):
            p, T = random_draw(rng)
            J, Jz, _, b = p
            values = concurrence_values(J, Jz, grid, b, T)
            assert np.all(np.diff(values) <= 1e-12)


class TestStackedKernels:
    def test_match_scalar_routes(self):
        # a point or state gives the same result alone as inside a stack
        rng = np.random.default_rng(314)
        draws, columns = draw_columns(rng, 200)
        closed = gibbs_closed(*columns)
        spectral = gibbs_spectral(*columns)
        woot_values, woot_roots = wootters_concurrence(closed)
        thermal_values, thermal_roots = thermal_concurrence(*columns)
        for i, (p, T) in enumerate(draws):
            rho = gibbs_closed(*p, T)
            assert np.array_equal(closed[i], rho)
            assert np.array_equal(spectral[i], gibbs_spectral(*p, T))
            for route, values, roots in (
                (wootters_concurrence(rho), woot_values, woot_roots),
                (thermal_concurrence(*p, T), thermal_values, thermal_roots),
            ):
                assert route[0] == values[i]
                assert np.array_equal(route[1], roots[i])
        # complex states: sqrt(rho) of a complex eigensystem, alone and inside a stack
        a = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
        states = a @ a.conj().swapaxes(-1, -2)
        states /= np.trace(states, axis1=-2, axis2=-1).real[:, np.newaxis, np.newaxis]
        woot_values, woot_roots = wootters_concurrence(states)
        for i, rho in enumerate(states):
            value, roots = wootters_concurrence(rho)
            assert value == woot_values[i]
            assert np.array_equal(roots, woot_roots[i])

    def test_guards_fire_for_one_member(self):
        rng = np.random.default_rng(315)
        _, (J, Jz, B, b, T) = draw_columns(rng, 50)
        for kernel in GUARDED:
            for bad_T, error in (
                (0.0, NonPositiveTemperatureError),
                (1e-9, None),  # far below every level gap, accepted
                (1e-5, None),  # |E|/T >= 5000, accepted: no exponent guard
            ):
                temps = T.copy()
                temps[31] = bad_T
                if error is None:
                    out = kernel(J, Jz, B, b, temps)
                    assert np.all(np.isfinite(out[0] if kernel is thermal_concurrence else out))
                    continue
                with pytest.raises(error):
                    kernel(J, Jz, B, b, temps)
        couplings = J.copy()
        couplings[7] = 0.0
        with pytest.raises(ZeroXYCouplingError):
            gibbs_closed(couplings, Jz, B, b, T)

    def test_domain_refused_for_one_member(self):
        # the guarded functions refuse what the scalar operations refuse
        rng = np.random.default_rng(317)
        _, columns = draw_columns(rng, 50)
        for kernel in GUARDED:
            for index, bad, message in (
                (0, math.nan, "J must be finite"),
                (1, math.inf, "Jz must be finite"),
                (2, -0.5, "B must be >= 0, got -0.5"),
                (3, -math.inf, "b must be finite"),
                (4, math.inf, "T must be finite"),
            ):
                stack = [column.copy() for column in columns]
                stack[index][23] = bad
                with pytest.raises(InvalidParameterError, match=message):
                    kernel(*stack)
                point = [float(column[23]) for column in stack]
                with pytest.raises(InvalidParameterError, match=message):
                    kernel(*point)
                if index == 2:
                    with pytest.raises(InvalidParameterError, match=message):
                        ground_state(*point[:4])

    def test_unguarded_kernels_take_any_field(self):
        h = build_hamiltonian(1.0, 0.4, -0.5, 0.2)
        assert h[0, 0] == pytest.approx(-0.3, abs=1e-15)
        assert _energies(1.0, 0.4, -0.5, 0.2)[0][1] == pytest.approx(-0.3, abs=1e-15)
        assert 0.0 <= concurrence_values(1.0, 0.4, -0.5, 0.2, 1.0) <= 1.0

    def test_state_checks_fire_for_one_member(self):
        rng = np.random.default_rng(316)
        _, columns = draw_columns(rng, 50)
        real = gibbs_closed(*columns)
        for rho, corrupt in itertools.product(
            (real, real.astype(complex)),
            (
                lambda m: m * 2.0,  # trace 2
                lambda m: m + np.triu(np.full((4, 4), 1e-3), 1),  # not Hermitian
                lambda m: np.diag([0.6, 0.5, 0.0, -0.1]),  # not PSD
            ),
        ):
            bad = rho.copy()
            bad[12] = corrupt(bad[12])
            with pytest.raises(InvalidDensityMatrixError):
                wootters_concurrence(bad)
