import math

import numpy as np
import pytest

from xxzent.model import (
    BoltzmannOverflowError,
    InvalidParameterError,
    NonPositiveTemperatureError,
    ZeroXYCouplingError,
)
from xxzent.sweep import (
    Axis,
    InvalidAxisError,
    UnknownFigureError,
    critical_field,
    critical_temperature,
    figure_data,
    sweep,
)
from xxzent.thermal import log_sign_values, thermal_concurrence

TC_REFERENCE = 1 / math.log(1 + math.sqrt(2))


class TestAxis:
    def test_values_are_inclusive_linear(self):
        axis = Axis("b", -1.0, 1.0, 5)
        assert np.array_equal(axis.values(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "bad",
        [
            (("x", 0, 1, 5), InvalidAxisError),
            (("b", 0, 1, 0), InvalidAxisError),
            (("b", 1, 0, 5), InvalidAxisError),
            (("b", 0, 1, 1), InvalidAxisError),  # single point needs start == stop
            # out of the model's domain: the errors eval raises, exit code 1
            (("T", 0.0, 1, 5), NonPositiveTemperatureError),
            (("T", -1.0, 1, 5), NonPositiveTemperatureError),
            (("B", -1.0, 1, 5), InvalidParameterError),
            (("b", math.inf, 1, 5), InvalidParameterError),
            (("T", 1e-9, 1, 5), BoltzmannOverflowError),
            (("T", 0.1, math.inf, 5), InvalidParameterError),
        ],
    )
    def test_rejects_invalid(self, bad):
        spec, error = bad
        with pytest.raises(error):
            Axis(*spec)

    def test_single_point(self):
        assert np.array_equal(Axis("T", 0.7, 0.7, 1).values(), [0.7])


class TestSweep:
    def test_degenerate_grid_matches_single_call(self):
        grid = sweep(
            [Axis("b", 0.4, 0.4, 1)], {"J": 1.0, "Jz": 0.2, "B": 0.3, "T": 0.8}
        )
        direct = thermal_concurrence(1.0, 0.2, 0.3, 0.4, 0.8)[0]
        assert grid.values.shape == (1,)
        assert grid.values[0] == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_two_point_axis(self):
        grid = sweep([Axis("T", 0.4, 1.0, 2)], {"J": 1.0, "Jz": 0.0, "B": 0.0, "b": 0.0})
        assert grid.values.shape == (2,)
        for value, T in zip(grid.values, (0.4, 1.0)):
            assert value == pytest.approx(
                thermal_concurrence(1.0, 0.0, 0.0, 0.0, T)[0],
                rel=1e-12,
            )

    def test_symmetric_in_inhomogeneous_field(self):
        grid = sweep(
            [Axis("b", -6.0, 6.0, 201)], {"J": 1.0, "Jz": 0.0, "B": 0.0, "T": 0.4}
        )
        assert np.max(np.abs(grid.values - grid.values[::-1])) <= 1e-12

    def test_values_in_range(self):
        grid = sweep(
            [Axis("b", -6.0, 6.0, 41), Axis("T", 0.1, 4.0, 41)],
            {"J": 1.0, "Jz": 0.4, "B": 0.5},
        )
        assert grid.values.shape == (41, 41)
        assert np.all(grid.values >= 0.0)
        assert np.all(grid.values <= 1.0)

    def test_deterministic(self):
        spec = ([Axis("b", -2.0, 2.0, 31), Axis("T", 0.2, 2.0, 17)],
                {"J": 1.0, "Jz": 0.3, "B": 0.2})
        first = sweep(*spec)
        second = sweep(*spec)
        assert np.array_equal(first.values, second.values)

    def test_sweeping_through_zero_coupling(self):
        grid = sweep([Axis("J", -1.0, 1.0, 5)], {"Jz": 0.5, "B": 0.0, "b": 0.0, "T": 0.5})
        assert grid.values[2] == 0.0  # J = 0: diagonal Gibbs state
        assert np.array_equal(grid.values, grid.values[::-1])

    @pytest.mark.parametrize(
        "axes,fixed",
        [
            ([], {"J": 1, "Jz": 0, "B": 0, "b": 0, "T": 1}),
            ([Axis("b", 0, 1, 3)] * 2, {"J": 1, "Jz": 0, "B": 0, "T": 1}),
            ([Axis("b", 0, 1, 3), Axis("T", 0.1, 1, 3), Axis("B", 0, 1, 3)],
             {"J": 1, "Jz": 0}),
            ([Axis("b", 0, 1, 3)], {"J": 1, "Jz": 0, "B": 0, "T": 1, "b": 0}),
            ([Axis("b", 0, 1, 3)], {"J": 1, "Jz": 0, "B": 0}),
            ([Axis("b", 0, 1, 3)], {"J": 1, "Jz": 0, "B": -1, "T": 1}),
            ([Axis("b", 0, 1, 1200), Axis("T", 0.1, 1, 3)],
             {"J": 1, "Jz": 0, "B": 0}),
        ],
    )
    def test_rejects_bad_specs(self, axes, fixed):
        # a negative fixed B is out of the model's domain; the rest are structural
        error = InvalidParameterError if fixed.get("B", 0) < 0 else InvalidAxisError
        with pytest.raises(error):
            sweep(axes, fixed)


class TestCriticalTemperature:
    def test_reference_root(self):
        point = critical_temperature(1.0, 0.0, 0.0, 0.0)
        assert point.location == pytest.approx(TC_REFERENCE, abs=1e-9)
        assert abs(point.residual) <= 1e-9

    def test_certified_by_a_sign_change_of_the_concurrence(self):
        tc = critical_temperature(1.0, 0.0, 0.0, 0.0).location
        assert thermal_concurrence(1.0, 0.0, 0.0, 0.0, tc * (1 - 1e-4))[0] > 0.0
        assert thermal_concurrence(1.0, 0.0, 0.0, 0.0, tc * (1 + 1e-4))[0] == 0.0

    def test_bracket_signs_disagree(self):
        point = critical_temperature(1.0, 0.9, 0.0, 0.4)
        lo, hi = point.bracket
        assert log_sign_values(1.0, 0.9, 0.4, lo) > 0.0
        assert log_sign_values(1.0, 0.9, 0.4, hi) < 0.0

    def test_improved_by_z_coupling(self):
        stronger = critical_temperature(1.0, 0.9, 0.0, 0.0).location
        assert stronger > TC_REFERENCE

    def test_independent_of_uniform_field(self):
        a = critical_temperature(1.0, 0.4, 0.0, 0.2).location
        b = critical_temperature(1.0, 0.4, 2.0, 0.2).location
        assert a == b

    def test_monotone_in_z_coupling_and_field(self):
        tcs = [
            critical_temperature(1.0, jz, 0.0, 0.0).location
            for jz in (0.0, 0.3, 0.6, 0.9)
        ]
        assert np.all(np.diff(tcs) > 0)
        tcs = [
            critical_temperature(1.0, 0.0, 0.0, b).location
            for b in (0.0, 0.5, 1.0, 2.0)
        ]
        assert np.all(np.diff(tcs) > 0)

    def test_no_root_for_strongly_ferromagnetic_z(self):
        point = critical_temperature(1.0, -3.0, 0.0, 0.0)
        assert point.location is None
        assert "g <= 0" in point.note

    def test_rejects_zero_coupling(self):
        with pytest.raises(ZeroXYCouplingError):
            critical_temperature(0.0, 1.0, 0.0, 0.0)


class TestCriticalField:
    def test_inhomogeneous_no_root_when_positive_everywhere(self):
        point = critical_field(1.0, 0.0, 0.0, 0.0, 0.6, "b")
        assert point.location is None
        assert "asymptotically" in point.note

    def test_inhomogeneous_onset_root(self):
        # b = 0 is disentangled at T = 2 but large b restores entanglement
        point = critical_field(1.0, 0.0, 0.0, 0.0, 2.0, "b")
        assert point.location is not None
        assert abs(point.residual) <= 1e-9
        assert log_sign_values(1.0, 0.0, point.location * (1 - 1e-6), 2.0) < 0.0
        assert log_sign_values(1.0, 0.0, point.location * (1 + 1e-6), 2.0) > 0.0

    def test_uniform_field_reports_zero_temperature_boundary(self):
        point = critical_field(1.0, 0.4, 0.0, 0.8, 0.01, "B")
        assert point.location is None
        assert point.zero_temperature_boundary == pytest.approx(
            1.6806248474865697, abs=1e-12
        )
        point = critical_field(1.0, 0.4, 0.0, 0.0, 0.01, "B")
        assert point.zero_temperature_boundary == pytest.approx(1.4, abs=1e-15)

    def test_uniform_boundary_grows_with_inhomogeneity(self):
        boundaries = [
            critical_field(1.0, 0.4, 0.0, b, 0.01, "B").zero_temperature_boundary
            for b in (0.0, 0.4, 0.8, 1.2)
        ]
        assert np.all(np.diff(boundaries) > 0)

    def test_rejects_unknown_axis(self):
        with pytest.raises(InvalidAxisError):
            critical_field(1.0, 0.0, 0.0, 0.0, 1.0, "Jz")

    def test_rejects_bad_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            critical_field(1.0, 0.0, 0.0, 0.0, 0.0, "b")


class TestFigureData:
    def test_unknown_figure(self):
        with pytest.raises(UnknownFigureError):
            figure_data(6)

    def test_labels_unique(self):
        labels = [g.metadata["label"] for f in range(1, 6) for g in figure_data(f, points=3)]
        assert len(labels) == len(set(labels))

    def test_fig1_shapes_and_symmetry(self):
        inhomogeneous, uniform = figure_data(1, points=41)
        assert inhomogeneous.values.shape == (41, 2)
        assert [a.name for a in inhomogeneous.axes] == ["b", "T"]
        assert np.max(np.abs(inhomogeneous.values - inhomogeneous.values[::-1, :])) <= 1e-12
        assert [a.name for a in uniform.axes] == ["B", "T"]
        assert np.array_equal(uniform.axes[1].values(), [0.4, 1.0])

    def test_fig2_low_temperature_anchor(self):
        grid = figure_data(2, points=11)[0]
        target = 1 / math.sqrt(1 + 0.458**2)
        corner = grid.values[0, 0]  # B = 0, T = 0.01
        assert corner < target
        assert target - corner <= 1e-3

    def test_fig3_reference_value(self):
        jz0 = figure_data(3, points=21)[0]
        b_axis, t_axis = jz0.axes
        b_index = int(np.argmin(np.abs(b_axis.values())))
        t_index = int(np.argmin(np.abs(t_axis.values() - 1.0)))
        assert b_axis.values()[b_index] == 0.0
        reference = 2 * (math.sinh(1) - 1) / (2 + 2 * math.cosh(1))
        assert jz0.values[b_index, t_index] == pytest.approx(reference, abs=1e-6)

    def test_fig4_ordered_by_z_coupling(self):
        low, mid, high = figure_data(4, points=61)
        assert np.all(high.values >= mid.values - 1e-12)
        assert np.all(mid.values >= low.values - 1e-12)

    def test_fig5_peak_drops_with_inhomogeneity(self):
        homogeneous, inhomogeneous = figure_data(5, points=41)
        assert inhomogeneous.values.max() < homogeneous.values.max()
