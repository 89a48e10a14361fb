"""Concurrence sweeps over parameter grids and critical-point finders.

Grids evaluate the vectorized X-state kernel on an open mesh: the first axis
enters shaped (n, 1) and the second (1, m), as np.ix_ builds them, so a
quantity of one axis is computed once per value of that axis, not once per
grid point, wherever model._rescaled leaves the parameters as they are: every
grid point's largest |parameter| in [2**-64, 2**(max_exp - 3)), as on any grid
of parameters near unit scale.  Every grid, the figure presets included,
goes through sweep and its cap of MAX_GRID_POINTS points in all; figure 2's
doubled (J, Jz, B, b) is evaluated as T/2, which homogeneity makes the same
bits.  Critical points are zeros of the analytic sign function g rather than
"concurrence < eps" thresholds: g is monotone along every axis searched here
(decreasing in T where a root can exist, increasing in |b|), so its signs at
the ends of the double range decide existence and bisection over exponents,
then values, certifies the location; only signs of g decide, never a scale or
an absolute constant.  Regimes where the concurrence only decays
asymptotically report no finite root instead of a fabricated one.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import XxzentError
from .model import _check_params, ground_state
from .thermal import concurrence_values, log_sign_values

PARAM_NAMES = ("J", "Jz", "B", "b", "T")

# The most points a grid may have, over all its axes: 1001 x 1001 in two.
MAX_GRID_POINTS = 1001**2


class InvalidAxisError(XxzentError, ValueError):
    """Malformed axis or inconsistent fixed/swept parameter split."""

    exit_code = 2


class UnknownFigureError(XxzentError, ValueError):
    """Figure preset id outside 1..5."""

    exit_code = 2


@dataclass(frozen=True)
class Axis:
    """Inclusive linear axis over one model parameter.

    Endpoints outside the parameter's domain raise the errors of
    model._check_params; a malformed axis raises InvalidAxisError.
    """

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if self.name not in PARAM_NAMES:
            raise InvalidAxisError(
                f"axis name must be one of {PARAM_NAMES}, got {self.name!r}"
            )
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        try:
            object.__setattr__(self, "points", operator.index(self.points))
        except TypeError:
            raise InvalidAxisError(f"axis points must be an integer, got {self.points!r}") from None
        _check_params(**{self.name: np.array([self.start, self.stop])})
        if self.points < 1:
            raise InvalidAxisError(f"axis needs at least 1 point, got {self.points}")
        if self.points == 1:
            if self.start != self.stop:
                raise InvalidAxisError("a single-point axis requires start == stop")
        elif not self.start < self.stop:
            raise InvalidAxisError(
                f"axis requires start < stop, got [{self.start}, {self.stop}]"
            )

    def values(self) -> np.ndarray:
        # halve a span past the double range; halving and doubling are exact there
        scale = 2.0 if abs(self.stop - self.start) == np.inf else 1.0
        return scale * np.linspace(self.start / scale, self.stop / scale, self.points)


@dataclass(frozen=True)
class SweepGrid:
    """Concurrence table over 1 or 2 axes; values shaped (points0[, points1])."""

    fixed: dict[str, float]
    axes: tuple[Axis, ...]
    values: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict)  # a figure's labels, empty for other grids


@dataclass(frozen=True)
class CriticalPoint:
    """Certified root of the sign function, or a no-finite-root report."""

    axis: str
    location: float | None
    bracket: tuple[float, float] | None
    residual: float | None
    note: str = ""
    zero_temperature_boundary: float | None = None


def _validate_sweep(axes: Sequence[Axis], fixed: Mapping[str, float]) -> None:
    if not 1 <= len(axes) <= 2:
        raise InvalidAxisError(f"sweep takes 1 or 2 axes, got {len(axes)}")
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise InvalidAxisError(f"swept axes must be distinct, got {names}")
    if (total := math.prod(a.points for a in axes)) > MAX_GRID_POINTS:
        raise InvalidAxisError(f"grids are capped at {MAX_GRID_POINTS} points, got {total}")
    expected = set(PARAM_NAMES) - set(names)
    if set(fixed) != expected:
        raise InvalidAxisError(
            f"fixed parameters must be exactly {sorted(expected)}, got {sorted(fixed)}"
        )
    _check_params(**fixed)


def sweep(axes: Sequence[Axis], fixed: Mapping[str, float]) -> SweepGrid:
    """Evaluate thermal concurrence on the grid spanned by `axes`.

    `fixed` must supply exactly the parameters not swept.  Output is
    deterministic and independent of evaluation order.
    """
    axes = tuple(axes)
    _validate_sweep(axes, fixed)
    fixed = {k: float(v) for k, v in fixed.items()}
    params: dict[str, object] = dict(fixed)
    for axis, values in zip(axes, np.ix_(*[a.values() for a in axes])):
        params[axis.name] = values
    values = concurrence_values(*(params[name] for name in PARAM_NAMES))
    return SweepGrid(fixed, axes, values.reshape(tuple(a.points for a in axes)))


def _sign_root(axis, h, lowest, decreasing: bool, absent: str, note="") -> CriticalPoint:
    """Root of h between lowest and the largest double; h > 0 only below it if decreasing,
    only above it if not.  A sign change below lowest gives the note absent, one above
    the largest double a past-the-range note.  Bisection over binary exponents finds the
    binade [2**e, 2**(e+1)] (the top one ends at the largest double) that holds the sign
    change, and bisection over values narrows it to two adjacent doubles.  So h is
    evaluated at most 66 times (2 ends, 12 powers of two, 52 midpoints), and only its
    signs decide: the root scales exactly with the parameters' powers of two.
    """
    values = {}

    def below(x: float) -> bool:
        values[x] = h(x)
        return (values[x] > 0.0) == decreasing

    if not below(lowest):
        return CriticalPoint(axis, None, None, None, note=absent)
    if below(top := sys.float_info.max):
        note = "sign function g changes sign past the double range: no double holds the root"
        return CriticalPoint(axis, None, None, None, note=note)
    # at the ends lo and hi stand in for 2**low and 2**high: lowest <= 2**-1074, top < 2**1024
    (lo, low), (hi, high) = (lowest, -1075), (top, sys.float_info.max_exp)
    while high - low > 1:
        middle = (low + high) // 2
        if below(x := math.ldexp(1.0, middle)):
            lo, low = x, middle
        else:
            hi, high = x, middle
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    root = min(lo, hi, key=lambda x: abs(values[x]))
    return CriticalPoint(axis, root, (lo, hi), float(np.expm1(values[root])), note=note)


def critical_temperature(J, Jz, B, b) -> CriticalPoint:
    """Temperature above which the thermal concurrence vanishes.

    g is strictly decreasing in T wherever it can be positive, so a root exists
    iff g > 0 at the smallest positive double (the T -> 0 limit is +inf iff
    Jz + eta > 0) and g <= 0 at the largest.  Independent of B.
    """
    _check_params("critical temperature", J=J, Jz=Jz, B=B, b=b)
    return _sign_root(
        "T", lambda T: float(log_sign_values(J, Jz, b, T)), math.ulp(0.0), decreasing=True,
        absent="Jz + eta <= 0, so g <= 0 at every temperature: no thermal entanglement",
    )


def critical_field(J, Jz, B, b, T, axis: str) -> CriticalPoint:
    """Critical inhomogeneous field (axis="b") or uniform field (axis="B").

    For axis="b" the sign function grows without bound in b >= 0, so a root
    exists iff g <= 0 at b = 0 and g > 0 at the largest double (b-symmetry
    gives the mirror root at -location).

    For axis="B" the sign of the concurrence does not depend on B at all, so
    no finite-temperature root exists; the report carries the zero-temperature
    phase boundary B^f = eta + Jz instead.
    """
    _check_params("critical field", J=J, Jz=Jz, B=B, b=b, T=T)
    if axis == "B":
        if log_sign_values(J, Jz, b, T) > 0.0:
            note = ("sign of the concurrence is independent of B, so it stays positive for "
                    "every B >= 0 at this temperature")
        else:
            note = "concurrence vanishes identically at this temperature for every B"
        note += "; the T -> 0 entanglement boundary is B^f = eta + Jz"
        boundary = ground_state(J, Jz, B, b).threshold_B
        return CriticalPoint("B", None, None, None, note, zero_temperature_boundary=boundary)
    if axis != "b":
        raise InvalidAxisError(f"critical field axis must be 'b' or 'B', got {axis!r}")
    return _sign_root(
        "b", lambda x: float(log_sign_values(J, Jz, x, T)), 0.0, decreasing=False,
        absent="sign function g > 0 at b = 0 and grows with |b|: the concurrence decays only "
        "asymptotically with |b| and has no finite critical inhomogeneous field here",
        note="b-symmetric mirror root at the negated location",
    )


# Preset grids by figure, as (label, description, axes, fixed) rows; an axis
# with points None takes _FIGURE_POINTS.
_FIGURE_POINTS = 201
_FIGURES = {
    1: [("fig1_inhomogeneous", "concurrence vs b at J=1, Jz=0, B=0 for T in {0.4, 1.0}",
         (("b", -6.0, 6.0, None), ("T", 0.4, 1.0, 2)), {"J": 1.0, "Jz": 0.0, "B": 0.0}),
        ("fig1_uniform", "concurrence vs B at J=1, Jz=0, b=0 for T in {0.4, 1.0}",
         (("B", 0.0, 6.0, None), ("T", 0.4, 1.0, 2)), {"J": 1.0, "Jz": 0.0, "b": 0.0})],
    2: [("fig2", "concurrence vs (B, T) at Jz=J=-1, b=0.458",
         (("B", 0.0, 1.0, None), ("T", 0.01, 0.6, None)), {"J": -1.0, "Jz": -1.0, "b": 0.458})],
    3: [(f"fig3_jz_{slug}", f"concurrence vs (b, T) at J=1, B=0, Jz={jz}",
         (("b", -6.0, 6.0, None), ("T", 0.1, 2.1, None)), {"J": 1.0, "Jz": jz, "B": 0.0})
        for jz, slug in ((0.0, "0"), (0.9, "0p9"))],
    4: [(f"fig4_jz_{slug}", f"concurrence vs b at J=1, B=0.8, T=0.6, Jz={jz}",
         (("b", -3.0, 3.0, None),), {"J": 1.0, "Jz": jz, "B": 0.8, "T": 0.6})
        for jz, slug in ((0.0, "0"), (0.4, "0p4"), (0.9, "0p9"))],
    5: [(f"fig5_b_{slug}", f"concurrence vs (T, B) at J=1, Jz=0.4, b={b}",
         (("T", 0.01, 2.0, None), ("B", 0.0, 3.0, None)), {"J": 1.0, "Jz": 0.4, "b": b})
        for b, slug in ((0.0, "0"), (0.8, "0p8"))],
}


def figure_data(figure: int) -> list[SweepGrid]:
    """Preset sweep grids fig1..fig5 (see README for the parameter sets), each through sweep.

    fig2 is its row at doubled (J, Jz, B, b).  The model is homogeneous of
    degree one, so sweep evaluates the row at T/2 instead, which halving makes
    bit-identical; the grid keeps the row's axes and fixed values.
    """
    if figure not in _FIGURES:
        raise UnknownFigureError(f"figure id must be 1..5, got {figure!r}")
    grids = []
    for label, description, specs, fixed in _FIGURES[figure]:
        axes = tuple(Axis(name, start, stop, n or _FIGURE_POINTS) for name, start, stop, n in specs)
        labels = {"label": label, "description": description}
        evaluated = axes
        if label == "fig2":
            labels = {"note": "isotropic Jz=J preset evaluated at doubled parameters (J,Jz,B,b) "
                      "-> (2J,2Jz,2B,2b); axes are in the undoubled units", **labels}
            B, T = axes
            evaluated = (B, Axis("T", T.start / 2, T.stop / 2, T.points))
        grid = sweep(evaluated, fixed)
        grids.append(dataclasses.replace(grid, axes=axes, metadata=labels))
    return grids
