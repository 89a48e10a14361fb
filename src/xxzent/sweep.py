"""Concurrence sweeps over parameter grids and critical-point finders.

Grids evaluate the vectorized X-state kernel, so full figure regeneration
takes milliseconds.  Critical points are zeros of the analytic sign function
g rather than "concurrence < eps" thresholds: g is monotone along every axis
searched here (decreasing in T where a root can exist, increasing in |b|),
so its limits decide existence and bisection from a bracket grown from the
parameters' own scale certifies the location; no absolute constant decides
an answer.  Regimes where the concurrence only decays asymptotically
report no finite root instead of a fabricated one.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import XxzentError
from .model import _check_params, ground_state
from .thermal import METHOD_XSTATE, ROUTE_TOL, concurrence_values, log_sign_values

PARAM_NAMES = ("J", "Jz", "B", "b", "T")

ROOT_RESIDUAL_TOL = 1e-9
MAX_GRID_POINTS_2D = 1001


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
        object.__setattr__(self, "points", int(self.points))
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
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepGrid:
    """Concurrence table over 1 or 2 axes; values shaped (points0[, points1])."""

    fixed: dict[str, float]
    axes: tuple[Axis, ...]
    values: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict)


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
    if len(axes) == 2 and any(a.points > MAX_GRID_POINTS_2D for a in axes):
        raise InvalidAxisError(
            f"2-axis grids are capped at {MAX_GRID_POINTS_2D} points per axis"
        )
    expected = set(PARAM_NAMES) - set(names)
    if set(fixed) != expected:
        raise InvalidAxisError(
            f"fixed parameters must be exactly {sorted(expected)}, got {sorted(fixed)}"
        )
    _check_params(**fixed)


def axis_columns(axes: Sequence[Axis]) -> list[np.ndarray]:
    """Axis-major (first axis slowest) flattened coordinate columns."""
    if len(axes) == 1:
        return [axes[0].values()]
    mesh = np.meshgrid(*[a.values() for a in axes], indexing="ij")
    return [m.ravel() for m in mesh]


def _grid(axes: tuple[Axis, ...], fixed: dict[str, float], flat, **notes) -> SweepGrid:
    """SweepGrid of axis-major values `flat`, with the metadata every grid carries."""
    return SweepGrid(
        fixed=fixed,
        axes=axes,
        values=np.asarray(flat, dtype=float).reshape(tuple(a.points for a in axes)),
        metadata={"method": METHOD_XSTATE, "tolerances": {"route_agreement": ROUTE_TOL}, **notes},
    )


def sweep(axes: Sequence[Axis], fixed: Mapping[str, float]) -> SweepGrid:
    """Evaluate thermal concurrence on the grid spanned by `axes`.

    `fixed` must supply exactly the parameters not swept.  Output is
    deterministic and independent of evaluation order.
    """
    axes = tuple(axes)
    _validate_sweep(axes, fixed)
    fixed = {k: float(v) for k, v in fixed.items()}
    params: dict[str, object] = dict(fixed)
    for axis, column in zip(axes, axis_columns(axes)):
        params[axis.name] = column
    flat = concurrence_values(
        params["J"], params["Jz"], params["B"], params["b"], params["T"]
    )
    return _grid(axes, fixed, flat)


def _sign_root(axis, h, scale, decreasing: bool, note="") -> CriticalPoint:
    """Root of h on (0, inf), where h > 0 only below it if decreasing, only above if not.

    The bracket grows from scale by doubling or halving until h changes sign
    across it; bisection then narrows it to two adjacent doubles.
    """

    def below(x: float) -> bool:
        return (h(x) > 0.0) == decreasing

    lo = hi = scale
    while below(hi) and hi < sys.float_info.max:
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    while lo > 0.0 and not below(lo):
        lo, hi = 0.5 * lo, lo
    if lo == 0.0 or below(hi):
        note = "sign function g changes sign past the double range: no double holds the root"
        return CriticalPoint(axis, None, None, None, note=note)
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    root = min(lo, hi, key=lambda x: abs(h(x)))
    return CriticalPoint(axis, root, (lo, hi), float(np.expm1(h(root))), note=note)


def critical_temperature(J, Jz, B, b) -> CriticalPoint:
    """Temperature above which the thermal concurrence vanishes.

    g -> +inf as T -> 0 iff Jz + eta > 0, g -> -1 as T -> inf, and g is
    strictly decreasing in T wherever it can be positive; so a root exists
    iff Jz + eta > 0, and it is bracketed from eta.  Independent of B.
    """
    _check_params("critical temperature", J=J, Jz=Jz, B=B, b=b)
    eta = float(np.hypot(b, J))
    if not Jz + eta > 0.0:
        note = "Jz + eta <= 0, so g <= 0 at every temperature: no thermal entanglement"
        return CriticalPoint("T", None, None, None, note=note)
    return _sign_root(
        "T", lambda T: float(log_sign_values(J, Jz, b, T)), eta, decreasing=True
    )


def critical_field(J, Jz, B, b, T, axis: str) -> CriticalPoint:
    """Critical inhomogeneous field (axis="b") or uniform field (axis="B").

    For axis="b" the sign function grows without bound in b >= 0, so a root
    exists iff g <= 0 at b = 0; it is bracketed from max(|J|, T) (b-symmetry
    gives the mirror root at -location).

    For axis="B" the sign of the concurrence does not depend on B at all, so
    no finite-temperature root exists; the report carries the zero-temperature
    phase boundary B^f = eta + Jz instead.
    """
    _check_params("critical field", J=J, Jz=Jz, B=B, b=b, T=T)
    if axis == "B":
        if log_sign_values(J, Jz, b, T) > 0.0:
            note = (
                "sign of the concurrence is independent of B, so it stays "
                "positive for every B >= 0 at this temperature; the T -> 0 "
                "entanglement boundary is B^f = eta + Jz"
            )
        else:
            note = (
                "concurrence vanishes identically at this temperature for "
                "every B; the T -> 0 entanglement boundary is B^f = eta + Jz"
            )
        return CriticalPoint(
            "B", None, None, None, note=note,
            zero_temperature_boundary=ground_state(J, Jz, B, b).threshold_B,
        )
    if axis != "b":
        raise InvalidAxisError(f"critical field axis must be 'b' or 'B', got {axis!r}")

    def h(inhomogeneity: float) -> float:
        return float(log_sign_values(J, Jz, inhomogeneity, T))

    if h(0.0) > 0.0:
        note = (
            "sign function g > 0 at b = 0 and grows with |b|: the concurrence "
            "decays only asymptotically with |b| and has no finite critical "
            "inhomogeneous field here"
        )
        return CriticalPoint("b", None, None, None, note=note)
    return _sign_root(
        "b", h, max(abs(J), T), decreasing=False,
        note="b-symmetric mirror root at the negated location",
    )


def _labeled(grid: SweepGrid, label: str, description: str) -> SweepGrid:
    metadata = dict(grid.metadata)
    metadata["label"] = label
    metadata["description"] = description
    return dataclasses.replace(grid, metadata=metadata)


def figure_data(figure: int, points: int = 201) -> list[SweepGrid]:
    """Preset sweep grids fig1..fig5 (see README for the parameter sets)."""
    if figure == 1:
        temps = Axis("T", 0.4, 1.0, 2)
        return [
            _labeled(
                sweep([Axis("b", -6.0, 6.0, points), temps],
                      {"J": 1.0, "Jz": 0.0, "B": 0.0}),
                "fig1_inhomogeneous",
                "concurrence vs b at J=1, Jz=0, B=0 for T in {0.4, 1.0}",
            ),
            _labeled(
                sweep([Axis("B", 0.0, 6.0, points), temps],
                      {"J": 1.0, "Jz": 0.0, "b": 0.0}),
                "fig1_uniform",
                "concurrence vs B at J=1, Jz=0, b=0 for T in {0.4, 1.0}",
            ),
        ]
    if figure == 2:
        axes = (Axis("B", 0.0, 1.0, points), Axis("T", 0.01, 0.6, points))
        columns = axis_columns(axes)
        flat = concurrence_values(-2.0, -2.0, 2.0 * columns[0], 0.916, columns[1])
        grid = _grid(
            axes, {"J": -1.0, "Jz": -1.0, "b": 0.458}, flat,
            note="isotropic Jz=J preset evaluated at doubled parameters "
            "(J,Jz,B,b) -> (2J,2Jz,2B,2b); axes are in the undoubled units",
        )
        return [
            _labeled(grid, "fig2", "concurrence vs (B, T) at Jz=J=-1, b=0.458")
        ]
    if figure == 3:
        return [
            _labeled(
                sweep(
                    [Axis("b", -6.0, 6.0, points), Axis("T", 0.1, 2.1, points)],
                    {"J": 1.0, "Jz": jz, "B": 0.0},
                ),
                f"fig3_jz_{_slug(jz)}",
                f"concurrence vs (b, T) at J=1, B=0, Jz={jz}",
            )
            for jz in (0.0, 0.9)
        ]
    if figure == 4:
        return [
            _labeled(
                sweep([Axis("b", -3.0, 3.0, points)],
                      {"J": 1.0, "Jz": jz, "B": 0.8, "T": 0.6}),
                f"fig4_jz_{_slug(jz)}",
                f"concurrence vs b at J=1, B=0.8, T=0.6, Jz={jz}",
            )
            for jz in (0.0, 0.4, 0.9)
        ]
    if figure == 5:
        return [
            _labeled(
                sweep(
                    [Axis("T", 0.01, 2.0, points), Axis("B", 0.0, 3.0, points)],
                    {"J": 1.0, "Jz": 0.4, "b": b},
                ),
                f"fig5_b_{_slug(b)}",
                f"concurrence vs (T, B) at J=1, Jz=0.4, b={b}",
            )
            for b in (0.0, 0.8)
        ]
    raise UnknownFigureError(f"figure id must be 1..5, got {figure!r}")


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m")
