"""Seeded operation pools for the three benchmark workloads.

Each workload is a pool of CLI argv lists drawn from the workload seed.  The
run loop cycles through the pool, so every argv repeats and its output can be
compared byte for byte with the first run of it (the determinism check).

* verify  - `xxzent verify --samples 5000`: the per-draw oracle loops, the
            only workload where linalg is hot.
* grid    - one 2-axis sweep at the 1001 x 1001 cap written to CSV: the
            row-by-row writer dominates.
* session - a fixed mix of short commands whose parameters share one scale
            lambda, log-uniform on [1e-3, 1e3]: interpreter start, import,
            the scalar paths, bisection and the JSON writer at figure size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

VERIFY_SAMPLES = 5000
VERIFY_POOL = 2
GRID_POINTS = 1001

# README draw domain: |J| in [0.05, 3] with either sign, Jz in [-3, 3],
# B in [0, 3], b in [-3, 3], T in [0.05, 5].
DOMAIN = {"J": (0.05, 3.0), "Jz": (-3.0, 3.0), "B": (0.0, 3.0), "b": (-3.0, 3.0), "T": (0.05, 5.0)}
AXIS_TOKEN = {"T": "t", "b": "b", "B": "big-b", "Jz": "jz", "J": "j"}
FLAG = {"J": "--j", "Jz": "--jz", "B": "--big-b", "b": "--b", "T": "--t"}

# CSV writing costs more for a nonzero value (17 digits) than for "0": at
# nonzero shares of 0.2, 0.5 and 0.8 a 1001 x 1001 grid takes about 2.6, 3.0
# and 4.0 s.  Every grid in the pool therefore has a nonzero share near one
# half, so that seeds differ in axes and parameters but not in writer cost.
GRID_POOL = 3
GRID_NONZERO_SHARE = 0.5
GRID_SHARE_TOLERANCE = 0.05

SCALE_DECADES = 3.0
# The session holds the same number of commands of each kind.  There is no
# record of real traffic to weight them by, so no kind is favoured; with
# five of each, every figure preset 1..5 runs once.
SESSION_KINDS = ("eval", "ground", "critical-t", "critical-b", "critical-big-b",
                 "sweep-1d", "figure", "bad-input")
SESSION_PER_KIND = 5
SWEEP_1D_POINTS = 1001

# Out-of-domain requests and the exit code the CLI promises for each.
BAD_INPUTS = (
    (["eval", "--t=-0.5"], 1),
    (["eval", "--big-b=-0.25"], 1),
    (["ground", "--j=0"], 1),
    (["critical", "--axis", "t", "--j=0"], 1),
    (["sweep", "--axis", "t:2:1:11"], 2),
    (["sweep", "--axis", "q:0:1:11"], 2),
    (["eval", "--t", "warm"], 2),
)


@dataclass
class Op:
    """One CLI invocation and what its output check needs to know."""

    kind: str
    argv: list[str]
    items: int
    params: dict = field(default_factory=dict)
    out: Path | None = None  # file or directory the operation writes
    expect_code: int = 0


def _flags(params: dict) -> list[str]:
    return [f"{FLAG[name]}={value!r}" for name, value in params.items()]


def _draw_value(rng, name: str, scale: float = 1.0) -> float:
    lo, hi = DOMAIN[name]
    value = lo + (hi - lo) * rng.random()
    if name == "J" and rng.random() < 0.5:
        value = -value
    return float(value * scale)


def _draw_range(rng, name: str, scale: float = 1.0) -> tuple[float, float]:
    """A sub-interval covering at least a quarter of the parameter's domain."""
    lo, hi = DOMAIN[name]
    width = (0.25 + 0.75 * rng.random()) * (hi - lo)
    start = lo + (hi - lo - width) * rng.random()
    stop = start + width
    if name == "J" and rng.random() < 0.5:
        start, stop = -stop, -start
    return float(start * scale), float(stop * scale)


def _axis_spec(name: str, start: float, stop: float, points: int) -> str:
    return f"{AXIS_TOKEN[name]}:{start!r}:{stop!r}:{points}"


def verify_pool(rng, tmp: Path) -> list[Op]:
    seeds = rng.integers(0, 2**31, size=VERIFY_POOL)
    return [
        Op("verify", ["verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(int(s))],
           items=VERIFY_SAMPLES, params={"samples": VERIFY_SAMPLES, "seed": int(s)})
        for s in seeds
    ]


def _nonzero_share(axes, fixed) -> float:
    coarse = [np.linspace(start, stop, 101) for _, start, stop in axes]
    mesh = np.meshgrid(*coarse, indexing="ij")
    params = dict(fixed)
    for (name, _, _), column in zip(axes, mesh):
        params[name] = column
    values = reference.concurrence(params["J"], params["Jz"], params["B"], params["b"], params["T"])
    return float(np.mean(values > 0.0))


def grid_pool(rng, tmp: Path) -> list[Op]:
    ops = []
    for index in range(GRID_POOL):
        for _ in range(100_000):
            names = [str(n) for n in rng.choice(list(DOMAIN), size=2, replace=False)]
            axes = [(name, *_draw_range(rng, name)) for name in names]
            fixed = {name: _draw_value(rng, name) for name in DOMAIN if name not in names}
            if abs(_nonzero_share(axes, fixed) - GRID_NONZERO_SHARE) <= GRID_SHARE_TOLERANCE:
                break
        else:
            raise RuntimeError("no grid with a nonzero share near one half in the draw budget")
        out = tmp / f"grid{index}.csv"
        argv = ["sweep"]
        for name, start, stop in axes:
            argv += ["--axis", _axis_spec(name, start, stop, GRID_POINTS)]
        argv += _flags(fixed) + ["--out", str(out)]
        ops.append(Op("grid", argv, items=GRID_POINTS**2,
                      params={"axes": [(n, s, e, GRID_POINTS) for n, s, e in axes], "fixed": fixed},
                      out=out))
    return ops


def _session_op(kind: str, rng, tmp: Path, index: int, figure: int) -> Op:
    scale = float(10.0 ** rng.uniform(-SCALE_DECADES, SCALE_DECADES))

    def draw(*names):
        return {name: _draw_value(rng, name, scale) for name in names}

    if kind == "eval":
        params = draw("J", "Jz", "B", "b", "T")
        return Op(kind, ["eval", *_flags(params)], 1, params)
    if kind == "ground":
        params = draw("J", "Jz", "B", "b")
        return Op(kind, ["ground", *_flags(params)], 1, params)
    if kind.startswith("critical-"):
        axis = kind.removeprefix("critical-")
        params = draw("J", "Jz", "B", "b", "T")
        return Op(kind, ["critical", "--axis", axis, *_flags(params)], 1, params)
    if kind == "sweep-1d":
        name = str(rng.choice(list(DOMAIN)))
        start, stop = _draw_range(rng, name, scale)
        fixed = draw(*(n for n in DOMAIN if n != name))
        argv = ["sweep", "--axis", _axis_spec(name, start, stop, SWEEP_1D_POINTS), *_flags(fixed)]
        return Op(kind, argv, 1, {"axes": [(name, start, stop, SWEEP_1D_POINTS)], "fixed": fixed})
    if kind == "figure":
        out = tmp / f"figure{index}"
        argv = ["sweep", "--figure", str(figure), "--format", "json", "--out", str(out)]
        return Op(kind, argv, 1, {"figure": figure}, out=out)
    template, code = BAD_INPUTS[int(rng.integers(len(BAD_INPUTS)))]
    return Op(kind, list(template), 1, expect_code=code)


def session_pool(rng, tmp: Path) -> list[Op]:
    kinds = [kind for kind in SESSION_KINDS for _ in range(SESSION_PER_KIND)]
    order = rng.permutation(len(kinds))
    figures = iter(rng.permutation(SESSION_PER_KIND) + 1)
    ops = []
    for index in order:
        kind = kinds[index]
        figure = int(next(figures)) if kind == "figure" else 0
        ops.append(_session_op(kind, rng, tmp, len(ops), figure))
    return ops


POOLS = {"verify": verify_pool, "grid": grid_pool, "session": session_pool}


def make_pool(workload: str, seed: int, tmp: Path) -> list[Op]:
    rng = np.random.Generator(np.random.Philox(seed))
    return POOLS[workload](rng, tmp)
