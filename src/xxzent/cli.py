"""Command-line interface: eval, ground, sweep, critical, verify.

Field flags follow the --big-b / --b convention so the uniform and
inhomogeneous fields cannot be confused by case-insensitive shells.
Records are emitted as JSON (schema/output.json); grids as CSV or JSON.

Exit codes: 0 success, 1 numerical-domain or I/O error, 2 usage error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import XxzentError
from .model import BOUNDARY_TOL, _check_params, ground_state
from .sweep import (
    Axis,
    ROOT_RESIDUAL_TOL,
    SweepGrid,
    axis_columns,
    critical_field,
    critical_temperature,
    figure_data,
    sweep,
)
from .thermal import (
    DENSITY_TOL,
    METHOD_XSTATE,
    ROUTE_TOL,
    gibbs_diagnostics,
    log_sign_values,
    thermal_concurrence,
)
from .verify import run_suites

SCHEMA_VERSION = "1"

# Flag and axis token of each model parameter, in the order (J, Jz, B, b, T).
AXIS_TOKENS = {"j": "J", "jz": "Jz", "big-b": "B", "b": "b", "t": "T"}

TOLERANCES = {"route_agreement": ROUTE_TOL, "density_matrix": DENSITY_TOL}


class UsageError(XxzentError):
    """Bad flags or flag combination; reported without a class name."""

    exit_code = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _jsonsafe(obj):
    if isinstance(obj, dict):
        return {key: _jsonsafe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(value) for value in obj]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def _record(command: str, params: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "diagnostics": diagnostics,
    }


def _json_text(record: dict) -> str:
    return json.dumps(_jsonsafe(record), indent=2, allow_nan=False) + "\n"


def _emit(record: dict, out: str | None) -> None:
    text = _json_text(record)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _grid_csv(grid: SweepGrid) -> str:
    names = [axis.name for axis in grid.axes]
    columns = axis_columns(grid.axes) + [grid.values.ravel()]
    lines = [",".join(names + ["concurrence"])]
    for row in zip(*columns):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def _grid_record(grid: SweepGrid) -> dict:
    return _record(
        "sweep",
        dict(grid.fixed),
        {
            "axes": [asdict(axis) for axis in grid.axes],
            "values": grid.values.tolist(),
        },
        dict(grid.metadata),
    )


def _write_grid(grid: SweepGrid, path: Path, fmt: str) -> None:
    text = _grid_csv(grid) if fmt == "csv" else _json_text(_grid_record(grid))
    path.write_text(text, encoding="utf-8", newline="")


def _params(args) -> dict[str, float]:
    """The parameter flags of a command by model name, in (J, Jz, B, b, T) order.

    The same dict is a record's params and the library's keyword arguments.
    """
    dests = {name: token.replace("-", "_") for token, name in AXIS_TOKENS.items()}
    return {name: getattr(args, dest) for name, dest in dests.items() if hasattr(args, dest)}


def _parse_axis(spec: str) -> Axis:
    parts = spec.split(":")
    if len(parts) != 4:
        raise UsageError(f"malformed axis spec {spec!r}; expected name:start:stop:points")
    token, start, stop, points = parts
    if token not in AXIS_TOKENS:
        raise UsageError(
            f"unknown axis name {token!r}; expected one of {sorted(AXIS_TOKENS)}"
        )
    try:
        start, stop, points = float(start), float(stop), int(points)
    except ValueError as exc:
        raise UsageError(f"malformed axis spec {spec!r}: {exc}") from exc
    return Axis(AXIS_TOKENS[token], start, stop, points)


def cmd_eval(args) -> int:
    params = _params(args)
    value, roots = thermal_concurrence(**params)
    J, Jz, _, b, T = params.values()
    # the sign function, -1 in the diagonal J = 0 limit; null past the double range
    with np.errstate(over="ignore"):
        g = float(np.expm1(log_sign_values(J, Jz, b, T))) if J != 0.0 else -1.0
    record = _record(
        "eval",
        params,
        {
            "concurrence": float(value),
            "wootters_roots": list(roots),
            "method": METHOD_XSTATE,
        },
        {
            **gibbs_diagnostics(**params),
            "g": g,
            "method": METHOD_XSTATE,
            "tolerances": TOLERANCES,
        },
    )
    _emit(record, args.out)
    return 0


def cmd_ground(args) -> int:
    params = _params(args)
    record = _record(
        "ground", params, asdict(ground_state(**params)), {"boundary_tolerance": BOUNDARY_TOL}
    )
    _emit(record, args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.figure is not None:
        if args.axis:
            raise UsageError("--figure and --axis are mutually exclusive")
        grids = figure_data(args.figure)
        outdir = Path(args.out) if args.out else Path(".")
        outdir.mkdir(parents=True, exist_ok=True)
        for grid in grids:
            path = outdir / f"{grid.metadata['label']}.{args.format}"
            _write_grid(grid, path, args.format)
            print(path)
        return 0
    if not args.axis:
        raise UsageError("provide at least one --axis or --figure")
    axes = [_parse_axis(spec) for spec in args.axis]
    swept = {axis.name for axis in axes}
    fixed = {name: value for name, value in _params(args).items() if name not in swept}
    grid = sweep(axes, fixed)
    if args.out:
        _write_grid(grid, Path(args.out), args.format)
    elif args.format == "csv":
        sys.stdout.write(_grid_csv(grid))
    else:
        _emit(_grid_record(grid), None)
    return 0


def cmd_critical(args) -> int:
    params = _params(args)
    if args.axis == "t":
        *model, T = params.values()
        point = critical_temperature(*model)
        _check_params(T=T)  # recorded, though the critical temperature ignores it
    else:
        point = critical_field(**params, axis=AXIS_TOKENS[args.axis])
    record = _record(
        "critical", params, asdict(point), {"root_tolerance": ROOT_RESIDUAL_TOL}
    )
    _emit(record, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    suites = run_suites(args.samples, args.seed)
    all_passed = all(suite.passed for suite in suites)
    record = _record(
        "verify",
        {"samples": args.samples, "seed": args.seed},
        {
            "suites": [asdict(suite) for suite in suites],
            "all_passed": all_passed,
        },
        {"rng": "philox-counter-64", "tolerances": TOLERANCES},
    )
    _emit(record, args.out)
    return 0 if all_passed else 3


def _add_param_flags(parser, with_temperature: bool = True) -> None:
    parser.add_argument("--j", type=float, default=1.0, help="xy coupling J (default 1)")
    parser.add_argument("--jz", type=float, default=0.0, help="z coupling Jz (default 0)")
    parser.add_argument("--big-b", type=float, default=0.0, dest="big_b",
                        help="uniform field B >= 0 (default 0)")
    parser.add_argument("--b", type=float, default=0.0,
                        help="inhomogeneous field b (default 0)")
    if with_temperature:
        parser.add_argument("--t", type=float, default=1.0,
                            help="temperature T > 0 (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xxzent",
        description="Ground-state and thermal concurrence of the two-qubit "
        "XXZ pair in uniform (B) and inhomogeneous (b) fields.",
    )
    parser.add_argument("--version", action="version", version=f"xxzent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="thermal concurrence at one parameter point")
    _add_param_flags(p_eval)
    p_eval.add_argument("--out", help="write the JSON record here instead of stdout")
    p_eval.set_defaults(handler=cmd_eval)

    p_ground = sub.add_parser("ground", help="ground-state phase and concurrence")
    _add_param_flags(p_ground, with_temperature=False)
    p_ground.add_argument("--out", help="write the JSON record here instead of stdout")
    p_ground.set_defaults(handler=cmd_ground)

    p_sweep = sub.add_parser("sweep", help="concurrence grid over 1 or 2 axes")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--axis", action="append", default=[],
                         metavar="NAME:START:STOP:POINTS",
                         help="swept axis (1 or 2 of: t, b, big-b, jz, j); "
                         "the matching fixed flag is ignored")
    p_sweep.add_argument("--figure", type=int, choices=range(1, 6),
                         help="emit a bundled preset grid instead of --axis")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="output file (or directory for --figure)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_crit = sub.add_parser("critical", help="critical temperature or field")
    p_crit.add_argument("--axis", choices=("t", "b", "big-b"), required=True)
    _add_param_flags(p_crit)
    p_crit.add_argument("--out", help="write the JSON record here instead of stdout")
    p_crit.set_defaults(handler=cmd_critical)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--out", help="write the JSON record here instead of stdout")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help and --version
        return exc.code
    except XxzentError as exc:
        kind = "usage error" if exc.exit_code == 2 else "error"
        name = "" if isinstance(exc, UsageError) else f"{type(exc).__name__}: "
        print(f"{kind}: {name}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
