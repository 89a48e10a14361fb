"""Command-line interface: eval, ground, sweep, critical, verify.

Field flags follow the --big-b / --b convention so the uniform and
inhomogeneous fields cannot be confused by case-insensitive shells.
Records are emitted as JSON (schema/output.json); grids as CSV or JSON.

Exit codes: 0 success, 1 numerical-domain or I/O error, 2 usage error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

# An idle OpenBLAS worker thread costs each process about 0.12 s of CPU; 4x4 matmuls never use it.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .linalg import XxzentError
from .model import BOUNDARY_TOL, _check_params, ground_state
from .sweep import Axis, SweepGrid, critical_field, critical_temperature, figure_data, sweep
from .thermal import DENSITY_TOL, METHOD_XSTATE, ROUTE_TOL, gibbs_diagnostics, thermal_concurrence
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
        sys.stdout.flush()  # a closed pipe raises here and not at interpreter exit


# The CSV writer's 17-digit kernel, _format17_words.
_FORMAT_BLOCK = 8192  # values per kernel pass, so that its temporaries stay in cache
_SPLITTER = 2.0**27 + 1  # Dekker's splitter for doubles
# Literal arrays: computing them at import would page in numpy code every command pays for.
_POW10 = np.array([1e17, 1e18, 1e19, 1e20])  # 10**k, k = 17 + z for z = 0..3, exact doubles
_PAD = np.array([1000, 100, 10, 1])  # 10**(3 - z)


def _halves(a):
    """Dekker's split of doubles a into hi + lo, each with at most 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _decimal_words(width: int, head: bytes = b"", nuls: int = 0) -> np.ndarray:
    """Words of head + the width-digit decimal of each i < 10**width + nuls NUL bytes,
    four ASCII bytes to a native uint32: first with every digit, then with the
    decimal's trailing '0's as NUL."""
    i = np.arange(10**width)[:, np.newaxis]
    place = 10 ** np.arange(width - 1, -1, -1)
    digits = (i // place % 10 + ord("0")).astype(np.uint8)
    kept = i % (10 * place) != 0  # the digit or a later one is nonzero
    fields = [
        np.broadcast_to(np.frombuffer(head, np.uint8), (2 * len(i), len(head))),
        np.concatenate([digits, digits * kept]),
        np.zeros((2 * len(i), nuls), np.uint8),
    ]
    return np.concatenate(fields, axis=1).view(np.uint32).ravel()


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words of "0." and two decimals, of four decimals, and of two decimals and two NULs,
    each table with its stripped half (the last only stripped); built on first use."""
    return _decimal_words(2, head=b"0."), _decimal_words(4), _decimal_words(2, nuls=2)[100:]


def _format17_words(values: np.ndarray) -> np.ndarray:
    """`b"%.17g" % x` for each float x, in C order, as "S24" words (a %.17g has <= 24 bytes)."""
    v = np.ravel(values)
    words = np.empty(v.size, "S24")
    for start in range(0, v.size, _FORMAT_BLOCK):
        words[start : start + _FORMAT_BLOCK] = _format17_block(v[start : start + _FORMAT_BLOCK])
    return words


def _format17_block(v: np.ndarray) -> np.ndarray:
    """_format17_words of one 1-D block of at most _FORMAT_BLOCK values.

    +0.0 gives b"0".  %g writes x in [1e-4, 1) as "0.", z = 0..3 zeros and the
    17 significant digits N = round(x 10**k), k = 17 + z, which numpy computes
    here: Dekker's two-product gives x 10**k exactly as p + err, and as
    p >= 2**53 is an even integer, p + rint(err) rounds half to even, as `%`
    does.  z comes from comparisons with the doubles 0.1, 0.01 and 0.001, each
    above its power of ten, so N always has 17 digits.  The 20 decimals
    N 10**(3 - z) after "0." fill six table words at fixed places (2, 4, 4, 4,
    4 and 2 decimals), with trailing '0's as NUL, which .tolist() of the "S24"
    view drops.  Every other value (negative, -0.0, below 1e-4, from 1 up,
    non-finite) goes through `%`.
    """
    head, quad, tail = _digit_words()
    words = np.zeros((v.size, 6), np.uint32)
    words.view(np.uint8)[:, 0] = ord("0")  # "0", for +0.0
    inside = (v >= 1e-4) & (v < 1.0)
    x = v[inside]
    z = (x < 0.1).astype(np.intp) + (x < 0.01) + (x < 0.001)
    p = x * _POW10[z]
    xh, xl = _halves(x)
    th, tl = _POW10_HI[z], _POW10_LO[z]
    err = ((xh * th - p) + xh * tl + xl * th) + xl * tl
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # the decimals N 10**(3 - z) < 10**20: the first ten in hi, the last ten in lo
    hi = n // 10**10
    lo = (n - hi * 10**10) * _PAD[z]
    carry = lo // 10**10
    lo -= carry * 10**10
    hi = hi * _PAD[z] + carry
    top = hi // 10**8
    mid = hi - top * 10**8
    g1 = mid // 10**4
    g2 = mid - g1 * 10**4
    g3 = lo // 10**6
    end = lo - g3 * 10**6
    g4 = end // 100
    last = end - g4 * 100
    # a word takes its table's stripped half where every later decimal is 0
    rest = lo == 0
    found = np.empty((x.size, 6), np.uint32)
    found[:, 0] = head[top + 100 * (rest & (mid == 0))]
    found[:, 1] = quad[g1 + 10**4 * (rest & (g2 == 0))]
    found[:, 2] = quad[g2 + 10**4 * rest]
    found[:, 3] = quad[g3 + 10**4 * (end == 0)]
    found[:, 4] = quad[g4 + 10**4 * (last == 0)]
    found[:, 5] = tail[last]
    words[inside] = found
    cells = words.view("S24").ravel()
    for i in np.flatnonzero(~inside & ((v != 0.0) | np.signbit(v))).tolist():
        cells[i] = b"%.17g" % v[i]
    return cells


def _write_csv(grid: SweepGrid, stream) -> None:
    """Write the grid as CSV, every number as _format17_words prints it: the concurrences a
    block of first-axis rows at a time, or a row wider than _FORMAT_BLOCK a chunk at a
    time.  A row (chunk) is its labels' line template, with the row's prefix for NUL,
    filled by one `%`; bytes' `%` is faster than str's, and rows are decoded for the stream.
    The last axis's labels are formatted once, into 24 bytes each."""
    stream.write(",".join([axis.name for axis in grid.axes] + ["concurrence"]) + "\n")
    *outer, inner = (axis.values() for axis in grid.axes)
    prefixes = [x + b"," for x in _format17_words(outer[0]).tolist()] if outer else [b""]
    rows = grid.values.reshape(len(prefixes), -1)
    labels = _format17_words(inner)
    chunks = [slice(c, c + _FORMAT_BLOCK) for c in range(0, rows.shape[1], _FORMAT_BLOCK)]
    step = max(1, _FORMAT_BLOCK // rows.shape[1])
    for first in range(0, len(rows), step):
        for chunk in chunks:
            if first == 0 or len(chunks) > 1:  # each chunk of a wide row builds its template
                chunk_labels = labels[chunk].tolist()
                width = len(chunk_labels)
                template = (b"\0%s,%%s\n" * width) % tuple(chunk_labels)
            cells = _format17_words(rows[first : first + step, chunk]).tolist()
            for i, prefix in enumerate(prefixes[first : first + step]):
                line = template.replace(b"\0", prefix) % tuple(cells[i * width : (i + 1) * width])
                stream.write(line.decode("ascii"))


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


def _write_grid(grid: SweepGrid, out: Path | None, fmt: str) -> None:
    """Write the grid to the file `out`, or to stdout if there is none."""
    with open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as stream:
        if fmt == "csv":
            _write_csv(grid, stream)
        else:
            stream.write(_json_text(_grid_record(grid)))
        stream.flush()  # on stdout, a closed pipe raises here and not at interpreter exit


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
        grids = figure_data(args.figure)
        outdir = Path(args.out) if args.out else Path(".")
        outdir.mkdir(parents=True, exist_ok=True)
        # all files before any path, so a closed stdout pipe cannot cut the file set short
        paths = [outdir / f"{grid.metadata['label']}.{args.format}" for grid in grids]
        for grid, path in zip(grids, paths):
            _write_grid(grid, path, args.format)
        print(*paths, sep="\n")
        sys.stdout.flush()
        return 0
    axes = [_parse_axis(spec) for spec in args.axis]
    swept = {axis.name for axis in axes}
    fixed = {name: value for name, value in _params(args).items() if name not in swept}
    _write_grid(sweep(axes, fixed), Path(args.out) if args.out else None, args.format)
    return 0


def cmd_critical(args) -> int:
    params = _params(args)
    if args.axis == "t":
        *model, T = params.values()
        point = critical_temperature(*model)
        _check_params(T=T)  # recorded, though the critical temperature ignores it
    else:
        point = critical_field(**params, axis=AXIS_TOKENS[args.axis])
    _emit(_record("critical", params, asdict(point), {}), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
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
    grid = p_sweep.add_mutually_exclusive_group(required=True)
    grid.add_argument("--axis", action="append", metavar="NAME:START:STOP:POINTS",
                      help="swept axis (1 or 2 of: t, b, big-b, jz, j); "
                      "the matching fixed flag is ignored")
    grid.add_argument("--figure", type=int, choices=range(1, 6),
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
    except BrokenPipeError:
        # stdout's reader has gone (`xxzent sweep ... | head`): end quietly, and point
        # stdout at devnull so the flush at interpreter exit has nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except XxzentError as exc:
        kind = "usage error" if exc.exit_code == 2 else "error"
        name = "" if isinstance(exc, UsageError) else f"{type(exc).__name__}: "
        print(f"{kind}: {name}{exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def _run() -> int:
    """Process entry of `python -m xxzent.cli` and the `xxzent` script: main() after gc.freeze().

    Freezing hands the objects that the imports made (about 21k containers, mostly numpy's)
    to the collector's permanent generation, so the collections at interpreter exit no
    longer walk them.  main() stays the library entry and leaves a host's collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(_run())
