"""Output checks for every operation kind, against bench/reference.py.

A check returns normally when the output is right and raises otherwise.
`CriticalMismatch` marks a critical-point answer that disagrees with the
analytic existence condition (ROADMAP item 3: absolute brackets and
tolerances in a scale-covariant model); any other exception is a failed
operation.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

import reference

VALUE_TOL = 1e-12  # absolute, on concurrences in [0, 1]
RELATIVE_TOL = 1e-12  # on energies and field boundaries, relative to their scale
ROOT_TOL = 1e-9  # |g| at a reported root
ROUND_TRIP_SAMPLE = 200  # CSV rows whose text is checked for 17 digits

# Labels each preset writes (README, "Bundled sweep presets").
FIGURE_LABELS = {
    1: ("fig1_inhomogeneous", "fig1_uniform"),
    2: ("fig2",),
    3: ("fig3_jz_0", "fig3_jz_0p9"),
    4: ("fig4_jz_0", "fig4_jz_0p4", "fig4_jz_0p9"),
    5: ("fig5_b_0", "fig5_b_0p8"),
}
# fig2 is evaluated at doubled (J, Jz, B, b) with axes in undoubled units.
DOUBLED_FIGURES = {"fig2"}


class CheckFailed(Exception):
    """The operation's output is wrong."""


class CriticalMismatch(Exception):
    """A critical-point report contradicts the analytic existence condition."""


class Checker:
    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft7Validator(schema)

    def check(self, op, code: int, stdout: bytes, files: dict[str, bytes]) -> None:
        if code != op.expect_code:
            raise CheckFailed(f"exit code {code}, expected {op.expect_code}")
        _KIND_CHECKS[op.kind](self, op, stdout, files)

    def record(self, text: bytes | str, command: str) -> dict:
        record = json.loads(text)
        errors = sorted(self._validator.iter_errors(record), key=str)
        if errors:
            raise CheckFailed(f"schema: {errors[0].message}")
        if record["command"] != command:
            raise CheckFailed(f"command {record['command']!r}, expected {command!r}")
        return record


def _close(actual, expected, tol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {actual.shape}, expected {expected.shape}")
    worst = float(np.max(np.abs(actual - expected), initial=0.0))
    if not worst <= tol:
        raise CheckFailed(f"{what}: off by {worst:.3e} > {tol:g}")


def _grid_reference(axes, fixed, doubled=False):
    """Concurrence over the axis-major grid and the flattened axis columns."""
    values = [np.linspace(start, stop, points) for _, start, stop, points in axes]
    columns = [m.ravel() for m in np.meshgrid(*values, indexing="ij")]
    params = dict(fixed)
    for (name, *_), column in zip(axes, columns):
        params[name] = column
    factor = 2.0 if doubled else 1.0
    conc = reference.concurrence(
        factor * params["J"], factor * params["Jz"], factor * params["B"],
        factor * params["b"], params["T"],
    )
    return columns, conc


def _check_csv(data: bytes, axes, fixed, sample_rng=None) -> None:
    """Header, row count, axis-major order, values and 17-digit text."""
    if b"\r" in data or not data.endswith(b"\n"):
        raise CheckFailed("CSV must use LF line endings and end with a newline")
    header, _, body = data.partition(b"\n")
    names = [name for name, *_ in axes]
    if header.decode() != ",".join(names + ["concurrence"]):
        raise CheckFailed(f"CSV header {header[:80]!r}")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    columns, conc = _grid_reference(axes, fixed)
    rows = len(conc)
    if table.shape != (rows, len(axes) + 1):
        raise CheckFailed(f"CSV table shape {table.shape}, expected {(rows, len(axes) + 1)}")
    for index, column in enumerate(columns):
        if not np.array_equal(table[:, index], column):
            raise CheckFailed(f"CSV axis column {names[index]} is not the exact axis-major grid")
    _close(table[:, -1], conc, VALUE_TOL, "CSV concurrence")
    if sample_rng is None:
        lines = body.split(b"\n")[:-1]
    else:
        starts = sample_rng.integers(0, len(body), size=ROUND_TRIP_SAMPLE)
        lines = []
        for start in starts:
            begin = body.rfind(b"\n", 0, start) + 1
            lines.append(body[begin:body.index(b"\n", start)])
    for line in lines:
        for text in line.decode().split(","):
            if format(float(text), ".17g") != text:
                raise CheckFailed(f"CSV field {text!r} is not the 17-digit form")


def _check_eval(checker, op, stdout, files):
    record = checker.record(stdout, "eval")
    p = op.params
    if record["params"] != p:
        raise CheckFailed(f"params {record['params']} do not echo {p}")
    expected = reference.concurrence(p["J"], p["Jz"], p["B"], p["b"], p["T"])
    _close(record["results"]["concurrence"], expected, VALUE_TOL, "eval concurrence")


def _check_ground(checker, op, stdout, files):
    record = checker.record(stdout, "ground")
    p = op.params
    energy, conc, gap = reference.ground(p["J"], p["Jz"], p["B"], p["b"])
    results = record["results"]
    scale = max(abs(p[name]) for name in ("J", "Jz", "B", "b"))
    _close(results["ground_energy"], energy, RELATIVE_TOL * scale, "ground energy")
    if results["phase"] == "boundary":
        if abs(gap) > RELATIVE_TOL * scale:
            raise CheckFailed(f"boundary reported at gap {gap:.3e}")
        return
    if results["phase"] != ("entangled" if gap > 0.0 else "disentangled"):
        raise CheckFailed(f"phase {results['phase']!r} at gap {gap:.3e}")
    _close(results["ground_concurrence"], conc, VALUE_TOL, "ground concurrence")


def _check_root(p, axis, results):
    J, Jz, b, T = p["J"], p["Jz"], p["b"], p["T"]
    if axis == "T":
        exists = reference.critical_temperature_exists(J, Jz, b)
        g = (lambda x: reference.sign_function(J, Jz, b, x))
    else:
        exists = reference.critical_field_exists(J, Jz, T)
        g = (lambda x: reference.sign_function(J, Jz, x, T))
    location = results["location"]
    if exists != (location is not None):
        raise CriticalMismatch(
            f"root {'missing' if exists else 'reported'} on axis {axis}: {results['note']!r}"
        )
    if location is not None and not abs(g(location)) <= ROOT_TOL:
        raise CriticalMismatch(f"reference g({location!r}) = {g(location):.3e} at the reported root")


def _check_critical(checker, op, stdout, files):
    record = checker.record(stdout, "critical")
    results = record["results"]
    p = op.params
    axis = {"critical-t": "T", "critical-b": "b", "critical-big-b": "B"}[op.kind]
    if results["axis"] != axis:
        raise CheckFailed(f"axis {results['axis']!r}, expected {axis!r}")
    if axis != "B":
        _check_root(p, axis, results)
        return
    if results["location"] is not None:
        raise CheckFailed("a finite-temperature critical uniform field cannot exist")
    boundary = math.hypot(p["b"], p["J"]) + p["Jz"]
    scale = max(abs(p[name]) for name in ("J", "Jz", "b"))
    _close(results["zero_temperature_boundary"], boundary, RELATIVE_TOL * scale, "B^f")


def _check_sweep_1d(checker, op, stdout, files):
    _check_csv(stdout, op.params["axes"], op.params["fixed"])


def _check_grid(checker, op, stdout, files):
    if stdout:
        raise CheckFailed("a sweep written with --out prints nothing")
    (data,) = files.values()
    rng = np.random.Generator(np.random.Philox(len(data)))
    _check_csv(data, op.params["axes"], op.params["fixed"], sample_rng=rng)


def _check_figure(checker, op, stdout, files):
    labels = FIGURE_LABELS[op.params["figure"]]
    names = [f"{label}.json" for label in labels]
    listed = [Path(line).name for line in stdout.decode().splitlines()]
    if listed != names or sorted(files) != sorted(names):
        raise CheckFailed(f"figure files {sorted(files)} / printed {listed}, expected {names}")
    for label, name in zip(labels, names):
        record = checker.record(files[name], "sweep")
        axes = [(a["name"], a["start"], a["stop"], a["points"]) for a in record["results"]["axes"]]
        _, expected = _grid_reference(axes, record["params"], doubled=label in DOUBLED_FIGURES)
        values = np.asarray(record["results"]["values"], dtype=float).ravel()
        _close(values, expected, VALUE_TOL, f"{label} values")


def _check_verify(checker, op, stdout, files):
    record = checker.record(stdout, "verify")
    if record["params"] != op.params:
        raise CheckFailed(f"params {record['params']} do not echo {op.params}")
    results = record["results"]
    if not results["all_passed"]:
        failed = [s["name"] for s in results["suites"] if not s["passed"]]
        raise CheckFailed(f"verify suites failed: {failed}")
    if any(s["samples"] != op.params["samples"] for s in results["suites"]):
        raise CheckFailed("a suite ran on fewer draws than requested")


def _check_bad_input(checker, op, stdout, files):
    if stdout:
        raise CheckFailed("a refused request printed a result")


_KIND_CHECKS = {
    "eval": _check_eval,
    "ground": _check_ground,
    "critical-t": _check_critical,
    "critical-b": _check_critical,
    "critical-big-b": _check_critical,
    "sweep-1d": _check_sweep_1d,
    "grid": _check_grid,
    "figure": _check_figure,
    "verify": _check_verify,
    "bad-input": _check_bad_input,
}
