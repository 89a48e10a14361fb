"""The streaming CSV writer of `xxzent sweep` against the per-field oracle.

The writer prints every number through a numpy kernel that gives the bytes of
`%.17g` (falling back to `%` itself outside [1e-4, 1)) and fills a whole row
of concurrences through one bytes `%` of a preformatted template; its bytes
must equal those of tests/csv_oracle.py on every grid shape, on the bundled
presets and on the extreme doubles, on stdout and in a file.  The kernel is
also checked against `format(x, ".17g")` on random bit patterns, exact
rounding ties and the edges of its range, and its digit tables entry by
entry against `%`.
"""

import argparse
import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xxzent
from csv_oracle import grid_csv
from xxzent.cli import _digit_words, _format17_words, _write_grid, main
from xxzent.sweep import Axis, SweepGrid, figure_data, sweep

MAX = 1.7976931348623157e308
FIXED = {"J": 1.0, "Jz": 0.3, "B": 0.2, "b": 0.5, "T": 0.7}


def swept(*axes):
    names = {axis.name for axis in axes}
    return sweep(list(axes), {k: v for k, v in FIXED.items() if k not in names})


def extremes():
    # Doubles at the edges of the format: no concurrence, only the formatting is under test.
    values = np.array([[-0.0, 5e-324], [MAX, np.nan], [np.inf, -np.inf]])
    return SweepGrid({}, (Axis("b", 5e-324, MAX, 3), Axis("Jz", -1.0, 1.0, 2)), values)


GRIDS = {
    "1d": lambda: swept(Axis("T", 0.05, 3.0, 37)),
    "2d": lambda: swept(Axis("b", -2.0, 2.0, 9), Axis("T", 0.1, 2.0, 13)),
    "1d-single": lambda: swept(Axis("T", 0.5, 0.5, 1)),
    "2d-single-outer": lambda: swept(Axis("Jz", 0.0, 0.0, 1), Axis("b", -1.0, 1.0, 5)),
    "2d-single-inner": lambda: swept(Axis("B", 0.0, 2.0, 4), Axis("T", 1.0, 1.0, 1)),
    "2d-single-both": lambda: swept(Axis("b", 0.0, 0.0, 1), Axis("T", 1.0, 1.0, 1)),
    "extremes": extremes,
}


def written(grid, tmp_path) -> bytes:
    path = tmp_path / "grid.csv"
    _write_grid(argparse.Namespace(format="csv"), grid, path)
    return path.read_bytes()


@pytest.mark.parametrize("name", GRIDS)
def test_file_bytes_match_oracle(name, tmp_path):
    grid = GRIDS[name]()
    assert written(grid, tmp_path) == grid_csv(grid).encode("utf-8")


@pytest.mark.parametrize("figure", range(1, 6))
def test_figure_bytes_match_oracle(figure, tmp_path):
    for grid in figure_data(figure):
        assert written(grid, tmp_path) == grid_csv(grid).encode("utf-8")


def test_extremes_print_in_17_digits(tmp_path):
    lines = written(extremes(), tmp_path).decode("utf-8").splitlines()
    assert lines[1:] == [
        "4.9406564584124654e-324,-1,-0",
        "4.9406564584124654e-324,1,4.9406564584124654e-324",
        "8.9884656743115785e+307,-1,1.7976931348623157e+308",
        "8.9884656743115785e+307,1,nan",
        "1.7976931348623157e+308,-1,inf",
        "1.7976931348623157e+308,1,-inf",
    ]


def bits_of(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def kernel_cases() -> np.ndarray:
    """Doubles for the 17-digit kernel: random 64-bit patterns, random doubles in its
    range [1e-4, 1), exact ties of its rounding, and the edges of its range."""
    rng = np.random.default_rng(17)
    random_bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    inside = rng.integers(bits_of(1e-4), bits_of(1.0), 20_000).view(np.float64)
    # in [10**-d, 10**(1 - d)), j 2**-(17 + d) with j odd lies halfway between two
    # 17-digit decimals
    ties = []
    for d in range(1, 5):
        low, high = (int(10.0**e * 2 ** (17 + d)) // 2 for e in (-d, 1 - d))
        x = np.ldexp(2.0 * rng.integers(low, high, 10_000) + 1, -(17 + d))
        ties.append(x[(x >= 10.0**-d) & (x < 10.0 ** (1 - d))])
    powers = np.array([1.0, 1e-1, 1e-2, 1e-3, 1e-4])
    edges = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, 1.0),
        np.ldexp(1.0, -np.arange(1, 15)),  # short decimals: trailing zeros to strip
        [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         np.inf, -np.inf, np.nan],
    ])
    return np.concatenate([random_bits, inside, *ties, edges, -edges])


def test_percent_format_is_format_spec():
    # the writer's %.17g kernel and the oracle's format spec print every double alike
    values = kernel_cases()
    expected = [format(x, ".17g").encode("ascii") for x in values.tolist()]
    assert _format17_words(values).tolist() == expected
    assert _format17_words(np.array([0.100002288818359375])).tolist() == [b"0.10000228881835938"]


def test_digit_tables_are_percent_formats():
    # each table, then its stripped half with trailing '0's as NUL, which the "S4" view drops
    head, quad, tail = (table.view("S4").tolist() for table in _digit_words())
    for table, form, size in ((head, b"0.%02d", 100), (quad, b"%04d", 10**4)):
        words = [form % i for i in range(size)]
        assert table == words + [word.rstrip(b"0") for word in words]
    assert tail == [(b"%02d" % i).rstrip(b"0") for i in range(100)]


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def same_on_stdout_and_in_file(argv, tmp_path) -> str:
    """The command's stdout, after checking that --out writes the same bytes."""
    text = run_cli(*argv)
    path = tmp_path / "output"
    assert run_cli(*argv, "--out", str(path)) == ""
    assert path.read_bytes() == text.encode("utf-8")
    return text


def test_stdout_matches_out_file(tmp_path):
    same_on_stdout_and_in_file(
        ["sweep", "--axis", "b:-3:3:41", "--axis", "t:0.05:2:23", "--jz", "0.4"], tmp_path
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--jz", "0.4", "--b", "0.8", "--t", "0.6"],
        ["ground", "--jz", "0.4", "--b", "0.8"],
        ["critical", "--axis", "b", "--jz", "0.4", "--t", "0.6"],
        ["verify", "--samples", "3"],
        ["sweep", "--axis", "b:-3:3:41", "--jz", "0.4", "--format", "json"],
    ],
    ids=["eval", "ground", "critical-b", "verify", "sweep-json"],
)
def test_record_on_stdout_matches_out_file(argv, tmp_path):
    # each JSON record goes through the same writer as a CSV grid, and names its command
    record = json.loads(same_on_stdout_and_in_file(argv, tmp_path))
    assert record["command"] == argv[0]


def grid_argv(points):
    return ["sweep", "--axis", f"b:-1:1:{points}", "--axis", f"t:0.1:2:{points}"]


def run_with_closed_stdout(cwd, argv, env, header=b""):
    """Run the CLI in a child whose stdout reader closes after `header`; (exit code, stderr)."""
    src = str(Path(xxzent.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-m", "xxzent.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd,
    )
    if header:
        assert child.stdout.readline() == header
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    return child.returncode, err


@pytest.mark.parametrize(
    "argv,header",
    [
        # the reader stops after the header, as `xxzent sweep ... | head -1` does;
        # the 4 MB table is far larger than a pipe buffer, so a write fails
        (grid_argv(301), b"b,T,concurrence\n"),
        # the reader is gone before the first byte, so the final flush fails
        # and leaves its bytes buffered for the flush at interpreter exit
        (grid_argv(3), b""),
        # the same for a JSON record and for the paths `sweep --figure` prints
        (["eval"], b""),
        (["sweep", "--figure", "1", "--out", "figures"], b""),
    ],
    ids=["after-header", "before-output", "json-record", "figure-paths"],
)
def test_closed_stdout_pipe_exits_quietly(tmp_path, argv, header):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    # stdout block-buffered, the interpreter's default for a pipe
    assert run_with_closed_stdout(tmp_path, argv, env, header) == (0, b"")


def test_unbuffered_closed_pipe_keeps_every_figure_file(tmp_path):
    # unbuffered, each printed path reaches the closed pipe at once, so a path
    # printed between two grids would end the command before the later files
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    argv = ["sweep", "--figure", "4", "--out", "figures"]
    assert run_with_closed_stdout(tmp_path, argv, env) == (0, b"")
    written = sorted(path.name for path in (tmp_path / "figures").iterdir())
    assert written == ["fig4_jz_0.csv", "fig4_jz_0p4.csv", "fig4_jz_0p9.csv"]
