import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import xxzent
from extreme_inputs import EXTREME_ARGVS
from spectrum_oracle import closed_spectrum
from xxzent.cli import UsageError, main
from xxzent.linalg import XxzentError
from xxzent.model import InvalidParameterError, ZeroXYCouplingError, ground_state
from xxzent.sweep import (
    PARAM_NAMES,
    InvalidAxisError,
    UnknownFigureError,
    critical_field,
    critical_temperature,
)
from xxzent.thermal import (
    concurrence_values,
    gibbs_closed,
    gibbs_diagnostics,
    log_sign_values,
    thermal_concurrence,
)

C_REFERENCE = 2 * (math.sinh(1) - 1) / (2 + 2 * math.cosh(1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEval:
    def test_reference_point(self, capsys, output_schema):
        record = run_json(
            capsys, "eval", "--j", "1", "--jz", "0", "--big-b", "0", "--b", "0", "--t", "1"
        )
        jsonschema.validate(record, output_schema)
        assert record["results"]["concurrence"] == pytest.approx(C_REFERENCE, abs=1e-12)
        assert record["results"]["method"] == "xstate-shortcut"
        assert record["diagnostics"]["Z"] == pytest.approx(2 + 2 * math.cosh(1), abs=1e-12)
        assert record["diagnostics"]["g"] == pytest.approx(math.sinh(1) - 1, abs=1e-12)
        assert len(record["results"]["wootters_roots"]) == 4

    def test_params_roundtrip_exactly(self, capsys):
        argv = ["eval", "--j", "0.1", "--jz", "-2.7", "--big-b", "1.3", "--b", "0.4",
                "--t", "0.37"]
        record = run_json(capsys, *argv)
        assert record["params"] == {
            "J": 0.1, "Jz": -2.7, "B": 1.3, "b": 0.4, "T": 0.37
        }
        again = run_json(capsys, *argv)
        assert again == record

    def test_infinite_temperature(self, capsys):
        record = run_json(capsys, "eval", "--t", "1e9")
        assert record["results"]["concurrence"] == 0.0

    def test_zero_coupling_point(self, capsys, output_schema):
        record = run_json(capsys, "eval", "--j", "0", "--jz", "1", "--t", "1")
        jsonschema.validate(record, output_schema)
        assert record["results"]["concurrence"] == 0.0
        diagnostics = record["diagnostics"]
        assert diagnostics["g"] == -1.0
        # levels Jz/2 (twice) and -Jz/2 (twice)
        assert diagnostics["Z"] == pytest.approx(4 * math.cosh(0.5), rel=1e-15)
        assert diagnostics["m"] is None and diagnostics["n"] is None
        assert diagnostics["s"] is None

    def test_sign_diagnostic_matches_sign_function(self, capsys):
        rng = np.random.default_rng(306)
        for _ in range(300):
            J, Jz, B, b = (
                float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3)),
                float(rng.uniform(-3, 3)), float(rng.uniform(0, 3)), float(rng.uniform(-3, 3)),
            )
            T = rng.uniform(0.05, 5.0)
            record = run_json(capsys, "eval", f"--j={J!r}", f"--jz={Jz!r}",
                              f"--big-b={B!r}", f"--b={b!r}", f"--t={T!r}")
            assert record["diagnostics"]["g"] == float(np.expm1(log_sign_values(J, Jz, b, T)))
            value, roots = thermal_concurrence(J, Jz, B, b, T)
            assert record["results"]["concurrence"] == value
            assert record["results"]["wootters_roots"] == list(roots)

    def test_sign_past_double_range_is_null(self, capsys, output_schema):
        # log(g + 1) is about 1000 here, so g overflows a double
        code, out, err = run_cli(capsys, "eval", "--jz", "1", "--t", "0.001", "--j", "0.001")
        assert code == 0 and err == ""
        record = json.loads(out)
        jsonschema.validate(record, output_schema)
        assert record["diagnostics"]["g"] is None
        value, _ = thermal_concurrence(0.001, 1.0, 0.0, 0.0, 0.001)
        assert record["results"]["concurrence"] == value

    def test_partition_function_past_double_range_is_null(self, capsys, output_schema):
        # |E|/T = 2000: Z = exp(2000) overflows, the shifted weights do not
        code, out, err = run_cli(capsys, "eval", "--t", "0.001", "--big-b", "2")
        assert code == 0 and err == ""
        record = json.loads(out)
        jsonschema.validate(record, output_schema)
        assert record["diagnostics"]["Z"] is None
        _, csv, _ = run_cli(capsys, "sweep", "--axis", "t:0.001:0.001:1", "--big-b", "2")
        swept = float(csv.splitlines()[1].split(",")[1])
        assert record["results"]["concurrence"] == swept

    def test_top_of_range_matches_unit_scale(self, capsys):
        # hypot(b, J) overflows unscaled here; every reported number is a ratio
        top = run_json(capsys, "eval", "--j", "1.5e308", "--b", "1.35e308", "--t", "1e308")
        unit = run_json(capsys, "eval", "--j", "1.5", "--b", "1.35", "--t", "1")
        assert top["results"] == unit["results"]
        assert top["diagnostics"] == unit["diagnostics"]

    def test_n_is_the_same_at_eight_times_the_point(self, capsys):
        # b sinh(eta/T) overflows at 8 times this point; sinh(eta/T)/(eta/b) does at neither
        point = {"j": -1.53125, "jz": 0.0, "big-b": 4.583168357587862, "b": 1.71875,
                 "t": 0.003251532071965387}
        n = []
        for scale in (1, 8):
            argv = [f"--{flag}={value * scale!r}" for flag, value in point.items()]
            n.append(run_json(capsys, "eval", *argv)["diagnostics"]["n"])
        assert n[0] == n[1] == 1.0724260373779925e307

    def test_zero_coupling_runs_no_eigensolve(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigensolve at J = 0")

        monkeypatch.setattr("xxzent.linalg._solve", refuse)  # every eigensolve goes through it
        record = run_json(capsys, "eval", "--j", "0", "--b", "0.7", "--t", "0.4")
        assert record["results"]["concurrence"] == 0.0

    def test_negative_temperature_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--t", "-1")
        assert code == 1
        assert "NonPositiveTemperature" in err

    def test_negative_uniform_field_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--big-b", "-1")
        assert code == 1
        assert "InvalidParameter" in err

    def test_malformed_flag_exits_2(self, capsys):
        assert run_cli(capsys, "eval", "--t", "warm")[0] == 2

    def test_out_file(self, capsys, tmp_path, output_schema):
        path = tmp_path / "record.json"
        code, out, _ = run_cli(capsys, "eval", "--out", str(path))
        assert code == 0 and out == ""
        record = json.loads(path.read_text(encoding="utf-8"))
        jsonschema.validate(record, output_schema)


class TestGround:
    def test_maximally_entangled(self, capsys, output_schema):
        record = run_json(capsys, "ground", "--j", "1", "--jz", "0", "--big-b", "0",
                          "--b", "0")
        jsonschema.validate(record, output_schema)
        assert record["results"]["phase"] == "entangled"
        assert record["results"]["ground_concurrence"] == 1.0

    def test_disentangled(self, capsys):
        record = run_json(capsys, "ground", "--j", "1", "--big-b", "3")
        assert record["results"]["phase"] == "disentangled"
        assert record["results"]["ground_concurrence"] == 0.0
        assert record["results"]["ground_energy"] == -3.0

    def test_threshold(self, capsys):
        record = run_json(capsys, "ground", "--j", "1", "--jz", "0.4")
        assert record["results"]["threshold_B"] == pytest.approx(1.4, abs=1e-15)

    def test_boundary_is_null(self, capsys, output_schema):
        record = run_json(capsys, "ground", "--j", "1", "--jz", "0.4", "--big-b", "1.4")
        jsonschema.validate(record, output_schema)
        assert record["results"]["phase"] == "boundary"
        assert record["results"]["ground_concurrence"] is None

    def test_rejects_temperature_flag(self, capsys):
        assert run_cli(capsys, "ground", "--t", "1")[0] == 2

    def test_boundary_tolerance_is_relative(self, capsys):
        # the gap eta - (B - Jz) = 1e-13 is the whole scale here, not a crossing
        record = run_json(capsys, "ground", "--j", "1e-13")
        assert record["results"]["phase"] == "entangled"
        assert record["results"]["ground_concurrence"] == 1.0

    def test_top_of_range_keeps_the_phase(self, capsys, output_schema):
        # E3, Jz^f and B^f lie near 2e308 here, past the double range
        record = run_json(capsys, "ground", "--j", "1.5e308", "--b", "1.35e308")
        jsonschema.validate(record, output_schema)
        results = record["results"]
        assert results["phase"] == "entangled"
        assert results["ground_concurrence"] == 0.7432941462471663
        assert results["ground_concurrence"] == run_json(
            capsys, "ground", "--j", "1.5", "--b", "1.35")["results"]["ground_concurrence"]
        assert results["ground_energy"] is None
        assert results["threshold_Jz"] is None and results["threshold_B"] is None


class TestSweep:
    def test_csv_layout_and_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "b:-1:1:5", "--t", "0.4", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "b,concurrence"
        assert len(lines) == 6
        b_col = np.array([float(line.split(",")[0]) for line in lines[1:]])
        c_col = np.array([float(line.split(",")[1]) for line in lines[1:]])
        reevaluated = concurrence_values(1.0, 0.0, 0.0, b_col, 0.4)
        assert np.array_equal(reevaluated, c_col)  # 17 digits round-trip to 0 ulps

    def test_csv_uses_17_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--axis", "b:0:1:3", "--t", "0.7")
        value = out.splitlines()[2].split(",")[1]
        assert float(value) == float(format(float(value), ".17g"))
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_two_point_axis_two_rows(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--axis", "t:0.4:1.0:2")
        assert len(out.splitlines()) == 3

    def test_two_axis_axis_major_order(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--axis", "b:0:1:2", "--axis", "t:0.5:1.5:3"
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "0", "0", "1", "1", "1"]
        assert [r[1] for r in rows] == ["0.5", "1", "1.5"] * 2

    def test_json_record(self, capsys, output_schema):
        record = run_json(
            capsys, "sweep", "--axis", "b:-2:2:9", "--jz", "0.3", "--format", "json"
        )
        jsonschema.validate(record, output_schema)
        assert record["params"] == {"J": 1.0, "Jz": 0.3, "B": 0.0, "T": 1.0}
        assert record["results"]["axes"][0] == {
            "name": "b", "start": -2.0, "stop": 2.0, "points": 9
        }
        assert len(record["results"]["values"]) == 9

    def test_figure_writes_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sweep", "--figure", "1", "--out", str(tmp_path))
        assert code == 0
        written = sorted(tmp_path.glob("*.csv"))
        assert [p.name for p in written] == ["fig1_inhomogeneous.csv", "fig1_uniform.csv"]
        header = written[0].read_text(encoding="utf-8").splitlines()[0]
        assert header == "b,T,concurrence"
        assert all(str(p) in out for p in written)

    def test_figure_csv_reevaluates_bitwise(self, capsys, tmp_path):
        run_cli(capsys, "sweep", "--figure", "4", "--out", str(tmp_path))
        path = tmp_path / "fig4_jz_0p4.csv"
        rows = [line.split(",") for line in
                path.read_text(encoding="utf-8").splitlines()[1:]]
        b_col = np.array([float(r[0]) for r in rows])
        c_col = np.array([float(r[1]) for r in rows])
        assert np.array_equal(concurrence_values(1.0, 0.4, 0.8, b_col, 0.6), c_col)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep",),
            ("sweep", "--axis", "b:0:1"),
            ("sweep", "--axis", "q:0:1:5"),
            ("sweep", "--axis", "b:1:0:5"),
            ("sweep", "--axis", "b:0:1:5", "--figure", "1"),
            ("sweep", "--figure", "9"),
            ("sweep", "--axis", "b:0:1:5", "--axis", "b:0:1:5"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 2

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "grid.csv"
        code, _, err = run_cli(capsys, "sweep", "--axis", "b:0:1:3", "--out", str(target))
        assert code == 1
        assert "i/o error" in err


class TestCritical:
    def test_temperature_anchor(self, capsys, output_schema):
        record = run_json(capsys, "critical", "--axis", "t", "--j", "1", "--jz", "0",
                          "--big-b", "0", "--b", "0")
        jsonschema.validate(record, output_schema)
        assert record["results"]["location"] == pytest.approx(1.134593, abs=1e-6)
        assert abs(record["results"]["residual"]) <= 1e-9
        assert record["diagnostics"] == {}  # the bracket, not a residual bound, certifies the root

    def test_inhomogeneous_no_finite_root(self, capsys, output_schema):
        record = run_json(capsys, "critical", "--axis", "b", "--j", "1", "--jz", "0",
                          "--big-b", "0", "--t", "0.6")
        jsonschema.validate(record, output_schema)
        assert record["results"]["location"] is None
        assert record["results"]["note"]

    def test_uniform_reports_boundary(self, capsys):
        record = run_json(capsys, "critical", "--axis", "big-b", "--j", "1",
                          "--jz", "0.4", "--b", "0.8", "--t", "0.01")
        assert record["results"]["location"] is None
        assert record["results"]["zero_temperature_boundary"] == pytest.approx(
            1.6806248474865697, abs=1e-9
        )

    def test_requires_axis(self, capsys):
        assert run_cli(capsys, "critical")[0] == 2

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("--axis", "t", "--j", "100"), 100 / math.asinh(1)),
            (("--axis", "t", "--j", "1e-5"), 1e-5 / math.asinh(1)),
            (("--axis", "b", "--j", "1000", "--t", "2000"),
             1000 * critical_field(1.0, 0.0, 0.0, 0.0, 2.0, "b").location),
        ],
        ids=["t-j100", "t-j1e-5", "b-j1000-t2000"],
    )
    def test_scaled_parameters_scale_the_root(self, capsys, argv, expected):
        record = run_json(capsys, "critical", *argv)
        assert record["results"]["location"] == pytest.approx(expected, rel=1e-12)
        lo, hi = record["results"]["bracket"]
        assert lo < hi and hi - lo <= 4e-16 * hi  # adjacent doubles

    def test_root_past_double_range(self, capsys, output_schema):
        # the onset lies near b = 4.2e308, beyond the largest double
        record = run_json(capsys, "critical", "--axis", "b", "--j", "1e300", "--t", "1e308")
        jsonschema.validate(record, output_schema)
        results = record["results"]
        assert results["location"] is None and results["bracket"] is None
        assert "past the double range" in results["note"]

    @pytest.mark.filterwarnings("error")
    def test_uniform_low_temperature_is_quiet(self, capsys):
        # g = exp(Jz/T) ... overflows to inf here, a valid positive sign
        code, out, err = run_cli(capsys, "critical", "--axis", "big-b", "--jz", "3",
                                 "--t", "0.001")
        assert code == 0 and err == ""
        assert "stays positive" in json.loads(out)["results"]["note"]


class TestVerify:
    def test_passes_and_validates(self, capsys, output_schema):
        record = run_json(capsys, "verify", "--samples", "200", "--seed", "42")
        jsonschema.validate(record, output_schema)
        assert record["results"]["all_passed"] is True
        names = {s["name"] for s in record["results"]["suites"]}
        assert "spectrum-oracle" in names and "gibbs-oracle" in names

    def test_single_sample(self, capsys):
        record = run_json(capsys, "verify", "--samples", "1", "--seed", "5")
        assert all(s["samples"] == 1 for s in record["results"]["suites"])

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--samples", "50", "--seed", "9")
        _, second, _ = run_cli(capsys, "verify", "--samples", "50", "--seed", "9")
        assert first == second

    def test_zero_samples_exits_2(self, capsys):
        assert run_cli(capsys, "verify", "--samples", "0")[0] == 2


def test_console_script_installed():
    # The child imports the tree under test, installed or not.
    src = str(Path(xxzent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "xxzent.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "xxzent" in result.stdout
    # The installed `xxzent` script calls the function that the __main__ block calls.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        module, _, name = tomllib.load(f)["project"]["scripts"]["xxzent"].partition(":")
    cli = importlib.import_module("xxzent.cli")
    (block,) = [node for node in ast.parse(inspect.getsource(cli)).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    (called,) = [node.func.id for node in ast.walk(block)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert getattr(importlib.import_module(module), name) is getattr(cli, called)


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", EXTREME_ARGVS)
def test_extreme_scales_are_quiet(capsys, output_schema, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] == "sweep":
        assert len(out.splitlines()) == 4  # header and three rows
    else:
        jsonschema.validate(json.loads(out), output_schema)


def package_modules():
    return [
        importlib.import_module(f"xxzent.{info.name}")
        for info in pkgutil.iter_modules(xxzent.__path__)
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,code",
    [
        # out of the model's domain: exit 1 on every command
        (["eval", "--big-b", "-1"], 1),
        (["sweep", "--axis", "b:0:1:3", "--big-b", "-1"], 1),
        (["sweep", "--axis", "big-b:-1:1:3"], 1),
        (["eval", "--t", "0"], 1),
        (["eval", "--t=-1e-300"], 1),
        (["sweep", "--axis", "t:0:1:3"], 1),
        (["sweep", "--axis", "t:-1e-300:1:3"], 1),
        (["eval", "--j", "nan"], 1),
        (["sweep", "--axis", "b:0:1:3", "--j", "nan"], 1),
        (["eval", "--t", "inf"], 1),
        (["critical", "--axis", "b", "--t", "inf"], 1),
        (["critical", "--axis", "big-b", "--t", "inf"], 1),
        # the refused inputs of the benchmark's session workload
        (["eval", "--t=-0.5"], 1),
        (["eval", "--big-b=-0.25"], 1),
        (["ground", "--j=0"], 1),
        (["critical", "--axis", "t", "--j=0"], 1),
        (["sweep", "--axis", "t:2:1:11"], 2),
        (["sweep", "--axis", "q:0:1:11"], 2),
        (["eval", "--t", "warm"], 2),
        # the temperature that critical --axis t records but does not use
        (["critical", "--axis", "t", "--t", "0"], 1),
        (["critical", "--axis", "t", "--t", "nan"], 1),
        (["critical", "--axis", "t", "--t", "inf"], 1),
        (["critical", "--axis", "t", "--t=-1e-300"], 1),
        # the seed of verify's Philox draws is a non-negative integer
        (["verify", "--seed", "-1"], 2),
        # one point past the cap of 1001**2 points per grid, refused before any is computed
        (["sweep", "--axis", "t:0.1:1:1002002"], 2),
    ],
)
def test_refused_input_fails_cleanly(capsys, argv, code):
    status, out, err = run_cli(capsys, *argv)
    assert status == code
    assert out == ""
    lines = err.splitlines()
    prefix = "usage error: " if code == 2 else "error: "
    assert len(lines) == 1 and lines[0].startswith(prefix), err


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # as numpy raises it for `verify --samples 1000000000000`, without allocating anything
    def refuse(samples, seed):
        raise MemoryError("Unable to allocate 43.7 TiB for an array with shape "
                          "(1000000000000, 6) and data type float64")

    monkeypatch.setattr("xxzent.cli.run_suites", refuse)
    status, out, err = run_cli(capsys, "verify", "--samples", "1000000000000")
    assert status == 1 and out == ""
    assert err == "error: out of memory: Unable to allocate 43.7 TiB for an array with shape " \
        "(1000000000000, 6) and data type float64\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["eval", "--b", "-5e-1"], 0),
        (["sweep", "--axis", "b:0:1:3", "--jz", "-1E2"], 0),
        (["critical", "--axis", "t", "--jz", "-.5e+1"], 0),
        (["eval", "--b", "-2."], 0),
        (["eval", "--b", "-inf"], 1),
        (["eval", "--t", "-1e-3"], 1),
    ],
)
def test_a_negative_number_in_any_float_notation_is_a_flag_value(capsys, argv, code):
    # argparse itself takes only the -1 and -1.5 shapes for numbers, not options
    *command, flag, value = argv
    joined = run_cli(capsys, *command, f"{flag}={value}")
    assert joined[0] == code
    assert run_cli(capsys, *argv) == joined


def test_no_scalar_twin_of_a_broadcast_function():
    # Each route is one function; a public X next to a public X_values would
    # be a second implementation of it.
    for module in package_modules():
        public = {
            name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        twins = sorted(name for name in public if f"{name}_values" in public)
        assert not twins, f"{module.__name__}: {twins}"


def test_no_unnamed_tolerance_in_a_function_body():
    # A tolerance is written once, as a named module constant; a tiny float
    # literal inside a function is an unnamed second copy of one.
    found = set()
    for module in package_modules():
        for function in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(function, (ast.FunctionDef, ast.Lambda)):
                found.update(
                    f"{module.__name__}.{getattr(function, 'name', 'lambda')}: {node.value!r}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 1e-6
                )
    assert not found, sorted(found)


def test_every_public_function_is_named_in_the_package():
    # A replaced route leaves with its function: every public top-level function is named,
    # as a Name or an Attribute, somewhere in the package outside its own body (__init__'s
    # name strings do not count).  The one exception is the library's generic Wootters
    # route for arbitrary states, which no command needs.
    def names(tree):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in
                       ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))

    trees = {m.__name__: ast.parse(inspect.getsource(m)) for m in [xxzent, *package_modules()]}
    everywhere = sum(map(names, trees.values()), Counter())
    unnamed = {
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and everywhere[node.name] == names(node)[node.name]
    }
    assert not unnamed - {"xxzent.thermal.wootters_concurrence"}, sorted(unnamed)


def test_only_linalg_refuse_names_a_first_offender():
    # The policy "find the first offender, then raise" is written once, in
    # linalg._refuse; every other check calls it.
    found = set()
    for module in package_modules():
        for function in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(function, ast.FunctionDef):
                continue
            nodes = list(ast.walk(function))
            finds = any(isinstance(node, ast.Attribute) and node.attr == "flatnonzero"
                        for node in nodes)
            if finds and any(isinstance(node, ast.Raise) for node in nodes):
                found.add(f"{module.__name__}.{function.name}")
    assert found == {"xxzent.linalg._refuse"}, sorted(found)


def test_model_parameters_keep_one_order():
    # Every operation takes the model's parameters first, as plain numbers
    # in the order (J, Jz, B, b, T); it may leave some of them out.
    modules = [m for m in package_modules() if m.__name__.rsplit(".", 1)[1] in
               ("model", "thermal", "sweep")]
    assert len(modules) == 3
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != module.__name__:
                continue
            names = list(inspect.signature(obj).parameters)
            model = [n for n in names if n in PARAM_NAMES]
            assert names[:len(model)] == model, f"{name}{names}"
            assert model == [n for n in PARAM_NAMES if n in model], f"{name}{names}"


def _raised(operation, *args, **kwargs):
    """The class of the error operation(*args, **kwargs) raises, or None."""
    try:
        operation(*args, **kwargs)
    except Exception as exc:
        return type(exc)
    return None


# Each scalar operation, its arguments besides the model's, and whether it
# divides by J.
SCALAR_OPERATIONS = [
    (closed_spectrum, {}, True),
    (ground_state, {}, True),
    (gibbs_diagnostics, {}, False),
    (critical_temperature, {}, True),
    (critical_field, {"axis": "b"}, True),
    (critical_field, {"axis": "B"}, True),
]


def test_scalar_operations_refuse_like_the_broadcast_routes():
    good = {"J": 1.0, "Jz": 0.4, "B": 0.5, "b": 0.3, "T": 0.7}
    for bad, route, error in (
        ({"B": -1.0}, thermal_concurrence, InvalidParameterError),
        ({"J": math.nan}, thermal_concurrence, InvalidParameterError),
        ({"J": 0.0}, gibbs_closed, ZeroXYCouplingError),
    ):
        point = {**good, **bad}
        assert _raised(route, **point) is error
        for operation, extra, divides_by_J in SCALAR_OPERATIONS:
            names = inspect.signature(operation).parameters
            args = {n: v for n, v in point.items() if n in names}
            expected = None if bad == {"J": 0.0} and not divides_by_J else error
            assert _raised(operation, **args, **extra) is expected, (operation, bad)


def test_every_error_class_carries_an_exit_code():
    # A class missing from XxzentError would leave the CLI as a traceback.
    errors = []
    for module in package_modules():
        errors += [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    assert len(errors) >= 10
    for error in errors:
        assert issubclass(error, XxzentError), error
    usage = {UsageError, InvalidAxisError, UnknownFigureError}
    assert {error for error in errors if error.exit_code == 2} == usage
    assert all(error.exit_code == 1 for error in errors if error not in usage)
