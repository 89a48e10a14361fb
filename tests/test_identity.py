"""scripts/output_identity.py: a tree compared with itself, and a 1-ulp change."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "output_identity", ROOT / "scripts" / "output_identity.py"
)
identity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(identity)

SWEEP = ("sweep", ["sweep", "--axis", "t:0.1:1:5", "--jz", "0.3", "--out", "grid.csv"])


def test_the_fixed_list_holds_every_run_named_once():
    listed = identity.runs()
    names = [name for name, _ in listed]
    assert len(set(names)) == len(names)
    for prefix in ("figure5-json-out", "session11-", "session29-", "grid11-", "verify11-",
                   "verify-seed1234567", "verify-samples1025", "extreme-", "refused-",
                   "ground-boundary", "eval-j0", "help-"):
        assert any(name.startswith(prefix) for name in names), prefix


def test_a_tree_is_identical_to_itself():
    listed = [identity.runs()[0], SWEEP]
    summary = identity.compare(ROOT, ROOT, listed)
    assert summary["runs"] == summary["identical"] == 2
    assert summary["changed"] == {} and summary["exit_codes_differ"] == []
    json.dumps(summary)  # the summary is one JSON object


def test_reports_one_value_moved_by_one_ulp(tmp_path):
    # a copy of the tree whose kernel nudges the fourth value of every grid up by one ulp
    shutil.copytree(ROOT / "src" / "xxzent", tmp_path / "src" / "xxzent")
    thermal = tmp_path / "src" / "xxzent" / "thermal.py"
    thermal.write_text(thermal.read_text() + (
        "\n\n_exact = concurrence_values\n\n\n"
        "def concurrence_values(*params):\n"
        "    values = np.array(_exact(*params))\n"
        "    values.flat[3] = np.nextafter(values.flat[3], 2.0)\n"
        "    return values\n"
    ))
    summary = identity.compare(ROOT, tmp_path, [SWEEP])
    assert summary["identical"] == 0 and summary["unparsed"] == []
    assert list(summary["changed"]) == ["concurrence"]
    moved = summary["changed"]["concurrence"]
    assert moved["values"] == 1 and moved["max_ulp"] == 1 and moved["runs"] == {"sweep": 1}
    assert 0.0 < moved["max_abs"] <= 2.0**-52


def test_ulp_distance_counts_doubles_between():
    def ulps(x, y):
        return abs(identity._ordered(x) - identity._ordered(y))

    smallest = math.ulp(0.0)
    assert ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulps(-smallest, smallest) == 2
    assert ulps(0.0, -0.0) == 0
    assert ulps(-1.0, math.nextafter(-1.0, 0.0)) == 1
