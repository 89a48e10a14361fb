"""Compare the command line's outputs in two source trees, run by run.

    python scripts/output_identity.py PARENT [TREE]

PARENT and TREE are checkouts that hold `src/xxzent`; TREE defaults to the
checkout that holds this script.  A parent is usually a revision unpacked
under a temporary directory:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python scripts/output_identity.py /tmp/parent

Every run of the fixed list (see `runs`) executes `python -m xxzent.cli ARGV`
once per tree, in its own empty working directory, with that tree's `src` on
PYTHONPATH.  A run is identical when the exit codes and the sha256 of
stdout, stderr and every file it wrote agree.  Where an output differs, its
CSV or JSON is parsed and every changed number is counted under its column
or JSON key, with the largest absolute difference and the largest distance
in units in the last place (ulps), in all and per run.  The per-run lines
go to stderr, and the last line of stdout is one JSON summary.  The exit
code is 0 when every run is identical and 1 otherwise.

`verify` records depend on the host's LAPACK (the Wootters roots are its
singular values), so compare them only between two trees on the same host.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SESSION_SEEDS = (11, 29)
POOL_SEED = 11  # of the grid and verify pools
VERIFY_SEEDS = (42, 7, 1234567)

def runs() -> list[tuple[str, list[str]]]:
    """The fixed (name, argv) list: figures, the benchmark's pools, extreme and refused inputs,
    two rare branches (a phase boundary, J = 0) and the help texts."""
    for folder in ("bench", "tests"):
        if str(ROOT / folder) not in sys.path:
            sys.path.insert(0, str(ROOT / folder))
    import workloads
    from extreme_inputs import EXTREME_ARGVS

    listed = [
        (f"figure{n}-{fmt}{'-out' if out else ''}",
         ["sweep", "--figure", str(n), "--format", fmt, *(["--out", "figures"] if out else [])])
        for n in range(1, 6) for fmt in ("csv", "json") for out in (False, True)
    ]
    pools = [("session", seed) for seed in SESSION_SEEDS]
    pools += [("grid", POOL_SEED), ("verify", POOL_SEED)]
    for workload, seed in pools:
        ops = workloads.make_pool(workload, seed, Path("."))
        listed += [(f"{workload}{seed}-{i:02d}-{op.kind}", op.argv) for i, op in enumerate(ops)]
    listed += [(f"verify-seed{seed}", ["verify", "--samples", "5000", "--seed", str(seed)])
               for seed in VERIFY_SEEDS]
    # one draw, one past a block of verify.BLOCK_DRAWS (1024), and the README's command
    listed += [(f"verify-samples{n}", ["verify", "--samples", str(n)]) for n in (1, 1025, 10000)]
    listed += [(f"extreme-{i:02d}", argv) for i, argv in enumerate(EXTREME_ARGVS)]
    listed += [(f"refused-{i}", argv) for i, (argv, _) in enumerate(workloads.BAD_INPUTS)]
    # the ground state on its phase boundary, and the Gibbs diagnostics at J = 0
    listed += [("ground-boundary", ["ground", "--j", "1", "--jz", "0.4", "--big-b", "1.4"]),
               ("eval-j0", ["eval", "--j", "0", "--jz", "1"])]
    # every help text, which the flag table and the subparsers write
    listed += [("help-top", ["--help"])]
    listed += [(f"help-{command}", [command, "--help"])
               for command in ("eval", "ground", "sweep", "critical", "verify")]
    return listed


def execute(tree: Path, argv: list[str], workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and outputs (stdout, stderr and each written file) of one run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    result = subprocess.run([sys.executable, "-m", "xxzent.cli", *argv], cwd=workdir,
                            env=env, capture_output=True, stdin=subprocess.DEVNULL)
    outputs = {"stdout": result.stdout, "stderr": result.stderr}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        outputs[path.relative_to(workdir).as_posix()] = path.read_bytes()
    return result.returncode, outputs


def _ordered(x: float) -> int:
    """The double's bits as an integer that orders like the double, +0 and -0 both 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _leaves(value, key=""):
    """(key, leaf) pairs of a JSON value, list positions written as []."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, key + "[]")
    else:
        yield key, value


def _csv_leaves(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    for row in rows[1:]:
        for name, cell in zip(header, row):
            try:
                yield name, float(cell)
            except ValueError:
                yield name, cell


def _parsed(data: bytes):
    """The (key, value) leaves of a JSON or CSV output, or None for other text."""
    text = data.decode("utf-8", errors="replace")
    try:
        return list(_leaves(json.loads(text)))
    except ValueError:
        pass
    if "," in text.partition("\n")[0]:
        return list(_csv_leaves(text))
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_changes(old: bytes, new: bytes) -> dict:
    """Changed numbers per key between two outputs, or None when the two do not parse
    into the same keys.  Each key gets the count of changed values, the largest
    absolute difference between finite ones and the largest ulp distance; "other"
    counts changed values that are not both numbers."""
    a, b = _parsed(old), _parsed(new)
    if a is None or b is None or [k for k, _ in a] != [k for k, _ in b]:
        return None
    changed: dict[str, dict] = {}
    other = 0
    for (key, x), (_, y) in zip(a, b):
        if x == y:
            continue
        if not (_is_number(x) and _is_number(y)):
            other += 1
            continue
        x, y = float(x), float(y)
        if math.isnan(x) and math.isnan(y):
            continue
        entry = changed.setdefault(key, {"values": 0, "max_abs": 0.0, "max_ulp": 0})
        entry["values"] += 1
        if math.isfinite(x) and math.isfinite(y):
            entry["max_abs"] = max(entry["max_abs"], abs(x - y))
        entry["max_ulp"] = max(entry["max_ulp"], abs(_ordered(x) - _ordered(y)))
    return {"changed": changed, "other": other}


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def compare(parent: Path, tree: Path, listed: list[tuple[str, list[str]]], log=None) -> dict:
    """Run every (name, argv) in both trees; the summary of what differs.

    With a log stream, one line per run gives the exit codes and the sha256 (first
    16 hex digits) of each output, as parent/tree where the two differ."""
    summary = {"parent": str(parent), "tree": str(tree), "runs": len(listed), "identical": 0,
               "exit_codes_differ": [], "unparsed": [], "other_values_differ": [],
               "changed": {}}
    for name, argv in listed:
        sides = []
        for root in (parent, tree):
            with tempfile.TemporaryDirectory(prefix="identity-") as workdir:
                sides.append(execute(root, argv, Path(workdir)))
        (code_a, out_a), (code_b, out_b) = sides
        keys = sorted(out_a.keys() | out_b.keys())
        differing = [k for k in keys if out_a.get(k) != out_b.get(k)]
        if code_a != code_b:
            summary["exit_codes_differ"].append(name)
        elif not differing:
            summary["identical"] += 1
        for key in differing:
            report = numeric_changes(out_a.get(key, b""), out_b.get(key, b""))
            if report is None:
                summary["unparsed"].append(f"{name}:{key}")
                continue
            if report["other"]:
                summary["other_values_differ"].append(f"{name}:{key}")
            for column, entry in report["changed"].items():
                total = summary["changed"].setdefault(
                    column, {"values": 0, "max_abs": 0.0, "max_ulp": 0, "runs": {}})
                total["values"] += entry["values"]
                total["max_abs"] = max(total["max_abs"], entry["max_abs"])
                total["max_ulp"] = max(total["max_ulp"], entry["max_ulp"])
                total["runs"][name] = max(total["runs"].get(name, 0), entry["max_ulp"])
        if log:
            hashes = " ".join(
                f"{k}={_sha(out_a.get(k))}" if k not in differing
                else f"{k}={_sha(out_a.get(k))}/{_sha(out_b.get(k))}" for k in keys)
            state = "identical" if code_a == code_b and not differing else "DIFFERS"
            print(f"{name}: {state} exit {code_a}/{code_b} {hashes}", file=log)
    return summary


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    tree = Path(argv[1]).resolve() if len(argv) == 2 else ROOT
    summary = compare(parent, tree, runs(), log=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["identical"] == summary["runs"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
