"""Benchmark of the xxzent command line, end to end and layer by layer.

    python3 bench/run.py --workload verify|grid|session --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the source tree next to this
directory (`src/`), run as `python -m xxzent.cli` with that tree on
PYTHONPATH, because the package need not be installed.

--trace 0 is a closed loop with one client and one child process at a time:
each operation of the workload's seeded pool is spawned, timed from spawn to
exit, and its rusage read with os.wait4.  --trace 1 replays the same pool in
this process through xxzent.cli.main, each operation once untraced and once
with spans around every public function (bench/tracing.py), and reports the
per-layer metrics per pass over the pool.  Both modes check every output
(bench/checks.py) and that repeated argv lists give byte-identical output.

Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (name -> value, unit).
Outputs go to a temporary directory under `.bench_tmp/`, removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Checker, CriticalMismatch
from workloads import POOLS, make_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schema" / "output.json"

WARMUP_RUNS = 10  # --version runs before the first operation
SETUP_PROBE_INTERVAL_S = 1.0  # operation wall time between further --version runs
IMPORT_REPEATS = 11  # fresh-interpreter imports whose median is cli.import_s
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MAX_REPORTED_PROBLEMS = 10
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)

# Per-layer metrics: three per function, under stable names even if a
# function is later removed (it then reports zeros).
TRACED_FUNCTIONS = (
    "linalg.hermitian_eigen", "linalg.psd_sqrt", "linalg.singular_values",
    "linalg.hermiticity_defect",
    "model.build_hamiltonian", "model.closed_spectrum", "model.ground_state",
    "thermal.gibbs_closed", "thermal.gibbs_spectral", "thermal.wootters_concurrence",
    "thermal.xstate_concurrence", "thermal.thermal_concurrence",
    "thermal.concurrence_values", "thermal.log_sign_values",
    "sweep.sweep", "sweep.axis_columns", "sweep.figure_data",
    "sweep.critical_temperature", "sweep.critical_field",
    "verify.draw_params",
    "cli.cmd_eval", "cli.cmd_ground", "cli.cmd_sweep", "cli.cmd_critical", "cli.cmd_verify",
)
FUNCTION_STATS = (("calls", "count"), ("self_s", "s"), ("errors", "count"))
VERIFY_SUITES = (
    "suite_spectrum", "suite_gibbs", "suite_routes",
    "suite_b_symmetry", "suite_j_parity", "suite_b_monotonic",
)
# Critical-point answers that contradict the analytic existence condition,
# by the function that produced them.
MISMATCH_KINDS = {"critical-t": "sweep.critical_temperature", "critical-b": "sweep.critical_field"}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import xxzent.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(args: list[str], cwd: Path, stdout_path: Path, env: dict):
    """Run one child to exit: (exit code, wall s, user+sys CPU s, max RSS KiB)."""
    with open(stdout_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out,
            stderr=subprocess.DEVNULL, cwd=cwd, env=env,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def collect_outputs(op) -> dict[str, bytes]:
    """Read and remove the files the operation wrote."""
    if op.out is None or not op.out.exists():
        return {}
    if op.out.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(op.out.iterdir())}
        shutil.rmtree(op.out)
        return files
    files = {op.out.name: op.out.read_bytes()}
    op.out.unlink()
    return files


class Ledger:
    """Verdict per operation run: checked once per argv, then compared by digest."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.seen: dict[tuple, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, op, code, stdout: bytes, files: dict[str, bytes]) -> str:
        digest = hashlib.sha256(str(code).encode() + b"\0" + stdout)
        for name in sorted(files):
            digest.update(b"\0" + name.encode() + b"\0" + files[name])
        digest = digest.hexdigest()
        key = tuple(op.argv)
        if key not in self.seen:
            try:
                self.checker.check(op, code, stdout, files)
                verdict = "ok"
            except CriticalMismatch as exc:
                verdict, problem = "mismatch", str(exc)
            except Exception as exc:  # any malformed output fails the operation, not the run
                verdict, problem = "failed", f"{type(exc).__name__}: {exc}"
            if verdict != "ok":
                self._note(f"{verdict}: {' '.join(op.argv)[:200]} -> {problem}")
            self.seen[key] = (digest, verdict)
        elif self.seen[key][0] != digest:
            verdict = "failed"
            self._note(f"failed: nondeterministic output for {' '.join(op.argv)[:200]}")
        else:
            verdict = self.seen[key][1]
        self.attempted += 1
        self.failed += verdict == "failed"
        return verdict

    def _note(self, message: str) -> None:
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append("  " + message)


def run_record(args) -> dict:
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": np.__version__, "nproc": os.cpu_count(),
        "cpu_model": None, "git_sha": None, "git_dirty": None,
        "loadavg_before": os.getloadavg(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
        record["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
        if sha.returncode == 0:
            record["git_sha"] = sha.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    return record


def setup_wall(tmp: Path, env: dict) -> float:
    """Wall of one `python -m xxzent.cli --version`: interpreter start plus import."""
    code, wall, _, _ = spawn(["-m", "xxzent.cli", "--version"], tmp, tmp / "version.out", env)
    if code != 0 or not (tmp / "version.out").read_bytes().startswith(b"xxzent "):
        raise RuntimeError("`xxzent --version` failed; is src/xxzent a working tree?")
    return wall


def run_untraced(pool, seconds, tmp, env, ledger):
    """Closed loop over the pool until `seconds` of operation wall time.

    Set-up runs come first and then after every second of operations, so
    that the set-up samples see the machine over the whole run, as the
    operations do.  Returns (set-up walls, per-operation samples).
    """
    setup = [setup_wall(tmp, env) for _ in range(WARMUP_RUNS)]
    samples = []  # (kind, wall, cpu, rss KiB, items, verdict)
    elapsed, since_probe, index = 0.0, 0.0, 0
    stdout_path = tmp / "op.out"
    while elapsed < seconds:
        op = pool[index % len(pool)]
        index += 1
        code, wall, cpu, rss = spawn(["-m", "xxzent.cli", *op.argv], tmp, stdout_path, env)
        elapsed += wall
        since_probe += wall
        verdict = ledger.judge(op, code, stdout_path.read_bytes(), collect_outputs(op))
        samples.append((op.kind, wall, cpu, rss, op.items, verdict))
        if since_probe >= SETUP_PROBE_INTERVAL_S:
            setup.append(setup_wall(tmp, env))
            since_probe = 0.0
    return setup, samples


def end_to_end_metrics(setup, samples):
    walls = [s[1] for s in samples]
    done = [s for s in samples if s[5] != "failed"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_cpu_p50_s": (statistics.median(s[2] for s in samples), "s"),
        "items_per_s": (sum(s[4] for s in done) / sum(walls), "1/s"),
        "peak_rss_mb": (max(s[3] for s in samples) / 1024.0, "MB"),
    }


def run_inprocess(cli_module, argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_module.main(argv)
        except Exception as exc:  # a crash fails this operation's exit-code check
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, perf_counter() - start, out.getvalue().encode()


def run_traced(pool, seconds, tmp, env, ledger):
    """Replay whole passes over the pool in-process, each op untraced and traced."""
    sys.path.insert(0, str(SRC))
    import xxzent.cli  # noqa: F401  (loads all six modules)
    from tracing import Tracer

    if Path(sys.modules["xxzent"].__file__).resolve().parent != SRC / "xxzent":
        raise RuntimeError(f"imported xxzent from {sys.modules['xxzent'].__file__}, not {SRC}")
    import_walls = []
    for _ in range(IMPORT_REPEATS):
        code, _, _, _ = spawn(["-c", IMPORT_PROBE], tmp, tmp / "import.out", env)
        if code != 0:
            raise RuntimeError("fresh-interpreter import of xxzent.cli failed")
        import_walls.append(float((tmp / "import.out").read_text()))

    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    bytes_out = 0
    mismatches = dict.fromkeys(MISMATCH_KINDS.values(), 0)
    passes, elapsed, last_pass = 0, 0.0, 0.0
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        while passes == 0 or elapsed + last_pass <= seconds:
            pass_start = elapsed
            for index, op in enumerate(pool):
                # Alternate which replay goes first so warm caches favour neither.
                for traced in (False, True) if (index + passes) % 2 == 0 else (True, False):
                    if traced:
                        with tracer.installed():
                            code, wall, stdout = run_inprocess(tracer.modules["cli"], op.argv)
                    else:
                        code, wall, stdout = run_inprocess(sys.modules["xxzent.cli"], op.argv)
                    files = collect_outputs(op)
                    verdict = ledger.judge(op, code, stdout, files)
                    walls[traced] += wall
                    elapsed += wall
                    if traced:
                        bytes_out += len(stdout) + sum(map(len, files.values()))
                        if verdict == "mismatch":
                            mismatches[MISMATCH_KINDS[op.kind]] += 1
            passes += 1
            last_pass = elapsed - pass_start
    finally:
        os.chdir(cwd)

    totals = tracer.layer_totals()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
    metrics = {}
    for name in TRACED_FUNCTIONS:
        entry = totals.get(name, zero)
        for stat, unit in FUNCTION_STATS:
            metrics[f"{name}.{stat}"] = (entry[stat] / passes, unit)
    metrics["thermal.concurrence_values.points"] = (tracer.points / passes, "count")
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.total_s"] = (totals.get(f"verify.{suite}", zero)["total_s"] / passes, "s")
    for name, count in mismatches.items():
        metrics[f"{name}.mismatches"] = (count / passes, "count")
    metrics["cli.import_s"] = (statistics.median(import_walls), "s")
    metrics["cli.bytes_out"] = (bytes_out / passes, "B")
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "fraction")
    return metrics, passes


def sample_notes(setup, samples) -> list[str]:
    """Sample counts, op_p90_s where it has ten samples beyond it, per-kind medians."""
    walls = [s[1] for s in samples]
    lines = [f"{'setup_s samples':40s} {len(setup)}", f"{'op_p50_s samples':40s} {len(walls)}"]
    if len(walls) >= P90_MIN_SAMPLES:
        lines.append(f"{'op_p90_s':40s} {statistics.quantiles(walls, n=10)[-1]:.6g} s (n={len(walls)})")
    else:
        lines.append(f"{'op_p90_s':40s} n/a (n={len(walls)} < {P90_MIN_SAMPLES})")
    for kind in sorted({s[0] for s in samples}):
        runs = [s for s in samples if s[0] == kind]
        verdicts = {v: sum(s[5] == v for s in runs) for v in ("mismatch", "failed")}
        lines.append(f"  {kind:16s} n={len(runs):4d}  median {statistics.median(s[1] for s in runs):.4g} s"
                     f"  mismatch {verdicts['mismatch']}  failed {verdicts['failed']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(POOLS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xxzent" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no xxzent source tree (src/xxzent, schema/) under {ROOT}", file=sys.stderr)
        return 2

    record = run_record(args)
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        env = child_env()
        ledger = Ledger(Checker(SCHEMA))
        pool = make_pool(args.workload, args.seed, tmp)
        if args.trace:
            metrics, passes = run_traced(pool, args.seconds, tmp, env, ledger)
            notes = [f"{'passes':40s} {passes}"]
        else:
            setup, samples = run_untraced(pool, args.seconds, tmp, env, ledger)
            metrics, notes = end_to_end_metrics(setup, samples), sample_notes(setup, samples)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still holds a directory there
    record["loadavg_after"] = os.getloadavg()
    print("run record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_frac':40s} {ledger.failed / ledger.attempted:.6g} ({ledger.failed}/{ledger.attempted})")
    print("\n".join(notes + ledger.problems))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
