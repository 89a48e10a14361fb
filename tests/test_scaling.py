"""Scale covariance of every command.

The model is homogeneous of degree one in (J, Jz, B, b, T): scaling all five
by lambda leaves each concurrence and ground phase unchanged and multiplies
each critical location by lambda.  lambda is drawn over the powers of two
2**-990 .. 2**990, and every drawn coordinate is 0 or at least 2**-30 in
magnitude, so every scaled parameter is a normal double, exactly lambda
times the drawn one, and a deviation can only come from the code, e.g. from
an absolute constant that decides an answer.  Warnings are errors
(pyproject.toml), so a property that reaches an overflowing or underflowing
intermediate fails too.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import xxzent
from xxzent import sweep, thermal
from xxzent.cli import AXIS_TOKENS, main
from xxzent.thermal import concurrence_values

FLAGS = {name: f"--{token}" for token, name in AXIS_TOKENS.items()}


def coordinate(lo, hi):
    """Floats in [lo, hi], with magnitudes below 2**-30 drawn as 0."""
    return st.floats(lo, hi).map(lambda x: x if abs(x) >= 2.0**-30 else 0.0)


# The draw domain of `verify` (README): |J| in [0.05, 3] with either sign,
# Jz in [-3, 3], B in [0, 3], b in [-3, 3], T in [0.05, 5].
POINTS = st.fixed_dictionaries({
    "J": st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    "Jz": coordinate(-3.0, 3.0),
    "B": coordinate(0.0, 3.0),
    "b": coordinate(-3.0, 3.0),
    "T": st.floats(0.05, 5.0),
})
SCALES = st.integers(-990, 990).map(lambda k: 2.0**k)  # 1.0e-298 .. 9.8e297

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def run(*argv, part="results", **params):
    out = io.StringIO()
    flags = [f"{FLAGS[name]}={value!r}" for name, value in params.items()]
    with contextlib.redirect_stdout(out):
        assert main([*argv, *flags]) == 0
    return json.loads(out.getvalue())[part]


def scaled(params, lam, *names):
    return {name: lam * params[name] for name in names}


@PROPERTY
@given(POINTS, SCALES)
# unscaled, J (w3 - w4) would be subnormal here: a product the closed forms never form
@example({"J": 1.0, "Jz": 0.0, "B": 3.0, "b": 0.0, "T": 0.05078125}, 2.0**-966)
def test_eval_and_ground_are_invariant(params, lam):
    names = ("J", "Jz", "B", "b", "T")
    value = run("eval", **scaled(params, 1.0, *names))["concurrence"]
    assert run("eval", **scaled(params, lam, *names))["concurrence"] == value
    names = ("J", "Jz", "B", "b")
    ground = run("ground", **scaled(params, 1.0, *names))
    again = run("ground", **scaled(params, lam, *names))
    assert again["phase"] == ground["phase"]
    assert again["ground_concurrence"] == ground["ground_concurrence"]


@st.composite
def faint_points(draw):
    """Points whose concurrence lies in [1e-305, 1e-290], at the bottom of the normal
    doubles: the product level |0,0> lies lowest, the inner level E3 a gap above it,
    and T puts C, about (|J|/eta) exp(-gap/T), at exp(level)."""
    J = draw(st.floats(0.05, 3.0) | st.floats(-3.0, -0.05))
    Jz = draw(coordinate(-3.0, 3.0))
    b = draw(coordinate(-3.0, 3.0))
    gap = draw(st.floats(0.05, 3.0))
    level = draw(st.floats(-702.0, -668.0))
    eta = math.hypot(b, J)
    B = Jz + eta + gap  # E3 - E1 = B - Jz - eta
    assume(B >= 2.0**-30)
    point = {"J": J, "Jz": Jz, "B": B, "b": b, "T": gap / (math.log(abs(J) / eta) - level)}
    assume(1e-305 <= concurrence_values(**point) <= 1e-290)
    return point


@PROPERTY
@given(faint_points(), SCALES)
def test_eval_is_invariant_near_underflow(params, lam):
    # the concurrence, the Wootters roots and s read one dimensionless coherence
    names = ("J", "Jz", "B", "b", "T")
    results = run("eval", **scaled(params, 1.0, *names))
    assert run("eval", **scaled(params, lam, *names)) == results
    s = run("eval", part="diagnostics", **scaled(params, 1.0, *names))["s"]
    assert run("eval", part="diagnostics", **scaled(params, lam, *names))["s"] == s


def test_found_point_agrees_at_three_scales():
    # J (w3 - w4) would be subnormal here at scale 2**-100 and normal at 1 and 2**100
    point = {"J": 1.0, "Jz": 0.0, "B": 2.0, "b": 0.0, "T": 0.001443}
    for lam in (1.0, 2.0**100, 2.0**-100):
        value = run("eval", **scaled(point, lam, *point))["concurrence"]
        assert value == 1.0804957790889725e-301


@PROPERTY
@given(POINTS, SCALES, st.sampled_from(["t", "b"]))
def test_critical_locations_scale(params, lam, axis):
    # the finder reads only signs of g, so a power-of-two scale moves every bit
    names = ("J", "Jz", "B", "b", "T")
    results = run("critical", "--axis", axis, **scaled(params, 1.0, *names))
    again = run("critical", "--axis", axis, **scaled(params, lam, *names))
    if results["location"] is None:
        assert again["location"] is None and again["bracket"] is None
    else:
        assert again["location"] == lam * results["location"]
        assert again["bracket"] == [lam * end for end in results["bracket"]]


def counted_critical(monkeypatch, operation, *args):
    """The CriticalPoint of operation(*args) and the number of g evaluations it made."""
    calls = []

    def log_sign_values(*params):
        calls.append(params)
        return thermal.log_sign_values(*params)

    monkeypatch.setattr(sweep, "log_sign_values", log_sign_values)
    return operation(*args), len(calls)


# 2 ends, 12 powers of two between 2**-1075 and 2**1024, 52 midpoints in a binade
MAX_SIGN_EVALUATIONS = 66


@pytest.mark.parametrize("lam", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("J, Jz, b, T", [
    (1.0, 0.0, 0.0, 2.0),  # a root on both axes
    (1.0, 0.9, 0.4, 0.6),  # T root; g > 0 at b = 0
    (1.0, -3.0, 0.0, 0.1),  # no T root; a b root
    (1.0, -1.0 + 2.0**-40, 0.0, 1.0),  # Jz + eta = 2**-40: a T root 2**40 below the scale
])
def test_critical_search_is_bounded(monkeypatch, lam, J, Jz, b, T):
    J, Jz, b, T = (lam * v for v in (J, Jz, b, T))
    _, count = counted_critical(monkeypatch, sweep.critical_temperature, J, Jz, 0.0, b)
    assert count <= MAX_SIGN_EVALUATIONS
    _, count = counted_critical(monkeypatch, sweep.critical_field, J, Jz, 0.0, b, T, "b")
    assert count <= MAX_SIGN_EVALUATIONS


# test_critical_at_the_top_of_the_range's argvs at 1e308, and a b root past the range
@pytest.mark.parametrize("operation, args, past", [
    (sweep.critical_temperature, (1.5e308, 0.0, 0.0, 1e308), False),
    (sweep.critical_temperature, (1.5e308, 0.0, 0.0, 1.35e308), True),
    (sweep.critical_field, (1.5e308, -1e308, 0.0, 0.0, 1e308, "b"), False),
    (sweep.critical_field, (1e300, 0.0, 0.0, 0.0, 1e308, "b"), True),
], ids=["t", "t-past-range", "b", "b-past-range"])
def test_search_at_the_top_of_the_range_is_bounded(monkeypatch, operation, args, past):
    point, count = counted_critical(monkeypatch, operation, *args)
    assert (point.location is None) == past
    assert count <= MAX_SIGN_EVALUATIONS


@PROPERTY
@given(POINTS, SCALES, st.sampled_from(["J", "Jz", "B", "b", "T"]))
def test_sweep_values_are_invariant(params, lam, name):
    start, stop = sorted((0.5 * params[name], params[name]))
    if start == stop:
        stop = start + 1.0  # a zero B or b: sweep up from it
    fixed = [n for n in ("J", "Jz", "B", "b", "T") if n != name]

    def values(scale):
        token = next(t for t, n in AXIS_TOKENS.items() if n == name)
        axis = f"{token}:{scale * start!r}:{scale * stop!r}:21"
        return run("sweep", "--axis", axis, "--format", "json",
                   **scaled(params, scale, *fixed))["values"]

    assert values(lam) == values(1.0)


@pytest.mark.parametrize(
    "axis, mantissas",
    [
        ("t", {"j": "1.5", "b": "1"}),
        ("t", {"j": "1.5", "b": "1.35"}),  # the root lies past the double range
        ("b", {"j": "1.5", "jz": "-1", "t": "1"}),
    ],
    ids=["t", "t-past-range", "b"],
)
def test_critical_at_the_top_of_the_range(axis, mantissas):
    def location(exponent):
        flags = [f"--{name}={value}{exponent}" for name, value in mantissas.items()]
        return critical_in_child(axis, flags)

    expected = 1e308 * location("")["location"]
    results = location("e308")
    if math.isinf(expected):
        assert results["location"] is None and "past the double range" in results["note"]
    else:
        assert results["location"] == pytest.approx(expected, rel=1e-12)


def test_critical_field_at_a_tiny_temperature():
    # eta rounds to 1.0 = -Jz near the root; Jz + eta = b^2/2 there, so the root is
    # sqrt(2 T ln 2), and the finder's probe at b = 0 forms inf - inf unless guarded
    results = critical_in_child("b", ["--j=1", "--jz=-1", "--t=1e-310"])
    assert abs(results["residual"]) <= 1e-9
    assert results["location"] == pytest.approx(math.sqrt(2e-310 * math.log(2.0)), rel=1e-12)


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--jz=1e308"], 6.9139105241515637e304),
        (["--b=1e308"], 6.876021215847614e304),
    ],
    ids=["jz", "b"],
)
def test_critical_temperature_of_a_subnormal_coupling(flags, expected):
    # the scaling by 2**-3 rounds J = 5e-324 to 0, so log|J| comes from the given J;
    # the expected roots are 60-digit mpmath bisections of log(g + 1) = 0
    results = critical_in_child("t", ["--j=5e-324", *flags])
    assert results["location"] == pytest.approx(expected, rel=1e-14)


def critical_in_child(axis, flags):
    """The results of `critical --axis axis *flags` in a child process that fails on a
    warning.  A bracket loop that never ends must fail the suite, not stall it, so
    the child runs under a timeout."""
    src = str(Path(xxzent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "xxzent.cli", "critical", "--axis", axis, *flags],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0 and result.stderr == ""
    return json.loads(result.stdout)["results"]
