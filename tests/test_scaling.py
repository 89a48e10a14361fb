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
    names = ("J", "Jz", "B", "b", "T")
    location = run("critical", "--axis", axis, **scaled(params, 1.0, *names))["location"]
    again = run("critical", "--axis", axis, **scaled(params, lam, *names))["location"]
    if location is None:
        assert again is None
    else:
        assert again == pytest.approx(lam * location, rel=1e-12)


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
    # A bracket loop that never ends must fail the suite, not stall it, so each
    # command runs in a child process with a timeout.
    src = str(Path(xxzent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def location(exponent):
        flags = [f"--{name}={value}{exponent}" for name, value in mantissas.items()]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "xxzent.cli", "critical", "--axis", axis,
             *flags],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0 and result.stderr == ""
        return json.loads(result.stdout)["results"]

    expected = 1e308 * location("")["location"]
    results = location("e308")
    if math.isinf(expected):
        assert results["location"] is None and "past the double range" in results["note"]
    else:
        assert results["location"] == pytest.approx(expected, rel=1e-12)
