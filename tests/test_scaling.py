"""Scale covariance of every command.

The model is homogeneous of degree one in (J, Jz, B, b, T): scaling all five
by lambda leaves each concurrence and ground phase unchanged and multiplies
each critical location by lambda.  lambda is drawn log-uniform over
[1e-6, 1e6] on the powers of two, so the scaled parameters are exact and a
deviation can only come from the code, e.g. from an absolute constant that
decides an answer.  Warnings are errors (pyproject.toml), so a property that
reaches an overflowing or underflowing intermediate fails too.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxzent.cli import AXIS_TOKENS, main

FLAGS = {name: f"--{token}" for token, name in AXIS_TOKENS.items()}

# The draw domain of `verify` (README): |J| in [0.05, 3] with either sign,
# Jz in [-3, 3], B in [0, 3], b in [-3, 3], T in [0.05, 5].
POINTS = st.fixed_dictionaries({
    "J": st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    "Jz": st.floats(-3.0, 3.0),
    "B": st.floats(0.0, 3.0),
    "b": st.floats(-3.0, 3.0),
    "T": st.floats(0.05, 5.0),
})
SCALES = st.integers(-19, 19).map(lambda k: 2.0**k)  # 1.9e-6 .. 5.2e5

PROPERTY = settings(max_examples=60, deadline=None, database=None)


def run(*argv, **params):
    out = io.StringIO()
    flags = [f"{FLAGS[name]}={value!r}" for name, value in params.items()]
    with contextlib.redirect_stdout(out):
        assert main([*argv, *flags]) == 0
    return json.loads(out.getvalue())["results"]


def scaled(params, lam, *names):
    return {name: lam * params[name] for name in names}


@PROPERTY
@given(POINTS, SCALES)
def test_eval_and_ground_are_invariant(params, lam):
    names = ("J", "Jz", "B", "b", "T")
    value = run("eval", **scaled(params, 1.0, *names))["concurrence"]
    assert run("eval", **scaled(params, lam, *names))["concurrence"] == value
    names = ("J", "Jz", "B", "b")
    ground = run("ground", **scaled(params, 1.0, *names))
    again = run("ground", **scaled(params, lam, *names))
    assert again["phase"] == ground["phase"]
    assert again["ground_concurrence"] == ground["ground_concurrence"]


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
