"""Command lines at the ends of the double range, each of which must run quietly.

test_cli.py::test_extreme_scales_are_quiet runs every one of them (exit 0,
empty stderr, no warning) and scripts/output_identity.py compares their
outputs between two trees.  Append new ones at the end, so that the test
ids argv0, argv1, ... keep their numbers.
"""

EXTREME_ARGVS = [
    ["eval", "--j", "1e-300", "--t", "1e300"],  # eta/T underflows
    ["critical", "--axis", "b", "--j", "1e-300", "--t", "1e300"],
    ["critical", "--axis", "big-b", "--j", "1e-300", "--t", "1e300"],
    ["critical", "--axis", "b", "--j", "1e300", "--t", "1e-8"],  # eta/T near the top
    ["ground", "--j", "1e308", "--b", "1e308", "--jz", "1e308"],  # E3 overflows
    ["critical", "--axis", "big-b", "--j", "1e308", "--b", "1e308", "--jz", "1e308"],
    ["eval", "--j", "1.5e308", "--b", "1.35e308", "--t", "1e308"],  # hypot(b, J) overflows
    ["ground", "--j", "1.5e308", "--b", "1.35e308"],
    ["eval", "--t", "1e-300"],
    ["sweep", "--axis", "t:1e-300:1e-290:3"],
    # temperatures below the 1e-8 that the domain once refused
    ["eval", "--t", "1e-9"],
    ["sweep", "--axis", "t:1e-9:1:3"],
    ["critical", "--axis", "t", "--t", "1e-9"],
    # a subnormal J that the scaling rounds to 0 beside b near the top of the range
    ["critical", "--axis", "b", "--j", "5e-324", "--t", "1"],
    ["critical", "--axis", "t", "--j", "5e-324", "--b", "1e308"],
    # roots at the top of the range (test_scaling.py), and a b root past it
    ["critical", "--axis", "b", "--j", "1e300", "--t", "1e308"],
    ["critical", "--axis", "t", "--j=1.5e308", "--b=1e308"],
    ["critical", "--axis", "t", "--j=1.5e308", "--b=1.35e308"],
    ["critical", "--axis", "b", "--j=1.5e308", "--jz=-1e308", "--t=1e308"],
    # a b root at a temperature below the normal doubles
    ["critical", "--axis", "b", "--j=1", "--jz=-1", "--t=1e-310"],
    # a subnormal J that the scaling rounds to 0 beside Jz near the top of the range
    ["critical", "--axis", "t", "--j", "5e-324", "--jz=1e308"],
]
