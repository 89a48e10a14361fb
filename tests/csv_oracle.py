"""Reference CSV writer: the per-field form that `xxzent sweep` CSV output must match.

It formats every field of every row with `format(float(x), ".17g")` over the
meshgrid coordinate columns, and builds the whole table as one string.  The
CLI's streaming writer must produce exactly these bytes.
"""

from xxzent.sweep import SweepGrid, axis_columns


def grid_csv(grid: SweepGrid) -> str:
    names = [axis.name for axis in grid.axes]
    columns = axis_columns(grid.axes) + [grid.values.ravel()]
    lines = [",".join(names + ["concurrence"])]
    for row in zip(*columns):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"
