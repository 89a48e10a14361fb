"""Reference CSV writer: the per-field form that `xxzent sweep` CSV output must match.

It formats every field of every row with `format(float(x), ".17g")` over
axis-major (first axis slowest) meshgrid coordinate columns that it builds
itself, and builds the whole table as one string.  The CLI's streaming writer
must produce exactly these bytes.
"""

import numpy as np

from xxzent.sweep import SweepGrid


def axis_major_columns(axes) -> list[np.ndarray]:
    """Flattened meshgrid coordinate columns of the axes, first axis slowest."""
    return [m.ravel() for m in np.meshgrid(*[axis.values() for axis in axes], indexing="ij")]


def grid_csv(grid: SweepGrid) -> str:
    names = [axis.name for axis in grid.axes]
    columns = axis_major_columns(grid.axes) + [grid.values.ravel()]
    lines = [",".join(names + ["concurrence"])]
    for row in zip(*columns):
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"
