"""Text format of the float-grid CSV artifacts.

`bus_solution.csv`, `modes.csv`, `mpf.csv`, `features.csv` and
`responses.csv` share one format: every number is written `%.12g`, every
line ends in CRLF, and string cells are quoted the way `csv.writer` quotes
them.  A complex grid cell expands to the
three columns |z|, Re z, Im z, with |z| from `magnitude`.  The grids hold
what the method reads: `mpf.csv` every state row but only the concern-mode
columns, `responses.csv` only the signals that the NRMSEs compare.

Rows are formatted one at a time with a single `%` template, so memory stays
at one row of Python floats however large the grid is.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence

import numpy as np

CELL = "%.12g"


def _quoted(cell: str) -> str:
    """`cell` as `csv.writer` writes it inside a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf).writerow([cell, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_grid(path: str | Path, columns: Sequence[str], grid: np.ndarray,
               labels: tuple[str, Sequence[str]] | None = None) -> None:
    """One header line, then one line per row of `grid`.

    `columns` names the columns of `grid`; a complex column `name` is
    written as `name_abs`, `name_re`, `name_im`.  `labels`, a header and
    one cell per row, adds a leading string column.
    """
    grid = np.asarray(grid)
    if np.iscomplexobj(grid):
        header = [f"{name}_{part}" for name in columns
                  for part in ("abs", "re", "im")]
        cells = np.empty((grid.shape[1], 3))

        def values(row: np.ndarray) -> list[float]:
            cells[:, 0] = magnitude(row)
            cells[:, 1] = row.real
            cells[:, 2] = row.imag
            return cells.ravel().tolist()
    else:
        header = list(columns)

        def values(row: np.ndarray) -> list[float]:
            return row.tolist()

    template = ",".join([CELL] * len(header)) + "\r\n"
    if labels is None:
        lines = (template % tuple(values(row)) for row in grid)
    else:
        header.insert(0, labels[0])
        template = "%s," + template
        lines = (template % (_quoted(label), *values(row))
                 for label, row in zip(labels[1], grid, strict=True))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


def magnitude(z: np.ndarray) -> np.ndarray:
    """|z| rounded like Python's `abs(complex)`.

    `np.abs` on a complex array can differ from it in the last bit, and
    then the last printed `%.12g` digit can differ too.
    """
    return np.hypot(z.real, z.imag)


def as_printed(values: np.ndarray) -> list[float]:
    """`values` as a reader of a grid artifact parses them back."""
    return [float(CELL % x) for x in np.asarray(values, dtype=float).tolist()]
