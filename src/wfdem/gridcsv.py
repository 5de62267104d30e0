"""Formats of the artifacts: CSV grids, exact `.npz` arrays and JSON.

`bus_solution.csv`, `modes.csv` and `features.csv` share one text format:
every number is written `%.12g`, every line ends in CRLF, and string cells
are quoted the way `csv.writer` quotes them.  A complex grid cell expands
to the two columns Re z, Im z; a reader forms |z| as `hypot(re, im)`.
Rows are formatted one at a time with a single `%` template, so memory
stays at one row of Python floats however large the grid is.  `read_grid`
reads any of them back; the leading column holds row labels when its
header ends in `_id`.

The two large grids, the MPF block and the scored sag responses, are
written by `write_arrays` as uncompressed `.npz` archives instead: exact
in float64 and complex128, with their labels as string arrays.

The JSON artifacts (`groups.json`, `dem.json`, `report.json`) and farm
files are written by `write_json`: two-space indent, sorted keys and a
final newline.
"""

from __future__ import annotations

import csv
import io
import json
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
    written as `name_re`, `name_im`, through the grid's float view, which
    holds each cell's Re and Im side by side.  `labels`, a header and one
    cell per row, adds a leading string column.
    """
    grid = np.asarray(grid)
    if np.iscomplexobj(grid):
        columns = [f"{name}_{part}" for name in columns
                   for part in ("re", "im")]
        grid = np.ascontiguousarray(grid, dtype=complex).view(float)
    header = list(columns)
    template = ",".join([CELL] * len(header)) + "\r\n"
    if labels is None:
        lines = (template % tuple(row.tolist()) for row in grid)
    else:
        header.insert(0, labels[0])
        template = "%s," + template
        lines = (template % (_quoted(label), *row.tolist())
                 for label, row in zip(labels[1], grid, strict=True))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


def read_grid(path: str | Path,
              ) -> tuple[list[str], list[str] | None, np.ndarray]:
    """Column names, row labels (None without them) and float cells, rows x
    columns, of a grid that `write_grid` wrote.

    The leading column holds the labels when its header ends in `_id`
    (`bus_id`, `wt_id`); its header is not among the column names.
    """
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    k = int(header[0].endswith("_id"))
    cells = np.array([row[k:] for row in rows], dtype=float)
    return (header[k:], [row[0] for row in rows] if k else None,
            cells.reshape(len(rows), len(header) - k))


def write_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """`arrays` as an uncompressed `.npz` archive at exactly `path`.

    `np.savez` is given an open file, since it appends `.npz` to a path
    that lacks it.  Its zip members carry the fixed date 1980-01-01, so the
    bytes depend only on the arrays.  No object array is written, and
    `np.load(path, allow_pickle=False)` reads every one back.
    """
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, **arrays)


def magnitude(z: np.ndarray) -> np.ndarray:
    """|z| rounded like Python's `abs(complex)`.

    `np.abs` on a complex array can differ from it in the last bit, and
    then the last printed `%.12g` digit can differ too.  A |z| beyond the
    largest float is inf, without the overflow warning that `abs` of a numpy
    complex does not give either.
    """
    with np.errstate(over="ignore"):
        return np.hypot(z.real, z.imag)


def write_json(path: str | Path, doc: object) -> None:
    """`doc` as JSON text: two-space indent, sorted keys, final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
