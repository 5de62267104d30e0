"""Float-grid CSV artifacts: mpf.csv, features.csv and responses.csv.

Oracle: the per-cell writers below, which format every cell with its own
f-string and pass each row through `csv.writer`.  The grid writers must
produce the same bytes.
"""

import csv

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import solved_case
from wfdem.clustering import FeatureTable, write_features_csv
from wfdem.modal import ModalSolution, write_mpf_csv
from wfdem.validation import LinearResponse, simulate_linear, write_responses_csv
from wfdem.wt import SagSpec

# ---------------------------------------------------------------------------
# per-cell references


def reference_mpf_csv(sol, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["state"]
        for i in range(sol.n_modes):
            header += [f"mode{i}_abs", f"mode{i}_re", f"mode{i}_im"]
        writer.writerow(header)
        for k, (wt, kind) in enumerate(sol.labels):
            row = [f"{wt}:{kind}"]
            for i in range(sol.n_modes):
                f = sol.mpf[k, i]
                row += [f"{abs(f):.12g}", f"{f.real:.12g}", f"{f.imag:.12g}"]
            writer.writerow(row)


def reference_features_csv(features, path):
    n_c = features.table.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["wt_id"]
        for c in range(n_c):
            header += [f"cluster{c}_abs", f"cluster{c}_re", f"cluster{c}_im"]
        writer.writerow(header)
        for r, wt in enumerate(features.wt_ids):
            row = [wt]
            for c in range(n_c):
                f = features.table[r, c]
                row += [f"{abs(f):.12g}", f"{f.real:.12g}", f"{f.imag:.12g}"]
            writer.writerow(row)


def reference_responses_csv(detailed, dem, path):
    cols = [("t", detailed.t)]
    cols.append(("detailed_poi_p", detailed.poi_p))
    cols.append(("dem_poi_p", dem.poi_p))
    for wt_id in sorted(detailed.u_dc):
        cols.append((f"detailed_u_dc_{wt_id}", detailed.u_dc[wt_id]))
    for wt_id in sorted(dem.u_dc):
        cols.append((f"dem_u_dc_{wt_id}", dem.u_dc[wt_id]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in cols])
        for k in range(len(detailed.t)):
            writer.writerow([f"{arr[k]:.12g}" for _, arr in cols])


def assert_same_bytes(tmp_path, write, reference, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write(*args, ours)
    reference(*args, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


# ---------------------------------------------------------------------------
# study cases


@pytest.mark.parametrize("case", "abcd")
def test_grid_artifacts_match_reference_on_study_cases(tmp_path, case):
    s = solved_case(case)
    c = 1 if case == "a" else 3    # case a merges three clusters to two groups
    _, features, _ = s.clustered(c)
    _, _, dem = s.dem(c)
    sag = SagSpec(0.05, 0.1)
    detailed = simulate_linear(s.fss, s.modal, sag, 2.0, 1e-3)
    dem_resp = simulate_linear(dem.state_space, dem.modal, sag, 2.0, 1e-3)
    assert_same_bytes(tmp_path, write_mpf_csv, reference_mpf_csv, s.modal)
    assert_same_bytes(tmp_path, write_features_csv, reference_features_csv,
                      features)
    assert_same_bytes(tmp_path, write_responses_csv, reference_responses_csv,
                      detailed, dem_resp)


# ---------------------------------------------------------------------------
# awkward values and ids

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
           2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]
# np.abs on a complex array prints a different last digit for these
ABS_NE_HYPOT = [complex(-0.9052554733478002, -0.19183478380002567),
                complex(0.7360532635081436, 0.5650529540546062),
                complex(0.2674480403264727, -0.7346348866852757)]
QUOTED_IDS = ["wt,01", 'wt"02"', "wt\n03", "wt\r04", '"', " wt 05 "]

finite_or_special = st.one_of(st.sampled_from(SPECIAL), st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True))
wt_ids = st.one_of(st.sampled_from(QUOTED_IDS), st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8))


@st.composite
def grids(draw):
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from(ABS_NE_HYPOT),
                     st.builds(complex, finite_or_special, finite_or_special))
    table = np.array(draw(st.lists(cell, min_size=n_rows * n_cols,
                                   max_size=n_rows * n_cols)),
                     dtype=complex).reshape(n_rows, n_cols)
    ids = draw(st.lists(wt_ids, min_size=n_rows, max_size=n_rows,
                        unique=True))
    return ids, table


# |z| of the largest finite values overflows to inf, on both writers
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(grids())
@example((QUOTED_IDS[:3], np.array(
    [ABS_NE_HYPOT, SPECIAL[:3], SPECIAL[3:6]], dtype=complex)))
@example((QUOTED_IDS[3:], np.array(
    [SPECIAL[6:9], [complex(np.nan, -0.0), complex(-np.inf, 5e-324),
                    complex(-0.0, np.inf)], ABS_NE_HYPOT], dtype=complex)))
def test_grid_writers_match_reference_on_awkward_values(tmp_path_factory,
                                                        grid):
    tmp_path = tmp_path_factory.mktemp("grid")
    ids, table = grid
    n_rows, n_cols = table.shape

    sol = ModalSolution(eigenvalues=np.zeros(n_cols, dtype=complex),
                        right=None, left=None, mpf=table, pair_of=None,
                        labels=tuple((wt, "u_dc") for wt in ids))
    assert_same_bytes(tmp_path, write_mpf_csv, reference_mpf_csv, sol)

    features = FeatureTable(wt_ids=tuple(ids), table=table)
    assert_same_bytes(tmp_path, write_features_csv, reference_features_csv,
                      features)

    # one trace per id, mixing the real and imaginary parts of the table
    t = np.concatenate([table.real[:, 0], table.imag[:, 0]])
    traces = [np.concatenate([table.real[:, k % n_cols],
                              table.imag[:, k % n_cols]])
              for k in range(n_rows)]
    detailed = LinearResponse(t=t, u_dc=dict(zip(ids, traces)),
                              poi_p=traces[0], poi_i=None)
    dem = LinearResponse(t=t, u_dc={"group0": traces[-1]}, poi_p=-t,
                         poi_i=None)
    assert_same_bytes(tmp_path, write_responses_csv, reference_responses_csv,
                      detailed, dem)

