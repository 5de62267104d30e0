"""Grid artifacts: features.csv, bus_solution.csv and modes.csv, and the
exact arrays mpf.npz and responses.npz.

Oracle: the per-cell writers below, which format every cell with its own
f-string and pass each row through `csv.writer`.  The CSV grid writers must
produce the same bytes.  The arrays of an `.npz` must be bit for bit what
the pipeline computed, and, rendered through `write_grid`, the bytes of
the CSV it replaced: `reference_responses_csv` forms each group's
capacity-weighted mean trace itself, and `reference_mpf_csv` reads the
u_dc rows of the dense MPF table of `oracles.full_mpf`.  A complex grid
writes the bytes of its float grid of interleaved Re, Im columns.
`reference_modes_csv` formats the `dvc_share` and `dominant_wt` that
`modal.loop_participation` gives (`test_modal.py` checks those values
against the dense table); a made-up solution with no basis patches them.
"""

import csv
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import ROOT, SolvedFarm, solved_case
from oracles import full_mpf
import wfdem.modal
from wfdem.assembly import FarmStateSpace
from wfdem.clustering import FeatureTable, write_features_csv
from wfdem.farm import (FarmDescription, GridThevenin, PerUnitBases, WtParams,
                        load_farm)
from wfdem.gridcsv import read_grid, write_arrays, write_grid
from wfdem.modal import (ConcernSet, FarmModel, ModalSolution,
                         write_modes_csv, write_mpf_csv)
from wfdem.powerflow import BusSolution, write_bus_csv
from wfdem.validation import (LinearResponse, simulate_linear,
                              write_responses_csv)
from wfdem.wt import SagSpec

# ---------------------------------------------------------------------------
# per-cell references


def reference_mpf_csv(model, path):
    mpf, concern = full_mpf(model.modal), model.concern
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["state"]
        for i in concern.mode_indices:
            header += [f"mode{i}_re", f"mode{i}_im"]
        writer.writerow(header)
        for k, (wt, kind) in enumerate(model.fss.labels):
            if kind != "u_dc":
                continue
            row = [f"{wt}:{kind}"]
            for i in concern.mode_indices:
                f = mpf[k, i]
                row += [f"{f.real:.12g}", f"{f.imag:.12g}"]
            writer.writerow(row)


def reference_features_csv(features, path):
    n_c = features.table.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["wt_id"]
        for c in range(n_c):
            header += [f"cluster{c}_re", f"cluster{c}_im"]
        writer.writerow(header)
        for r, wt in enumerate(features.wt_ids):
            row = [wt]
            for c in range(n_c):
                f = features.table[r, c]
                row += [f"{f.real:.12g}", f"{f.imag:.12g}"]
            writer.writerow(row)


def reference_responses_csv(detailed, dem, group_ids, path):
    cols = [("t", detailed.t)]
    cols.append(("detailed_poi_p", detailed.poi_p))
    cols.append(("dem_poi_p", dem.poi_p))
    for r, g in enumerate(group_ids):
        cols.append((f"detailed_u_dc_group{g}", detailed.u_dc[r]))
        cols.append((f"dem_u_dc_group{g}", dem.u_dc[r]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in cols])
        for k in range(len(detailed.t)):
            writer.writerow([f"{arr[k]:.12g}" for _, arr in cols])


def reference_bus_csv(farm, sol, path):
    s_inj = {bus: 0.0 + 0.0j for bus in farm.buses}
    for wt, bus in farm.wts:
        s_inj[bus] += wt.p_m0 * wt.capacity_ratio(farm.bases)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bus_id", "vx", "vy", "p", "q"])
        for bus, v in zip(sol.bus_ids, sol.v):
            writer.writerow([bus, f"{v.real:.12g}", f"{v.imag:.12g}",
                             f"{s_inj[bus].real:.12g}", f"{s_inj[bus].imag:.12g}"])


def reference_modes_csv(model, path):
    sol = model.modal
    selected = set(model.concern.mode_indices)
    dvc_share, dominant = wfdem.modal.loop_participation(model.fss,
                                                         model.modal)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "freq_hz", "damping_ratio",
                         "pair_id", "selected", "dvc_share", "dominant_wt"])
        for i, lam in enumerate(sol.eigenvalues):
            mag = abs(lam)
            writer.writerow([
                f"{lam.real:.12g}", f"{lam.imag:.12g}",
                f"{abs(lam.imag) / (2 * np.pi):.12g}",
                f"{-lam.real / mag:.12g}" if mag > 0 else "nan",
                sol.pair_of[i],
                int(i in selected),
                f"{dvc_share[i]:.12g}",
                int(dominant[i]),
            ])


def made_up_model(modal, concern, labels=()):
    """A `FarmModel` around a made-up modal solution; of its state space
    the writers read only the labels."""
    fss = FarmStateSpace(a_s=None, b_s=None, labels=tuple(labels),
                         wt_order=(), c_p=None, d_p=None)
    return FarmModel(fss, modal, concern)


def made_up_loops(dvc_share, dominant):
    """`modal.loop_participation` patched to give these columns, for a
    made-up solution that has no basis to sum."""
    out = (np.asarray(dvc_share, dtype=float),
           np.asarray(dominant, dtype=np.int64))
    return mock.patch.object(wfdem.modal, "loop_participation",
                             lambda fss, sol: out)


def assert_same_bytes(tmp_path, write, reference, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write(*args, ours)
    reference(*args, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def assert_bits(got, want):
    """Same dtype, shape and bytes: nan payloads and signed zeros too."""
    want = np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def assert_npz_renders_as_reference(tmp_path, write, reference, arrays_of,
                                    render, *args):
    """`write` makes an `.npz` whose arrays are `arrays_of(*args)` bit for
    bit, in that key order, with zip members dated 1980-01-01; a second
    write, to a path without the `.npz` suffix, lands at exactly that path
    with the same bytes; and `render` of the arrays writes `reference`'s
    bytes."""
    path, again = tmp_path / "ours.npz", tmp_path / "again"
    write(*args, path)
    write(*args, again)
    assert path.read_bytes() == again.read_bytes()
    with zipfile.ZipFile(path) as zf:
        assert {m.date_time for m in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    with np.load(path, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    want = arrays_of(*args)
    assert list(arrays) == list(want)
    for key, value in want.items():
        assert_bits(arrays[key], value)
    render(arrays, tmp_path / "rendered.csv")
    reference(*args, tmp_path / "reference.csv")
    assert (tmp_path / "rendered.csv").read_bytes() \
        == (tmp_path / "reference.csv").read_bytes()


def mpf_arrays(model):
    cols = list(model.concern.mode_indices)
    rows = [k for k, (_, kind) in enumerate(model.fss.labels)
            if kind == "u_dc"]
    return {"mpf": model.modal.participation(rows, cols),
            "state": np.array([f"{wt}:u_dc" for wt, kind in model.fss.labels
                               if kind == "u_dc"]),
            "mode": np.array(cols, dtype=np.int64)}


def render_mpf(arrays, path):
    write_grid(path, [f"mode{i}" for i in arrays["mode"].tolist()],
               arrays["mpf"], labels=("state", arrays["state"].tolist()))


def responses_arrays(detailed, dem, group_ids):
    out = {"t": detailed.t, "detailed_poi_p": detailed.poi_p,
           "dem_poi_p": dem.poi_p}
    for r, g in enumerate(group_ids):
        out[f"detailed_u_dc_group{g}"] = detailed.u_dc[r]
        out[f"dem_u_dc_group{g}"] = dem.u_dc[r]
    return out


def render_responses(arrays, path):
    write_grid(path, list(arrays), np.column_stack(list(arrays.values())))


def assert_mpf_npz(tmp_path, model):
    assert_npz_renders_as_reference(tmp_path, write_mpf_csv,
                                    reference_mpf_csv, mpf_arrays,
                                    render_mpf, model)


def assert_responses_npz(tmp_path, detailed, dem, group_ids):
    assert_npz_renders_as_reference(tmp_path, write_responses_csv,
                                    reference_responses_csv,
                                    responses_arrays, render_responses,
                                    detailed, dem, group_ids)


# ---------------------------------------------------------------------------
# study cases


@pytest.mark.parametrize("case", "abcd")
def test_grid_artifacts_match_reference_on_study_cases(tmp_path, case):
    s = solved_case(case)
    c = 1 if case == "a" else 3    # case a merges three clusters to two groups
    _, features, _ = s.clustered(c)
    _, _, dem = s.dem(c)
    sag = SagSpec(0.05, 0.1)
    detailed = simulate_linear(s.fss, s.modal, sag, 2.0, 1e-3, dem.shares)
    dem_resp = simulate_linear(dem.model.fss, dem.model.modal, sag, 2.0,
                               1e-3, np.eye(len(dem.shares)))
    assert_mpf_npz(tmp_path, s.model)
    assert_same_bytes(tmp_path, write_features_csv, reference_features_csv,
                      features)
    assert_responses_npz(tmp_path, detailed, dem_resp, tuple(dem.members))


@pytest.mark.parametrize("name", ["case_a", "case_b", "case_c", "case_d",
                                  "zero_network", "single_wt"])
def test_bus_and_modes_csv_match_reference_on_shipped_farms(tmp_path, name):
    s = SolvedFarm(load_farm(ROOT / "farms" / f"{name}.json"))
    assert_same_bytes(tmp_path, write_bus_csv, reference_bus_csv, s.farm,
                      s.sol)
    assert_same_bytes(tmp_path, write_modes_csv, reference_modes_csv,
                      s.model)


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


@given(grids())
@example((QUOTED_IDS[:3], np.array(
    [ABS_NE_HYPOT, SPECIAL[:3], SPECIAL[3:6]], dtype=complex)))
@example((QUOTED_IDS[3:], np.array(
    [SPECIAL[6:9], [complex(np.nan, -0.0), complex(-np.inf, 5e-324),
                    complex(-0.0, np.inf)], ABS_NE_HYPOT], dtype=complex)))
# |lam| of the largest finite parts overflows to inf
@example((QUOTED_IDS[:1], np.array(
    [[complex(SPECIAL[8], SPECIAL[8])]], dtype=complex)))
def test_grid_writers_match_reference_on_awkward_values(tmp_path_factory,
                                                        grid):
    tmp_path = tmp_path_factory.mktemp("grid")
    ids, table = grid
    n_rows, n_cols = table.shape

    # the MPF is v * u: the table times 1 - 0j, the concern columns in
    # reverse order.  Column k of the table is the right vector of the
    # upper mode n_cols + k, whose lower partner k holds the Im parts.
    lam = np.repeat([-1j, 1j], n_cols)
    sol = ModalSolution(
        eigenvalues=lam,
        basis=np.hstack([table.imag, table.real]),
        inverse=np.repeat([0.0, 2.0], n_cols)[:, None] * np.ones(n_rows),
        conj_of=np.roll(np.arange(2 * n_cols), n_cols), pair_of=None)
    concern = ConcernSet(mode_indices=tuple(range(n_cols, 2 * n_cols))[::-1],
                         eigenvalues=lam[n_cols:])
    model = made_up_model(sol, concern, ((wt, "u_dc") for wt in ids))
    # inf * 0 in the product's cross terms
    with np.errstate(invalid="ignore"):
        assert_mpf_npz(tmp_path, model)

    features = FeatureTable(wt_ids=tuple(ids), table=table)
    assert_same_bytes(tmp_path, write_features_csv, reference_features_csv,
                      features)

    # one trace per id, mixing the real and imaginary parts of the table
    t = np.concatenate([table.real[:, 0], table.imag[:, 0]])
    traces = [np.concatenate([table.real[:, k % n_cols],
                              table.imag[:, k % n_cols]])
              for k in range(n_rows)]
    # groups 0 and 1 (one group for one id), each side's rows made up
    group_ids = (0, 1)[:n_rows]
    detailed = LinearResponse(t=t, u_dc=np.array(traces[:len(group_ids)]),
                              poi_p=traces[0])
    dem = LinearResponse(t=t, u_dc=np.array([traces[-1 - g]
                                             for g in group_ids]),
                         poi_p=-t)
    assert_responses_npz(tmp_path, detailed, dem, group_ids)

    # column 0 as a spectrum, half its modes selected, pairs made up
    modal = ModalSolution(eigenvalues=table[:, 0], basis=None, inverse=None,
                          conj_of=None, pair_of=np.arange(n_rows)[::-1] - 1)
    concern = ConcernSet(mode_indices=tuple(range(0, n_rows, 2)),
                         eigenvalues=table[::2, 0])
    # the reference's numpy-scalar -Re/|lam| warns on an infinite mode;
    # the table's Im parts as DVC shares, the ids' positions reversed
    with np.errstate(invalid="ignore"), \
            made_up_loops(table[:, 0].imag, np.arange(n_rows)[::-1]):
        assert_same_bytes(tmp_path, write_modes_csv, reference_modes_csv,
                          made_up_model(modal, concern))

    # the ids as buses, the table as voltages, one WT on the last bus
    wt = WtParams(id="w", p_m0=0.7, c_dc=0.09, u_dc0=1.0, kp_dvc=1.0,
                  ki_dvc=300.0, s_mva=3.0)
    farm = FarmDescription(
        bases=PerUnitBases(s_wt_mva=1.5, v_coll_kv=35.0), buses=tuple(ids),
        poi=ids[0], branches=(), wts=((wt, ids[-1]),),
        grid=GridThevenin(0.0, 0.01))
    sol = BusSolution(bus_ids=tuple(ids), v=table[:, -1], iterations=0,
                      mismatch_history=())
    assert_same_bytes(tmp_path, write_bus_csv, reference_bus_csv, farm, sol)


@given(grids(), st.booleans())
@example((QUOTED_IDS[:2], np.array(
    [[complex(-0.0, np.nan), complex(np.inf, -np.inf)],
     [complex(5e-324, -1.7976931348623157e308), complex(1e300, -2.5e-310)]])),
    True)
def test_complex_grid_writes_as_its_re_im_float_grid(tmp_path_factory, grid,
                                                     labelled):
    tmp_path = tmp_path_factory.mktemp("complex")
    ids, table = grid
    table = table[:, ::-1]            # a view that is not contiguous
    names = [f"z{k}" for k in range(table.shape[1])]
    parts = np.stack([table.real, table.imag], axis=-1).reshape(
        len(table), -1)
    labels = ("id", ids) if labelled else None
    write_grid(tmp_path / "complex.csv", names, table, labels)
    write_grid(tmp_path / "parts.csv",
               [f"{name}_{part}" for name in names for part in ("re", "im")],
               parts, labels)
    assert (tmp_path / "complex.csv").read_bytes() \
        == (tmp_path / "parts.csv").read_bytes()


@given(grids(), st.booleans())
@example((QUOTED_IDS, np.array([SPECIAL[:6], SPECIAL[4:]]).T), True)
def test_read_grid_reads_back_what_write_grid_wrote(tmp_path_factory, grid,
                                                    labelled):
    """Labels come back intact, and every cell as `%.12g` printed it; the
    leading column holds labels only under a header ending in `_id`."""
    path = tmp_path_factory.mktemp("read") / "grid.csv"
    ids, table = grid
    names = [f"z{k}" for k in range(table.shape[1])]
    write_grid(path, names, table, ("wt_id", ids) if labelled else None)
    columns, labels, cells = read_grid(path)
    parts = np.ascontiguousarray(table).view(float)
    printed = np.array([[float("%.12g" % x) for x in row]
                        for row in parts.tolist()])
    if np.iscomplexobj(table):
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]
    assert columns == names
    assert labels == (list(ids) if labelled else None)
    assert np.array_equal(cells, printed, equal_nan=True)
    assert np.array_equal(np.signbit(cells), np.signbit(printed))


def test_read_grid_of_zero_rows_has_the_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_grid(path, ["a", "b"], np.zeros((0, 2), dtype=complex),
               ("bus_id", []))
    columns, labels, cells = read_grid(path)
    assert (columns, labels) == (["a_re", "a_im", "b_re", "b_im"], [])
    assert cells.shape == (0, 4)
    write_grid(path, ["a", "b", "c"], np.zeros((0, 3)))
    columns, labels, cells = read_grid(path)
    assert (columns, labels, cells.shape) == (["a", "b", "c"], None, (0, 3))


# -Re lam / np.abs(lam) prints a different last digit for these
DAMPING_ABS_NE_HYPOT = [complex(-0.8812565813042883, -0.10447796803538134),
                        complex(-0.48424685966949155, 0.22729738506525177),
                        complex(0.8006234835712931, 0.878758256284105)]


def test_modes_csv_matches_reference_on_zero_and_rounding_modes(tmp_path):
    lam = np.array([0j, complex(-0.0, 0.0), -1.0, -2.0 - 30.0j, -2.0 + 30.0j]
                   + DAMPING_ABS_NE_HYPOT)
    modal = ModalSolution(eigenvalues=lam, basis=None, inverse=None,
                          conj_of=None,
                          pair_of=np.array([-1, -1, -1, 4, 3, -1, -1, -1]))
    model = made_up_model(modal, ConcernSet(mode_indices=(4,),
                                            eigenvalues=lam[4:]))
    with made_up_loops([1.0, 0.0, 1 / 3, 0.5, 0.9995, 5e-324, 1e-17, 1.0],
                       [0, 7, 1, 2, 3, 0, 0, 12]):
        write_modes_csv(model, tmp_path / "modes.csv")
        reference_modes_csv(model, tmp_path / "reference.csv")
    text = (tmp_path / "modes.csv").read_text()
    assert text == (tmp_path / "reference.csv").read_text()
    rows = text.splitlines()
    assert rows[1] == "0,0,0,nan,-1,0,1,0"
    assert rows[2] == "-0,0,0,nan,-1,0,0,7"
    assert rows[5].endswith(",3,1,0.9995,3")


def awkward_arrays() -> dict[str, np.ndarray]:
    grid = np.arange(24.0).reshape(4, 6) - 11.5
    return {
        "c_order": grid,
        "f_order": np.asfortranarray(grid),
        "strided": grid[::2, ::3],
        "transposed_strided": grid.T[::2],
        "zero_d": np.array(-0.0),
        "empty": np.zeros((0, 3)),
        "empty_f": np.asfortranarray(np.zeros((3, 0, 2))),
        "strings": np.array(["wt01:u_dc", "wt02:i_d", ""]),
        "int64": np.arange(-3, 9, dtype=np.int64).reshape(3, 4),
        "complex": (grid + 1j * grid[::-1]).T,
        "bytes": np.array([b"ab", b"c"]),
    }


@pytest.mark.parametrize("key", list(awkward_arrays()))
def test_write_arrays_writes_the_np_savez_bytes(tmp_path, key):
    arrays = awkward_arrays()
    for chosen in ({key: arrays[key]}, arrays):
        write_arrays(tmp_path / "ours.npz", chosen)
        with open(tmp_path / "savez.npz", "wb") as fh:
            np.savez(fh, allow_pickle=False, **chosen)
        assert (tmp_path / "ours.npz").read_bytes() \
            == (tmp_path / "savez.npz").read_bytes()


def test_write_arrays_refuses_object_arrays(tmp_path):
    with pytest.raises(ValueError, match="'labels' holds Python objects"):
        write_arrays(tmp_path / "x.npz", {"t": np.zeros(3),
                                          "labels": np.array([1, "a"],
                                                             dtype=object)})
