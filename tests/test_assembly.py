"""Whole-farm closure.

Oracle for the N=2 case: eliminate the terminal voltages column by column
with per-block matrix-vector products instead of forming the closed-loop
product.
"""

import dataclasses

import numpy as np
import pytest

from helpers import (ROOT, SolvedFarm, ladder_farm, random_radial_farm,
                     solved_case, state_matrix, stiff_grid,
                     terminal_voltages)
from oracles import (closed_loop_via_admittance, dense_closed_loop,
                     grid_current, poi_port_impedance)
from wfdem.assembly import assemble_farm, linear_model
from wfdem.cases import (case_farm, identical_zero_network_farm,
                         single_wt_farm)
from wfdem.farm import FarmValidationError, build_network_matrices, load_farm
from wfdem.powerflow import SLACK_E0, solve_powerflow
from wfdem.wt import STATE_KINDS, linearize_wt


def solved_blocks(farm):
    sol = solve_powerflow(farm)
    blocks = [linearize_wt(wt, u, farm.bases)
              for wt, u in terminal_voltages(farm, sol)]
    return blocks, build_network_matrices(farm)


def dae_elimination_oracle(blocks, net) -> np.ndarray:
    """A_s column by column: du = Z C x_k per basis vector (no feedthrough)."""
    n = len(blocks)
    ns = 4 * n
    a_s = np.empty((ns, ns))
    z = net.z
    for k in range(ns):
        x = np.zeros(ns)
        x[k] = 1.0
        cx = np.concatenate([blk.c @ x[4 * j:4 * j + 4]
                             for j, blk in enumerate(blocks)])
        du = z @ cx
        col = np.empty(ns)
        for j, blk in enumerate(blocks):
            col[4 * j:4 * j + 4] = (blk.a @ x[4 * j:4 * j + 4]
                                    + blk.b @ du[2 * j:2 * j + 2])
        a_s[:, k] = col
    return a_s


def sorted_eigs(a):
    lam = np.linalg.eigvals(a)
    return lam[np.lexsort((lam.imag, lam.real))]


# ---------------------------------------------------------------------------


def test_single_wt_spectrum_matches_grid_connected_model():
    farm = single_wt_farm(p_m0=0.9, grid_r_pu=0.001, grid_l_pu=0.01)
    blocks, net = solved_blocks(farm)
    fss = assemble_farm(blocks, net)
    oracle = dae_elimination_oracle(blocks, net)
    assert np.abs(sorted_eigs(fss.a_s) - sorted_eigs(oracle)).max() < 1e-10


def test_b_s_stacks_the_block_inputs():
    # the series-only network ties the source to every terminal one to one
    for farm in (case_farm("b"), single_wt_farm(), random_radial_farm(7),
                 identical_zero_network_farm(33, p_m0=0.8)):
        blocks, net = solved_blocks(farm)
        fss = assemble_farm(blocks, net)
        assert np.array_equal(fss.b_s, np.vstack([blk.b for blk in blocks]))


def test_zero_network_reduces_to_block_diagonal():
    farm = identical_zero_network_farm(4, p_m0=0.7)
    blocks, net = solved_blocks(farm)
    fss = assemble_farm(blocks, net)
    expected = np.zeros_like(fss.a_s)
    for k, blk in enumerate(blocks):
        expected[4 * k:4 * k + 4, 4 * k:4 * k + 4] = blk.a
    assert np.array_equal(fss.a_s, expected)
    # four identical WTs give four identical copies of each closure mode
    lam = sorted_eigs(fss.a_s).reshape(4, 4)
    for row in lam:
        assert np.abs(row - row[0]).max() < 1e-12


@pytest.mark.parametrize("farm", [
    *(pytest.param(lambda c=c: case_farm(c), id=f"case_{c}")
      for c in "abcd"),
    pytest.param(lambda: stiff_grid(case_farm("b")), id="stiff_b"),
    pytest.param(lambda: load_farm(ROOT / "farms" / "zero_network.json"),
                 id="zero_network"),
    pytest.param(lambda: load_farm(ROOT / "farms" / "single_wt.json"),
                 id="single_wt"),
    pytest.param(lambda: ladder_farm(10, 10, 7), id="ladder10x10"),
])
def test_closure_is_the_dense_sum_bit_for_bit(farm):
    """Adding the A blocks into B Z C gives the bits of the dense
    blockdiag(A) + B Z C, signed zeros included: the int64 views match."""
    blocks, net = solved_blocks(farm())
    got = assemble_farm(blocks, net).a_s
    want = dense_closed_loop(blocks, net)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", [35, 11, 8])    # seed 35 is exactly N = 2
def test_farm_matches_dae_elimination(seed):
    farm = random_radial_farm(seed)
    blocks, net = solved_blocks(farm)
    fss = assemble_farm(blocks, net)
    oracle = dae_elimination_oracle(blocks, net)
    assert np.abs(fss.a_s - oracle).max() < 1e-12
    assert np.abs(sorted_eigs(fss.a_s) - sorted_eigs(oracle)).max() < 1e-10


def test_spectrum_closed_under_conjugation():
    s = solved_case("a")
    lam = np.linalg.eigvals(state_matrix(s.farm, s.sol))
    conj_sorted = np.conj(lam)[np.lexsort((np.conj(lam).imag,
                                           np.conj(lam).real))]
    direct = lam[np.lexsort((lam.imag, lam.real))]
    assert np.abs(direct - conj_sorted).max() < 1e-9


def test_wt_permutation_leaves_spectrum_fixed():
    farm, fss = solved_case("b").farm, solved_case("b").fss

    from wfdem.farm import FarmDescription
    perm = list(reversed(range(farm.n_wt)))
    farm_p = FarmDescription(
        bases=farm.bases, buses=farm.buses, poi=farm.poi,
        branches=farm.branches,
        wts=tuple(farm.wts[k] for k in perm), grid=farm.grid)
    farm_p.validate()
    fss_p = linear_model(farm_p, solve_powerflow(farm_p))

    assert fss_p.labels != fss.labels
    assert set(fss_p.labels) == set(fss.labels)
    a = state_matrix(farm, solved_case("b").sol)
    assert np.abs(sorted_eigs(a) - sorted_eigs(fss_p.a_s)).max() < 1e-9


@pytest.mark.parametrize("case", ["a", "b"])
def test_closure_forms_agree(case):
    s = solved_case(case)
    alt = closed_loop_via_admittance(s.blocks, s.net)
    lam = sorted_eigs(state_matrix(s.farm, s.sol))
    scale = max(1.0, np.abs(lam).max())
    assert np.abs(lam - sorted_eigs(alt)).max() < 1e-10 * scale


@pytest.mark.parametrize("make", [
    lambda: solved_case("b"),
    lambda: SolvedFarm(single_wt_farm()),
    lambda: SolvedFarm(random_radial_farm(11)),
    lambda: SolvedFarm(stiff_grid(case_farm("b")))],
    ids=["case_b", "single_wt", "radial_11", "stiff_case_b"])
def test_poi_power_row_is_the_port_voltage_form(make):
    # formed WT by WT: the POI current is the sum of the WT currents
    # c_k x_k, the POI voltage the Kron port's response to the stacked
    # currents plus de, and dP = u0 . di + i0 . du
    s = make()
    i0 = np.sum([blk.i_xy0_sys for blk in s.blocks], axis=0)
    u0 = np.array([SLACK_E0.real, SLACK_E0.imag]) + s.net.grid_block @ i0
    port = poi_port_impedance(s.farm)
    c = np.hstack([blk.c for blk in s.blocks])
    fss = s.fss
    assert fss.c_p.shape == (fss.n_states,)
    assert np.array_equal(fss.d_p, i0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, de = rng.standard_normal(fss.n_states), rng.standard_normal(2)
        stacked = [blk.c @ x[4 * k:4 * k + 4]
                   for k, blk in enumerate(s.blocks)]
        want = u0 @ (c @ x) + i0 @ (port @ np.concatenate(stacked) + de)
        # the same sum over |terms|, which bounds the roundoff of both sides
        stacked = [np.abs(blk.c) @ np.abs(x[4 * k:4 * k + 4])
                   for k, blk in enumerate(s.blocks)]
        scale = np.abs(u0) @ (np.abs(c) @ np.abs(x)) + np.abs(i0) @ (
            np.abs(port) @ np.concatenate(stacked) + np.abs(de))
        assert abs(fss.c_p @ x + fss.d_p @ de - want) <= 1e-14 * scale


@pytest.mark.parametrize("make", [
    *(lambda case=case: solved_case(case) for case in "abcd"),
    lambda: SolvedFarm(stiff_grid(case_farm("b"))),
    lambda: SolvedFarm(load_farm(ROOT / "farms" / "zero_network.json"))],
    ids=["case_a", "case_b", "case_c", "case_d", "stiff_case_b",
         "zero_network"])
def test_poi_current_is_the_summed_wt_injections(make):
    # d_p sums ratio i_d0 (cos, sin)(arg u) over the blocks; the oracle
    # sums ratio conj(p_m0 / u) over the bus voltages of the power flow
    s = make()
    want = grid_current(s.farm, s.sol)
    assert abs(complex(*s.fss.d_p) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("change", [{"c_dc": 1e-310}, {"kp_dvc": 1e308}],
                         ids=["c_dc", "kp_dvc"])
@pytest.mark.parametrize("farm_file", ["single_wt", "case_b"])
def test_overflowing_linearization_names_the_wt(change, farm_file):
    # valid parameters whose linearization overflows; the suite turns any
    # RuntimeWarning on the way into an error
    farm = load_farm(ROOT / "farms" / f"{farm_file}.json")
    k = farm.n_wt // 2
    wt, bus = farm.wts[k]
    farm = dataclasses.replace(farm, wts=(
        *farm.wts[:k], (dataclasses.replace(wt, **change), bus),
        *farm.wts[k + 1:]))
    farm.validate()
    with pytest.raises(FarmValidationError,
                       match=f"^WT {wt.id!r}: linearized model is not finite"):
        linear_model(farm, solve_powerflow(farm))


def test_block_count_mismatch_rejected():
    farm = single_wt_farm()
    blocks, net = solved_blocks(farm)
    with pytest.raises(ValueError, match="blocks against"):
        assemble_farm(blocks + blocks, net)


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_kind_rows_follow_wt_order_on_a_permuted_farm(kind):
    farm = case_farm("b")
    perm = np.random.default_rng(1).permutation(farm.n_wt)
    farm_p = dataclasses.replace(farm, wts=tuple(farm.wts[k] for k in perm))
    fss = linear_model(farm_p, solve_powerflow(farm_p))
    bus_of = {wt.id: bus for wt, bus in farm.wts}
    assert list(fss.wt_order) != sorted(
        fss.wt_order, key=lambda wt: farm.buses.index(bus_of[wt]))
    rows = fss.kind_rows((kind,))
    assert [fss.labels[k] for k in rows] == [(wt, kind)
                                             for wt in fss.wt_order]


def test_labels_unique_and_ordered():
    fss = solved_case("a").fss
    assert len(set(fss.labels)) == len(fss.labels)
    assert fss.labels[0] == ("wt01", "u_dc")
    assert fss.labels[4 * 6 + 2] == ("wt07", "pll_angle")
    assert fss.kind_rows(("pll_angle",))[6] == 4 * 6 + 2
