"""Whole-farm closure.

Oracle for the N=2 case: eliminate the terminal voltages column by column
with per-block matrix-vector products instead of forming the closed-loop
product.
"""

import numpy as np
import pytest

from helpers import random_radial_farm, solved_case
from wfdem.assembly import (AssemblyError, assemble_farm,
                            closed_loop_via_admittance)
from wfdem.cases import identical_zero_network_farm, single_wt_farm
from wfdem.farm import build_network_matrices
from wfdem.powerflow import solve_powerflow, wt_operating_point
from wfdem.wt import linearize_wt


def solved_blocks(farm):
    sol = solve_powerflow(farm)
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
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


@pytest.mark.parametrize("seed", [35, 11, 8])    # seed 35 is exactly N = 2
def test_farm_matches_dae_elimination(seed):
    farm = random_radial_farm(seed)
    blocks, net = solved_blocks(farm)
    fss = assemble_farm(blocks, net)
    oracle = dae_elimination_oracle(blocks, net)
    assert np.abs(fss.a_s - oracle).max() < 1e-12
    assert np.abs(sorted_eigs(fss.a_s) - sorted_eigs(oracle)).max() < 1e-10


def test_spectrum_closed_under_conjugation():
    fss = solved_case("a").fss
    lam = np.linalg.eigvals(fss.a_s)
    conj_sorted = np.conj(lam)[np.lexsort((np.conj(lam).imag,
                                           np.conj(lam).real))]
    direct = lam[np.lexsort((lam.imag, lam.real))]
    assert np.abs(direct - conj_sorted).max() < 1e-9


def test_wt_permutation_leaves_spectrum_fixed():
    farm = solved_case("b").farm
    sol = solve_powerflow(farm)
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
    net = build_network_matrices(farm)
    fss = assemble_farm(blocks, net)

    from wfdem.farm import FarmDescription
    perm = list(reversed(range(farm.n_wt)))
    farm_p = FarmDescription(
        bases=farm.bases, buses=farm.buses, poi=farm.poi,
        branches=farm.branches,
        wts=tuple(farm.wts[k] for k in perm), grid=farm.grid)
    farm_p.validate()
    sol_p = solve_powerflow(farm_p)
    blocks_p = [linearize_wt(wt, wt_operating_point(sol_p, wt), farm.bases)
                for wt, _ in farm_p.wts]
    fss_p = assemble_farm(blocks_p, build_network_matrices(farm_p))

    assert fss_p.labels != fss.labels
    assert set(fss_p.labels) == set(fss.labels)
    assert np.abs(sorted_eigs(fss.a_s) - sorted_eigs(fss_p.a_s)).max() < 1e-9


@pytest.mark.parametrize("case", ["a", "b"])
def test_closure_forms_agree(case):
    s = solved_case(case)
    alt = closed_loop_via_admittance(s.blocks, s.net)
    scale = max(1.0, np.abs(sorted_eigs(s.fss.a_s)).max())
    assert np.abs(sorted_eigs(s.fss.a_s) - sorted_eigs(alt)).max() \
        < 1e-10 * scale


def test_admittance_form_rejects_singular_z():
    farm = identical_zero_network_farm(2)
    blocks, net = solved_blocks(farm)
    with pytest.raises(AssemblyError):
        closed_loop_via_admittance(blocks, net)


def test_block_count_mismatch_rejected():
    farm = single_wt_farm()
    blocks, net = solved_blocks(farm)
    with pytest.raises(ValueError, match="blocks against"):
        assemble_farm(blocks + blocks, net)


def test_labels_unique_and_ordered():
    fss = solved_case("a").fss
    assert len(set(fss.labels)) == len(fss.labels)
    assert fss.labels[0] == ("wt01", "u_dc")
    assert fss.state_index("wt07", "pll_angle") == 4 * 6 + 2
