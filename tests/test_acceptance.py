"""Acceptance suite: one test per criterion, each printing a PASS line.

Study cases on the synthesized 33-WT, 3-feeder layout:
  a  identical controllers, plant-wide spread of operating points
  b  three proportional-gain groups
  c  three integral-gain groups (distinct frequency bands)
  d  +/-10% controller dispersion inside the three groups

Tolerances are fixed here and nowhere else.
"""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from helpers import solved_case, state_matrix, terminal_voltages
from oracles import (complex_basis, full_mpf, linearization_check,
                     network_losses, slack_power, stiff_grid_mode)
from wfdem.cases import ground_truth_groups, identical_zero_network_farm
from wfdem.cli import RunConfig, run_pipeline
from wfdem.farm import load_farm
from wfdem.powerflow import solve_powerflow
from wfdem.validation import (compare_responses, error_E, error_Eprime,
                              simulate_linear)
from wfdem.wt import SagSpec

FARMS = Path(__file__).resolve().parent.parent / "farms"
SHIPPED = sorted(FARMS.glob("*.json"))


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def case_errors():
    """E at C = 1 and C = 3 for every case, plus the case DEMs."""
    out = {}
    for case in "abcd":
        s = solved_case(case)
        entry = {}
        for c in (1, 3):
            clusters, groups, dem = s.dem(c)
            entry[c] = {
                "e": error_E(s.concern, clusters),
                "e_prime": error_Eprime(s.concern, dem.model.concern),
                "clusters": clusters,
                "groups": groups,
                "dem": dem,
            }
        out[case] = entry
    return out


def test_c01_mpf_columns_sum_to_one():
    worst = 0.0
    for case in "abcd":
        sol = solved_case(case).modal
        worst = max(worst,
                    float(np.abs(full_mpf(sol).sum(axis=0) - 1.0).max()))
    from wfdem.modal import solve_modes
    for farm in (identical_zero_network_farm(33, p_m0=0.8),
                 load_farm(FARMS / "single_wt.json")):
        msol = solve_modes(farm, solve_powerflow(farm)).modal
        worst = max(worst,
                    float(np.abs(full_mpf(msol).sum(axis=0) - 1.0).max()))
    report("criterion 1 (MPF normalization)", worst < 1e-8,
           f"max |column sum - 1| = {worst:.3e} < 1e-8")


def test_c02_eigen_residuals_on_33wt_farm():
    s = solved_case("a")
    a = state_matrix(s.farm, s.sol)
    assert a.shape == (132, 132)
    norm_a = np.linalg.norm(a, 2)
    u, v = complex_basis(s.modal)
    res = max(np.linalg.norm(a @ u[:, i] - s.modal.eigenvalues[i] * u[:, i])
              for i in range(132))
    bi = float(np.abs(np.diag(v @ u) - 1.0).max())
    ok = res < 1e-8 * norm_a and bi < 1e-12
    report("criterion 2 (eigen residuals, 132 states)", ok,
           f"max residual {res:.3e} < 1e-8*|A|={1e-8 * norm_a:.3e}, "
           f"max |V_i U_i - 1| = {bi:.3e}")


def test_c03_degenerate_network_identity():
    farm = identical_zero_network_farm(33, p_m0=0.8)
    sol = solve_powerflow(farm)
    from wfdem.modal import solve_modes
    concern = solve_modes(farm, sol).concern
    wt, u = terminal_voltages(farm, sol)[0]
    lam = stiff_grid_mode(wt, abs(u), farm.bases)[0]
    rel = float((np.abs(concern.eigenvalues - lam) / abs(lam)).max())
    report("criterion 3 (zero-impedance farm vs analytic mode)",
           len(concern) == 33 and rel < 1e-6,
           f"33 pairs, max relative distance {rel:.3e} < 1e-6")


def test_c04_case_a_single_machine_dem(case_errors):
    e = case_errors["a"][1]["e"]
    ep = case_errors["a"][1]["e_prime"]
    report("criterion 4 (case a, C=1)", e <= 0.02 and ep <= 0.02,
           f"E = {e:.2%} <= 2%, E' = {ep:.2%} <= 2%")


def test_c05_case_b_groups_and_errors(case_errors):
    groups = case_errors["b"][3]["groups"]
    truth = ground_truth_groups()
    by_truth, by_got = {}, {}
    for wt, g in truth.items():
        by_truth.setdefault(g, set()).add(wt)
    for wt, g in groups.group_of.items():
        by_got.setdefault(g, set()).add(wt)
    partition_ok = ({frozenset(v) for v in by_truth.values()}
                    == {frozenset(v) for v in by_got.values()})
    e3 = case_errors["b"][3]["e"]
    e1 = case_errors["b"][1]["e"]
    ok = partition_ok and e3 <= 0.01 and e1 / e3 >= 5.0
    report("criterion 5 (case b)", ok,
           f"groups exact: {partition_ok}, E(3) = {e3:.2%} <= 1%, "
           f"E(1)/E(3) = {e1 / e3:.1f} >= 5")


def test_c06_case_c_errors_and_bands(case_errors, tmp_path):
    e3 = case_errors["c"][3]["e"]
    e1 = case_errors["c"][1]["e"]
    cfg = RunConfig(farm_path=FARMS / "case_c.json",
                    out_dir=tmp_path / "case_c", clusters=3)
    run_pipeline(cfg)
    svg = (tmp_path / "case_c" / "modescatter.svg").read_text()
    centres = case_errors["c"][3]["clusters"].centres
    freqs = np.sort(centres.imag)
    bands_distinct = np.min(np.diff(freqs)) > 5.0     # rad/s
    ok = e3 <= 0.01 and e1 >= 0.20 and svg.startswith("<svg") \
        and bands_distinct
    report("criterion 6 (case c)", ok,
           f"E(3) = {e3:.2%} <= 1%, E(1) = {e1:.2%} >= 20%, scatter "
           f"artifact written, band centres at {np.round(freqs, 1)} rad/s")


def test_c07_case_d_dispersion(case_errors):
    e3 = case_errors["d"][3]["e"]
    e1 = case_errors["d"][1]["e"]
    e3_b = case_errors["b"][3]["e"]
    ok = e3 < e1 and e3 > e3_b
    report("criterion 7 (case d dispersion)", ok,
           f"E(3) = {e3:.2%} < E(1) = {e1:.2%}, and E(3) > case-b "
           f"E(3) = {e3_b:.2%}")


def test_c08_time_domain_fidelity(case_errors):
    s = solved_case("b")
    sag = SagSpec(0.05, 0.1)
    vals = {}
    for c in (1, 3):
        dem = case_errors["b"][c]["dem"]
        detailed = simulate_linear(s.fss, s.modal, sag, horizon=2.0,
                                   dt=1e-3, shares=dem.shares)
        resp = simulate_linear(dem.model.fss, dem.model.modal, sag,
                               horizon=2.0, dt=1e-3,
                               shares=np.eye(len(dem.shares)))
        vals[c] = compare_responses(detailed, resp,
                                    tuple(dem.members))["poi_p"]
    ok = vals[3] <= 0.05 and vals[1] > vals[3]
    report("criterion 8 (case b, 5% sag)", ok,
           f"POI NRMSE: 3-machine {vals[3]:.2%} <= 5%, "
           f"1-machine {vals[1]:.2%} > 3-machine")


def test_c09_linearization_validity():
    farm = load_farm(FARMS / "single_wt.json")
    wt = farm.wts[0][0]
    nrmse_u_dc = linearization_check(wt, farm.bases, farm.grid,
                                     sag_fraction=0.001)
    report("criterion 9 (0.1% sag linearity)", nrmse_u_dc < 0.01,
           f"NRMSE = {nrmse_u_dc:.3%} < 1%")


def test_c10_powerflow_on_all_shipped_farms():
    worst_mis, worst_bal = 0.0, 0.0
    for path in SHIPPED:
        farm = load_farm(path)
        sol = solve_powerflow(farm)
        total = sum(wt.p_m0 * wt.capacity_ratio(farm.bases)
                    for wt, _ in farm.wts)
        balance = abs(slack_power(farm, sol)
                      - (total - network_losses(farm, sol)))
        worst_mis = max(worst_mis, sol.mismatch_history[-1])
        worst_bal = max(worst_bal, float(balance))
    ok = worst_mis < 1e-8 and worst_bal < 1e-8
    report("criterion 10 (power flow, all shipped farms)", ok,
           f"{len(SHIPPED)} farms, max mismatch {worst_mis:.3e} < 1e-8, "
           f"max balance error {worst_bal:.3e} < 1e-8")


def test_c11_closure_equivalence():
    from oracles import closed_loop_via_admittance
    worst = 0.0
    for case in "abcd":
        s = solved_case(case)
        alt = closed_loop_via_admittance(s.blocks, s.net)
        lam_a = np.linalg.eigvals(state_matrix(s.farm, s.sol))
        lam_b = np.linalg.eigvals(alt)
        lam_a = lam_a[np.lexsort((lam_a.imag, lam_a.real))]
        lam_b = lam_b[np.lexsort((lam_b.imag, lam_b.real))]
        scale = max(1.0, float(np.abs(lam_a).max()))
        worst = max(worst, float(np.abs(lam_a - lam_b).max()) / scale)
    report("criterion 11 (closure equivalence)", worst < 1e-10,
           f"max spectral difference {worst:.3e} < 1e-10 (scaled)")


def test_c12_determinism(tmp_path):
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        cfg = RunConfig(farm_path=FARMS / "case_b.json", out_dir=out,
                        clusters=3, seed=42)
        run_pipeline(cfg)
        outs.append(out)
    names = ["report.json", "modescatter.svg", "responses.svg"]
    same = {name: filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
            for name in names}
    report("criterion 12 (byte-identical artifacts)", all(same.values()),
           ", ".join(f"{k}: {'identical' if v else 'differs'}"
                     for k, v in same.items()))
