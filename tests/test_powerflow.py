"""Steady-state solver and linearization points.

Oracle for the single-WT case: the scalar fixed point u = e + z conj(P/u),
iterated far below the Newton tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_radial_farm
from wfdem.cases import case_farm, identical_zero_network_farm, single_wt_farm
from wfdem.powerflow import (SLACK_E0, BusSolution, PowerflowError,
                             network_losses, solve_powerflow,
                             wt_operating_point, write_bus_csv)
from wfdem.wt import rotation


def fixed_point_terminal(p: float, z: complex, e: complex = 1.0 + 0j,
                         tol: float = 1e-12) -> complex:
    u = e
    for _ in range(10_000):
        u_next = e + z * np.conj(p / u)
        if abs(u_next - u) < tol:
            return u_next
        u = u_next
    raise AssertionError("oracle did not converge")


def total_injection(farm) -> complex:
    return sum(wt.p_m0 * farm.capacity_ratio(wt) for wt, _ in farm.wts)


# ---------------------------------------------------------------------------


def test_zero_impedance_link_gives_flat_voltage():
    farm = identical_zero_network_farm(1, p_m0=0.8)
    sol = solve_powerflow(farm)
    u, i = sol.wt_terminal["wt01"]
    assert u == SLACK_E0
    assert abs(i - 0.8) < 1e-15


def test_single_wt_matches_fixed_point_oracle():
    farm = single_wt_farm(p_m0=1.0, grid_r_pu=0.001, grid_l_pu=0.01)
    sol = solve_powerflow(farm)
    u_oracle = fixed_point_terminal(1.0, 0.001 + 0.01j)
    u, _ = sol.wt_terminal["wt01"]
    assert abs(u - u_oracle) < 1e-10


def test_33wt_farm_converges_and_balances():
    farm = case_farm("a")
    sol = solve_powerflow(farm)
    assert sol.mismatch < 1e-8
    balance = sol.slack_power - (total_injection(farm)
                                 - network_losses(farm, sol))
    assert abs(balance) < 1e-8


@pytest.mark.parametrize("case", ["a", "b", "c", "d"])
def test_mismatch_history_monotone_on_shipped_farms(case):
    # guarded regression, not a theorem
    sol = solve_powerflow(case_farm(case))
    hist = sol.mismatch_history
    assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))


def test_nonconvergence_reports_final_mismatch():
    farm = case_farm("a")
    with pytest.raises(PowerflowError, match="mismatch"):
        solve_powerflow(farm, max_iter=1)


@given(st.integers(0, 150))
def test_power_balance_on_random_farms(seed):
    farm = random_radial_farm(seed)
    sol = solve_powerflow(farm)
    assert sol.mismatch < 1e-8
    balance = sol.slack_power - (total_injection(farm)
                                 - network_losses(farm, sol))
    assert abs(balance) < 1e-8


def test_deterministic_solution():
    farm = case_farm("b")
    s1 = solve_powerflow(farm)
    s2 = solve_powerflow(farm)
    assert np.array_equal(s1.v, s2.v)
    assert s1.wt_terminal == s2.wt_terminal
    wt = farm.wts[0][0]
    op1, op2 = wt_operating_point(s1, wt), wt_operating_point(s2, wt)
    assert np.array_equal(op1.u_xy0, op2.u_xy0)
    assert op1.delta0 == op2.delta0


# ---------------------------------------------------------------------------
# operating point


def _solution_with_terminal(u: complex, p: float) -> BusSolution:
    return BusSolution(
        bus_ids=("poi",), v=np.array([u]),
        branch_flows=np.zeros(0, dtype=complex),
        grid_flow=np.conj(p / u), slack_power=0j,
        wt_terminal={"wt01": (u, np.conj(p / u))},
        mismatch=0.0, iterations=0, mismatch_history=(0.0,))


def test_operating_point_aligned_case():
    sol = _solution_with_terminal(1.0 + 0j, 0.9)
    wt = single_wt_farm(p_m0=0.9).wts[0][0]
    op = wt_operating_point(sol, wt)
    assert op.delta0 == 0.0
    assert op.u_d0 == 1.0
    assert op.i_d0 == 0.9
    assert op.i_q0 == 0.0


def test_operating_point_rotated_case():
    u = 1.02 * np.exp(0.05j)
    sol = _solution_with_terminal(u, 1.0)
    wt = single_wt_farm(p_m0=1.0).wts[0][0]
    op = wt_operating_point(sol, wt)
    assert abs(op.delta0 - 0.05) < 1e-14
    assert abs(op.u_d0 - 1.02) < 1e-14
    assert abs(op.i_d0 - 1.0 / 1.02) < 1e-14      # 0.9804
    assert abs(op.i_d0 - 0.9804) < 1e-4


@given(st.floats(0.9, 1.1), st.floats(-0.5, 0.5), st.floats(0.2, 1.0))
def test_pll_lock_round_trip(mag, angle, p):
    u = mag * np.exp(1j * angle)
    sol = _solution_with_terminal(u, p)
    wt = single_wt_farm(p_m0=p).wts[0][0]
    op = wt_operating_point(sol, wt)
    u_dq = rotation(op.delta0) @ op.u_xy0
    assert abs(u_dq[0] - op.u_d0) < 1e-12
    assert abs(u_dq[1]) < 1e-12
    i_dq = rotation(op.delta0) @ op.i_xy0
    assert abs(i_dq[0] - op.i_d0) < 1e-12
    assert abs(i_dq[1]) < 1e-12


def test_bus_csv_dump(tmp_path):
    farm = case_farm("a")
    sol = solve_powerflow(farm)
    path = tmp_path / "bus.csv"
    write_bus_csv(farm, sol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bus_id,vx,vy,p,q"
    assert len(lines) == 1 + len(farm.buses)
