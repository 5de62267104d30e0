"""Newton-Raphson steady state of the farm and per-WT linearization points.

Every WT bus is a PQ node injecting its mechanical power at unity power
factor; the infinite bus is the sole slack, held at SLACK_E0.  Per-unit is
the farm's system base (bases.s_wt_mva, bases.v_coll_kv) throughout, except
where noted machine-base.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .farm import FarmDescription, WtParams, nodal_network
from .gridcsv import write_grid

SLACK_E0 = 1.0 + 0.0j   # infinite-bus voltage, p.u.
TOL = 1e-8              # Newton stop: max |P, Q| mismatch, p.u.


class PowerflowError(RuntimeError):
    """Newton iteration failed to converge."""


@dataclass(frozen=True)
class BusSolution:
    """Converged farm steady state.

    `wt_terminal` maps each WT id to (terminal voltage, injected current on
    the machine's own base).
    """

    bus_ids: tuple[str, ...]
    v: np.ndarray                       # complex, per bus
    grid_flow: complex                  # current exported into the Thevenin branch
    slack_power: complex                # S absorbed by the infinite bus
    wt_terminal: dict[str, tuple[complex, complex]]
    iterations: int
    mismatch_history: tuple[float, ...]


def _newton(y_red: np.ndarray, y_src: np.ndarray, s_spec: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, int, list[float]]:
    """Polar NR on the source-grounded nodal system.  Returns node voltages."""
    n = len(s_spec)
    vm = np.ones(n)
    va = np.zeros(n)
    history: list[float] = []
    for it in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        # node injections; the slack tie enters with opposite sign because
        # y_src stores the positive branch admittance
        i_bus = y_red @ v - y_src * SLACK_E0
        mis = v * np.conj(i_bus) - s_spec
        # with no node left (the whole farm on the infinite bus) err is 0
        err = float(np.max(np.abs(np.r_[mis.real, mis.imag]), initial=0.0))
        history.append(err)
        if err < TOL:
            return v, it, history
        if it == max_iter:
            break
        diag_v = np.diag(v)
        diag_i = np.diag(i_bus)
        diag_vn = np.diag(v / vm)
        ds_dva = 1j * diag_v @ np.conj(diag_i - y_red @ diag_v)
        ds_dvm = diag_v @ np.conj(y_red @ diag_vn) + np.conj(diag_i) @ diag_vn
        jac = np.block([[ds_dva.real, ds_dvm.real],
                        [ds_dva.imag, ds_dvm.imag]])
        try:
            dx = np.linalg.solve(jac, -np.r_[mis.real, mis.imag])
        except np.linalg.LinAlgError as exc:
            raise PowerflowError(f"singular Jacobian at iteration {it}") from exc
        va += dx[:n]
        vm += dx[n:]
    raise PowerflowError(
        f"no convergence after {max_iter} iterations, "
        f"max |P,Q| mismatch = {history[-1]:.3e} p.u. (history: "
        + ", ".join(f"{h:.3g}" for h in history) + ")")


def solve_powerflow(farm: FarmDescription,
                    max_iter: int = 50) -> BusSolution:
    """Solve the farm power flow from a flat start."""
    net = nodal_network(farm)
    n = net.n_nodes

    # node n is the infinite bus: what is injected there flows straight out
    p_sys = [wt.p_system(farm.bases) for wt, _ in farm.wts]
    s_spec = np.zeros(n + 1, dtype=complex)
    for (_, bus), p in zip(farm.wts, p_sys):
        s_spec[net.node_of[bus]] += p

    try:
        v_nodes, iters, history = _newton(net.y_red, net.y_src, s_spec[:n],
                                          max_iter)
    except PowerflowError as exc:
        s_sc = abs(SLACK_E0) ** 2 / abs(net.grid_z) if net.grid_z \
            else np.inf
        raise PowerflowError(
            f"{exc}; farm P = {sum(p_sys):.6g} p.u. against the grid tie's "
            f"|E0|^2/|Z_grid| = {s_sc:.6g} p.u. (system base)") from exc

    v = np.append(v_nodes, SLACK_E0)[[net.node_of[bus] for bus in farm.buses]]
    bus_index = {bus: k for k, bus in enumerate(farm.buses)}

    wt_terminal: dict[str, tuple[complex, complex]] = {}
    grid_flow = 0.0 + 0.0j
    for wt, bus in farm.wts:
        u = v[bus_index[bus]]
        if abs(u) == 0:
            raise PowerflowError(f"zero terminal voltage at WT {wt.id!r}")
        i_machine = np.conj(wt.p_m0 / u)
        wt_terminal[wt.id] = (u, i_machine)
        grid_flow += i_machine * wt.capacity_ratio(farm.bases)

    slack_power = SLACK_E0 * np.conj(grid_flow)

    return BusSolution(
        bus_ids=farm.buses,
        v=v,
        grid_flow=grid_flow,
        slack_power=slack_power,
        wt_terminal=wt_terminal,
        iterations=iters,
        mismatch_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# linearization point


@dataclass(frozen=True)
class WtOperatingPoint:
    """Steady state of one WT in its own per-unit base.

    The PLL locks the d axis onto the terminal voltage, so u_q0 = 0 and
    delta0 is the terminal-voltage angle; unity power factor makes i_q0 = 0.
    """

    u_xy0: np.ndarray    # (2,)
    i_xy0: np.ndarray    # (2,) machine-base injection
    delta0: float
    u_d0: float
    i_d0: float


def wt_operating_point(sol: BusSolution, wt: WtParams) -> WtOperatingPoint:
    if wt.id not in sol.wt_terminal:
        raise KeyError(f"no terminal solution for WT {wt.id!r}")
    u, _ = sol.wt_terminal[wt.id]
    u_d0 = abs(u)
    if u_d0 == 0:
        raise PowerflowError(f"zero terminal voltage at WT {wt.id!r}")
    delta0 = float(np.angle(u))
    i_d0 = wt.p_m0 / u_d0
    return WtOperatingPoint(
        u_xy0=np.array([u.real, u.imag]),
        i_xy0=i_d0 * np.array([np.cos(delta0), np.sin(delta0)]),
        delta0=delta0,
        u_d0=u_d0,
        i_d0=i_d0,
    )


def write_bus_csv(farm: FarmDescription, sol: BusSolution,
                  path: str | Path) -> None:
    """Dump the bus solution (`bus_id, vx, vy, p, q`), injections in system p.u."""
    s_inj: dict[str, complex] = {bus: 0.0 + 0.0j for bus in farm.buses}
    for wt, bus in farm.wts:
        s_inj[bus] += wt.p_system(farm.bases)
    s = np.array([s_inj[bus] for bus in sol.bus_ids], dtype=complex)
    write_grid(path, ["vx", "vy", "p", "q"],
               np.column_stack([sol.v.real, sol.v.imag, s.real, s.imag]),
               labels=("bus_id", sol.bus_ids))
