"""Newton-Raphson steady state of the farm: the complex voltage of every bus.

Every WT bus is a PQ node injecting its mechanical power at unity power
factor; the infinite bus is the sole slack, held at SLACK_E0.  Per-unit is
the farm's system base (bases.s_wt_mva, bases.v_coll_kv) throughout.  A
WT's terminal voltage is all its linearization needs (`wt.linearize_wt`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .farm import FarmDescription, nodal_network
from .gridcsv import write_grid

SLACK_E0 = 1.0 + 0.0j   # infinite-bus voltage, p.u.
TOL = 1e-8              # Newton stop: max |P, Q| mismatch, p.u.
MAX_ITER = 50           # Newton steps after the flat start


class PowerflowError(RuntimeError):
    """Newton iteration failed to converge."""


@dataclass(frozen=True)
class BusSolution:
    """Converged farm steady state: the voltage of each bus of `bus_ids`."""

    bus_ids: tuple[str, ...]
    v: np.ndarray                       # complex, per bus
    iterations: int
    mismatch_history: tuple[float, ...]


@np.errstate(over="ignore", invalid="ignore")
def _newton(y_red: np.ndarray, y_src: np.ndarray,
            s_spec: np.ndarray) -> tuple[np.ndarray, int, list[float]]:
    """Polar NR on the source-grounded nodal system.  Returns node voltages."""
    n = len(s_spec)
    vm = np.ones(n)
    va = np.zeros(n)
    history: list[float] = []
    for it in range(MAX_ITER + 1):
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
        if not np.isfinite(err):
            raise PowerflowError(f"mismatch is not finite at iteration {it}")
        if it == MAX_ITER:
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
        f"no convergence after {MAX_ITER} iterations, "
        f"max |P,Q| mismatch = {history[-1]:.3e} p.u. (history: "
        + ", ".join(f"{h:.3g}" for h in history) + ")")


def solve_powerflow(farm: FarmDescription) -> BusSolution:
    """Solve the farm power flow from a flat start."""
    net = nodal_network(farm)
    n = net.n_nodes

    # node n is the infinite bus: what is injected there flows straight out
    p_sys = [wt.p_system(farm.bases) for wt, _ in farm.wts]
    s_spec = np.zeros(n + 1, dtype=complex)
    for (_, bus), p in zip(farm.wts, p_sys):
        s_spec[net.node_of[bus]] += p

    try:
        v_nodes, iters, history = _newton(net.y_red, net.y_src, s_spec[:n])
    except PowerflowError as exc:
        s_sc = abs(SLACK_E0) ** 2 / abs(net.grid_z) if net.grid_z \
            else np.inf
        raise PowerflowError(
            f"{exc}; farm P = {sum(p_sys):.6g} p.u. against the grid tie's "
            f"|E0|^2/|Z_grid| = {s_sc:.6g} p.u. (system base)") from exc

    v = np.append(v_nodes, SLACK_E0)[[net.node_of[bus] for bus in farm.buses]]
    return BusSolution(bus_ids=farm.buses, v=v, iterations=iters,
                       mismatch_history=tuple(history))


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
