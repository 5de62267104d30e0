"""Single-WT converter model: nonlinear simulation and linearized block.

The model keeps only the DC-link voltage control (DVC) and PLL dynamics of a
full-power converter; current control (~100 Hz) is collapsed, so the dq
current tracks its reference instantly and the feedthrough of the linearized
block is identically zero.  States, in order:

    u_dc      DC-link voltage (p.u.)
    dvc_int   DVC integrator
    pll_angle angle between the PLL d axis and the grid XY frame (rad)
    pll_int   PLL integrator

The block input is the terminal-voltage deviation in XY, the output the
injected-current deviation in XY on the *system* base (the machine-capacity
ratio is folded into the output matrix so heterogeneous machines compose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farm import GridThevenin, PerUnitBases, WtParams, xy_block
from .powerflow import SLACK_E0, WtOperatingPoint

STATE_KINDS = ("u_dc", "dvc_int", "pll_angle", "pll_int")


def rotation(delta: float) -> np.ndarray:
    """XY -> dq rotation; its transpose maps dq back to XY."""
    c, s = np.cos(delta), np.sin(delta)
    return np.array([[c, s], [-s, c]])


def _rotation_ddelta(delta: float) -> np.ndarray:
    c, s = np.cos(delta), np.sin(delta)
    return np.array([[-s, c], [-c, -s]])


def dc_link_seconds(wt: WtParams, bases: PerUnitBases) -> float:
    """Energy-equivalent per-unit DC capacitance, in seconds."""
    return (wt.c_dc * (bases.u_dc_base_kv * 1e3) ** 2
            / (wt.capacity_mva(bases) * 1e6))


def _c_prime(wt: WtParams, bases: PerUnitBases) -> float:
    return dc_link_seconds(wt, bases) * wt.u_dc0


@dataclass(frozen=True)
class WtStateSpace:
    """Linearized single-WT block with its operating point.

    There is no feedthrough: the current references depend on states only.
    `c` yields system-base current deviations; `i_xy0_sys` is the matching
    system-base operating current so farm-level outputs can be reconstructed.
    """

    a: np.ndarray            # (4, 4)
    b: np.ndarray            # (4, 2)
    c: np.ndarray            # (2, 4)
    wt_id: str
    i_xy0_sys: np.ndarray    # (2,)


def linearize_wt(wt: WtParams, op: WtOperatingPoint,
                 bases: PerUnitBases) -> WtStateSpace:
    """Linearized DVC/PLL block at the given operating point."""
    cpr = _c_prime(wt, bases)
    t0 = rotation(op.delta0)
    dt0 = _rotation_ddelta(op.delta0)
    # du_dq = w * ddelta + t0 @ du_xy ; with u_q0 = 0, w = [0, -u_d0]
    w = dt0 @ op.u_xy0
    # di_xy = v * ddelta + t0.T @ di_dq ; unity power factor, i_q0 = 0
    v = dt0.T @ np.array([op.i_d0, 0.0])

    a = np.zeros((4, 4))
    a[0, 0] = -op.u_d0 * wt.kp_dvc / cpr
    a[0, 1] = -op.u_d0 * wt.ki_dvc / cpr
    a[0, 2] = -op.i_d0 * w[0] / cpr
    a[1, 0] = 1.0
    a[2, 2] = wt.kp_pll * w[1]
    a[2, 3] = wt.ki_pll
    a[3, 2] = w[1]

    b = np.zeros((4, 2))
    b[0, :] = -op.i_d0 * t0[0, :] / cpr
    b[2, :] = wt.kp_pll * t0[1, :]
    b[3, :] = t0[1, :]

    c = np.zeros((2, 4))
    c[:, 0] = t0.T[:, 0] * wt.kp_dvc
    c[:, 1] = t0.T[:, 0] * wt.ki_dvc
    c[:, 2] = v

    ratio = wt.capacity_ratio(bases)
    return WtStateSpace(
        a=a, b=b, c=ratio * c,
        wt_id=wt.id,
        i_xy0_sys=ratio * op.i_xy0,
    )


def stiff_grid_mode(wt: WtParams, op: WtOperatingPoint,
                    bases: PerUnitBases) -> np.ndarray:
    """Closed-form DVC eigenpair with the terminal voltage held fixed.

    Returns the two roots; a conjugate pair in the oscillatory case, two
    reals when the discriminant is overdamped.
    """
    cpr = _c_prime(wt, bases)
    disc = 4.0 * cpr * wt.ki_dvc * op.u_d0 - (wt.kp_dvc * op.u_d0) ** 2
    re = -wt.kp_dvc * op.u_d0 / (2.0 * cpr)
    if disc >= 0:
        im = np.sqrt(disc) / (2.0 * cpr)
        return np.array([re + 1j * im, re - 1j * im])
    spread = np.sqrt(-disc) / (2.0 * cpr)
    return np.array([re + spread, re - spread], dtype=complex)


# ---------------------------------------------------------------------------
# nonlinear model


@dataclass(frozen=True)
class SagSpec:
    """Step sag of the source-voltage magnitude."""

    fraction: float
    t_start: float = 0.1


@dataclass
class WtTrajectory:
    t: np.ndarray
    u_dc: np.ndarray
    delta: np.ndarray
    p_e: np.ndarray


def terminal_quantities(x: np.ndarray, e_xy: np.ndarray, wt: WtParams,
                        grid: GridThevenin) -> tuple[np.ndarray, np.ndarray, float]:
    """Algebraic terminal solution (u_dq, i_dq, p_e) for the state x.

    The current reference depends on states only, so the Thevenin relation
    u = e + Z i closes without iteration.
    """
    u_dc, z1, delta, _ = x
    i_d = wt.kp_dvc * (u_dc - wt.u_dc0) + wt.ki_dvc * z1
    i_dq = np.array([i_d, 0.0])
    t = rotation(delta)
    i_xy = t.T @ i_dq
    z = xy_block(complex(grid.r_pu, grid.l_pu))
    u_xy = e_xy + z @ i_xy
    u_dq = t @ u_xy
    p_e = float(u_dq @ i_dq)
    return u_dq, i_dq, p_e


def nonlinear_rhs(x: np.ndarray, e_xy: np.ndarray, wt: WtParams,
                  bases: PerUnitBases, grid: GridThevenin) -> np.ndarray:
    u_dc = x[0]
    c_pu = dc_link_seconds(wt, bases)
    u_dq, _, p_e = terminal_quantities(x, e_xy, wt, grid)
    p_m = wt.p_m0
    return np.array([
        (p_m - p_e) / (c_pu * u_dc),
        u_dc - wt.u_dc0,
        wt.kp_pll * u_dq[1] + wt.ki_pll * x[3],
        u_dq[1],
    ])


def stiff_equilibrium(wt: WtParams, bases: PerUnitBases,
                      grid: GridThevenin) -> tuple[np.ndarray, complex]:
    """Steady state of the single WT behind its Thevenin grid.

    Fixed point of u = e + z conj(p/u) with e = SLACK_E0; returns (x0,
    terminal voltage).
    """
    z = complex(grid.r_pu, grid.l_pu)
    u = SLACK_E0
    for _ in range(500):
        u_next = SLACK_E0 + z * np.conj(wt.p_m0 / u)
        if abs(u_next - u) < 1e-14:
            u = u_next
            break
        u = u_next
    else:
        raise RuntimeError("terminal fixed point did not converge")
    delta0 = float(np.angle(u))
    i_d0 = wt.p_m0 / abs(u)
    x0 = np.array([wt.u_dc0, i_d0 / wt.ki_dvc, delta0, 0.0])
    return x0, u


def simulate_wt_nonlinear(wt: WtParams, bases: PerUnitBases,
                          grid: GridThevenin, sag: SagSpec,
                          horizon: float, dt: float) -> WtTrajectory:
    """Fixed-step RK4 integration of the nonlinear model under a source sag."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x0, _ = stiff_equilibrium(wt, bases, grid)
    n = int(round(horizon / dt))
    t = np.arange(n + 1) * dt
    e_pre = np.array([SLACK_E0.real, SLACK_E0.imag])
    e_post = e_pre * (1.0 - sag.fraction)

    xs = np.empty((n + 1, 4))
    xs[0] = x0
    x = x0.copy()
    for k in range(n):
        # source value is held over each step; the sag lands on the first
        # step whose start time has reached t_start
        e = e_post if t[k] >= sag.t_start else e_pre
        k1 = nonlinear_rhs(x, e, wt, bases, grid)
        k2 = nonlinear_rhs(x + 0.5 * dt * k1, e, wt, bases, grid)
        k3 = nonlinear_rhs(x + 0.5 * dt * k2, e, wt, bases, grid)
        k4 = nonlinear_rhs(x + dt * k3, e, wt, bases, grid)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"nonlinear integration diverged at t={t[k + 1]:.4f}")
        xs[k + 1] = x

    p_e = np.array([
        terminal_quantities(xs[k], e_post if t[k] >= sag.t_start else e_pre,
                            wt, grid)[2]
        for k in range(n + 1)])
    return WtTrajectory(t=t, u_dc=xs[:, 0], delta=xs[:, 2], p_e=p_e)
