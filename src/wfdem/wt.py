"""Single-WT converter model: the 4-state linearized DVC/PLL block.

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
The block is linearized at its steady-state terminal voltage, which fixes
the whole operating point: the PLL angle and the unity-power-factor current.
`SagSpec` is the source-voltage sag that drives the time-domain validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farm import PerUnitBases, WtParams

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


def linearize_wt(wt: WtParams, u: complex,
                 bases: PerUnitBases) -> WtStateSpace:
    """Linearized DVC/PLL block at the terminal voltage `u` (system p.u.).

    The PLL locks the d axis onto u, so u_q0 = 0 and delta0 = arg u; unity
    power factor makes i_q0 = 0 and i_d0 = p_m0 / |u| on the machine base.
    """
    u_d0 = abs(u)
    delta0 = float(np.angle(u))
    i_d0 = wt.p_m0 / u_d0
    i_xy0 = i_d0 * np.array([np.cos(delta0), np.sin(delta0)])
    cpr = dc_link_seconds(wt, bases) * wt.u_dc0
    t0 = rotation(delta0)
    dt0 = _rotation_ddelta(delta0)
    # du_dq = w * ddelta + t0 @ du_xy ; with u_q0 = 0, w = [0, -u_d0]
    w = dt0 @ np.array([u.real, u.imag])
    # di_xy = v * ddelta + t0.T @ di_dq ; unity power factor, i_q0 = 0
    v = dt0.T @ np.array([i_d0, 0.0])

    a = np.zeros((4, 4))
    a[0, 0] = -u_d0 * wt.kp_dvc / cpr
    a[0, 1] = -u_d0 * wt.ki_dvc / cpr
    a[0, 2] = -i_d0 * w[0] / cpr
    a[1, 0] = 1.0
    a[2, 2] = wt.kp_pll * w[1]
    a[2, 3] = wt.ki_pll
    a[3, 2] = w[1]

    b = np.zeros((4, 2))
    b[0, :] = -i_d0 * t0[0, :] / cpr
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
        i_xy0_sys=ratio * i_xy0,
    )


@dataclass(frozen=True)
class SagSpec:
    """Step sag of the source-voltage magnitude."""

    fraction: float
    t_start: float = 0.1
