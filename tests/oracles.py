"""Reference models that the tests hold the pipeline against.

None of these runs in the pipeline.  Each is a second route to a quantity
the package computes: a WT's operating point and its block's input and
output maps, the closed-form stiff-grid DVC mode, the single-WT nonlinear
model, the linear sag response with expm1 at every grid time, the POI
current and slack power, the series network losses, the
equal-loss impedance of a WT group branch by branch, each WT group's
members, capacity total and capacity shares, each WT group's
capacity-weighted mean DC voltage, the POI port of the collector's Kron
reduction, the farm closure as a dense block-diagonal sum and in
admittance form, the relative mode errors mode by mode, the eigensolution
in complex arithmetic, the dense MPF table of every state and mode, the
superimposed MPFs cluster by cluster, the WT grouping with every centroid
and pair distance recomputed in each merge round, the bar and line SVGs
point by point, and the per-cell difference of two artifact numbers.
"""

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wfdem.assembly import FarmStateSpace, linear_model
from wfdem.farm import (Branch, FarmDescription, GridThevenin,
                        NetworkMatrices, PerUnitBases, WtParams,
                        nodal_network, xy_block)
from wfdem.clustering import (GROUP_TAU, FeatureTable, GroupAssignment,
                              ModeClusters)
from wfdem.modal import (_CERT_MAX, _COND_MAX, STATE_FILTER, ConcernSet,
                         DefectiveMatrixError, FarmModel, ModalSolution,
                         _conjugate_layout, _pair_modes, eig_biorthogonal)
from wfdem.powerflow import SLACK_E0, BusSolution, solve_powerflow
from wfdem.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, PALETTE,
                           WIDTH, Frame, _axes, _data_span, _document,
                           _escape, _fmt, _legend)
from wfdem.validation import (_STEPS, LinearResponse, nrmse,
                              simulate_linear)
from wfdem.wt import (STATE_KINDS, SagSpec, WtStateSpace, _rotation_ddelta,
                      dc_link_seconds, rotation)


@dataclass(frozen=True)
class OperatingPoint:
    """Steady state of one WT in its own per-unit base.

    The PLL locks the d axis onto the terminal voltage, so u_q0 = 0 and
    delta0 is the terminal-voltage angle; unity power factor makes i_q0 = 0.
    """

    u_xy0: np.ndarray    # (2,)
    i_xy0: np.ndarray    # (2,) machine-base injection
    delta0: float
    u_d0: float
    i_d0: float


def operating_point(u: complex, wt: WtParams) -> OperatingPoint:
    """The operating point of `wt` at terminal voltage `u`."""
    u_d0 = abs(u)
    delta0 = float(np.angle(u))
    i_d0 = wt.p_m0 / u_d0
    return OperatingPoint(
        u_xy0=np.array([u.real, u.imag]),
        i_xy0=i_d0 * np.array([np.cos(delta0), np.sin(delta0)]),
        delta0=delta0,
        u_d0=u_d0,
        i_d0=i_d0,
    )


def block_io_at(op: OperatingPoint, wt: WtParams, bases: PerUnitBases,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input map b, system-base output map c and system-base current
    i_xy0_sys of the linearized block at `op`, formed from its fields."""
    cpr = dc_link_seconds(wt, bases) * wt.u_dc0
    t0 = rotation(op.delta0)
    b = np.zeros((4, 2))
    b[0, :] = -op.i_d0 * t0[0, :] / cpr
    b[2, :] = wt.kp_pll * t0[1, :]
    b[3, :] = t0[1, :]
    c = np.zeros((2, 4))
    c[:, 0] = t0.T[:, 0] * wt.kp_dvc
    c[:, 1] = t0.T[:, 0] * wt.ki_dvc
    c[:, 2] = _rotation_ddelta(op.delta0).T @ np.array([op.i_d0, 0.0])
    ratio = wt.capacity_ratio(bases)
    return b, ratio * c, ratio * op.i_xy0


def stiff_grid_mode(wt: WtParams, u_d0: float,
                    bases: PerUnitBases) -> np.ndarray:
    """Closed-form DVC eigenpair with the terminal voltage held fixed at
    magnitude `u_d0`.

    Returns the two roots; a conjugate pair in the oscillatory case, two
    reals when the discriminant is overdamped.
    """
    cpr = dc_link_seconds(wt, bases) * wt.u_dc0
    disc = 4.0 * cpr * wt.ki_dvc * u_d0 - (wt.kp_dvc * u_d0) ** 2
    re = -wt.kp_dvc * u_d0 / (2.0 * cpr)
    if disc >= 0:
        im = np.sqrt(disc) / (2.0 * cpr)
        return np.array([re + 1j * im, re - 1j * im])
    spread = np.sqrt(-disc) / (2.0 * cpr)
    return np.array([re + spread, re - spread], dtype=complex)


def fixed_point_terminal(p: float, z: complex) -> complex:
    """Terminal voltage of one WT injecting p behind z from SLACK_E0.

    The scalar fixed point u = e + z conj(p/u), iterated far below the
    Newton tolerance.
    """
    u = SLACK_E0
    for _ in range(10_000):
        u_next = SLACK_E0 + z * np.conj(p / u)
        if abs(u_next - u) < 1e-14:
            return u_next
        u = u_next
    raise AssertionError("terminal fixed point did not converge")


# ---------------------------------------------------------------------------
# single-WT nonlinear model


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
    return np.array([
        (wt.p_m0 - p_e) / (c_pu * u_dc),
        u_dc - wt.u_dc0,
        wt.kp_pll * u_dq[1] + wt.ki_pll * x[3],
        u_dq[1],
    ])


def stiff_equilibrium(wt: WtParams, grid: GridThevenin) -> np.ndarray:
    """Steady state of the single WT behind its Thevenin grid."""
    u = fixed_point_terminal(wt.p_m0, complex(grid.r_pu, grid.l_pu))
    i_d0 = wt.p_m0 / abs(u)
    return np.array([wt.u_dc0, i_d0 / wt.ki_dvc, float(np.angle(u)), 0.0])


def simulate_wt_nonlinear(wt: WtParams, bases: PerUnitBases,
                          grid: GridThevenin, sag: SagSpec,
                          horizon: float, dt: float) -> WtTrajectory:
    """Fixed-step RK4 integration of the nonlinear model under a source sag."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x0 = stiff_equilibrium(wt, grid)
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


def linearization_check(wt: WtParams, bases: PerUnitBases,
                        grid: GridThevenin, sag_fraction: float = 0.001,
                        horizon: float = 2.0, dt: float = 1e-3) -> float:
    """NRMSE of the linear single-WT u_dc response against the nonlinear one
    under the same source sag."""
    sag = SagSpec(fraction=sag_fraction)
    traj = simulate_wt_nonlinear(wt, bases, grid, sag, horizon, dt)
    farm = FarmDescription(bases=bases, buses=("poi",), poi="poi",
                           branches=(), wts=((wt, "poi"),), grid=grid)
    farm.validate()
    fss = linear_model(farm, solve_powerflow(farm))
    lin = simulate_linear(fss, eig_biorthogonal(fss.a_s), sag, horizon, dt,
                          np.array([[1.0]]))
    value, _ = nrmse(traj.u_dc - traj.u_dc[0], lin.u_dc[0])
    return value


def simulate_linear_direct(fss: FarmStateSpace, modal: ModalSolution,
                           sag: SagSpec, horizon: float, dt: float,
                           shares: np.ndarray) -> LinearResponse:
    """`simulate_linear` with expm1 evaluated at every grid time.

    The same closed form, x(t) = U diag(V B_s de) (e^(lam tau) - 1) / lam
    (tau where lam = 0), with the time factor of each mode formed directly
    from tau = t - t_on, `_STEPS` grid times at a time, where
    `simulate_linear` calls expm1 at one grid time in `_ANCHOR` only.
    """
    de = -sag.fraction * np.array([SLACK_E0.real, SLACK_E0.imag])
    t = np.arange(int(round(horizon / dt)) + 1) * dt
    k_on = int(np.searchsorted(t, sag.t_start))
    n_out = len(shares)
    m = np.vstack([shares @ modal.basis[fss.kind_rows(("u_dc",))],
                   fss.c_p @ modal.basis])
    q = modal.inverse @ (fss.b_s @ de)
    w_re, w_im, lam = modal.residues(m, q)
    zero = lam == 0
    y = np.zeros((n_out + 1, len(t)))
    for k in range(k_on, len(t), _STEPS):
        tau = t[k - k_on:min(k + _STEPS, len(t)) - k_on]
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.expm1(np.outer(lam, tau)) \
                / np.where(zero, 1.0, lam)[:, None]
        g[zero] = tau
        y[:, k:k + len(tau)] = w_re @ g.real - w_im @ g.imag
    poi_p = y[n_out] + (fss.d_p @ de) * (t >= sag.t_start)
    return LinearResponse(t=t, u_dc=y[:n_out], poi_p=poi_p)


def group_means_by_member(farm: FarmDescription,
                          members: dict[int, tuple[str, ...]],
                          per_wt: np.ndarray) -> np.ndarray:
    """Capacity-weighted mean of each group's member rows of `per_wt`.

    `per_wt` holds one u_dc row per WT in farm order (identity shares); each
    group's weights cap_w / sum(cap) come from the farm, member by member,
    and the mean is summed in member order.
    """
    row = {wt.id: k for k, (wt, _) in enumerate(farm.wts)}
    cap = {wt.id: wt.capacity_mva(farm.bases) for wt, _ in farm.wts}
    out = []
    for wt_ids in members.values():
        caps = np.array([cap[wt_id] for wt_id in wt_ids])
        weights = caps / caps.sum()
        out.append(sum(w * per_wt[row[wt_id]]
                       for wt_id, w in zip(wt_ids, weights)))
    return np.array(out)


# ---------------------------------------------------------------------------
# power balance and closure


def shares_by_member(farm: FarmDescription, group_of: dict[str, int],
                     ) -> tuple[dict[int, tuple[str, ...]], list[float],
                                np.ndarray]:
    """Each group id, sorted, with its member WT ids in farm order, its
    capacity total and its row of capacity shares, WT by WT: cap_w / total
    for a member w, 0 elsewhere.  Each total is the exact sum
    (`math.fsum`) of its members' capacities."""
    members, totals, rows = {}, [], []
    for g in sorted(set(group_of.values())):
        caps = [wt.capacity_mva(farm.bases) if group_of[wt.id] == g else 0.0
                for wt, _ in farm.wts]
        members[g] = tuple(wt.id for wt, _ in farm.wts if group_of[wt.id] == g)
        totals.append(math.fsum(caps))
        rows.append([cap / totals[-1] for cap in caps])
    return members, totals, np.array(rows).reshape(len(totals), farm.n_wt)


def branch_z_pu(farm: FarmDescription, br: Branch) -> complex:
    """Series impedance of a collector branch on the system base."""
    omega = farm.bases.omega_grid
    zb = farm.bases.z_base_ohm
    return (br.r_ohm_per_km + 1j * omega * br.l_h_per_km) * br.length_km / zb


def series_losses(farm: FarmDescription, v: dict[str, complex]) -> complex:
    """Sum of z_b |i_b|^2 over the collector branches at bus voltages `v`.

    A zero-impedance branch carries no drop and adds no loss.
    """
    loss = 0.0 + 0.0j
    for br in farm.branches:
        z = branch_z_pu(farm, br)
        if z != 0:
            loss += abs((v[br.from_bus] - v[br.to_bus]) / z) ** 2 * z
    return loss


def grid_current(farm: FarmDescription, sol: BusSolution) -> complex:
    """Current exported into the Thevenin branch, system base: the sum of
    each WT's unity-power-factor injection conj(p_m0 / u), scaled by its
    capacity ratio."""
    v = dict(zip(sol.bus_ids, sol.v))
    total = 0.0 + 0.0j
    for wt, bus in farm.wts:
        total += np.conj(wt.p_m0 / v[bus]) * wt.capacity_ratio(farm.bases)
    return total


def slack_power(farm: FarmDescription, sol: BusSolution) -> complex:
    """Complex power absorbed by the infinite bus."""
    return SLACK_E0 * np.conj(grid_current(farm, sol))


def network_losses(farm: FarmDescription, sol: BusSolution) -> complex:
    """Total series I^2 Z losses, Thevenin branch included."""
    loss = series_losses(farm, dict(zip(sol.bus_ids, sol.v)))
    return loss + abs(grid_current(farm, sol)) ** 2 * complex(
        farm.grid.r_pu, farm.grid.l_pu)


def equal_loss_impedance(farm: FarmDescription,
                         members: list[tuple[WtParams, str]]) -> complex:
    """z_eq = sum_b z_b |i_b|^2 / P^2 of one group, branch by branch.

    The members inject their system-base active powers into the collector
    with the infinite bus grounded; the Thevenin branch stays out.
    """
    net = nodal_network(farm)
    inj = np.zeros(net.n_nodes + 1, dtype=complex)
    for wt, bus in members:
        inj[net.node_of[bus]] += wt.p_m0 * wt.capacity_ratio(farm.bases)
    v_nodes = np.append(np.linalg.solve(net.y_red, inj[:-1]), 0.0)
    v = {bus: v_nodes[node] for bus, node in net.node_of.items()}
    return series_losses(farm, v) / inj.real.sum() ** 2


def poi_port_impedance(farm: FarmDescription) -> np.ndarray:
    """The POI voltage response to the WT injections, (2, 2N) in XY blocks,
    with the infinite bus held fixed: the POI row of the collector
    impedance, Kron-reduced to the WT terminals plus a port at the POI."""
    net = nodal_network(farm)
    z_all = np.pad(np.linalg.inv(net.y_red), (0, 1))
    ports = [net.node_of[bus] for _, bus in farm.wts]
    row = z_all[net.node_of[farm.poi], ports]
    return np.hstack([xy_block(z) for z in row])


def stack_blocks(blocks: list[WtStateSpace],
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal (A, B, C) over the WT blocks, in block order."""
    ns = sum(blk.a.shape[0] for blk in blocks)
    n = len(blocks)
    a = np.zeros((ns, ns))
    b = np.zeros((ns, 2 * n))
    c = np.zeros((2 * n, ns))
    row = 0
    for k, blk in enumerate(blocks):
        m = blk.a.shape[0]
        a[row:row + m, row:row + m] = blk.a
        b[row:row + m, 2 * k:2 * k + 2] = blk.b
        c[2 * k:2 * k + 2, row:row + m] = blk.c
        row += m
    return a, b, c


def dense_closed_loop(blocks: list[WtStateSpace],
                      net: NetworkMatrices) -> np.ndarray:
    """A_s as the dense sum blockdiag(A) + B (Z C) of the stacked blocks:
    the bits `assemble_farm` keeps while it adds the A blocks into the
    product's own buffer."""
    a, b, c = stack_blocks(blocks)
    a += b @ (net.z @ c)
    return a


def closed_loop_via_admittance(blocks: list[WtStateSpace],
                               net: NetworkMatrices) -> np.ndarray:
    """A_s through the admittance form A + B Y^-1 C with Y = Z^-1.

    Algebraically equal to `assemble_farm`'s A + B Z C whenever Z is
    invertible; a singular Z raises `numpy.linalg.LinAlgError`.
    """
    a, b, c = stack_blocks(blocks)
    return a + b @ np.linalg.solve(np.linalg.inv(net.z), c)


# ---------------------------------------------------------------------------
# relative mode errors


def centre_errors_by_mode(concern: ConcernSet,
                          clusters: ModeClusters) -> np.ndarray:
    """|lam - centre| / |lam| of each concern mode, with Python's `abs` and
    float division (inf past the largest float, with no warning)."""
    return np.array([
        float(abs(lam - complex(clusters.centres[int(label)])))
        / float(abs(lam))
        for label, lam in zip(clusters.labels, concern.eigenvalues)])


def nearest_errors_by_mode(concern: ConcernSet,
                           dem_concern: ConcernSet) -> np.ndarray:
    """min over DEM modes mu of |lam - mu| / |lam|, with Python's `abs` and
    float division."""
    return np.array([
        float(min(abs(lam - mu) for mu in dem_concern.eigenvalues))
        / float(abs(lam))
        for lam in concern.eigenvalues])


# ---------------------------------------------------------------------------
# eigensolution and participation factors


@dataclass(frozen=True)
class ComplexModes:
    """Sorted eigenvalues, right vectors U (columns), left vectors
    V = U^-1 (rows) and `pair_of`, all in complex arithmetic."""

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    pair_of: np.ndarray


def complex_eig_biorthogonal(a_s: np.ndarray) -> ComplexModes:
    """The eigensolution with a complex basis: `eig`'s eigenvalues and unit
    vectors as complex arrays, sorted by (Re, Im), and V = inv(U) under the
    same gates as `eig_biorthogonal`, ||U||_F ||V||_F and then cond(U)."""
    a_s = np.asarray(a_s, dtype=float)
    lam, u = (x.astype(complex) for x in np.linalg.eig(a_s))
    _conjugate_layout(lam)
    order = np.lexsort((lam.imag, lam.real))
    u = u[:, order]
    try:
        v = np.linalg.inv(u)
        with np.errstate(over="ignore"):
            certified = np.linalg.norm(u) * np.linalg.norm(v) <= _CERT_MAX
    except np.linalg.LinAlgError:
        v, certified = None, False
    if not certified:
        cond = np.linalg.cond(u)
        if not np.isfinite(cond) or cond > _COND_MAX:
            raise DefectiveMatrixError(
                f"eigenvector basis is ill-conditioned (cond = {cond:.3e}); "
                "matrix is defective within working precision")
        if v is None:
            v = np.linalg.inv(u)
    lam = lam[order]
    with np.errstate(over="ignore"):
        norm_f = float(np.linalg.norm(a_s))
    return ComplexModes(lam, u, v,
                        _pair_modes(a_s, lam, exact_conjugates(lam), norm_f))


def exact_conjugates(lam: np.ndarray) -> np.ndarray:
    """Slot of each sorted mode's exact conjugate, itself for a real mode:
    the k-th copy of an upper mode goes with the k-th copy of its
    conjugate."""
    conj_of = np.arange(len(lam))
    for i in np.flatnonzero(lam.imag > 0):
        copy = sum(lam[j] == lam[i] for j in range(i))
        conj_of[i] = np.flatnonzero(lam == np.conj(lam[i]))[copy]
        conj_of[conj_of[i]] = i
    return conj_of


def complex_basis(sol: ModalSolution) -> tuple[np.ndarray, np.ndarray]:
    """U and V formed in full from the real basis R and W = R^-1:
    U_up = R_up + j R_lo, U_lo = conj(U_up); V_up = (W_up - j W_lo) / 2,
    V_lo = conj(V_up); a real mode's column and row are R's and W's."""
    r, w = sol.basis, sol.inverse
    up = np.flatnonzero(sol.eigenvalues.imag > 0)
    lo = sol.conj_of[up]
    u = r.astype(complex)
    u.real[:, lo], u.imag[:, up], u.imag[:, lo] = r[:, up], r[:, lo], -r[:, lo]
    v = w.astype(complex)
    v.real[up], v.real[lo] = w[up] / 2, w[up] / 2
    v.imag[up], v.imag[lo] = -w[lo] / 2, w[lo] / 2
    return u, v


def full_mpf(sol: ModalSolution) -> np.ndarray:
    """The dense n x n MPF table f[k, i] = v_i[k] u_i[k], formed from
    `complex_basis` with both factors C-contiguous."""
    u, v = complex_basis(sol)
    return np.ascontiguousarray(v.T) * np.ascontiguousarray(u)


def loop_participation_dense(fss: FarmStateSpace, sol: ModalSolution,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The |f| pass's sums from the dense table of `full_mpf`: each mode's
    |f| summed over the `u_dc` rows; its sum over the rows labelled `u_dc`
    or `dvc_int`, over its sum over every row, both kind-major (every WT's
    row of one kind, then the next kind's); and the position in `wt_order`
    of the WT whose labelled rows sum highest (the first on an exact tie).
    Each sum runs down the rows of a C-contiguous table, one row after the
    other."""
    mag = np.abs(full_mpf(sol))
    labels = fss.labels

    def kind_major(kinds):
        return [k for kind in kinds
                for k, (_, of) in enumerate(labels) if of == kind]
    per_wt = np.array([mag[[k for k, (w, _) in enumerate(labels) if w == wt]]
                       .sum(axis=0) for wt in fss.wt_order])
    return (mag[kind_major(("u_dc",))].sum(axis=0),
            mag[kind_major(("u_dc", "dvc_int"))].sum(axis=0)
            / mag[kind_major(STATE_KINDS)].sum(axis=0),
            np.argmax(per_wt, axis=0))


def superimposed_mpf_by_sum(model: FarmModel,
                            clusters: ModeClusters) -> np.ndarray:
    """Each WT's representative-state MPFs over every cluster's modes, one
    participation block per cluster and one Python `sum` per row of it."""
    rows = model.fss.kind_rows(STATE_FILTER[:1])
    table = np.zeros((len(rows), clusters.n_clusters), dtype=complex)
    for c in range(clusters.n_clusters):
        group = [m for m, label in zip(model.concern.mode_indices,
                                       clusters.labels) if label == c]
        for r, mpf in enumerate(model.modal.participation(rows, group)):
            table[r, c] = sum(mpf)
    return table


def group_wts_by_rounds(features: FeatureTable,
                        tau: float = GROUP_TAU) -> GroupAssignment:
    """`group_wts` without its warning, recomputing every live group's
    centroid and norm, and every pair distance, in each merge round."""
    mags = np.abs(features.table)
    n_wt, n_c = mags.shape
    raw = mags.argmax(axis=1)
    if n_c == 1:
        margins = np.ones(n_wt)
    else:
        part = np.sort(mags, axis=1)
        top, second = part[:, -1], part[:, -2]
        margins = np.where(top > 0, (top - second)
                           / np.where(top > 0, top, 1.0), 0.0)
    alive = sorted(set(raw.tolist()))
    assign = raw.copy()
    merged: list[tuple[int, int]] = []
    while len(alive) > 1:
        centroids = {g: mags[assign == g].mean(axis=0) for g in alive}
        norms = {g: np.linalg.norm(centroids[g]) for g in alive}
        best = None
        for a_pos, ga in enumerate(alive):
            for gb in alive[a_pos + 1:]:
                denom = max(norms[ga], norms[gb])
                if denom == 0:
                    dist = 0.0
                else:
                    dist = float(np.linalg.norm(centroids[ga] - centroids[gb])
                                 / denom)
                if best is None or dist < best[0]:
                    best = (dist, ga, gb)
        dist, ga, gb = best
        if dist >= tau:
            break
        assign[assign == gb] = ga
        merged.append((ga, gb))
        alive.remove(gb)
    remap: dict[int, int] = {}
    for g in assign:
        if g not in remap:
            remap[int(g)] = len(remap)
    return GroupAssignment(
        group_of={wt: remap[int(g)] for wt, g in zip(features.wt_ids, assign)},
        margins={wt: float(m) for wt, m in zip(features.wt_ids, margins)},
        merged=tuple(merged))


def bars_svg_by_point(path, title: str, xlabel: str, ylabel: str,
                      categories: list[str],
                      series: list[tuple[str, list[float]]]) -> None:
    """`svgplot.bars_svg` with each bar mapped by `Frame.y` as a float and
    written by its own f-string."""
    n_cat = len(categories)
    n_ser = max(len(series), 1)
    top = max((max(vals) for _, vals in series if vals), default=1.0)
    frame = Frame(0.0, float(max(n_cat, 1)), 0.0,
                  _data_span([0.0, top]) * 1.08)
    el = _axes(frame, title, xlabel, ylabel)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / max(n_cat, 1)
    bar_w = slot * 0.8 / n_ser
    legend = []
    for s, (label, vals) in enumerate(series):
        color = PALETTE[s % len(PALETTE)]
        legend.append((label, color, "line"))
        for k, v in enumerate(vals):
            x0 = MARGIN_L + k * slot + slot * 0.1 + s * bar_w
            y0 = frame.y(v)
            h = (HEIGHT - MARGIN_B) - y0
            el.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" '
                      f'width="{_fmt(bar_w)}" height="{_fmt(h)}" '
                      f'fill="{color}"/>')
    step = max(1, n_cat // 16)
    for k in range(0, n_cat, step):
        px = MARGIN_L + (k + 0.5) * slot
        el.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                  'text-anchor="middle" font-size="9">'
                  f'{_escape(categories[k])}</text>')
    el += _legend(legend)
    Path(path).write_text(_document(el))


def lines_svg_by_point(path, title: str, xlabel: str, ylabel: str,
                       series: list[tuple[str, list[float], list[float],
                                          str, bool]]) -> None:
    """`svgplot.lines_svg` with each point mapped by `Frame.x` and
    `Frame.y` as floats and written by its own f-string."""
    xs = [x for _, sx, _, _, _ in series for x in sx]
    ys = [y for _, _, sy, _, _ in series for y in sy]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    dy = _data_span(ys)
    frame = Frame(min(xs), min(xs) + _data_span(xs),
                  min(ys) - 0.05 * dy, max(ys) + 0.05 * dy)
    el = _axes(frame, title, xlabel, ylabel)
    legend = []
    for label, sx, sy, color, dashed in series:
        legend.append((label, color, "line"))
        pts = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}"
                       for x, y in zip(sx, sy))
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        el.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                  f'stroke-width="1.6"{dash}/>')
    el += _legend(legend)
    Path(path).write_text(_document(el))


def cell_difference(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference; equal cells, nan included, differ
    by 0, and a non-finite difference is inf."""
    if a == b or (cmath.isnan(a) and cmath.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b))
