"""DEM fidelity metrics and linear time-domain simulation.

Two frequency-domain errors quantify how well a reduced model represents the
detailed one: the worst relative distance from each concern mode to its
cluster centre, and the worst relative distance to the nearest mode of the
aggregated model.  Time-domain adequacy is checked by driving both models
with the same grid-voltage sag, in closed form from their modal solutions,
and comparing normalized RMS errors.  Both sides are linearized models; the
nonlinear single-WT reference that checks the linearization itself belongs
to the tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .aggregation import DemModel
from .assembly import FarmStateSpace
from .clustering import ModeClusters
from .gridcsv import write_arrays
from .modal import ConcernSet, FarmModel, ModalSolution
from .powerflow import SLACK_E0
from .wt import SagSpec

# time steps per block of the closed-form response: the time factors of a
# block are a modes x _STEPS complex array, a few MB at 1200 states, where
# the whole horizon at once would be tens of MB
_STEPS = 256


# ---------------------------------------------------------------------------
# frequency-domain errors


def _centre_by_mode(clusters: ModeClusters) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for c, group in enumerate(clusters.members):
        for m in group:
            out[m] = complex(clusters.centres[c])
    return out


def centre_errors(concern: ConcernSet, clusters: ModeClusters) -> np.ndarray:
    """Relative distance of each concern mode to its cluster centre."""
    centres = _centre_by_mode(clusters)
    missing = [i for i in concern.mode_indices if i not in centres]
    if missing:
        raise ValueError(f"clusters do not cover concern modes {missing}")
    errs = np.empty(len(concern))
    for k, (idx, lam) in enumerate(zip(concern.mode_indices,
                                       concern.eigenvalues)):
        if abs(lam) == 0:
            raise ZeroDivisionError("zero-magnitude mode has no relative error")
        errs[k] = abs(lam - centres[idx]) / abs(lam)
    return errs


def error_E(concern: ConcernSet, clusters: ModeClusters) -> float:
    """Max relative error of representing each mode by its cluster centre."""
    return float(np.max(centre_errors(concern, clusters)))


def nearest_errors(concern: ConcernSet, dem_concern: ConcernSet) -> np.ndarray:
    """Relative distance of each concern mode to the nearest DEM mode."""
    if len(dem_concern) == 0:
        raise ValueError("DEM concern set is empty")
    errs = np.empty(len(concern))
    for k, lam in enumerate(concern.eigenvalues):
        if abs(lam) == 0:
            raise ZeroDivisionError("zero-magnitude mode has no relative error")
        errs[k] = min(abs(lam - mu) for mu in dem_concern.eigenvalues) / abs(lam)
    return errs


def error_Eprime(concern: ConcernSet, dem_concern: ConcernSet) -> float:
    """Max relative error of representing each mode by the nearest DEM mode."""
    return float(np.max(nearest_errors(concern, dem_concern)))


# ---------------------------------------------------------------------------
# linear simulation


@dataclass
class LinearResponse:
    """Deviation trajectories of one assembled farm under a source sag."""

    t: np.ndarray
    u_dc: dict[str, np.ndarray]      # per machine, machine p.u.
    poi_p: np.ndarray                # active-power deviation at the POI
    poi_i: np.ndarray                # (2, nt) current deviation at the POI


def simulate_linear(fss: FarmStateSpace, modal: ModalSolution, sag: SagSpec,
                    horizon: float, dt: float) -> LinearResponse:
    """Sag response in closed form from the model's modal solution.

    The input B_s de switches on at t_on, the first grid time at or after
    `sag.t_start`.  With A_s = U diag(lam) V and tau = t - t_on >= 0,

        x(t) = U diag(V B_s de) (e^(lam tau) - 1) / lam   (tau where lam = 0)

    and x = 0 before t_on; only the outputs (u_dc per WT, POI current and
    voltage) are formed, in the real basis: M = [R_u_dc; C_poi R] and
    q = W B_s de.  The time factor is evaluated for the real modes, with
    weight M_i q_i, and for the upper pair members, whose weight
    (M_up + j M_lo)(q_up - j q_lo) is twice the member's own and stands for
    the conjugate partner too.  The time factor is formed `_STEPS` grid
    times at a time.  Stability is not checked here: `modal.unstable`
    flags a non-Hurwitz state matrix.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    de = -sag.fraction * np.array([SLACK_E0.real, SLACK_E0.imag])
    t = np.arange(int(round(horizon / dt)) + 1) * dt
    k_on = int(np.searchsorted(t, sag.t_start))

    # output rows: u_dc per WT, POI current, POI voltage less de
    n_wt = len(fss.wt_order)
    c_poi = np.vstack([fss.c_out.reshape(n_wt, 2, -1).sum(axis=0),
                       fss.z_poi @ fss.c_out])
    m = np.vstack([modal.basis[fss.kind_rows(("u_dc",))],
                   c_poi @ modal.basis])
    q = modal.inverse @ (fss.b_s @ de)
    real = np.flatnonzero(modal.conj_of == np.arange(modal.n_modes))
    upper = np.flatnonzero(modal.eigenvalues.imag > 0)
    lower = modal.conj_of[upper]
    w_re = np.hstack([m[:, real] * q[real],
                      m[:, upper] * q[upper] + m[:, lower] * q[lower]])
    w_im = np.hstack([np.zeros((len(m), len(real))),
                      m[:, lower] * q[upper] - m[:, upper] * q[lower]])
    lam = modal.eigenvalues[np.concatenate([real, upper])]
    zero = lam == 0
    y = np.zeros((n_wt + 4, len(t)))
    for k in range(k_on, len(t), _STEPS):
        tau = t[k - k_on:min(k + _STEPS, len(t)) - k_on]
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.expm1(np.outer(lam, tau)) \
                / np.where(zero, 1.0, lam)[:, None]
        g[zero] = tau
        y[:, k:k + len(tau)] = w_re @ g.real - w_im @ g.imag

    poi_i = y[n_wt:n_wt + 2]
    du_poi = y[n_wt + 2:] + np.outer(de, t >= sag.t_start)
    poi_p = fss.u_poi0 @ poi_i + fss.i_poi0 @ du_poi
    return LinearResponse(t=t, u_dc=dict(zip(fss.wt_order, y[:n_wt])),
                          poi_p=poi_p, poi_i=poi_i)


# ---------------------------------------------------------------------------
# trajectory comparison


def nrmse(y_ref: np.ndarray, y_hat: np.ndarray) -> tuple[float, bool]:
    """RMS error normalized by the reference range.

    Returns (value, is_absolute); a flat reference has no range, so the
    un-normalized RMS error is returned with the flag set.
    """
    if y_ref.shape != y_hat.shape:
        raise ValueError("trajectories must share a common time grid")
    rmse = float(np.sqrt(np.mean((y_ref - y_hat) ** 2)))
    span = float(np.max(y_ref) - np.min(y_ref))
    if span == 0.0:
        return rmse, True
    return rmse / span, False


def group_u_dc(detailed: LinearResponse,
               mapping: dict[int, tuple[tuple[str, float], ...]],
               ) -> dict[int, np.ndarray]:
    """Capacity-weighted mean DC-voltage deviation of each WT group.

    `mapping` gives, per group id, the member WT ids with their capacity
    weights; the means are the detailed side of the group signals.
    """
    out: dict[int, np.ndarray] = {}
    for g, members in mapping.items():
        weights = np.array([w for _, w in members])
        weights = weights / weights.sum()
        out[g] = sum(w * detailed.u_dc[wt]
                     for (wt, _), w in zip(members, weights))
    return out


def compare_responses(detailed: LinearResponse, dem: LinearResponse,
                      mapping: dict[int, tuple[tuple[str, float], ...]],
                      ) -> dict[str, float]:
    """NRMSE per monitored signal.

    Each group's `group_u_dc` mean is compared against the aggregate
    machine's DC-voltage deviation.
    """
    if len(detailed.t) != len(dem.t) or not np.allclose(detailed.t, dem.t):
        raise ValueError("trajectories must share a common time grid")
    out: dict[str, float] = {}
    out["poi_p"], _ = nrmse(detailed.poi_p, dem.poi_p)
    for g, mean_udc in group_u_dc(detailed, mapping).items():
        out[f"group{g}_u_dc"], _ = nrmse(mean_udc, dem.u_dc[f"group{g}"])
    return out


# ---------------------------------------------------------------------------
# report


@dataclass
class ValidationReport:
    e: float
    e_prime: float
    mode_errors: list[dict]                # per detailed concern mode
    nrmse: dict[str, float]
    detailed_unstable: bool
    dem_unstable: bool
    metadata: dict = field(default_factory=dict)


def build_report(model: FarmModel, clusters: ModeClusters, dem: DemModel,
                 nrmse_by_signal: dict[str, float],
                 metadata: dict) -> ValidationReport:
    concern = model.concern
    cen = centre_errors(concern, clusters)
    near = nearest_errors(concern, dem.model.concern)
    cluster_of = {m: c for c, group in enumerate(clusters.members)
                  for m in group}
    breakdown = [
        {
            "re": lam.real,
            "im": lam.imag,
            "cluster": cluster_of[idx],
            "centre_error": float(ce),
            "nearest_dem_error": float(ne),
        }
        for idx, lam, ce, ne in zip(concern.mode_indices, concern.eigenvalues,
                                    cen, near)
    ]
    return ValidationReport(
        e=float(np.max(cen)),
        e_prime=float(np.max(near)),
        mode_errors=breakdown,
        nrmse=nrmse_by_signal,
        detailed_unstable=model.modal.unstable,
        dem_unstable=dem.model.modal.unstable,
        metadata=metadata,
    )


def write_report_json(report: ValidationReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def write_responses_csv(detailed: LinearResponse, dem: LinearResponse,
                        mapping: dict[int, tuple[tuple[str, float], ...]],
                        path: str | Path) -> None:
    """The signals `compare_responses` scores, as `responses.npz` at `path`.

    One float64 array per signal, on the time grid, keyed `t`,
    `detailed_poi_p`, `dem_poi_p`, then per group g of `mapping`,
    `detailed_u_dc_group{g}` (the `group_u_dc` mean) and `dem_u_dc_group{g}`.
    Per-WT traces stay in `LinearResponse.u_dc`.  The name keeps the `_csv`
    of the former text artifact because the benchmark's tracer looks the
    writer up by name.
    """
    signals = {"t": detailed.t, "detailed_poi_p": detailed.poi_p,
               "dem_poi_p": dem.poi_p}
    for g, mean_udc in group_u_dc(detailed, mapping).items():
        signals[f"detailed_u_dc_group{g}"] = mean_udc
        signals[f"dem_u_dc_group{g}"] = dem.u_dc[f"group{g}"]
    write_arrays(path, signals)
