"""DEM fidelity metrics and linear time-domain simulation.

Two frequency-domain errors quantify how well a reduced model represents the
detailed one: the worst relative distance from each concern mode to its
cluster centre, and the worst relative distance to the nearest mode of the
aggregated model.  Time-domain adequacy is checked by driving both models
with the same grid-voltage sag, in closed form from their modal solutions,
and comparing normalized RMS errors of the POI power and of one DC-voltage
row per WT group, the only signals simulated.  Both sides are linearized
models; the nonlinear single-WT reference that checks the linearization
itself belongs to the tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .aggregation import DemModel
from .assembly import FarmStateSpace
from .clustering import ModeClusters
from .gridcsv import magnitude, write_arrays, write_json
from .modal import ConcernSet, FarmModel, ModalSolution
from .powerflow import SLACK_E0
from .wt import SagSpec

# time steps per block of the closed-form response: the time factors of a
# block are a modes x _STEPS complex array, a few MB at 1200 states, where
# the whole horizon at once would be tens of MB
_STEPS = 256


# ---------------------------------------------------------------------------
# frequency-domain errors


def _relative(distance: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """distance / |lam|, rounded like Python's `abs` of each mode.

    A quotient beyond the largest float (a subnormal |lam|) is inf, without
    the overflow warning that Python's float division does not give either.
    """
    size = magnitude(lam)
    if not size.all():
        raise ZeroDivisionError("zero-magnitude mode has no relative error")
    with np.errstate(over="ignore"):
        return distance / size


def centre_errors(concern: ConcernSet, clusters: ModeClusters) -> np.ndarray:
    """Relative distance of each concern mode to its cluster centre."""
    if len(clusters.labels) != len(concern):
        raise ValueError(f"{len(clusters.labels)} cluster labels for "
                         f"{len(concern)} concern modes")
    lam = concern.eigenvalues
    centre = clusters.centres[clusters.labels]
    return _relative(magnitude(lam - centre), lam)


def error_E(concern: ConcernSet, clusters: ModeClusters) -> float:
    """Max relative error of representing each mode by its cluster centre."""
    return float(np.max(centre_errors(concern, clusters)))


def nearest_errors(concern: ConcernSet, dem_concern: ConcernSet) -> np.ndarray:
    """Relative distance of each concern mode to the nearest DEM mode."""
    if len(dem_concern) == 0:
        raise ValueError("DEM concern set is empty")
    lam = concern.eigenvalues
    return _relative(
        magnitude(lam[:, None] - dem_concern.eigenvalues).min(axis=1), lam)


def error_Eprime(concern: ConcernSet, dem_concern: ConcernSet) -> float:
    """Max relative error of representing each mode by the nearest DEM mode."""
    return float(np.max(nearest_errors(concern, dem_concern)))


# ---------------------------------------------------------------------------
# linear simulation


@dataclass
class LinearResponse:
    """Deviation trajectories of one assembled farm under a source sag."""

    t: np.ndarray
    u_dc: np.ndarray      # (k, T): u_dc per share row, machine p.u.
    poi_p: np.ndarray     # active-power deviation at the POI


def simulate_linear(fss: FarmStateSpace, modal: ModalSolution, sag: SagSpec,
                    horizon: float, dt: float,
                    shares: np.ndarray) -> LinearResponse:
    """Sag response in closed form from the model's modal solution.

    The input B_s de switches on at t_on, the first grid time at or after
    `sag.t_start`.  With A_s = U diag(lam) V and tau = t - t_on >= 0,

        x(t) = U diag(V B_s de) (e^(lam tau) - 1) / lam   (tau where lam = 0)

    and x = 0 before t_on; only the outputs are formed: row r of the
    (k, machines) `shares` weights the machines' u_dc, in `fss.wt_order`,
    and the POI power is c_p x.  In the real basis they are
    M = [shares R_u_dc; c_p R] and q = W B_s de, and the POI power adds
    d_p de from t_on on.  The time factor is evaluated for the real modes
    and the upper pair members, with the weights `ModalSolution.residues`
    forms from M and q, `_STEPS` grid times at a time.  Stability is not
    checked here: `modal.unstable` flags a non-Hurwitz state matrix.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    de = -sag.fraction * np.array([SLACK_E0.real, SLACK_E0.imag])
    t = np.arange(int(round(horizon / dt)) + 1) * dt
    k_on = int(np.searchsorted(t, sag.t_start))

    # output rows: shares' u_dc, then the POI power less its feedthrough
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


def compare_responses(detailed: LinearResponse, dem: LinearResponse,
                      group_ids: Sequence[int]) -> dict[str, float]:
    """NRMSE per monitored signal.

    Row r of each side's u_dc is group `group_ids[r]`: the detailed side's
    capacity-weighted mean against the aggregate machine's deviation.
    """
    if not np.array_equal(detailed.t, dem.t):
        raise ValueError("trajectories must share a common time grid")
    out: dict[str, float] = {}
    out["poi_p"], _ = nrmse(detailed.poi_p, dem.poi_p)
    for g, mean_udc, dem_udc in zip(group_ids, detailed.u_dc, dem.u_dc,
                                    strict=True):
        out[f"group{g}_u_dc"], _ = nrmse(mean_udc, dem_udc)
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
    breakdown = [
        {
            "re": lam.real,
            "im": lam.imag,
            "cluster": int(label),
            "centre_error": float(ce),
            "nearest_dem_error": float(ne),
        }
        for label, lam, ce, ne in zip(clusters.labels, concern.eigenvalues,
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
    write_json(path, asdict(report))


def write_responses_csv(detailed: LinearResponse, dem: LinearResponse,
                        group_ids: Sequence[int], path: str | Path) -> None:
    """The signals `compare_responses` scores, as `responses.npz` at `path`.

    One float64 array per signal, on the time grid, keyed `t`,
    `detailed_poi_p`, `dem_poi_p`, then per group g = `group_ids[r]`,
    `detailed_u_dc_group{g}` and `dem_u_dc_group{g}`, row r of each side's
    u_dc.  The name keeps the `_csv` of the former text artifact because the
    benchmark's tracer looks the writer up by name.
    """
    signals = {"t": detailed.t, "detailed_poi_p": detailed.poi_p,
               "dem_poi_p": dem.poi_p}
    for g, mean_udc, dem_udc in zip(group_ids, detailed.u_dc, dem.u_dc,
                                    strict=True):
        signals[f"detailed_u_dc_group{g}"] = mean_udc
        signals[f"dem_u_dc_group{g}"] = dem_udc
    write_arrays(path, signals)
