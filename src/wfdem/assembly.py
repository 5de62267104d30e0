"""Closed-loop farm state space from per-WT blocks and the network matrices.

With block-diagonal (A, B, C) over the WT blocks, which have no
feedthrough, and the collector constraint du = Z di + K de, eliminating the
terminal voltages gives

    A_s = A + B Z C
    B_s = B K

The admittance form A + B Y^-1 C with Y = Z^-1 is algebraically the same
whenever Z is invertible and is kept as a cross-check; the Z form is primary
because Kron reduction always yields Z while Y may not exist for
zero-impedance ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farm import FarmDescription, NetworkMatrices, build_network_matrices
from .powerflow import SLACK_E0, BusSolution, wt_operating_point
from .wt import WtStateSpace, linearize_wt

StateLabel = tuple[str, str]   # (wt id, state kind)


class AssemblyError(RuntimeError):
    """Z is singular, so the admittance form does not exist."""


@dataclass(frozen=True)
class FarmStateSpace:
    """Assembled farm model plus the output map back to terminal quantities.

    State k belongs to `labels[k] = (wt id, kind)`.  `c_out` recovers the
    system-base current deviations di = c_out @ x.  POI quantities use the
    stored operating point so power deviations can be reconstructed.
    """

    a_s: np.ndarray          # (4N, 4N)
    b_s: np.ndarray          # (4N, 2)
    labels: tuple[StateLabel, ...]
    wt_order: tuple[str, ...]
    c_out: np.ndarray        # (2N, 4N)
    z_poi: np.ndarray        # (2, 2N)
    k_poi: np.ndarray        # (2, 2)
    u_poi0: np.ndarray       # (2,)
    i_poi0: np.ndarray       # (2,)

    @property
    def n_states(self) -> int:
        return self.a_s.shape[0]

    def state_index(self, wt_id: str, kind: str) -> int:
        return self.labels.index((wt_id, kind))


def _stack_blocks(blocks: list[WtStateSpace],
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


def assemble_farm(blocks: list[WtStateSpace],
                  net: NetworkMatrices) -> FarmStateSpace:
    n = len(blocks)
    if 2 * n != net.z.shape[0]:
        raise ValueError(
            f"{n} blocks against {net.z.shape[0] // 2} network ports")
    for blk, wt_id in zip(blocks, net.wt_order):
        if blk.wt_id != wt_id:
            raise ValueError(
                f"block order mismatch: {blk.wt_id!r} vs port {wt_id!r}")
    labels = [(blk.wt_id, kind) for blk in blocks for kind in blk.state_kinds]
    if len(set(labels)) != len(labels):
        raise ValueError("state labels are not unique")

    a, b, c = _stack_blocks(blocks)
    i_poi0 = np.sum([blk.i_xy0_sys for blk in blocks], axis=0)
    e0 = np.array([SLACK_E0.real, SLACK_E0.imag])
    u_poi0 = e0 + net.grid_block @ i_poi0

    return FarmStateSpace(
        a_s=a + b @ (net.z @ c),
        b_s=b @ net.k_src,
        labels=tuple(labels),
        wt_order=net.wt_order,
        c_out=c,
        z_poi=net.z_poi,
        k_poi=net.k_poi,
        u_poi0=u_poi0,
        i_poi0=i_poi0,
    )


def linear_model(farm: FarmDescription, sol: BusSolution) -> FarmStateSpace:
    """Linearize every WT at the power-flow solution and close the farm."""
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
    return assemble_farm(blocks, build_network_matrices(farm))


def closed_loop_via_admittance(blocks: list[WtStateSpace],
                               net: NetworkMatrices) -> np.ndarray:
    """A_s through the admittance form A + B Y^-1 C.

    Requires Z invertible; used as an independent cross-check of the primary
    closure.
    """
    a, b, c = _stack_blocks(blocks)
    try:
        y = np.linalg.inv(net.z)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("Z is singular; admittance form unavailable") from exc
    return a + b @ np.linalg.solve(y, c)
