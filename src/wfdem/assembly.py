"""Closed-loop farm state space from per-WT blocks and the network matrices.

With block-diagonal (A, B, C) over the WT blocks, which have no
feedthrough, and the collector constraint du = Z di + K de, eliminating the
terminal voltages gives

    A_s = A + B Z C
    B_s = B K

The network is series-only, so K stacks one 2x2 identity per WT and B_s is
the row-stack of the block inputs.  The closure uses Z, never Y = Z^-1:
Kron reduction always yields Z, while Y does not exist for zero-impedance
ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farm import FarmDescription, NetworkMatrices, build_network_matrices
from .powerflow import SLACK_E0, BusSolution, wt_operating_point
from .wt import STATE_KINDS, WtStateSpace, linearize_wt

StateLabel = tuple[str, str]   # (wt id, state kind)


@dataclass(frozen=True)
class FarmStateSpace:
    """Assembled farm model plus the output map to the POI.

    State k belongs to `labels[k] = (wt id, kind)`.  `c_poi @ x` gives the
    system-base POI current deviation (rows 0-1) and POI voltage deviation
    with the source held fixed (rows 2-3).  POI quantities use the stored
    operating point so power deviations can be reconstructed.
    """

    a_s: np.ndarray          # (4N, 4N)
    b_s: np.ndarray          # (4N, 2)
    labels: tuple[StateLabel, ...]
    wt_order: tuple[str, ...]
    c_poi: np.ndarray        # (4, 4N)
    u_poi0: np.ndarray       # (2,)
    i_poi0: np.ndarray       # (2,)

    @property
    def n_states(self) -> int:
        return self.a_s.shape[0]

    def kind_rows(self, kinds: tuple[str, ...]) -> np.ndarray:
        """Rows of the states of `kinds`, ascending; for one kind, one row
        per WT in `wt_order`."""
        return np.array([k for k, (_, kind) in enumerate(self.labels)
                         if kind in kinds], dtype=int)


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
    labels = [(blk.wt_id, kind) for blk in blocks for kind in STATE_KINDS]
    if len(set(labels)) != len(labels):
        raise ValueError("state labels are not unique")

    a, b, c = _stack_blocks(blocks)
    a += b @ (net.z @ c)
    i_poi0 = np.sum([blk.i_xy0_sys for blk in blocks], axis=0)
    e0 = np.array([SLACK_E0.real, SLACK_E0.imag])
    u_poi0 = e0 + net.grid_block @ i_poi0

    return FarmStateSpace(
        a_s=a,
        b_s=b.reshape(len(b), n, 2).sum(axis=1),
        labels=tuple(labels),
        wt_order=net.wt_order,
        c_poi=np.vstack([c.reshape(n, 2, -1).sum(axis=0), net.z_poi @ c]),
        u_poi0=u_poi0,
        i_poi0=i_poi0,
    )


def linear_model(farm: FarmDescription, sol: BusSolution) -> FarmStateSpace:
    """Linearize every WT at the power-flow solution and close the farm."""
    blocks = [linearize_wt(wt, wt_operating_point(sol, wt), farm.bases)
              for wt, _ in farm.wts]
    return assemble_farm(blocks, build_network_matrices(farm))
