"""Closed-loop farm state space from per-WT blocks and the network matrices.

With block-diagonal (A, B, C) over the WT blocks, which have no
feedthrough, and the collector constraint du = Z di + K de, eliminating the
terminal voltages gives

    A_s = A + B Z C
    B_s = B K

The network is series-only, so K stacks one 2x2 identity per WT and B_s is
the row-stack of the block inputs, and the POI power is one output row
plus a feedthrough.  The closure uses Z, never Y = Z^-1: Kron reduction
always yields Z, while Y does not exist for zero-impedance ties.

No block-diagonal A is formed: `assemble_farm` takes B_s and the POI row
from the dense B and C, frees C once it has Z C and B once it has B (Z C),
and adds each WT's A block into its diagonal block of that product.  So
B, Z C and the product, two n x n arrays' worth, are the most that is live
at once, where B, C, Z C, B Z C and A were.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farm import (FarmDescription, FarmValidationError, NetworkMatrices,
                   build_network_matrices)
from .powerflow import SLACK_E0, BusSolution, PowerflowError
from .wt import STATE_KINDS, WtStateSpace, linearize_wt

StateLabel = tuple[str, str]   # (wt id, state kind)


@dataclass(frozen=True)
class FarmStateSpace:
    """Assembled farm model plus its POI active-power output.

    State k belongs to `labels[k] = (wt id, kind)`.  A source deviation de
    moves the POI power by dP = c_p x + d_p de, where c_p = (u0 + Z_g^T
    i0)^T S and d_p = i0: S sums the WT current maps (di = S x), i0 the
    system-base operating currents, and u0 = e0 + Z_g i0 is the POI
    voltage, so dP = u0 di + i0 du with du = Z_g di + de.

    `a_s` is None in a solved `modal.FarmModel`: the decomposition
    consumed it.  `linear_model` rebuilds it, to the bit.
    """

    a_s: np.ndarray | None   # (4N, 4N)
    b_s: np.ndarray          # (4N, 2)
    labels: tuple[StateLabel, ...]
    wt_order: tuple[str, ...]
    c_p: np.ndarray          # (4N,)
    d_p: np.ndarray          # (2,)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def kind_rows(self, kinds: tuple[str, ...]) -> np.ndarray:
        """Rows of the states of `kinds`, ascending; for one kind, one row
        per WT in `wt_order`."""
        return np.array([k for k, (_, kind) in enumerate(self.labels)
                         if kind in kinds], dtype=int)


def _stack_ports(blocks: list[WtStateSpace],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal (B, C) over the WT blocks, in block order."""
    ns = sum(blk.a.shape[0] for blk in blocks)
    n = len(blocks)
    b = np.zeros((ns, 2 * n))
    c = np.zeros((2 * n, ns))
    row = 0
    for k, blk in enumerate(blocks):
        m = blk.a.shape[0]
        b[row:row + m, 2 * k:2 * k + 2] = blk.b
        c[2 * k:2 * k + 2, row:row + m] = blk.c
        row += m
    return b, c


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

    b, c = _stack_ports(blocks)
    i0 = np.sum([blk.i_xy0_sys for blk in blocks], axis=0)
    u0 = np.array([SLACK_E0.real, SLACK_E0.imag]) + net.grid_block @ i0
    b_s = b.reshape(len(b), n, 2).sum(axis=1)
    c_p = (u0 + net.grid_block.T @ i0) @ c.reshape(n, 2, -1).sum(axis=0)
    zc = net.z @ c
    del c
    a = b @ zc
    del b, zc
    # add the A blocks into B Z C in place: addition commutes, so every
    # entry of a block keeps the bits of blockdiag(A) + B Z C
    row = 0
    for blk in blocks:
        m = len(blk.a)
        a[row:row + m, row:row + m] += blk.a
        row += m

    return FarmStateSpace(a_s=a, b_s=b_s, labels=tuple(labels),
                          wt_order=net.wt_order, c_p=c_p, d_p=i0)


def linear_model(farm: FarmDescription, sol: BusSolution) -> FarmStateSpace:
    """Linearize every WT at its bus voltage in `sol` and close the farm;
    `PowerflowError` names a WT at zero voltage, `FarmValidationError` the
    first WT whose rows overflowed."""
    net = build_network_matrices(farm)
    v = dict(zip(sol.bus_ids, sol.v))
    for wt, bus in farm.wts:
        if v[bus] == 0:
            raise PowerflowError(f"zero terminal voltage at WT {wt.id!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        fss = assemble_farm([linearize_wt(wt, v[bus], farm.bases)
                             for wt, bus in farm.wts], net)
    bad = ~(np.isfinite(fss.a_s).all(1) & np.isfinite(fss.b_s).all(1)
            & np.isfinite(fss.c_p))
    if bad.any():
        raise FarmValidationError(
            f"WT {fss.labels[np.argmax(bad)][0]!r}: linearized model is not "
            "finite; its parameters are out of range")
    return fss
