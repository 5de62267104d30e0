"""Farm data model, description-file ingestion, and collector-network matrices.

The farm is a radial-or-meshed collector network of series branches tying
wind-turbine terminals to a point of interconnection (POI), which connects to
an infinite bus through a Thevenin branch.  All network quantities are held in
per-unit on (bases.s_wt_mva, bases.v_coll_kv).  Zero-impedance branches are
legal and are handled by merging their end nodes before any matrix is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator


class FarmFileError(ValueError):
    """Farm description file cannot be parsed or violates the schema."""


class FarmValidationError(ValueError):
    """Parsed farm violates a structural invariant."""


class SingularNetworkError(RuntimeError):
    """Collector network has no usable electrical path to the infinite bus."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class PerUnitBases:
    """Per-unit bases shared by the whole farm."""

    s_wt_mva: float          # per-turbine capacity base
    v_coll_kv: float         # collector voltage base, line-line
    f_grid_hz: float = 50.0
    u_dc_base_kv: float = 1.2

    @property
    def omega_grid(self) -> float:
        return 2.0 * np.pi * self.f_grid_hz

    @property
    def z_base_ohm(self) -> float:
        return self.v_coll_kv**2 / self.s_wt_mva


@dataclass(frozen=True)
class WtParams:
    """Parameters of one turbine (or one aggregated machine).

    Per-unit quantities are on the machine's own capacity base, which is
    `s_mva` when set and the farm's per-turbine base otherwise.
    """

    id: str
    p_m0: float              # steady mechanical power, p.u.
    c_dc: float              # DC-link capacitance, farad
    u_dc0: float             # steady DC voltage, p.u.
    kp_dvc: float
    ki_dvc: float
    kp_pll: float = 60.0
    ki_pll: float = 1400.0
    s_mva: float | None = None

    def capacity_mva(self, bases: PerUnitBases) -> float:
        return self.s_mva if self.s_mva is not None else bases.s_wt_mva

    def capacity_ratio(self, bases: PerUnitBases) -> float:
        """Machine capacity over the system (per-turbine) base."""
        return self.capacity_mva(bases) / bases.s_wt_mva


@dataclass(frozen=True)
class Branch:
    from_bus: str
    to_bus: str
    length_km: float
    r_ohm_per_km: float
    l_h_per_km: float


@dataclass(frozen=True)
class GridThevenin:
    """Per-unit Thevenin impedance between the POI and the infinite bus."""

    r_pu: float
    l_pu: float


@dataclass(frozen=True)
class FarmDescription:
    bases: PerUnitBases
    buses: tuple[str, ...]
    poi: str
    branches: tuple[Branch, ...]
    wts: tuple[tuple[WtParams, str], ...]   # (params, terminal bus id)
    grid: GridThevenin

    @property
    def n_wt(self) -> int:
        return len(self.wts)

    @property
    def wt_ids(self) -> tuple[str, ...]:
        return tuple(wt.id for wt, _ in self.wts)

    def validate(self) -> None:
        # json reads NaN and Infinity, and integers of any size; all pass
        # the schema, a NaN makes every comparison below False, and an
        # integer beyond the float range fails in the first float operation
        for where, rec in [("bases", self.bases), ("grid", self.grid),
                           *((f"branch {br.from_bus!r}-{br.to_bus!r}", br)
                             for br in self.branches),
                           *((f"WT {wt.id!r}", wt) for wt, _ in self.wts)]:
            for f in fields(rec):
                value = getattr(rec, f.name)
                if isinstance(value, (int, float)) and not _finite(value):
                    shown = (value if isinstance(value, float)
                             else "an integer beyond the float range")
                    raise FarmValidationError(
                        f"{where}: {f.name} must be finite, got {shown}")
        b = self.bases
        if min(b.s_wt_mva, b.v_coll_kv, b.f_grid_hz, b.u_dc_base_kv) <= 0:
            raise FarmValidationError("per-unit bases must be strictly positive")
        if len(set(self.buses)) != len(self.buses):
            raise FarmValidationError("duplicate bus ids")
        if self.poi not in self.buses:
            raise FarmValidationError(f"POI bus {self.poi!r} not in bus list")
        bus_set = set(self.buses)
        for br in self.branches:
            if br.from_bus == br.to_bus:
                raise FarmValidationError(
                    f"self-loop branch at {br.from_bus!r}")
            if br.from_bus not in bus_set or br.to_bus not in bus_set:
                raise FarmValidationError(
                    f"branch {br.from_bus!r}-{br.to_bus!r} references unknown bus")
            if br.length_km < 0 or br.r_ohm_per_km < 0 or br.l_h_per_km < 0:
                raise FarmValidationError("branch parameters must be >= 0")
        ids = self.wt_ids
        if len(set(ids)) != len(ids):
            raise FarmValidationError("duplicate WT ids")
        for wt, bus in self.wts:
            if bus not in bus_set:
                raise FarmValidationError(f"WT {wt.id!r} on unknown bus {bus!r}")
            if not (0.0 < wt.p_m0 <= 1.0):
                raise FarmValidationError(f"WT {wt.id!r}: p_m0 must be in (0, 1]")
            if wt.c_dc <= 0 or wt.u_dc0 <= 0:
                raise FarmValidationError(f"WT {wt.id!r}: c_dc and u_dc0 must be > 0")
            if min(wt.kp_dvc, wt.ki_dvc, wt.kp_pll, wt.ki_pll) <= 0:
                raise FarmValidationError(f"WT {wt.id!r}: controller gains must be > 0")
            if wt.s_mva is not None and wt.s_mva <= 0:
                raise FarmValidationError(f"WT {wt.id!r}: s_mva must be > 0")
        if self.grid.r_pu < 0 or self.grid.l_pu < 0:
            raise FarmValidationError("grid Thevenin impedance must be >= 0")
        # connectivity: every bus reachable from the POI through branches
        adj: dict[str, set[str]] = {bus: set() for bus in self.buses}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {self.poi}
        stack = [self.poi]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreachable = bus_set - seen
        if unreachable:
            raise FarmValidationError(
                f"buses not connected to the POI: {sorted(unreachable)}")


def _finite(value: int | float) -> bool:
    """Whether `float(value)` is finite; a huge int overflows instead."""
    try:
        return bool(np.isfinite(float(value)))
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# description files

_SCHEMA = json.loads(
    resources.files("wfdem").joinpath("farm_schema.json").read_text())
_VALIDATOR = Draft7Validator(_SCHEMA)


# file keys that differ from their dataclass field names
_KEY_OF = {"p_m0": "p_m0_pu", "c_dc": "c_dc_f", "u_dc0": "u_dc0_pu"}


def _record(obj) -> dict:
    """A dataclass's fields under their file keys, leaving out None ones."""
    return {_KEY_OF.get(f.name, f.name): getattr(obj, f.name)
            for f in fields(obj) if getattr(obj, f.name) is not None}


def _from_record(cls, rec: dict):
    """Inverse of `_record`; an absent key takes the field default."""
    return cls(**{f.name: rec[key] for f in fields(cls)
                  if (key := _KEY_OF.get(f.name, f.name)) in rec})


def farm_to_dict(farm: FarmDescription,
                 provenance: dict | None = None) -> dict:
    doc = {
        "bases": _record(farm.bases),
        "buses": [
            {"id": bus, "poi": True} if bus == farm.poi else {"id": bus}
            for bus in farm.buses
        ],
        "branches": [_record(br) for br in farm.branches],
        "wts": [{"bus": bus, **_record(wt)} for wt, bus in farm.wts],
        "grid": _record(farm.grid),
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def farm_from_dict(doc: dict) -> FarmDescription:
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        where = "/".join(str(p) for p in errors[0].path) or "<root>"
        raise FarmFileError(f"farm description rejected at {where}: "
                            f"{errors[0].message}")
    poi = [b["id"] for b in doc["buses"] if b.get("poi")]
    if len(poi) != 1:
        raise FarmValidationError(
            f"exactly one bus must be flagged as POI, found {len(poi)}")
    farm = FarmDescription(
        bases=_from_record(PerUnitBases, doc["bases"]),
        buses=tuple(b["id"] for b in doc["buses"]),
        poi=poi[0],
        branches=tuple(_from_record(Branch, b) for b in doc["branches"]),
        wts=tuple((_from_record(WtParams, w), w["bus"]) for w in doc["wts"]),
        grid=_from_record(GridThevenin, doc["grid"]),
    )
    farm.validate()
    return farm


def load_farm(path: str | Path) -> FarmDescription:
    """Load and validate a farm description file (JSON)."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FarmFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FarmFileError(f"{path} is not valid JSON: {exc}") from exc
    return farm_from_dict(doc)


def save_farm(farm: FarmDescription, path: str | Path,
              provenance: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(farm_to_dict(farm, provenance), indent=2, sort_keys=True)
        + "\n")


# ---------------------------------------------------------------------------
# nodal network

SOURCE = "__infinite_bus__"


@dataclass(frozen=True)
class NodalNetwork:
    """Complex nodal system after merging zero-impedance ties.

    Nodes 0..n-1 are the merged farm nodes that are *not* electrically
    identical to the infinite bus; the source is held separately.  `y_red` is
    the nodal admittance with the source grounded and `y_src` the (positive)
    admittance tying each node to the source, so injections I at the nodes
    with source voltage E satisfy  y_red @ V = I + y_src * E.
    """

    node_of: dict[str, int]          # bus id -> node index, -1 if merged w/ source
    n_nodes: int
    y_red: np.ndarray                # complex (n, n)
    y_src: np.ndarray                # complex (n,)
    branch_z: tuple[complex, ...]    # per farm branch, p.u. (may be 0)
    grid_z: complex


def _branch_impedance_pu(br: Branch, bases: PerUnitBases) -> complex:
    z_ohm = (br.r_ohm_per_km + 1j * bases.omega_grid * br.l_h_per_km) \
        * br.length_km
    return z_ohm / bases.z_base_ohm


def nodal_network(farm: FarmDescription) -> NodalNetwork:
    grid_z = complex(farm.grid.r_pu, farm.grid.l_pu)
    branch_z = tuple(_branch_impedance_pu(br, farm.bases)
                     for br in farm.branches)

    parent: dict[str, str] = {bus: bus for bus in farm.buses}
    parent[SOURCE] = SOURCE

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the source as its own root so it never disappears
            if rb == SOURCE:
                ra, rb = rb, ra
            parent[rb] = ra

    for br, z in zip(farm.branches, branch_z):
        if z == 0:
            union(br.from_bus, br.to_bus)
    if grid_z == 0:
        union(SOURCE, farm.poi)

    src_root = find(SOURCE)
    roots = sorted({find(bus) for bus in farm.buses} - {src_root})
    index = {root: k for k, root in enumerate(roots)}
    node_of = {bus: index.get(find(bus), -1) for bus in farm.buses}

    n = len(roots)
    y_red = np.zeros((n, n), dtype=complex)
    y_src = np.zeros(n, dtype=complex)

    def stamp(i: int, j: int, y: complex) -> None:
        if i == j:
            return   # both ends merged; branch is internal to a node
        for a, b in ((i, j), (j, i)):
            if a >= 0:
                y_red[a, a] += y
                if b >= 0:
                    y_red[a, b] -= y
                else:
                    y_src[a] += y

    for br, z in zip(farm.branches, branch_z):
        if z != 0:
            stamp(node_of[br.from_bus], node_of[br.to_bus], 1.0 / z)
    if grid_z != 0:
        poi_node = node_of[farm.poi]
        y_red[poi_node, poi_node] += 1.0 / grid_z
        y_src[poi_node] += 1.0 / grid_z

    return NodalNetwork(node_of=node_of, n_nodes=n, y_red=y_red,
                        y_src=y_src, branch_z=branch_z, grid_z=grid_z)


# ---------------------------------------------------------------------------
# network matrices for assembly


@dataclass(frozen=True)
class NetworkMatrices:
    """Quasi-static collector matrices over the WT terminal ports.

    `z` maps WT current-injection deviations (positive toward the grid) to WT
    terminal-voltage deviations with the infinite bus held fixed.  The
    network is series-only, so with the injections held fixed an
    infinite-bus voltage deviation shifts every terminal and the POI one to
    one.  2x2 blocks are in the XY frame.
    """

    z: np.ndarray          # real (2N, 2N)
    z_poi: np.ndarray      # real (2, 2N): POI voltage response to injections
    grid_block: np.ndarray  # real (2, 2), Thevenin branch impedance
    wt_order: tuple[str, ...]


def xy_block(z: complex) -> np.ndarray:
    """2x2 XY-frame block of a complex impedance (or any phasor gain)."""
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


def _expand_blocks(zc: np.ndarray) -> np.ndarray:
    rows, cols = zc.shape
    out = np.zeros((2 * rows, 2 * cols))
    out[0::2, 0::2] = zc.real
    out[1::2, 1::2] = zc.real
    out[0::2, 1::2] = -zc.imag
    out[1::2, 0::2] = zc.imag
    return out


def build_network_matrices(farm: FarmDescription) -> NetworkMatrices:
    """Kron-reduce the collector network to the WT terminal ports."""
    net = nodal_network(farm)
    n_wt = farm.n_wt

    if net.n_nodes:
        try:
            z_nodes = np.linalg.inv(net.y_red)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(
                "collector admittance is singular; no path to the infinite "
                "bus") from exc
        if not np.all(np.isfinite(z_nodes)):
            raise SingularNetworkError("collector impedance is not finite")
    else:
        z_nodes = np.zeros((0, 0), dtype=complex)

    # ports: the WT terminals, then the POI; a port pinned to the source
    # (node -1) keeps a zero impedance row and column
    ports = np.array([net.node_of[bus] for _, bus in farm.wts]
                     + [net.node_of[farm.poi]])
    live = ports >= 0
    z_ports = np.zeros((n_wt + 1, n_wt + 1), dtype=complex)
    z_ports[np.ix_(live, live)] = z_nodes[np.ix_(ports[live], ports[live])]
    zc = z_ports[:n_wt, :n_wt]
    poi_c = z_ports[n_wt, :n_wt]

    return NetworkMatrices(
        z=_expand_blocks(zc),
        z_poi=_expand_blocks(poi_c.reshape(1, -1)),
        grid_block=xy_block(net.grid_z),
        wt_order=farm.wt_ids,
    )
