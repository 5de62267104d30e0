"""Farm data model, description-file ingestion, and collector-network matrices.

The farm is a radial-or-meshed collector network of series branches tying
wind-turbine terminals to a point of interconnection (POI), which connects to
an infinite bus through a Thevenin branch.  All network quantities are held in
per-unit on (bases.s_wt_mva, bases.v_coll_kv).  Zero-impedance branches are
legal and are handled by merging their end nodes before any matrix is built.
The nodal network numbers the n merged farm nodes 0..n-1 and the infinite bus
n, so a bus merged with the infinite bus (through a zero grid tie) is node n.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .gridcsv import write_json


class FarmFileError(ValueError):
    """Farm file is unreadable, or has a missing, unknown or mistyped key."""


class FarmValidationError(ValueError):
    """Parsed farm violates a structural invariant or overflows its model."""


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

    def p_system(self, bases: PerUnitBases) -> float:
        """Steady active-power injection on the system (per-turbine) base."""
        return self.p_m0 * self.capacity_ratio(bases)


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
        # json loads NaN, Infinity and huge ints; NaN fails no test below
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

# file keys that differ from their dataclass field names
_KEY_OF = {"p_m0": "p_m0_pu", "c_dc": "c_dc_f", "u_dc0": "u_dc0_pu"}


def _record(obj) -> dict:
    """A dataclass's fields under their file keys, leaving out None ones."""
    return {_KEY_OF.get(f.name, f.name): getattr(obj, f.name)
            for f in fields(obj) if getattr(obj, f.name) is not None}


def _rejected(where: str, what: str) -> FarmFileError:
    return FarmFileError(
        f"farm description rejected at {where or '<root>'}: {what}")


def _checked(rec, where: str, spec: dict[str, tuple[type | tuple, bool]]):
    """`rec` if it is an object with the keys of `spec`: (type, required)."""
    if not isinstance(rec, dict):
        raise _rejected(where, f"expected dict, got {rec!r}")
    for key in {**spec, **rec}:
        if key not in spec or spec[key][1] and key not in rec:
            raise _rejected(where, ("unknown" if key not in spec
                                    else "missing") + f" key {key!r}")
    for key, value in rec.items():
        kind = spec[key][0]
        # bool is an int to Python, but a JSON true is not a number
        if not isinstance(value, kind) or type(value) is bool is not kind:
            raise _rejected(f"{where}/{key}".lstrip("/"), f"expected "
                            f"{getattr(kind, '__name__', 'number')}, got {value!r}")
    if rec.get("id") == "":
        raise _rejected(f"{where}/id", "empty id")
    return rec


def _from_record(cls, rec, where: str, *extra: str):
    """Inverse of `_record`, once `rec` holds the fields of `cls` (a field
    that is not a str holds a number) and the required string keys `extra`."""
    keyed = {_KEY_OF.get(f.name, f.name): f for f in fields(cls)}
    _checked(rec, where, dict.fromkeys(extra, (str, True)) | {
        key: (str if f.type == "str" else (int, float), f.default is MISSING)
        for key, f in keyed.items()})
    return cls(**{f.name: rec[key] for key, f in keyed.items() if key in rec})


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
    _checked(doc, "", {"bases": (dict, True), "buses": (list, True),
                       "branches": (list, True), "wts": (list, True),
                       "grid": (dict, True), "provenance": (dict, False)})
    for key in ("buses", "wts"):
        if not doc[key]:
            raise _rejected(key, "empty list")
    buses = [_checked(b, f"buses/{k}", {"id": (str, True), "poi": (bool, False)})
             for k, b in enumerate(doc["buses"])]
    bases = _from_record(PerUnitBases, doc["bases"], "bases")
    branches = tuple(_from_record(Branch, b, f"branches/{k}")
                     for k, b in enumerate(doc["branches"]))
    wts = tuple((_from_record(WtParams, w, f"wts/{k}", "bus"), w["bus"])
                for k, w in enumerate(doc["wts"]))
    grid = _from_record(GridThevenin, doc["grid"], "grid")
    poi = [b["id"] for b in buses if b.get("poi")]
    if len(poi) != 1:
        raise FarmValidationError(
            f"exactly one bus must be flagged as POI, found {len(poi)}")
    farm = FarmDescription(bases=bases, buses=tuple(b["id"] for b in buses),
                           poi=poi[0], branches=branches, wts=wts, grid=grid)
    farm.validate()
    return farm


def load_farm(path: str | Path) -> FarmDescription:
    """Load and validate a farm description file (JSON)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FarmFileError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FarmFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FarmFileError(f"{path} nests JSON too deeply: {exc}") from exc
    return farm_from_dict(doc)


def save_farm(farm: FarmDescription, path: str | Path,
              provenance: dict | None = None) -> None:
    write_json(path, farm_to_dict(farm, provenance))


# ---------------------------------------------------------------------------
# nodal network


@dataclass(frozen=True)
class NodalNetwork:
    """Complex nodal system after merging zero-impedance ties.

    Nodes 0..n-1 are the merged farm nodes that are *not* electrically
    identical to the infinite bus, and node n is the infinite bus itself:
    every bus merged with it maps to n.  `y_red` is the nodal admittance with
    the source grounded and `y_src` the (positive) admittance tying each node
    to the source, so injections I at the nodes with source voltage E satisfy
    y_red @ V = I + y_src * E.
    """

    node_of: dict[str, int]          # bus id -> node index, n if merged w/ source
    n_nodes: int
    y_red: np.ndarray                # complex (n, n)
    y_src: np.ndarray                # complex (n,)
    grid_z: complex


def _branch_impedance_pu(br: Branch, bases: PerUnitBases) -> complex:
    z_ohm = (br.r_ohm_per_km + 1j * bases.omega_grid * br.l_h_per_km) \
        * br.length_km
    return z_ohm / bases.z_base_ohm


def nodal_network(farm: FarmDescription) -> NodalNetwork:
    grid_z = complex(farm.grid.r_pu, farm.grid.l_pu)
    branch_z = tuple(_branch_impedance_pu(br, farm.bases)
                     for br in farm.branches)

    # None keys the infinite bus, as no bus id can equal it
    parent: dict[str | None, str | None] = {bus: bus for bus in farm.buses}
    parent[None] = None

    def find(x: str | None) -> str | None:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str | None, b: str) -> None:
        parent[find(b)] = find(a)

    for br, z in zip(farm.branches, branch_z):
        if z == 0:
            union(br.from_bus, br.to_bus)
    if grid_z == 0:
        union(None, farm.poi)

    src_root = find(None)
    roots = sorted({find(bus) for bus in farm.buses} - {src_root})
    n = len(roots)
    index = {root: k for k, root in enumerate(roots)} | {src_root: n}
    node_of = {bus: index[find(bus)] for bus in farm.buses}

    y = np.zeros((n + 1, n + 1), dtype=complex)

    def stamp(i: int, j: int, y_ij: complex) -> None:
        if i != j:   # both ends merged: the branch is internal to a node
            y[i, i] += y_ij
            y[j, j] += y_ij
            y[i, j] -= y_ij
            y[j, i] -= y_ij

    for br, z in zip(farm.branches, branch_z):
        if z != 0:
            stamp(node_of[br.from_bus], node_of[br.to_bus], 1.0 / z)
    if grid_z != 0:
        stamp(node_of[farm.poi], n, 1.0 / grid_z)

    # 0 - y, not -y, so a node with no tie to the source keeps y_src = +0
    return NodalNetwork(node_of=node_of, n_nodes=n, y_red=y[:n, :n],
                        y_src=0.0 - y[:n, n], grid_z=grid_z)


# ---------------------------------------------------------------------------
# network matrices for assembly


@dataclass(frozen=True)
class NetworkMatrices:
    """Quasi-static collector matrices over the WT terminal ports.

    `z` maps WT current-injection deviations (positive toward the grid) to WT
    terminal-voltage deviations with the infinite bus held fixed.  The
    network is series-only, so with the injections held fixed an
    infinite-bus voltage deviation shifts every terminal and the POI one to
    one; with the source fixed, the POI deviates by `grid_block` times the
    summed injections.  2x2 blocks are in the XY frame.
    """

    z: np.ndarray          # real (2N, 2N)
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
    """Kron-reduce the collector network to the WT terminal ports alone:
    the POI needs no port, as the grid tie fixes its voltage."""
    net = nodal_network(farm)

    try:
        z_nodes = np.linalg.inv(net.y_red)
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError(
            "collector admittance is singular; no path to the infinite "
            "bus") from exc
    if not np.all(np.isfinite(z_nodes)):
        raise SingularNetworkError("collector impedance is not finite")
    # the source's row and column, node n, hold the zero impedance of a port
    # pinned to the infinite bus
    z_all = np.pad(z_nodes, (0, 1))

    ports = [net.node_of[bus] for _, bus in farm.wts]
    return NetworkMatrices(
        z=_expand_blocks(z_all[np.ix_(ports, ports)]),
        grid_block=xy_block(net.grid_z),
        wt_order=farm.wt_ids,
    )
