"""Farm ingestion and collector-network matrices.

The network oracle here is an independent dense nodal solve: assemble the
full complex admittance over every bus plus the source straight from the
description, ground the source, and push unit current injections through it.
"""

import copy
import dataclasses
import importlib.util
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft7Validator

from helpers import ROOT, random_radial_farm, stiff_grid
from oracles import poi_port_impedance
from wfdem.cases import case_farm, identical_zero_network_farm, single_wt_farm
from wfdem.farm import (Branch, FarmDescription, FarmFileError,
                        FarmValidationError, GridThevenin, PerUnitBases,
                        WtParams, build_network_matrices, farm_from_dict,
                        farm_to_dict, load_farm, nodal_network, save_farm,
                        xy_block)
from wfdem.powerflow import solve_powerflow


# ---------------------------------------------------------------------------
# oracle: dense nodal solve with unit injections


def unit_injection_impedance(farm: FarmDescription) -> np.ndarray:
    """Complex WT-port impedance matrix from first principles.

    Sparse-tableau formulation: bus voltages and branch currents are both
    unknowns, so zero-impedance branches are exact (V_a = V_b), not an
    admittance limit.
    """
    omega = 2 * np.pi * farm.bases.f_grid_hz
    zb = farm.bases.v_coll_kv**2 / farm.bases.s_wt_mva
    buses = list(farm.buses) + ["src"]
    bidx = {b: i for i, b in enumerate(buses)}
    nb = len(buses)
    edges = [(bidx[br.from_bus], bidx[br.to_bus],
              (br.r_ohm_per_km + 1j * omega * br.l_h_per_km)
              * br.length_km / zb)
             for br in farm.branches]
    edges.append((bidx[farm.poi], bidx["src"],
                  complex(farm.grid.r_pu, farm.grid.l_pu)))
    ne = len(edges)

    n = nb + ne                      # unknowns: V then I
    a = np.zeros((n, n), dtype=complex)
    for k, (i, j, z) in enumerate(edges):
        a[k, i] += 1.0               # V_i - V_j - z I_k = 0
        a[k, j] -= 1.0
        a[k, nb + k] -= z
    for i in range(nb - 1):          # KCL everywhere but the source
        for k, (fi, ti, _) in enumerate(edges):
            if fi == i:
                a[ne + i, nb + k] += 1.0
            if ti == i:
                a[ne + i, nb + k] -= 1.0
    a[ne + nb - 1, bidx["src"]] = 1.0    # ground the source

    wt_rows = [bidx[bus] for _, bus in farm.wts]
    z_ports = np.zeros((farm.n_wt, farm.n_wt), dtype=complex)
    for col, row in enumerate(wt_rows):
        rhs = np.zeros(n, dtype=complex)
        rhs[ne + row] = 1.0          # unit injection into the bus
        x = np.linalg.solve(a, rhs)
        z_ports[:, col] = x[wt_rows]
    return z_ports


def blocks_to_complex(z: np.ndarray) -> np.ndarray:
    return z[0::2, 0::2] + 1j * z[1::2, 0::2]


# ---------------------------------------------------------------------------
# loading and validation


def test_load_33wt_farm(tmp_path):
    farm = case_farm("a")
    path = tmp_path / "farm.json"
    save_farm(farm, path)
    loaded = load_farm(path)
    assert loaded.n_wt == 33
    assert loaded.bases.s_wt_mva == 1.5
    assert loaded == farm


def test_single_wt_zero_length_link_is_valid(tmp_path):
    farm = single_wt_farm(link_km=0.0)
    path = tmp_path / "one.json"
    save_farm(farm, path)
    assert load_farm(path).n_wt == 1


def test_unreachable_wt_bus_rejected():
    doc = farm_to_dict(single_wt_farm())
    doc["buses"].append({"id": "island"})
    doc["wts"][0]["bus"] = "island"
    with pytest.raises(FarmValidationError, match="not connected"):
        farm_from_dict(doc)


def test_duplicate_wt_ids_rejected():
    wt = WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0)
    farm = FarmDescription(
        bases=PerUnitBases(1.5, 35.0),
        buses=("poi",), poi="poi", branches=(),
        wts=((wt, "poi"), (wt, "poi")),
        grid=GridThevenin(0.001, 0.01))
    with pytest.raises(FarmValidationError, match="duplicate WT"):
        farm.validate()


def test_nonpositive_base_rejected():
    farm = single_wt_farm()
    bad = FarmDescription(
        bases=PerUnitBases(s_wt_mva=-1.5, v_coll_kv=35.0),
        buses=farm.buses, poi=farm.poi, branches=farm.branches,
        wts=farm.wts, grid=farm.grid)
    with pytest.raises(FarmValidationError, match="strictly positive"):
        bad.validate()


@pytest.mark.parametrize("mutate, where", [
    (lambda doc: doc["wts"][0].update(color="teal"), "wts/0"),
    (lambda doc: doc["wts"][0].update(kp_dvc=True), "wts/0/kp_dvc"),
    (lambda doc: doc["wts"][0].update(kp_dvc="1"), "wts/0/kp_dvc"),
    (lambda doc: doc["wts"][0].pop("ki_dvc"), "wts/0"),
    (lambda doc: doc["buses"][1].update(poi="yes"), "buses/1/poi"),
    (lambda doc: doc.update(color="teal"), "<root>"),
], ids=["wt_color", "kp_dvc_true", "kp_dvc_string", "no_ki_dvc", "poi_yes",
        "root_color"])
def test_unknown_key_rejected(tmp_path, mutate, where):
    doc = json.loads((ROOT / "farms" / "case_b.json").read_text())
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FarmFileError, match=re.escape(
            f"farm description rejected at {where}: ")):
        load_farm(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FarmFileError, match="not valid JSON"):
        load_farm(path)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(FarmFileError, match="not valid JSON") as info:
        load_farm(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_json_nested_past_the_recursion_limit_rejected(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(FarmFileError, match="nests JSON too deeply") as info:
        load_farm(path)
    assert isinstance(info.value.__cause__, RecursionError)


def test_two_pois_rejected(tmp_path):
    doc = farm_to_dict(case_farm("a"))
    doc["buses"][1]["poi"] = True
    path = tmp_path / "two_poi.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FarmValidationError, match="exactly one"):
        load_farm(path)


@pytest.mark.parametrize("section, k, key, value, message", [
    ("wts", 4, "c_dc_f", float("nan"), "WT 'wt05': c_dc must be finite"),
    ("wts", 0, "u_dc0_pu", float("inf"), "WT 'wt01': u_dc0 must be finite"),
    ("branches", 1, "length_km", float("inf"),
     "branch 'f1b1'-'f1b2': length_km must be finite"),
    ("wts", 32, "s_mva", float("inf"), "WT 'wt33': s_mva must be finite"),
    ("branches", 1, "length_km", 10**400,
     "branch 'f1b1'-'f1b2': length_km must be finite, got an integer"),
    ("wts", 2, "ki_dvc", -10**400,
     "WT 'wt03': ki_dvc must be finite, got an integer"),
], ids=["c_dc_f", "u_dc0_pu", "length_km", "s_mva", "length_km_int",
        "ki_dvc_int"])
def test_non_finite_numbers_rejected(tmp_path, capsys, section, k, key, value,
                                     message):
    # json writes and reads the literals NaN and Infinity, and integers
    # beyond the float range
    doc = json.loads((ROOT / "farms" / "case_b.json").read_text())
    doc[section][k][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FarmValidationError, match=re.escape(message)):
        load_farm(path)
    from wfdem.cli import main
    assert main(["all", "--farm", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert "error in stage load" in capsys.readouterr().err


def test_self_loop_rejected():
    farm = single_wt_farm(link_km=1.0)
    loop = farm.branches + (Branch("t1", "t1", 1.0, 0.1, 1e-3),)
    bad = FarmDescription(bases=farm.bases, buses=farm.buses, poi=farm.poi,
                          branches=loop, wts=farm.wts, grid=farm.grid)
    with pytest.raises(FarmValidationError, match="self-loop"):
        bad.validate()


def test_optional_keys_take_the_field_defaults(tmp_path):
    doc = {
        "bases": {"s_wt_mva": 2.0, "v_coll_kv": 33.0},
        "buses": [{"id": "poi", "poi": True}],
        "branches": [],
        "wts": [{"id": "wt01", "bus": "poi", "p_m0_pu": 0.9, "c_dc_f": 0.09,
                 "u_dc0_pu": 1.0, "kp_dvc": 1.0, "ki_dvc": 300.0}],
        "grid": {"r_pu": 0.001, "l_pu": 0.01},
    }
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(doc))
    farm = load_farm(path)
    assert farm.bases == PerUnitBases(s_wt_mva=2.0, v_coll_kv=33.0)
    wt, bus = farm.wts[0]
    assert bus == "poi"
    assert wt == WtParams(id="wt01", p_m0=0.9, c_dc=0.09, u_dc0=1.0,
                          kp_dvc=1.0, ki_dvc=300.0)
    assert wt.s_mva is None
    assert wt.capacity_mva(farm.bases) == 2.0


def test_s_mva_is_written_only_when_set(tmp_path):
    farm = single_wt_farm()
    save_farm(farm, tmp_path / "plain.json")
    plain = json.loads((tmp_path / "plain.json").read_text())
    assert "s_mva" not in plain["wts"][0]

    wt, bus = farm.wts[0]
    machine = dataclasses.replace(
        farm, wts=((dataclasses.replace(wt, s_mva=4.5), bus),))
    save_farm(machine, tmp_path / "machine.json")
    doc = json.loads((tmp_path / "machine.json").read_text())
    assert doc["wts"][0]["s_mva"] == 4.5
    assert load_farm(tmp_path / "machine.json") == machine


def test_dem_provenance_key_is_loadable(tmp_path):
    path = tmp_path / "dem.json"
    save_farm(single_wt_farm(), path, provenance={"groups": {"0": ["wt01"]}})
    assert load_farm(path).n_wt == 1


# ---------------------------------------------------------------------------
# the codec against the JSON Schema it is documented by

SCHEMA = Draft7Validator(json.loads(
    (ROOT / "tests" / "farm_schema.json").read_text()))
FUZZED = {name: json.loads((ROOT / "farms" / f"{name}.json").read_text())
          for name in ("case_b", "single_wt", "zero_network")}
# wrong types, a bool for a number, negatives, NaN, empty strings and lists,
# and values that fit some keys
ODD_VALUES = ["1", "", True, False, None, -1, -0.5, 0, 2.5, float("nan"),
              [], {}, ["poi"], "poi", "wt01"]


def json_paths(node, path=()):
    """Every path into a JSON document, the root's () included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=300)
@given(st.sampled_from(sorted(FUZZED)),
       st.sampled_from(["drop", "add", "set", "negate", "empty",
                        "provenance"]),
       st.sampled_from(ODD_VALUES), st.data())
def test_codec_rejects_what_the_schema_rejects(name, how, value, data):
    """Whatever the schema rejects fails to load; whatever it accepts loads
    or fails only on a value out of range."""
    doc = copy.deepcopy(FUZZED[name])

    def draw_path(usable):
        # depth first, so that the few shallow paths, which hold the
        # document's structure, come up as often as the many deep ones
        paths = [p for p in json_paths(doc) if usable(p)]
        depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
        return data.draw(st.sampled_from(
            [p for p in paths if len(p) == depth]))

    if how == "drop":
        path = draw_path(lambda p: p and isinstance(at(doc, p[:-1]), dict))
        del at(doc, path[:-1])[path[-1]]
    elif how == "add":
        path = draw_path(lambda p: isinstance(at(doc, p), dict))
        at(doc, path)["color"] = value
    elif how == "set":
        path = draw_path(bool)
        at(doc, path[:-1])[path[-1]] = value
    elif how == "negate":
        path = draw_path(lambda p: isinstance(at(doc, p), (int, float))
                         and not isinstance(at(doc, p), bool))
        at(doc, path[:-1])[path[-1]] *= -1
    elif how == "empty":
        path = draw_path(lambda p: isinstance(at(doc, p), (str, list)))
        at(doc, path[:-1])[path[-1]] = type(at(doc, path))()
    else:
        doc["provenance"] = value
    if SCHEMA.is_valid(doc):
        try:
            farm_from_dict(doc)
        except FarmValidationError:
            pass   # a bad value or reference, which the schema allows
    else:
        with pytest.raises((FarmFileError, FarmValidationError)):
            farm_from_dict(doc)


def test_shipped_farms_are_what_make_farms_writes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_farms", ROOT / "scripts" / "make_farms.py")
    make_farms = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_farms)
    monkeypatch.setattr(make_farms, "OUT", tmp_path)
    make_farms.main()
    shipped = sorted(p.name for p in (ROOT / "farms").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() \
            == (ROOT / "farms" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# network matrices


def test_single_wt_z_equals_grid_block():
    farm = single_wt_farm(link_km=0.0, grid_r_pu=0.001, grid_l_pu=0.01)
    net = build_network_matrices(farm)
    assert np.allclose(net.z, xy_block(0.001 + 0.01j), atol=1e-15)


def shared_bus_farm() -> FarmDescription:
    """Two WTs on one bus joined to the POI by a zero-length branch."""
    wts = tuple(
        (WtParams(id=f"wt0{k}", p_m0=0.8, c_dc=0.09, u_dc0=1.0,
                  kp_dvc=1.0, ki_dvc=300.0), "shared")
        for k in (1, 2))
    farm = FarmDescription(
        bases=PerUnitBases(1.5, 35.0),
        buses=("poi", "shared"), poi="poi",
        branches=(Branch("poi", "shared", 0.0, 0.1153, 1.05e-3),),
        wts=wts, grid=GridThevenin(0.002, 0.015))
    farm.validate()
    return farm


def meshed_case_b() -> FarmDescription:
    """Case b with a tie between the ends of feeders 1 and 2."""
    farm = case_farm("b")
    tie = Branch("f1b11", "f2b11", 2.0, 0.1153, 1.05e-3)
    farm = dataclasses.replace(farm, branches=farm.branches + (tie,))
    farm.validate()
    return farm


# random_radial_farm seeds that each draw a zero-length span
ZERO_SPAN_SEEDS = (0, 9, 12, 25, 31)


@pytest.mark.parametrize("make", [
    lambda: case_farm("b"), single_wt_farm,
    *(lambda seed=seed: random_radial_farm(seed) for seed in ZERO_SPAN_SEEDS),
    lambda: stiff_grid(case_farm("b")), shared_bus_farm, meshed_case_b],
    ids=["case_b", "single_wt", *(f"radial_{s}" for s in ZERO_SPAN_SEEDS),
         "stiff_case_b", "shared_bus", "meshed_case_b"])
def test_poi_port_is_the_tiled_grid_block(make):
    # the collector meets the source only through the grid tie, so the POI
    # voltage responds to every injection alike: by the grid impedance.
    # The oracle inverts Y_red, whose forward error eps cond(Y_red) bounds;
    # radial_12 (cond 814) differs by 3.0e-14 of its largest entry
    farm = make()
    net = build_network_matrices(farm)
    port = poi_port_impedance(farm)
    tiled = np.tile(net.grid_block, farm.n_wt)
    assert port.shape == tiled.shape
    cond = np.linalg.cond(nodal_network(farm).y_red)
    assert np.abs(port - tiled).max() \
        <= np.finfo(float).eps * cond * np.abs(port).max()


def test_shared_bus_blocks_all_equal_grid_block():
    net = build_network_matrices(shared_bus_farm())
    g = xy_block(0.002 + 0.015j)
    for a in range(2):
        for b in range(2):
            assert np.allclose(net.z[2 * a:2 * a + 2, 2 * b:2 * b + 2], g,
                               atol=1e-15)


def test_three_feeder_farm_matches_unit_injection_oracle():
    farm = case_farm("a")
    net = build_network_matrices(farm)
    oracle = unit_injection_impedance(farm)
    assert np.abs(blocks_to_complex(net.z) - oracle).max() < 1e-10


def test_stiff_grid_farm_matches_unit_injection_oracle():
    # the POI on the infinite bus's node, the 33 collector nodes live
    farm = stiff_grid(case_farm("b"))
    net = build_network_matrices(farm)
    oracle = unit_injection_impedance(farm)
    assert np.abs(blocks_to_complex(net.z) - oracle).max() < 1e-10


@given(st.integers(0, 200))
def test_random_farm_matches_unit_injection_oracle(seed):
    farm = random_radial_farm(seed)
    net = build_network_matrices(farm)
    oracle = unit_injection_impedance(farm)
    assert np.abs(blocks_to_complex(net.z) - oracle).max() < 1e-8


@given(st.integers(0, 200))
def test_xy_block_symmetry(seed):
    z = build_network_matrices(random_radial_farm(seed)).z
    assert np.array_equal(z[0::2, 0::2], z[1::2, 1::2])
    assert np.array_equal(z[0::2, 1::2], -z[1::2, 0::2])


def test_internal_relabeling_leaves_z_unchanged():
    farm = case_farm("a")
    z_ref = build_network_matrices(farm).z

    renamed = {bus: (bus if bus == "poi" else f"node_{bus}")
               for bus in farm.buses}
    shuffled_buses = tuple(sorted((renamed[b] for b in farm.buses)))
    permuted = FarmDescription(
        bases=farm.bases,
        buses=("poi",) + tuple(b for b in shuffled_buses if b != "poi"),
        poi="poi",
        branches=tuple(Branch(renamed[br.from_bus], renamed[br.to_bus],
                              br.length_km, br.r_ohm_per_km, br.l_h_per_km)
                       for br in reversed(farm.branches)),
        wts=tuple((wt, renamed[bus]) for wt, bus in farm.wts),
        grid=farm.grid)
    permuted.validate()
    assert np.allclose(build_network_matrices(permuted).z, z_ref,
                       atol=1e-14)


def test_any_bus_id_is_an_ordinary_bus():
    # the infinite bus has no id, so no bus id can merge with it
    farm = case_farm("b")
    name = {"f1b1": "__infinite_bus__"}
    relabeled = dataclasses.replace(
        farm, buses=tuple(name.get(bus, bus) for bus in farm.buses),
        branches=tuple(dataclasses.replace(
            br, from_bus=name.get(br.from_bus, br.from_bus),
            to_bus=name.get(br.to_bus, br.to_bus)) for br in farm.branches),
        wts=tuple((wt, name.get(bus, bus)) for wt, bus in farm.wts))
    relabeled.validate()
    assert np.allclose(build_network_matrices(relabeled).z,
                       build_network_matrices(farm).z, atol=1e-14)
    assert np.allclose(solve_powerflow(relabeled).v, solve_powerflow(farm).v,
                       rtol=0, atol=1e-14)


ZERO_NETWORK = load_farm(ROOT / "farms" / "zero_network.json")


@pytest.mark.parametrize("farm, n_nodes, at_source", [
    (ZERO_NETWORK, 0, set(ZERO_NETWORK.buses)),
    (stiff_grid(case_farm("b")), 33, {"poi"}),
], ids=["zero_network", "stiff_case_b"])
def test_the_infinite_bus_is_node_n(farm, n_nodes, at_source):
    """Farm nodes are 0..n-1; a bus merged with the infinite bus maps to n."""
    net = nodal_network(farm)
    assert net.n_nodes == n_nodes
    assert sorted(set(net.node_of.values())) == list(range(n_nodes + 1))
    assert {bus for bus, node in net.node_of.items()
            if node == n_nodes} == at_source
    assert net.y_red.shape == (n_nodes, n_nodes)
    assert net.y_src.shape == (n_nodes,)


def test_k_src_matches_admittance_oracle():
    # -Y_red^-1 Y_rs is the one-to-one source tie that assembly assumes
    farm = case_farm("a")
    net = nodal_network(farm)
    k = np.linalg.solve(net.y_red, net.y_src)
    assert np.abs(k - 1.0).max() < 1e-9


def test_zero_impedance_network_gives_zero_z():
    farm = identical_zero_network_farm(4)
    net = build_network_matrices(farm)
    assert np.array_equal(net.z, np.zeros((8, 8)))
    assert np.array_equal(net.grid_block, np.zeros((2, 2)))
