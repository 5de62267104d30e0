from wfdem import cases
from wfdem.farm import farm_to_dict, load_farm, save_farm

import farmgen


def test_same_seed_same_farm():
    a, ga = farmgen.ladder_farm(4, 5, seed=7, planted=True)
    b, gb = farmgen.ladder_farm(4, 5, seed=7, planted=True)
    assert farm_to_dict(a) == farm_to_dict(b)
    assert ga == gb


def test_other_seed_other_farm():
    a, _ = farmgen.ladder_farm(4, 5, seed=7, planted=False)
    b, _ = farmgen.ladder_farm(4, 5, seed=8, planted=False)
    assert farm_to_dict(a) != farm_to_dict(b)


def test_planted_groups_set_the_gains():
    farm, groups = farmgen.ladder_farm(10, 30, seed=3, planted=True)
    assert farm.n_wt == 300 and len(farm.buses) == 301
    assert set(groups.values()) == {0, 1, 2}
    for wt, _ in farm.wts:
        assert wt.kp_dvc == farmgen.PLANTED_KP[groups[wt.id]]
        assert wt.ki_dvc == farmgen.PLANTED_KI
        assert farmgen.P_M0_RANGE[0] <= wt.p_m0 <= farmgen.P_M0_RANGE[1]


def test_free_gains_have_no_groups():
    farm, groups = farmgen.ladder_farm(10, 10, seed=3, planted=False)
    assert groups == {}
    kp = {wt.kp_dvc for wt, _ in farm.wts}
    assert len(kp) == farm.n_wt
    for wt, _ in farm.wts:
        assert farmgen.FREE_KP_RANGE[0] <= wt.kp_dvc <= farmgen.FREE_KP_RANGE[1]
        assert farmgen.FREE_KI_RANGE[0] <= wt.ki_dvc <= farmgen.FREE_KI_RANGE[1]


def test_3x11_ladder_is_the_study_layout():
    farm, _ = farmgen.ladder_farm(3, 11, seed=0, planted=True)
    study = cases.case_farm("b")
    assert farm.buses == study.buses
    assert farm.branches == study.branches
    assert farm.grid == study.grid
    assert farm.wt_ids == study.wt_ids


def test_written_farm_passes_the_schema(tmp_path):
    farm, _ = farmgen.ladder_farm(2, 3, seed=1, planted=False)
    save_farm(farm, tmp_path / "f.json")
    assert farm_to_dict(load_farm(tmp_path / "f.json")) == farm_to_dict(farm)
