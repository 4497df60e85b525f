"""Dataset generators: protocol fidelity, labels, reproducibility."""

import numpy as np
import pytest

from repro.core.records import SignalRecord
from repro.datasets import (
    GeofenceDataset,
    generate_dataset,
    mall_dataset,
    remove_macs,
    uji_building_split,
    uji_like_dataset,
    user_dataset,
    user_scenario,
)
from repro.datasets.users import USER_SPECS
from repro.rf.scenarios import home_scenario


@pytest.fixture(scope="module")
def small_dataset():
    scenario = home_scenario(area_m2=30.0, seed=2)
    return generate_dataset(scenario, seed=3, train_duration_s=120,
                            test_sessions=4, session_duration_s=30)


class TestGenerateDataset:
    def test_training_labels_all_inside(self, small_dataset):
        env = small_dataset.scenario.environment
        for record in small_dataset.train:
            x, y, floor = record.position
            assert env.is_inside((x, y), floor)

    def test_test_labels_match_geometry(self, small_dataset):
        env = small_dataset.scenario.environment
        for item in small_dataset.test:
            x, y, floor = item.record.position
            assert item.inside == env.is_inside((x, y), floor)

    def test_both_classes_present(self, small_dataset):
        fraction = sum(item.inside for item in small_dataset.test) / len(small_dataset.test)
        assert 0.2 < fraction < 0.8

    def test_stream_is_time_ordered(self, small_dataset):
        times = [item.record.timestamp for item in small_dataset.test]
        assert times == sorted(times)

    def test_test_starts_after_training(self, small_dataset):
        assert small_dataset.test[0].record.timestamp > \
            small_dataset.train[-1].timestamp

    def test_reproducible(self):
        scenario = home_scenario(area_m2=30.0, seed=2)
        a = generate_dataset(scenario, seed=3, train_duration_s=60,
                             test_sessions=2, session_duration_s=20)
        b = generate_dataset(home_scenario(area_m2=30.0, seed=2), seed=3,
                             train_duration_s=60, test_sessions=2,
                             session_duration_s=20)
        assert [r.readings for r in a.train] == [r.readings for r in b.train]

    def test_invalid_sessions(self):
        with pytest.raises(ValueError):
            generate_dataset(home_scenario(seed=0), test_sessions=0)

    def test_num_macs_seen(self, small_dataset):
        assert small_dataset.num_macs_seen > 0


class TestRemoveMacs:
    def test_train_removal_leaves_test(self, small_dataset):
        pruned = remove_macs(small_dataset, 0.3, seed=0, which="train")
        before = set().union(*[r.macs for r in small_dataset.train])
        after = set().union(*[r.macs for r in pruned.train])
        assert len(after) < len(before)
        assert [item.record.readings for item in pruned.test] == \
            [item.record.readings for item in small_dataset.test]

    def test_test_removal_leaves_train(self, small_dataset):
        pruned = remove_macs(small_dataset, 0.3, seed=0, which="test")
        assert [r.readings for r in pruned.train] == \
            [r.readings for r in small_dataset.train]

    def test_zero_fraction_noop(self, small_dataset):
        pruned = remove_macs(small_dataset, 0.0, seed=0)
        assert [r.readings for r in pruned.train] == \
            [r.readings for r in small_dataset.train]

    def test_invalid_fraction(self, small_dataset):
        with pytest.raises(ValueError):
            remove_macs(small_dataset, 1.5)

    def test_invalid_which(self, small_dataset):
        with pytest.raises(ValueError):
            remove_macs(small_dataset, 0.1, which="both")

    def test_meta_records_removal(self, small_dataset):
        pruned = remove_macs(small_dataset, 0.2, seed=0, which="train")
        assert pruned.meta["removed_from"] == "train"
        assert pruned.meta["removed_macs"] >= 0


class TestUsers:
    def test_ten_specs(self):
        assert len(USER_SPECS) == 10
        assert [s.user_id for s in USER_SPECS] == list(range(1, 11))

    def test_user_ten_is_detached(self):
        assert USER_SPECS[9].detached

    def test_user_scenario_builds(self):
        scenario = user_scenario(1)
        assert scenario.name == "user-1"

    def test_unknown_user(self):
        with pytest.raises(ValueError):
            user_scenario(11)

    def test_user_dataset_meta(self):
        data = user_dataset(1, test_sessions=2, session_duration_s=20)
        assert data.meta["user_id"] == 1
        assert data.meta["paper_macs"] == 20


class TestMall:
    def test_structure(self):
        data = mall_dataset(seed=1, train_records=120, test_records_per_floor=20)
        assert len(data.train) == 120
        floors = {item.meta["floor"] for item in data.test}
        assert floors == {0, 1, 2, 3, 4}
        assert all(item.inside == (item.meta["floor"] == 2) for item in data.test)

    def test_invalid_train_size(self):
        with pytest.raises(ValueError):
            mall_dataset(train_records=5)


class TestUji:
    def test_synthetic_building_structure(self):
        data = uji_like_dataset(0, seed=1, records_per_floor=40)
        assert data.meta["building"] == 0
        floors = {item.meta["floor"] for item in data.test}
        assert len(floors) == 4  # building 0 has 4 floors

    def test_building_two_has_five_floors(self):
        data = uji_like_dataset(2, seed=1, records_per_floor=40)
        floors = {item.meta["floor"] for item in data.test}
        assert len(floors) == 5

    def test_train_fraction_respected(self):
        data = uji_like_dataset(0, seed=1, records_per_floor=40, train_fraction=0.5)
        assert len(data.train) == 20

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            uji_like_dataset(0, train_fraction=1.5)

    def test_building_split_protocol(self):
        rows = []
        for floor in range(4):
            for i in range(10):
                rows.append({"record": SignalRecord({f"w{floor}": -50.0 - i}),
                             "floor": floor, "building": 0})
        train, test = uji_building_split(rows, building=0, seed=0, train_fraction=0.5)
        assert len(train) == 5  # half of the middle floor (floor 2)
        assert len(test) == 35
        # Middle floor of floors 0..3 is floor 2.
        inside = [item for item in test if item.inside]
        assert all(item.meta["floor"] == 2 for item in inside)

    def test_building_split_unknown_building(self):
        with pytest.raises(ValueError):
            uji_building_split([], building=9)
