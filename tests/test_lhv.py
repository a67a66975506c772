import math

import numpy as np
import pytest

from toolate.lhv import (
    ConspiracyModel,
    DeterministicStrategy,
    conspiracy_predictions,
    enumerate_chsh_max,
)
from toolate.protocol import joint_distribution, prepare_joint
from toolate.spinlab import chsh_value


class TestEnumeration:
    def test_maximum_is_exactly_two(self):
        max_s, best = enumerate_chsh_max()
        assert max_s == 2.0
        assert abs(best.chsh()) == 2

    def test_all_plus_strategy(self):
        strat = DeterministicStrategy(1, 1, 1, 1)
        assert strat.chsh() == 2

    def test_quantum_value_beats_the_bound(self):
        s = chsh_value(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        max_s, _ = enumerate_chsh_max()
        assert abs(s) > max_s

    def test_rejects_non_sign_values(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(1, 0, 1, 1)


class TestConspiracy:
    def test_uniform_model_is_valid(self):
        model = ConspiracyModel.uniform()
        assert abs(model.table.sum() - 1.0) < 1e-12

    def test_copying_the_quantum_table(self, trine):
        quantum = joint_distribution(prepare_joint(trine))
        model = ConspiracyModel.from_exit_table(quantum)
        exit_table, _ = conspiracy_predictions(model, trine)
        np.testing.assert_allclose(exit_table, quantum, atol=1e-15)

    def test_exit_table_round_trip_keeps_every_axis(self, rand):
        # a random, non-symmetric table, so a swapped axis cannot hide
        raw = rand.uniform(0, 1, size=(3, 3, 2, 2))
        table = raw / raw.sum()
        exits = ConspiracyModel(table).exit_table()
        assert exits.shape == (6, 6)
        for oa, ob, va, vb in np.ndindex(3, 3, 2, 2):
            assert exits[2 * oa + va, 2 * ob + vb] == table[oa, ob, va, vb]
        assert np.array_equal(ConspiracyModel.from_exit_table(exits).table, table)

    def test_every_model_recombines_uniformly(self, trine, rand):
        for _ in range(20):
            raw = rand.uniform(0, 1, size=(3, 3, 2, 2))
            model = ConspiracyModel(raw / raw.sum())
            _, ports = conspiracy_predictions(model, trine)
            np.testing.assert_allclose(ports, np.full(3, 1 / 3), atol=1e-12)

    def test_rebinding_does_not_change_the_prediction(self, trine):
        model = ConspiracyModel.uniform()
        for perm in ((1, 2, 0), (2, 1, 0)):
            _, ports = conspiracy_predictions(model, trine.permuted(perm))
            np.testing.assert_allclose(ports, np.full(3, 1 / 3), atol=1e-12)

    def test_validation(self):
        bad = np.full((3, 3, 2, 2), 1 / 36.0)
        with pytest.raises(ValueError):
            ConspiracyModel(bad * 2)
        with pytest.raises(ValueError):
            ConspiracyModel(np.zeros((3, 3)))
        neg = bad.copy()
        neg[0, 0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            ConspiracyModel(neg)
