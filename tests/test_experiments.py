import gc
import io
import json
import math
import weakref

import numpy as np
import pytest

from toolate.experiments import (
    ExperimentConfig,
    metadata,
    record_tails,
    records_text,
    run_epr,
    run_erasure,
    run_interference,
    run_lhv_compare,
    run_toolate,
    run_verify,
    sample_protocol,
)
from toolate import _kernels, experiments, spinlab
from toolate._kernels import _Stream, trial_seeds
from toolate.protocol import degrees_of
from toolate.rng import trial_seed

SQRT8 = 2 * math.sqrt(2)


class TestConfig:
    def test_defaults_per_protocol(self):
        assert ExperimentConfig(protocol="epr_standard").angles == (0.0, 90.0, 45.0, 135.0)
        assert ExperimentConfig(protocol="toolate").angles == (0.0, 120.0, 240.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", trials=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", port_binding=(0, 0, 1))
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", angles=(0, 0, 120))

    def test_round_trip_and_unknown_fields(self):
        config = ExperimentConfig(protocol="toolate", trials=10, master_seed=3)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"protocol": "toolate", "bogus": 1})

    def test_trine_uses_port_binding(self):
        config = ExperimentConfig(protocol="toolate", port_binding=(2, 0, 1))
        angles = config.trine().angles_by_port
        assert tuple(degrees_of(a) for a in angles) == (240.0, 0.0, 120.0)

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", angles=(0, 90, 45, 135))
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="verify", angles=(0, 90, 45, 135))
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="epr_standard", angles=(0, 120, 240))


class TestRunEpr:
    def test_exact_only_mode(self):
        table = run_epr(ExperimentConfig(protocol="epr_standard", trials=0))
        by_label = {r.label: r for r in table.rows}
        assert abs(by_label["chsh_abs_S"].exact - SQRT8) < 1e-9
        assert by_label["chsh_S"].estimate is None
        assert all(r.n == 0 for r in table.rows)
        for label in ("E(0,45)", "E(90,45)", "E(90,135)"):
            assert abs(by_label[label].exact + 1 / math.sqrt(2)) < 1e-12
        assert abs(by_label["E(0,135)"].exact - 1 / math.sqrt(2)) < 1e-12

    def test_monte_carlo_within_three_sigma(self):
        table = run_epr(ExperimentConfig(protocol="epr_standard", trials=100000, master_seed=11))
        for row in table.rows:
            if row.label.startswith("E("):
                assert abs(row.estimate - row.exact) < 3 * row.stderr

    def test_nearly_equal_angles_anticorrelated(self):
        config = ExperimentConfig(
            protocol="epr_standard", angles=(10.0, 10.0 + 1e-7, 10.0 + 2e-7, 95.0)
        )
        table = run_epr(config)
        # first row pairs the two nearly equal settings
        assert abs(table.rows[0].exact + 1.0) < 1e-12

    def test_equal_settings_never_sample_an_impossible_pair(self, monkeypatch):
        # 30 and 390 degrees are one setting: (up, up) and (down, down)
        # have weight 0 analytically, about 1.8e-32 after rounding
        cums = []

        def categorical_counts(cum, seed, n):
            cums.append(cum.copy())
            return original(cum, seed, n)

        original = _kernels.categorical_counts
        monkeypatch.setattr(_kernels, "categorical_counts", categorical_counts)
        config = ExperimentConfig(
            protocol="epr_standard", angles=(30.0, 90.0, 390.0, 135.0), trials=10, master_seed=3
        )
        run_epr(config)
        row = cums[0][0]  # E(30,390)
        assert row[0] == 0.0
        assert np.all(row[2:] == 1.0)

    def test_settings_that_differ_past_six_digits_get_distinct_labels(self):
        config = ExperimentConfig(protocol="epr_standard", angles=(100.0001, 100.0002, 45, 135))
        labels = [r.label for r in run_epr(config).rows if r.label.startswith("E(")]
        assert labels == [
            "E(100.0001,45)", "E(100.0001,135)", "E(100.0002,45)", "E(100.0002,135)"
        ]

    def test_csv_text_shape(self):
        config = ExperimentConfig(protocol="epr_standard", trials=0)
        text = run_epr(config).to_csv_text(metadata(config))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# meta: ")
        assert lines[1] == "label,exact,estimate,stderr,n"
        assert len(lines) == 2 + 6
        assert lines[2].endswith(",,,0")


class TestRunEprCalls:
    """``run_epr`` builds one value-pair table and reads both columns
    from it: no per-pair correlation and no second CHSH route."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"joint_value_probabilities": 0, "correlation_exact": 0, "chsh_value": 0}
        for name in counts:
            original = getattr(spinlab, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            # every module that could bind the name, whether it does or not
            for module in (spinlab, experiments):
                monkeypatch.setattr(module, name, counted, raising=False)
        return counts

    @pytest.mark.parametrize("trials", [0, 1, 5000])
    @pytest.mark.parametrize("degrees", [(0, 90, 45, 135), (30, 90, 390, 135)])
    def test_one_table_per_run(self, calls, trials, degrees):
        run_epr(ExperimentConfig(protocol="epr_standard", angles=degrees, trials=trials))
        assert calls == {"joint_value_probabilities": 1, "correlation_exact": 0, "chsh_value": 0}


class TestRunToolate:
    def test_exact_columns(self):
        config = ExperimentConfig(protocol="toolate", trials=0)
        records = io.BytesIO()
        table = run_toolate(config, records)
        assert sample_protocol(config.trine(), 0, 0).shape == (0, 4)
        assert records.getvalue().count(b"\n") == 1  # the metadata line, no records
        by_label = {r.label: r for r in table.rows}
        assert abs(by_label["P(vA=up,vB=up)"].exact - 0.25) < 1e-12
        assert by_label["P(oA=0,oB=0|vA=up,vB=up)"].exact == 0.0
        assert abs(by_label["P(oA=0,oB=120|vA=up,vB=up)"].exact - 1 / 6) < 1e-12
        assert abs(by_label["P(oA=120)"].exact - 1 / 3) < 1e-12
        assert abs(by_label["P(oB=240)"].exact - 1 / 3) < 1e-12

    def test_orientations_that_differ_past_six_digits_get_distinct_labels(self):
        config = ExperimentConfig(protocol="toolate", angles=(100.0001, 100.0002, 200), trials=0)
        labels = [r.label for r in run_toolate(config).rows]
        assert len(labels) == 46 and len(set(labels)) == 46
        assert "P(oA=100.0001,oB=100.0002|vA=up,vB=up)" in labels
        assert labels[-3:] == ["P(oB=100.0001)", "P(oB=100.0002)", "P(oB=200)"]

    def test_monte_carlo_consistency(self):
        table = run_toolate(ExperimentConfig(protocol="toolate", trials=50000, master_seed=21))
        by_label = {r.label: r for r in table.rows}
        for va in ("up", "down"):
            for vb in ("up", "down"):
                row = by_label[f"P(vA={va},vB={vb})"]
                assert abs(row.estimate - 0.25) < 3 * row.stderr
        # forbidden cells never sampled
        for deg in ("0", "120", "240"):
            row = by_label[f"P(oA={deg},oB={deg}|vA=up,vB=up)"]
            assert row.estimate == 0.0

    @pytest.mark.parametrize("records", [None, "stream"])
    def test_trine_is_let_go_before_the_first_chunk(self, records, monkeypatch):
        """The sampling loop holds no trine, so none of its families: the
        trine is freed by its reference count, the cyclic collector off."""
        trines, alive = [], []
        real_trine, real_chunks = ExperimentConfig.trine, experiments._outcome_chunks

        def trine(config):
            built = real_trine(config)
            trines.append(weakref.ref(built))
            return built

        def chunks(*args):
            for chunk in real_chunks(*args):
                alive.append(trines[0]() is not None)
                yield chunk

        monkeypatch.setattr(ExperimentConfig, "trine", trine)
        monkeypatch.setattr(experiments, "_outcome_chunks", chunks)
        config = ExperimentConfig("toolate", trials=2 * _kernels.CHUNK + 1, master_seed=5)
        gc.disable()
        try:
            run_toolate(config, None if records is None else io.BytesIO())
        finally:
            gc.enable()
        assert len(trines) == 1 and alive == [False] * 3

    def test_records_text_fields(self, trine):
        config = ExperimentConfig(protocol="toolate", trials=5, master_seed=1)
        records = io.BytesIO()
        run_toolate(config, records)
        lines = records.getvalue().decode("ascii").strip().split("\n")
        assert len(lines) == 6
        assert "meta" in json.loads(lines[0])
        record = json.loads(lines[1])
        assert list(record) == ["trial", "seed", "value_A", "value_B", "orient_A", "orient_B"]
        assert record["orient_A"] in (0.0, 120.0, 240.0)
        assert record["value_A"] in ("up", "down")
        for i, line in enumerate(lines[1:]):
            record = json.loads(line)
            assert record["trial"] == i
            assert record["seed"] == trial_seed(1, record["trial"])
        assert json.loads(lines[0]) == {"meta": metadata(config)}
        # one chunk's text, numbered from its first trial; the cell is the
        # flat index of [value_A, value_B, rank_A, rank_B], and rank = exit // 2
        va, vb, ea, eb = sample_protocol(config.trine(), 5, 1)[2:].T
        cells = np.ravel_multi_index((va, vb, ea // 2, eb // 2), (2, 2, 3, 3))
        tail = records_text(record_tails(config.trine()), 2, trial_seeds(1, 3, 2, _Stream(3)), cells)
        assert isinstance(tail, bytes)
        assert tail == ("\n".join(lines[3:]) + "\n").encode("ascii")


class TestReports:
    def test_interference_report(self):
        report = run_interference(ExperimentConfig(protocol="interference"))
        np.testing.assert_allclose(report["quantum_ports"], [4 / 9, 5 / 18, 5 / 18], atol=1e-12)
        np.testing.assert_allclose(report["sanity"]["definite_port_input"], [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(report["sanity"]["uniform_coherent_product"], [1, 0, 0], atol=1e-12)
        for model in report["models"].values():
            assert model["verdict"] == "pass"
            assert abs(model["tv_distance"] - 1 / 9) < 1e-12

    def test_erasure_report(self):
        report = run_erasure(ExperimentConfig(protocol="erasure"))
        assert len(report["rows"]) == 5
        for row in report["rows"]:
            assert abs(row["fidelity_to_singlet"] - 1.0) < 1e-10

    def test_lhv_compare_report(self):
        report = run_lhv_compare(
            ExperimentConfig(protocol="lhv_compare", trials=1000, master_seed=2)
        )
        chsh = report["chsh"]
        assert abs(chsh["quantum_abs_S"] - SQRT8) < 1e-9
        assert chsh["lhv_max"] == 2.0
        assert abs(chsh["gap"] - (SQRT8 - 2)) < 1e-9
        fitted = report["conspiracy"]["fitted_to_quantum"]
        assert fitted["exit_table_max_abs_diff"] < 1e-12
        assert fitted["interference_verdict"] == "pass"
        # trials > 0 adds no sampled block: one deterministic strategy has no variance
        assert set(report) == {"meta", "chsh", "conspiracy"}

    def test_verify_passes_and_reports_the_overlap_gap(self):
        payload, ok = run_verify(ExperimentConfig(protocol="verify"))
        assert ok
        assert payload["ok"]
        assert payload["reported_only"]["pair_up_up_fidelity_vs_oracle"] < 1e-12
        names = [c["name"] for c in payload["checks"]]
        assert "ordering_invariance" in names and "port_binding_invariance" in names
