import json
import math

import numpy as np
import pytest
import scipy.stats

from toolate.experiments import (
    ExperimentConfig,
    _gamma_q,
    chi_square,
    metadata,
    record_chunks,
    records_text,
    run_epr,
    run_erasure,
    run_interference,
    run_lhv_compare,
    run_toolate,
    run_verify,
)
from toolate.protocol import degrees_of
from toolate.rng import trial_seed

SQRT8 = 2 * math.sqrt(2)


class TestConfig:
    def test_defaults_per_protocol(self):
        assert ExperimentConfig(protocol="epr_standard").angles_deg == (0.0, 90.0, 45.0, 135.0)
        assert ExperimentConfig(protocol="toolate").angles_deg == (0.0, 120.0, 240.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", trials=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", port_binding=(0, 0, 1))
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="toolate", angles_deg=(0, 0, 120))

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
            ExperimentConfig(protocol="toolate", angles_deg=(0, 90, 45, 135))
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="verify", angles_deg=(0, 90, 45, 135))
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="epr_standard", angles_deg=(0, 120, 240))


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
            protocol="epr_standard", angles_deg=(10.0, 10.0 + 1e-7, 10.0 + 2e-7, 95.0)
        )
        table = run_epr(config)
        # first row pairs the two nearly equal settings
        assert abs(table.rows[0].exact + 1.0) < 1e-12

    def test_csv_text_shape(self):
        config = ExperimentConfig(protocol="epr_standard", trials=0)
        text = run_epr(config).to_csv_text(metadata(config))
        lines = text.strip().split("\n")
        assert lines[0].startswith("# meta: ")
        assert lines[1] == "label,exact,estimate,stderr,n"
        assert len(lines) == 2 + 6
        assert lines[2].endswith(",,,0")


class TestRunToolate:
    def test_exact_columns(self):
        table, outcomes = run_toolate(ExperimentConfig(protocol="toolate", trials=0))
        assert outcomes.shape == (0, 4)
        by_label = {r.label: r for r in table.rows}
        assert abs(by_label["P(vA=up,vB=up)"].exact - 0.25) < 1e-12
        assert by_label["P(oA=0,oB=0|vA=up,vB=up)"].exact == 0.0
        assert abs(by_label["P(oA=0,oB=120|vA=up,vB=up)"].exact - 1 / 6) < 1e-12
        assert abs(by_label["P(oA=120)"].exact - 1 / 3) < 1e-12
        assert abs(by_label["P(oB=240)"].exact - 1 / 3) < 1e-12

    def test_monte_carlo_consistency(self):
        table, outcomes = run_toolate(
            ExperimentConfig(protocol="toolate", trials=50000, master_seed=21)
        )
        by_label = {r.label: r for r in table.rows}
        for va in ("up", "down"):
            for vb in ("up", "down"):
                row = by_label[f"P(vA={va},vB={vb})"]
                assert abs(row.estimate - 0.25) < 3 * row.stderr
        # forbidden cells never sampled
        for deg in ("0", "120", "240"):
            row = by_label[f"P(oA={deg},oB={deg}|vA=up,vB=up)"]
            assert row.estimate == 0.0

    def test_records_text_fields(self, trine):
        config = ExperimentConfig(protocol="toolate", trials=5, master_seed=1)
        _, outcomes = run_toolate(config)
        chunks = list(record_chunks(config.trine(), outcomes, metadata(config)))
        assert all(isinstance(chunk, str) for chunk in chunks)
        lines = "".join(chunks).strip().split("\n")
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
        # one chunk's text, numbered from its first trial
        tail = records_text(config.trine(), outcomes[2:], 1, start=2)
        assert tail == "\n".join(lines[3:]) + "\n"


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


class TestChiSquare:
    def test_exact_match_gives_unit_p(self):
        stat, p = chi_square([25, 25, 25, 25], [0.25] * 4)
        assert stat == 0.0 and p == 1.0

    def test_disjoint_support(self):
        stat, p = chi_square([0, 0, 100], [0.5, 0.5, 0.0])
        assert math.isinf(stat) and p == 0.0

    def test_all_cells_pooled_away(self):
        with pytest.raises(ValueError):
            chi_square([1, 0, 1], [0.4, 0.3, 0.3])

    def test_matches_scipy_on_simple_tables(self, rand):
        for _ in range(50):
            probs = rand.dirichlet(np.ones(5))
            counts = rand.multinomial(2000, probs)
            if np.any(probs * 2000 < 5):
                continue
            stat, p = chi_square(counts, probs)
            ref_stat, ref_p = scipy.stats.chisquare(counts, probs * 2000)
            assert abs(stat - ref_stat) < 1e-9
            assert abs(p - ref_p) < 1e-7

    def test_calibration_under_the_null(self):
        rng = np.random.default_rng(314159)
        expected = np.array([0.4, 0.3, 0.2, 0.1])
        good = 0
        for _ in range(1000):
            counts = rng.multinomial(5000, expected)
            _, p = chi_square(counts, expected)
            good += p > 0.001
        assert good >= 990

    def test_needs_observations(self):
        with pytest.raises(ValueError):
            chi_square([0, 0], [0.5, 0.5])


class TestGammaTail:
    def test_against_scipy_grid(self):
        for dof in (1, 2, 3, 4, 6, 10, 35, 100):
            for stat in (1e-6, 0.01, 0.5, 1.0, 2.5, 8.0, 30.0, 120.0):
                mine = _gamma_q(dof / 2, stat / 2)
                ref = float(scipy.stats.chi2.sf(stat, dof))
                assert mine == pytest.approx(ref, rel=2e-8, abs=1e-300)

    def test_edge_cases(self):
        assert _gamma_q(1.0, 0.0) == 1.0
        assert _gamma_q(1.0, math.inf) == 0.0
        with pytest.raises(ValueError):
            _gamma_q(0.0, 1.0)
