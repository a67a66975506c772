import math

import numpy as np
import pytest

from oracles import categorical_counts_reference, protocol_outcomes_reference
from toolate import _kernels
from toolate.experiments import ExperimentConfig, sample_protocol
from toolate.protocol import run_trial, exit_labels, stage_conditionals
from toolate.rng import TrialRng, mix64, trial_seed, uniform_at
from toolate.spinlab import joint_value_probabilities

SWEEP_TRIALS = 200_000
SWEEP_TRINES = [(0, 120, 240), (0, 100, 230), (10, 95, 300), (0, 90, 200)] + [
    tuple(angles) for angles in np.random.default_rng(606).uniform(0, 360, (8, 3)).tolist()
]
# each binding with its own master seed, two of them at or above 2**63
SWEEP_BINDINGS = [((0, 1, 2), 42), ((2, 0, 1), 2**63 + 11), ((1, 0, 2), 2**64 - 1)]


def test_cumulative_pins_last_entry():
    cum = _kernels.cumulative(np.array([[0.3, 0.3, 0.3999999]]))
    assert cum[0, -1] == 1.0


def test_kernel_matches_explicit_collapse_path(trine):
    """The batch sampler and the full state-collapse path consume the
    same stream and must produce identical outcomes trial by trial."""
    n = 200
    batch = sample_protocol(trine, n, 4242)
    labels = exit_labels(trine)
    for i in range(n):
        record = run_trial(trine, TrialRng.for_trial(4242, i), i)
        assert batch[i, 0] == int(record.value_a)
        assert batch[i, 1] == int(record.value_b)
        assert batch[i, 2] == labels.index(record.exit_a)
        assert batch[i, 3] == labels.index(record.exit_b)


def test_chunked_sampler_matches_collapse_path_at_chunk_boundaries(trine):
    """Trials on both sides of every chunk boundary, at sizes that end
    just before, on and just after one."""
    labels = exit_labels(trine)
    chunk = _kernels.CHUNK
    edges = (0, 1, chunk - 2, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1)
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        batch = sample_protocol(trine, n, 99)
        assert batch.shape == (n, 4)
        for i in sorted({e for e in (*edges, n - 1) if 0 <= e < n}):
            record = run_trial(trine, TrialRng.for_trial(99, i), i)
            want = [int(record.value_a), int(record.value_b),
                    labels.index(record.exit_a), labels.index(record.exit_b)]
            assert batch[i].tolist() == want, (n, i)


def test_chunked_categorical_counts_match_scalar_draws():
    n = _kernels.CHUNK + 3
    cum = _kernels.cumulative(np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.0, 0.25, 0.25]]))
    counts = _kernels.categorical_counts(cum, 17, n)
    for r in range(2):
        seed = mix64(17, r)
        picks = [int(np.searchsorted(cum[r], uniform_at(trial_seed(seed, i), 0), side="right"))
                 for i in range(n)]
        assert counts[r].tolist() == np.bincount(picks, minlength=4).tolist()


def test_zero_probability_outcomes_never_sampled(trine):
    outcomes = sample_protocol(trine, 100000, 2025)
    va, vb, ea, eb = outcomes.T
    equal_values = va == vb
    same_orientation = (ea // 2) == (eb // 2)
    assert not np.any(equal_values & same_orientation)


def test_batch_frequencies_match_projection_weights(trine):
    """1e5 kernel draws against the exact Born weights of a projective
    partition, judged by the package's own chi-square."""
    from toolate import qcore
    from toolate.experiments import chi_square
    from toolate.protocol import PARTICLE_A, prepare_joint, exit_projector
    from toolate.protocol import exit_labels as labels_of

    state = prepare_joint(trine)
    partition = [exit_projector(trine, PARTICLE_A, lab) for lab in labels_of(trine)]
    probs = np.array([qcore.projection_probability(p, state.vec) for p in partition])
    counts = _kernels.categorical_counts(
        _kernels.cumulative(probs.reshape(1, -1)), 31337, 100000
    )[0]
    _, p = chi_square(counts, probs)
    assert p > 0.001


@pytest.mark.parametrize("binding, seed", SWEEP_BINDINGS)
@pytest.mark.parametrize("angles", SWEEP_TRINES)
def test_protocol_outcomes_match_gather_reference(angles, binding, seed):
    trine = ExperimentConfig("toolate", angles_deg=angles, port_binding=binding).trine()
    tree = stage_conditionals(trine)
    cums = [_kernels.cumulative(p)
            for p in (tree.p_value_a, tree.p_value_b, tree.p_exit_a, tree.p_exit_b)]
    got = _kernels.protocol_outcomes(*cums, seed, SWEEP_TRIALS)
    assert np.array_equal(got, protocol_outcomes_reference(*cums, seed, SWEEP_TRIALS))


@pytest.mark.parametrize("seed", [42, 2**63 + 5])
@pytest.mark.parametrize("angles", [(0, 90, 45, 135), (0, 30, 60, 90), (10, 100, 55, 170)])
def test_categorical_counts_match_searchsorted_reference(angles, seed):
    a, a2, b, b2 = (math.radians(x) for x in angles)
    probs = [joint_value_probabilities(x, y) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
    cum = _kernels.cumulative(np.array(probs))
    got = _kernels.categorical_counts(cum, seed, SWEEP_TRIALS)
    assert np.array_equal(got, categorical_counts_reference(cum, seed, SWEEP_TRIALS))


def test_pick_at_threshold_edges():
    """Uniforms on each cumulative entry and one ulp either side of it,
    against the rule "first index whose entry is above u"."""
    cum = _kernels.cumulative(np.array([
        [0.1, 0.2, 0.3, 0.15, 0.25],
        [0.25, 0.0, 0.0, 0.5, 0.25],  # zero-width intervals
        [0.0, 0.0, 0.0, 0.0, 1.0],  # all mass in the last entry
        [0.5, 0.5000000000000002, 0.0, 0.0, 0.0],  # cumsum above 1 before the pin
    ]))
    assert cum[3, 1] > 1.0
    edges = np.append(cum.ravel(), [0.0, np.nextafter(1.0, 0.0)])  # the extreme uniforms
    u = np.unique(np.concatenate(
        [np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]))
    u = u[(u >= 0.0) & (u < 1.0)]
    columns = _kernels._columns(cum)
    want = [[next(j for j, c in enumerate(row) if c > x) for x in u] for row in cum]
    for r in range(len(cum)):
        assert _kernels._pick(columns, r, u).tolist() == want[r]
    rows = np.repeat(np.arange(len(cum)), len(u))
    per_trial = _kernels._pick(columns, rows, np.tile(u, len(cum)))
    assert per_trial.tolist() == sum(want, [])
