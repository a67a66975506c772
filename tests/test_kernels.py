import io
import json
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from oracles import categorical_counts_reference, protocol_outcomes_reference
from toolate import _kernels, qcore
from toolate.experiments import ExperimentConfig, run_toolate, sample_protocol
from toolate.protocol import exit_labels, run_trial, stage_conditionals
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


# around one chunk, and around runs of several: 65536 and 131072 are 4 and 8 chunks of 16384
@pytest.mark.parametrize(
    "n",
    [0, 1, _kernels.CHUNK - 1, _kernels.CHUNK, _kernels.CHUNK + 1, 2 * _kernels.CHUNK + 3,
     65535, 65536, 65537, 131075],
)
def test_chunked_categorical_counts_match_scalar_draws(n):
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
    partition, judged by scipy's Pearson chi-square."""
    from toolate import qcore
    from toolate.protocol import PARTICLE_A, prepare_joint, exit_projector
    from toolate.protocol import exit_labels as labels_of

    state = prepare_joint(trine)
    partition = [exit_projector(trine, PARTICLE_A, lab) for lab in labels_of(trine)]
    probs = np.array([qcore.projection_probability(p, state.vec) for p in partition])
    counts = _kernels.categorical_counts(
        _kernels.cumulative(probs.reshape(1, -1)), 31337, 100000
    )[0]
    _, p = scipy.stats.chisquare(counts, probs * counts.sum())
    assert p > 0.001


@pytest.mark.parametrize("binding, seed", SWEEP_BINDINGS)
@pytest.mark.parametrize("angles", SWEEP_TRINES)
def test_protocol_outcomes_match_gather_reference(angles, binding, seed):
    trine = ExperimentConfig("toolate", angles=angles, port_binding=binding).trine()
    tree = stage_conditionals(trine)
    cums = [_kernels.cumulative(p)
            for p in (tree.p_value_a, tree.p_value_b, tree.p_orient_a, tree.p_orient_b)]
    got = sample_protocol(trine, SWEEP_TRIALS, seed)
    want = protocol_outcomes_reference(*cums, seed, SWEEP_TRIALS)
    assert np.array_equal(got, want)
    # the kernel's own output: each trial's cell [vA, vB, rA, rB]
    chunks = _kernels.protocol_chunks(cums, seed, SWEEP_TRIALS)
    cells = np.concatenate([c.copy() for _, _, c in chunks])
    va, vb, ea, eb = want.T
    assert np.array_equal(cells, np.ravel_multi_index((va, vb, ea // 2, eb // 2), (2, 2, 3, 3)))
    # an exit carries the value sampled before it
    assert np.array_equal(got[:, 2] % 2, got[:, 0]) and np.array_equal(got[:, 3] % 2, got[:, 1])


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
    top = np.nextafter(1.0, 0.0)  # the largest uniform the stream gives
    probs = np.array([
        [0.1, 0.2, 0.3, 0.15, 0.25],
        [0.25, 0.0, 0.0, 0.5, 0.25],  # zero-width intervals
        [0.0, 0.0, 0.0, 0.0, 1.0],  # all mass in the last entry
        [0.5, 0.5000000000000002, 0.0, 0.0, 0.0],  # cumsum above 1 before a zero
        [0.25, 0.75 - 2.0**-53, 0.0, 0.0, 0.0],  # cumsum 1 - 2**-53 before a zero
    ])
    assert np.cumsum(probs[3])[1] > 1.0 and np.cumsum(probs[4])[1] == top
    cum = _kernels.cumulative(probs)
    for p, row in zip(probs, cum):
        # every entry from the last positive weight on is pinned to 1
        assert np.all(row[np.flatnonzero(p)[-1]:] == 1.0)
    edges = np.append(cum.ravel(), [0.0, top])  # the extreme uniforms
    u = np.unique(np.concatenate(
        [np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)]))
    u = u[(u >= 0.0) & (u < 1.0)]
    columns = _kernels._columns(cum)
    want = [[next(j for j, c in enumerate(row) if c > x) for x in u] for row in cum]
    stream = _kernels._Stream(len(cum) * len(u))
    for r in range(len(cum)):
        assert stream.pick(columns, r, u).tolist() == want[r]
        assert np.all(probs[r, want[r]] > 0.0)  # no zero-width interval is picked
    rows = np.repeat(np.arange(len(cum)), len(u))
    per_trial = stream.pick(columns, rows, np.tile(u, len(cum)))
    assert per_trial.tolist() == sum(want, [])


def test_collapse_sampler_pins_the_last_possible_outcome():
    """At the largest uniform, ``qcore.sample`` picks the last outcome
    of positive weight, not the zero-weight one after it.  This state's
    normalized cumulative weights are (0.81..., 1 - 2**-53, 1 - 2**-53)."""

    class Top:
        def uniform(self):
            return float(np.nextafter(1.0, 0.0))

    t = 7 * math.pi / 50
    basis = qcore.ProjectorFamily([np.diag(np.eye(3)[i]).astype(complex) for i in range(3)])
    index, post = qcore.sample(np.array([math.cos(t), math.sin(t), 0.0]), basis, Top())
    assert index == 1
    assert np.array_equal(post, basis[1][:, 1])


def test_collapse_path_at_a_seed_whose_uniform_passes_the_row_sum():
    """Trial 0 of this seed draws vA=down, vB=up, exit_A 3, then a
    uniform at or above the exit_B row's cumulative sum of 1 - 2**-53.
    The last possible exit, 4, is picked on both routes; the records
    carry the values that were drawn."""
    seed = 6462044029988064744
    trine = ExperimentConfig("toolate").trine()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = run_trial(trine, TrialRng.for_trial(seed, 0), 0)
    exits = exit_labels(trine)
    row = [int(record.value_a), int(record.value_b),
           exits.index(record.exit_a), exits.index(record.exit_b)]
    assert row == sample_protocol(trine, 1, seed)[0].tolist() == [1, 0, 3, 4]
    records = io.BytesIO()
    run_toolate(ExperimentConfig("toolate", trials=100, master_seed=seed), records)
    labels = ("up", "down")
    outcomes = sample_protocol(trine, 100, seed).tolist()
    drawn = [(labels[va], labels[vb]) for va, vb, _, _ in outcomes]
    lines = map(json.loads, records.getvalue().splitlines()[1:])
    assert [(r["value_A"], r["value_B"]) for r in lines] == drawn
