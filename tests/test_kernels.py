import io
import json
import math
import warnings
from fractions import Fraction

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
    """Draws m on each cumulative entry's threshold ceil(c * 2**53) and
    one either side of it, and the extreme draws 0 and 2**53 - 1, against
    the rule "first index whose entry is above u = m * 2**-53", taken in
    exact rationals and checked against the float compares."""
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
    ceilings = {math.ceil(Fraction(float(c)) * 2**53) for c in cum.ravel()}
    draws = {t + d for t in ceilings for d in (-1, 0, 1)} | {0, 2**53 - 1}
    m = np.array(sorted(x for x in draws if 0 <= x < 2**53), dtype=np.int64)
    want = [[next(j for j, c in enumerate(row) if Fraction(float(c)) > Fraction(int(x), 2**53))
             for x in m] for row in cum]
    # the float rule c <= u on the same draws, whose uniforms are exact
    u = m * 2.0**-53
    assert [np.count_nonzero(row[:-1, None] <= u, axis=0).tolist() for row in cum] == want
    columns = _kernels._thresholds(cum)
    stream = _kernels._Stream(len(cum) * len(m))
    for r in range(len(cum)):
        assert stream.pick(columns, r, m).tolist() == want[r]
        assert np.all(probs[r, want[r]] > 0.0)  # no zero-width interval is picked
    rows = np.repeat(np.arange(len(cum)), len(m))
    per_trial = stream.pick(columns, rows, np.tile(m, len(cum)))
    assert per_trial.tolist() == sum(want, [])


def test_categorical_counts_count_a_draw_on_its_threshold():
    """Rows whose cumulative entries are uniforms of their own trials
    and the grid point after one, so draws land exactly on thresholds:
    a draw on an entry passes it, against the float rule."""
    n = 40
    u = [sorted(uniform_at(trial_seed(mix64(5, r), i), 0) for i in range(n)) for r in range(2)]
    cum = np.array([
        [u[0][5], u[0][17], u[0][17] + 2.0**-53, u[0][30], 1.0],
        [0.0, u[1][3], u[1][3], u[1][20], 1.0],  # zero-width intervals
    ])
    counts = _kernels.categorical_counts(cum, 5, n)
    for r in range(2):
        picks = [sum(c <= x for c in cum[r, :-1]) for x in u[r]]
        assert counts[r].tolist() == np.bincount(picks, minlength=5).tolist()
        assert set(cum[r]) & set(u[r])  # some draws sit on an entry


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
def test_thresholds_reject_non_finite_and_negative_entries(bad):
    cum = np.array([[0.25, 0.5, 1.0], [0.25, 0.5, 1.0]])
    cum[1, 1] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        _kernels._thresholds(cum)
    with pytest.raises(ValueError, match="finite and non-negative"):
        _kernels.categorical_counts(cum, 1, 10)


def test_thresholds_reject_a_decreasing_row():
    # the 1.0000000000000002 before the pinned 1 is no decrease: both are
    # past every draw
    _kernels._thresholds(np.array([[0.6, 1.0000000000000002, 1.0]]))
    cum = np.array([[0.25, 0.5, 1.0], [0.5, 0.25, 1.0]])
    with pytest.raises(ValueError, match="must not decrease"):
        _kernels._thresholds(cum)
    with pytest.raises(ValueError, match="must not decrease"):
        _kernels.categorical_counts(cum, 1, 10)


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
