"""Derandomized property tests: the same examples on every run."""

import contextlib
import io
import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toolate import _kernels
from toolate.experiments import ExperimentConfig, metadata, run_epr, run_toolate, sample_protocol
from toolate.protocol import Trine, exit_labels, run_trial
from toolate.rng import TrialRng

BINDINGS = list(itertools.permutations(range(3)))
TRIALS = 12

degrees = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)


def smallest_gap(angles) -> float:
    """The smallest angle between two of the orientations, in degrees."""
    a, b, c = sorted(angles)
    return min(b - a, c - b, 360.0 - c + a)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    angles=st.tuples(degrees, degrees, degrees),
    binding=st.sampled_from(BINDINGS),
    seed=st.integers(0, 2**64 - 1),
)
def test_collapse_route_matches_the_sampler_draw_for_draw(angles, binding, seed):
    assume(smallest_gap(angles) >= 1.0)
    trine = Trine.from_degrees(angles).permuted(binding)
    labels = exit_labels(trine)
    batch = sample_protocol(trine, TRIALS, seed)
    for i in range(TRIALS):
        record = run_trial(trine, TrialRng.for_trial(seed, i), i)
        got = [int(record.value_a), int(record.value_b),
               labels.index(record.exit_a), labels.index(record.exit_b)]
        assert got == batch[i].tolist(), (angles, binding, seed, i)


# weights with zeros and subnormals, a row sum off 1 by a few ulps, and
# raw entries above 1 after it
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
    ulps=st.integers(-4, 4),
    above=st.lists(st.floats(1.0, 4.0), max_size=2),
    draws=st.lists(st.integers(0, 2**53 - 1), max_size=8),
)
def test_thresholds_agree_with_the_float_rule(weights, ulps, above, draws):
    total = math.fsum(weights)
    assume(total > 0.0)
    probs = np.array(weights) / total
    raw = np.cumsum(probs) * (1.0 + ulps * 2.0**-52)
    # _thresholds leaves the last column out, so each row ends in a pinned 1
    for row in (np.concatenate([raw, above, [1.0]]), _kernels.cumulative(probs)):
        columns = _kernels._thresholds(row[None])
        thresholds = np.array([column[0] for column in columns])
        edges = {int(t) + d for t in thresholds for d in (-1, 0, 1)} | {0, 2**53 - 1}
        m = np.array(sorted(x for x in edges | set(draws) if 0 <= x < 2**53), dtype=np.int64)
        u = m * 2.0**-53  # exact: m is below 2**53
        assert np.array_equal(thresholds[:, None] <= m, row[:-1, None] <= u), row.tolist()
        got = _kernels._Stream(len(m)).pick(columns, 0, m)
        assert got.tolist() == np.count_nonzero(row[:-1, None] <= u, axis=0).tolist()


@contextlib.contextmanager
def chunk_size(size: int):
    saved = _kernels.CHUNK
    _kernels.CHUNK = size
    try:
        yield
    finally:
        _kernels.CHUNK = saved


def sampled_bytes(trials: int, seed: int) -> tuple[str, str, bytes]:
    """The epr table and the toolate table and records of one config."""
    epr = ExperimentConfig("epr_standard", trials=trials, master_seed=seed)
    value_first = ExperimentConfig("toolate", trials=trials, master_seed=seed)
    records = io.BytesIO()
    table = run_toolate(value_first, records)
    return (run_epr(epr).to_csv_text(metadata(epr)), table.to_csv_text(metadata(value_first)),
            records.getvalue())


# runs that end just before, on and just after a chunk boundary, from
# chunks of one trial up to a quarter of the default size
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    chunk=st.integers(1, 1 << 12),
    chunks=st.integers(0, 3),
    offset=st.integers(-1, 1),
    seed=st.integers(0, 2**64 - 1),
)
def test_epr_and_toolate_bytes_do_not_depend_on_the_chunk_size(chunk, chunks, offset, seed):
    trials = max(0, chunk * chunks + offset)
    want = sampled_bytes(trials, seed)
    with chunk_size(chunk):
        assert sampled_bytes(trials, seed) == want
