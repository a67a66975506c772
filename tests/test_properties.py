"""Derandomized property tests: the same examples on every run."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toolate.experiments import sample_protocol
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
