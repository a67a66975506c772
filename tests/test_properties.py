"""Derandomized property tests: the same examples on every run."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import random_state
from oracles import (
    composed_distribution_by_branch,
    records_text_one_format,
    stage_conditionals_by_branch,
)
from toolate import _kernels, qcore
from toolate.audit import oracle_conditional_state
from toolate.cli import main
from toolate.experiments import (
    EstimateTable,
    ExperimentConfig,
    _thousands,
    metadata,
    record_tails,
    records_text,
    run_epr,
    run_toolate,
    sample_protocol,
)
from toolate.protocol import (
    JOINT_DIM,
    JOINT_LAYOUT,
    PARTICLE_A,
    PARTICLE_B,
    STAGE_ORDERS,
    JointState,
    Trine,
    composed_distribution,
    degree_text,
    exit_labels,
    exit_projector,
    run_trial,
    stage_conditionals,
    value_projectors,
)
from toolate.rng import TrialRng
from toolate.spinlab import SpinValue, chsh_value, correlation_exact, joint_value_probabilities

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


def collapsed_states(trine: Trine) -> list[np.ndarray]:
    """The prepared pair and every state that value and exit collapses
    reach from it, along each distinct prefix of ``STAGE_ORDERS`` short
    of the last stage; a collapse divides its row by the square root of
    its weight, as the runtime routes do."""
    values, exits = trine.families
    states, seen = [], set()
    for order in STAGE_ORDERS:
        for stop in range(len(order)):
            if order[:stop] in seen:
                continue
            seen.add(order[:stop])
            level = [trine.pair]
            for tag in order[:stop]:
                family = exits if tag[0] == "o" else values
                nxt = []
                for vec in level:
                    weights, rows = qcore.projections(family.stack, vec, "AB".index(tag[1]))
                    nxt += [row / np.sqrt(w) for w, row in zip(weights, rows) if w > qcore.ZERO_PROB]
                level = nxt
            states += level
    return states


# each particle's 6x6 families on its own factor of the pair, against
# the 36x36 operators kron(P, I) and kron(I, P)
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(angles=st.tuples(degrees, degrees, degrees))
def test_factor_weights_match_the_pair_operators(angles):
    assume(smallest_gap(angles) >= 1.0)
    for binding in BINDINGS:
        trine = Trine.from_degrees(angles).permuted(binding)
        values, exits = trine.families
        pair_ops = [
            (particle, family, np.array(pair_family))
            for particle in (PARTICLE_A, PARTICLE_B)
            for family, pair_family in (
                (values, value_projectors(trine, particle)),
                (exits, [exit_projector(trine, particle, label) for label in exit_labels(trine)]),
            )
        ]
        for state in collapsed_states(trine):
            for particle, family, pair_stack in pair_ops:
                weights, rows = qcore.projections(family.stack, state, particle)
                # projection_probability's weight of each 36x36 operator
                want_rows = pair_stack @ state
                want = np.clip([np.vdot(state, row).real for row in want_rows], 0.0, 1.0)
                assert weights.tobytes() == want.tobytes(), (angles, binding)
                assert np.array_equal(rows, want_rows)


# a gap between neighbouring orientations, down to the 1e-9 degree that
# labels resolve
gaps = st.one_of(st.sampled_from([1e-9, 2e-9, 1e-6, 1e-4]), st.floats(1e-9, 180.0))
# three orientations anywhere, or three close ones
trine_degrees = st.one_of(
    st.tuples(degrees, degrees, degrees),
    st.builds(lambda a, g, h: (a, a + g, a + g + h), degrees, gaps, gaps),
)


# every trine a config accepts, however close its orientations: the
# families it builds are projectors, and projecting with them never
# fails the check on the operator
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(angles=trine_degrees)
@example(angles=(0.0, 1e-9, 2e-9))
@example(angles=(0.0, 1e-9, 240.0))
@example(angles=(10.0, 10.0001, 10.0002))
def test_accepted_trines_build_families_that_pass_the_projector_check(angles):
    try:
        ExperimentConfig("toolate", angles=angles)
    except ValueError:
        assume(False)
    for binding in BINDINGS:
        trine = ExperimentConfig("toolate", angles=angles, port_binding=binding).trine()
        assert all(qcore.is_projector(m) for family in trine.families for m in family)
        tables = stage_conditionals(trine)
        for va in SpinValue:
            for vb in SpinValue:
                if tables.p_value_b[va, vb] > qcore.ZERO_PROB:
                    oracle_conditional_state(va, vb, trine)


def accepted_trines(angles) -> list[Trine]:
    """The trine of ``angles`` under each port binding, or no trine if a
    config refuses the angles."""
    try:
        return [ExperimentConfig("toolate", angles=angles, port_binding=binding).trine()
                for binding in BINDINGS]
    except ValueError:
        return []


# the stage-at-a-time walks against the depth-first walks that make one
# qcore.projections call per branch state, on random and close trines
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(angles=trine_degrees)
@example(angles=(0.0, 120.0, 240.0))
@example(angles=(10.0, 10.0001, 10.0002))
@example(angles=(0.0, 1e-9, 240.0))
def test_stage_walks_match_the_depth_first_walks_bit_for_bit(angles):
    trines = accepted_trines(angles)
    assume(trines)
    for trine in trines:
        state = JointState(trine.pair, trine)
        for order in STAGE_ORDERS:
            want = composed_distribution_by_branch(state, order)
            assert composed_distribution(state, order).tobytes() == want.tobytes(), (angles, order)
        tables = stage_conditionals(trine)
        got = (tables.p_value_a, tables.p_value_b, tables.p_orient_a, tables.p_orient_b)
        want = stage_conditionals_by_branch(trine)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want], angles


# a stack of states against one call per state, on every state the
# walks reach, each family whole and by value, on either factor
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(angles=st.tuples(degrees, degrees, degrees), binding=st.sampled_from(BINDINGS))
@example(angles=(10.0, 10.0001, 10.0002), binding=(0, 1, 2))
def test_stacked_projections_match_one_call_per_state(angles, binding):
    assume(smallest_gap(angles) > 0.0)
    trine = Trine.from_degrees(angles).permuted(binding)
    states = np.array(collapsed_states(trine))
    for family in trine.families:
        for stack in (family.stack, family.stack[0::2], family.stack[1::2]):
            for factor, count in itertools.product((PARTICLE_A, PARTICLE_B), (0, 1, len(states))):
                weights, rows = qcore.projections(stack, states[:count], factor)
                assert weights.shape == (count, len(stack))
                assert rows.shape == (count, len(stack), JOINT_DIM)
                for state, got_weights, got_rows in zip(states[:count], weights, rows):
                    want_weights, want_rows = qcore.projections(stack, state, factor)
                    assert got_weights.tobytes() == want_weights.tobytes(), (angles, factor)
                    assert got_rows.tobytes() == want_rows.tobytes(), (angles, factor)


def test_an_empty_stack_of_states_gives_empty_arrays(trine):
    for family, factor in itertools.product(trine.families, (PARTICLE_A, PARTICLE_B)):
        weights, rows = qcore.projections(family.stack, np.empty((0, JOINT_DIM)), factor)
        assert weights.shape == (0, len(family)) and rows.shape == (0, len(family), JOINT_DIM)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_stack_is_refused_for_one_non_finite_amplitude(trine, bad):
    values, _ = trine.families
    states = np.array([trine.pair] * 3)
    states[2, 35] = complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        qcore.projections(values.stack, states)
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        qcore.reduced_density(states, JOINT_LAYOUT, (0,))


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(angles=st.tuples(degrees, degrees, degrees), binding=st.sampled_from(BINDINGS))
def test_stacked_reduced_density_matches_one_call_per_state(angles, binding):
    assume(smallest_gap(angles) > 0.0)
    trine = Trine.from_degrees(angles).permuted(binding)
    states = np.array(collapsed_states(trine))
    for keep in ((0,), (1, 3), (0, 1), (2,), (3,), ()):
        want = [qcore.reduced_density(state, JOINT_LAYOUT, keep) for state in states]
        for stack in (states, states[None]):
            got = qcore.reduced_density(stack, JOINT_LAYOUT, keep)
            assert got.shape == stack.shape[:-1] + want[0].shape
            assert got.tobytes() == np.array(want).reshape(got.shape).tobytes(), (angles, keep)


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


def fails_norm_check(vec) -> bool:
    try:
        qcore.require_normalized(vec)
    except ValueError:
        return True
    return False


# norms within 3e-10 of 1, about the ATOL boundaries on either side
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=36),
    norm=st.floats(1.0 - 3e-10, 1.0 + 3e-10),
)
def test_norm_check_agrees_with_linalg_norm(parts, norm):
    vec = np.array([complex(re, im) for re, im in parts])
    length = np.linalg.norm(vec)
    assume(length > 0.0)
    vec = vec / length * norm
    off = abs(np.linalg.norm(vec) - 1.0)
    # the two norms may differ in their last bits, so not within 1e-15 of ATOL
    assume(abs(off - qcore.ATOL) > 1e-15)
    assert fails_norm_check(vec) == (off > qcore.ATOL), (off, len(parts))


def clipped_by_function(arr, rows) -> np.ndarray:
    """``qcore._born_weights`` through the ``np.clip`` function."""
    return np.clip([np.vdot(arr, row).real for row in rows], 0.0, 1.0)


# a row c * arr weighs about c: rounding dust below 0 and above 1, and
# 0; None is a row orthogonal to arr, whose weight is dust of either sign
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    dim=st.sampled_from([2, 6, 36]),
    seed=st.integers(0, 2**32 - 1),
    scales=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.floats(-1e-15, 0.0), st.floats(1.0, 1.0 + 1e-15),
                  st.just(-0.0), st.none()),
        min_size=1, max_size=6,
    ),
)
def test_born_weights_are_the_clip_function_bit_for_bit(dim, seed, scales):
    rand = np.random.default_rng(seed)
    arr = random_state(rand, dim)
    rows = []
    for scale in scales:
        if scale is None:
            other = random_state(rand, dim)
            rows.append(other - np.vdot(arr, other) * arr)
        else:
            rows.append(scale * arr)
    got = qcore._born_weights(arr, rows)
    assert got.tobytes() == clipped_by_function(arr, rows).tobytes(), scales


def test_born_weights_keep_a_negative_zero(monkeypatch):
    # np.vdot sums from +0.0, so no row reaches a weight of -0.0
    # through it; a stand-in gives one, and the clip must keep its sign
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: complex(-0.0, 0.0) if not b.any() else vdot(a, b))
    arr = np.array([1, 0], dtype=complex)
    rows = [np.zeros(2, dtype=complex), arr]
    got = qcore._born_weights(arr, rows)
    assert got.tobytes() == clipped_by_function(arr, rows).tobytes()
    assert np.signbit(got).tolist() == [True, False]


def cumulative_by_functions(probs) -> np.ndarray:
    """``_kernels.cumulative`` through the ``np.cumsum`` function."""
    probs = np.asarray(probs, dtype=np.float64)
    cum = np.cumsum(probs, axis=-1)
    positives = np.cumsum(probs > 0.0, axis=-1)
    cum[positives == positives[..., -1:]] = 1.0
    return cum


# rows with zeros, along the last axis of 1-, 2- and 3-dim tables; one
# row is zeroed when zero_row is set
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    probs=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=6),
                 elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    zero_row=st.none() | st.integers(0, 35),
)
def test_cumulative_is_the_cumsum_function_bit_for_bit(probs, zero_row):
    if zero_row is not None:
        rows = probs.reshape(-1, probs.shape[-1])
        rows[zero_row % len(rows)] = 0.0
    got = _kernels.cumulative(probs)
    want = cumulative_by_functions(probs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), probs.tolist()


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


def epr_by_pair(config: ExperimentConfig) -> EstimateTable:
    """The epr table built one setting pair at a time: E from
    ``correlation_exact``, S from ``chsh_value``, counts drawn from the
    four per-pair weight rows, and each estimate the dot of its integer
    counts with the value-pair signs, over n."""
    a, a2, b, b2 = config.chsh_angles()
    pairs = [(a, b), (a, b2), (a2, b), (a2, b2)]
    labels = [f"E({degree_text(x)},{degree_text(y)})" for x, y in pairs]
    exact = [correlation_exact(x, y) for x, y in pairs]
    s_exact = chsh_value(a, a2, b, b2)
    n = config.trials
    estimates, errors, s_est, s_err = [None] * 4, [None] * 4, None, None
    if n > 0:
        probs = qcore.snap([joint_value_probabilities(x, y) for x, y in pairs])
        counts = _kernels.categorical_counts(_kernels.cumulative(probs), config.master_seed, n)
        signs = np.array([1.0, -1.0, -1.0, 1.0])  # uu, ud, du, dd
        estimates = [float(counts[i] @ signs) / n for i in range(4)]
        errors = [math.sqrt(max(0.0, 1.0 - e * e) / n) for e in estimates]
        s_est = estimates[0] - estimates[1] + estimates[2] + estimates[3]
        s_err = math.sqrt(sum(se * se for se in errors))
    table = EstimateTable()
    for label, e, est, err in zip(labels, exact, estimates, errors):
        table.add(label, exact=e, estimate=est, stderr=err, n=n)
    table.add("chsh_S", exact=s_exact, estimate=s_est, stderr=s_err, n=n)
    table.add("chsh_abs_S", exact=abs(s_exact),
              estimate=None if s_est is None else abs(s_est), stderr=s_err, n=n)
    return table


setting_degrees = st.one_of(
    st.floats(-720.0, 720.0, allow_nan=False), st.integers(-720, 720).map(float)
)


@st.composite
def epr_settings(draw):
    """Four settings (a, a', b, b'), with b often a itself turned by
    whole turns, so that one setting sits on both sides."""
    a, a2, b, b2 = (draw(setting_degrees) for _ in range(4))
    if draw(st.booleans()):
        b = a + 360.0 * draw(st.integers(-2, 2))
    return a, a2, b, b2


# the one-table run against the table built pair by pair, bit for bit,
# at trial counts around a chunk and at seeds 0, -7 and 2**64 - 1
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    angles=epr_settings(),
    trials=st.sampled_from([0, 1, _kernels.CHUNK - 1, _kernels.CHUNK, _kernels.CHUNK + 1]),
    seed=st.sampled_from([0, -7, 2**64 - 1]),
)
@example(angles=(30.0, 90.0, 390.0, 135.0), trials=10, seed=3)
@example(angles=(0.0, 90.0, 0.0, 45.0), trials=_kernels.CHUNK + 1, seed=-7)
def test_epr_rows_match_the_table_built_pair_by_pair(angles, trials, seed):
    try:
        config = ExperimentConfig("epr_standard", angles=angles, trials=trials, master_seed=seed)
    except ValueError:
        assume(False)
    meta = metadata(config)
    assert run_epr(config).to_csv_text(meta) == epr_by_pair(config).to_csv_text(meta), config


# first trials at and around the thousands, the default chunk and each
# new digit count, and ranges up to two and a half blocks long
RECORD_STARTS = sorted(
    {0, 1, 998, 999, 1000, 16383, 16384} | {10**k + d for k in range(1, 13) for d in (-1, 0)}
)


def random_records(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n random trial seeds and record cells."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    return seeds, rng.integers(0, 36, size=n)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    start=st.one_of(st.sampled_from(RECORD_STARTS), st.integers(0, 10**13)),
    n=st.integers(1, 2500),
    seed=st.integers(0, 2**32 - 1),
)
@example(start=0, n=2500, seed=0)
@example(start=999, n=2, seed=1)
@example(start=998, n=1003, seed=2)
@example(start=10**12 - 1, n=2, seed=3)
def test_records_text_is_the_one_format_form(start, n, seed):
    seeds, cells = random_records(n, seed)
    tails = record_tails(Trine.default())
    # block by block, as run_toolate writes them
    blocks = (records_text(tails, start + a, seeds[a:b], cells[a:b]) for a, b in _thousands(start, n))
    assert b"".join(blocks) == records_text_one_format(tails, start, seeds, cells)


@pytest.mark.parametrize("start, n", [(999, 2), (0, 1001), (5001, 1000)])
def test_records_text_refuses_a_range_that_crosses_a_thousand(start, n):
    seeds, cells = random_records(n, 0)
    with pytest.raises(ValueError):
        records_text(record_tails(Trine.default()), start, seeds, cells)


# argvs from a token grammar: a subcommand or none (a bad one among
# them), then flags with values, good and bad, and stray tokens; every
# flag but --out and --config, which touch files, and small trial counts
COMMANDS = [None, "epr", "toolate", "interfere", "erase", "lhv", "verify", "nope", "--help"]
FLAGS = ["--angles", "--trials", "--seed", "--port-binding", "--threshold", "--bogus", "-h"]
VALUES = [
    "0,120,240", "0,90,45,135", "0,90,200", "0,0.0001,0.0002", "0,1e-10,2e-10", "10,370,100",
    "2,0,1", "0,0,1", "1,2", ",", "", "x", "nan", "-inf", "1e400", "-1", "0", "7", "0.5",
    str(2**64),
]
argvs = st.builds(
    lambda command, parts: ([command] if command else []) + [t for part in parts for t in part],
    st.sampled_from(COMMANDS),
    st.lists(
        st.one_of(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
                  st.tuples(st.sampled_from(COMMANDS[1:] + VALUES))),
        max_size=4,
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argv=argvs)
def test_every_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    lines = err.getvalue().splitlines()
    if code == 0:
        return
    assert code == 1, (argv, code, lines)
    one_line = len(lines) == 1 and lines[0].startswith("toolate: ")
    usage = bool(lines) and lines[0].startswith("usage: toolate") and (
        lines[-1].startswith("toolate: error: "))
    assert one_line or usage, (argv, lines)
