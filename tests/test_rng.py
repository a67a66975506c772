import numpy as np

from toolate import _kernels
from toolate.rng import GOLDEN, TrialRng, mix, mix64, trial_seed, uniform_at


def test_mix_is_deterministic_and_64_bit():
    assert mix(12345) == mix(12345)
    assert 0 <= mix(2**64 - 1) < 2**64
    assert mix(2**64 + 5) == mix(5)  # masked down


def test_mix64_depends_on_both_arguments():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0, 0) != mix64(0, 1)


def test_uniforms_in_unit_interval():
    values = [uniform_at(987654321, k) for k in range(1000)]
    assert all(0.0 <= u < 1.0 for u in values)
    assert len(set(values)) == 1000


def test_trial_rng_matches_indexed_stream():
    rng = TrialRng.for_trial(42, 7)
    seed = trial_seed(42, 7)
    assert rng.seed == seed
    assert [rng.uniform() for _ in range(5)] == [uniform_at(seed, k) for k in range(5)]


def test_kernel_trial_seeds_match_python_route():
    seeds = _kernels.trial_seeds(42, 64, 0, _kernels._Stream(64))
    assert seeds.dtype == np.uint64
    assert [int(s) for s in seeds] == [trial_seed(42, i) for i in range(64)]
    start = _kernels.CHUNK - 2
    offset = _kernels.trial_seeds(42, 5, start, _kernels._Stream(5))
    assert offset.tolist() == [trial_seed(42, start + k) for k in range(5)]


def test_kernel_trial_seeds_reuse_one_buffer_per_stream():
    stream = _kernels._Stream(8)
    master = 2**64 - 3  # so start * GOLDEN + master wraps past 2**64
    for start, trials in ((0, 8), (8, 8), (2**63, 8), (2**64 - 4, 3)):
        seeds = _kernels.trial_seeds(master, trials, start, stream)
        assert np.shares_memory(seeds, stream.seeds)
        assert seeds.tolist() == [trial_seed(master, start + k) for k in range(len(seeds))]


def test_golden_constant_is_the_published_one():
    assert GOLDEN == 0x9E3779B97F4A7C15


def test_mix_gives_the_published_splitmix64_outputs():
    # the first three outputs of splitmix64 seeded with 0; the kernels
    # share these constants, so the scalar-vs-batch tests cannot catch a wrong one
    outputs = [mix(k * GOLDEN) for k in (1, 2, 3)]
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
