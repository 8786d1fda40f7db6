import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import numpy.random  # loaded up front, so no traced peak counts its ~0.7 MiB import
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racerank.montecarlo as mc
from racerank.lattice_oracle import brute_force_composition, brute_force_score
from racerank.montecarlo import (
    SimConfig,
    curve_sweep,
    empirical_rank_moments,
    middle_band_grid,
    simulate,
)
from racerank.two_race import full_distribution

from _budgets import GRID, MOMENTS, MONTECARLO, PHILOX, assert_refused
from _doubles import block, record
from _reference import (
    SEED, binwise_ok, inverse_orders, pooled_chi2, rank_rows, trial_uniforms,
)


def _trial_orders(stream, first, n_trials, n_r, width):
    """Row orders of trials [first, first + n_trials): rows [first:] of a
    run of first + n_trials trials."""
    tags, _ = mc._rank_sums(first + n_trials, n_r, width)
    chunks = mc._order_chunks(SEED, stream, first + n_trials, tags)
    return np.concatenate(list(chunks))[first:]


def _columns(shape):
    # column tags 0..width - 1 along every row of a words array's shape
    return np.broadcast_to(np.arange(shape[-1], dtype=np.uint64), shape)


def _chunk_args(n_b, n_r, tracked=False):
    # _trial_bytes' arguments for a run: tracked rows tag their leftover
    # values (largest n_b) in one tile, virtual rows their columns (largest
    # n_b - 1) in a tag tile beside the float64 rank weights
    return (n_r, n_b - 1, n_b, 1) if tracked else (n_r, n_b, n_b - 1, 2)


def _words(*words):
    # one integer of 64-bit words, word 0 the low 64 bits, as Random123 lists them
    return sum(w << 64 * i for i, w in enumerate(words))


@pytest.mark.parametrize(
    "counter, key, answer",
    [
        pytest.param(
            _words(0, 0, 0, 0),
            _words(0, 0),
            "16554d9eca36314c db20fe9d672d0fdc d7e772cee186176b 7e68b68aec7ba23b",
            id="zero",
        ),
        pytest.param(
            _words(0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
            _words(0x452821E638D01377, 0xBE5466CF34E90C6C),
            "a528f45403e61d95 38c72dbd566e9788 a5a1610e72fd18b5 57bd43b5e52b7fe6",
            id="pi",
        ),
    ],
)
def test_philox_gives_the_random123_known_answers(counter, key, answer):
    # the generator itself, before any kernel reads it: numpy increments the
    # counter before each block, so the spec's counter c is numpy's c - 1
    bitgen = np.random.Philox(key=key, counter=(counter - 1) % 2**256)
    assert [f"{w:016x}" for w in bitgen.random_raw(4)] == answer.split()


def test_trial_uniforms_blocking_invariance():
    whole = trial_uniforms(SEED, 0, 0, 10, 7)
    split = np.vstack(
        [trial_uniforms(SEED, 0, 0, 3, 7), trial_uniforms(SEED, 0, 3, 7, 7)]
    )
    singles = np.vstack([trial_uniforms(SEED, 0, t, 1, 7) for t in range(10)])
    assert (whole == split).all()
    assert (whole == singles).all()


def test_trial_uniforms_streams_differ():
    a = trial_uniforms(SEED, 0, 0, 4, 5)
    b = trial_uniforms(SEED, 1, 0, 4, 5)
    c = trial_uniforms(SEED + 1, 0, 0, 4, 5)
    assert not (a == b).all()
    assert not (a == c).all()


def test_rank_rows_are_permutations():
    u = trial_uniforms(SEED, 0, 0, 200, 6)
    ranks = rank_rows(u)
    for row in ranks:
        assert sorted(row) == [1, 2, 3, 4, 5, 6]


def test_permutation_sum_rule_exact_on_samples():
    for n_b in (3, 10, 50):
        ranks = rank_rows(trial_uniforms(SEED, 0, 0, 500, n_b))
        assert (ranks.sum(axis=1) == n_b * (n_b + 1) // 2).all()
        # also on the keyed-sort path and the scorer used by simulate
        _, score = mc._rank_sums(500, 1, n_b)
        fast = score(_trial_orders(0, 0, 500, 1, n_b))
        assert (fast == ranks).all()


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 200, 2048, 2049])
@pytest.mark.parametrize("n_r", [1, 3])
def test_trial_orders_equal_stable_argsort_of_uniforms(width, n_r):
    n_trials = 5 if width > 100 else 300
    first = 17  # trial t of a run reads counter blocks [t * B, (t + 1) * B)
    orders = _trial_orders(2, first, n_trials, n_r, width)
    u = trial_uniforms(SEED, 2, first, n_trials, n_r * width)
    expected = np.argsort(u.reshape(n_trials, n_r, width), axis=-1, kind="stable")
    assert orders.dtype == np.int64
    assert (orders == expected).all()


def _summed_inverse(orders: np.ndarray, drop_worst: bool) -> np.ndarray:
    ranks = inverse_orders(orders)
    return ranks.sum(axis=1) - (ranks.max(axis=1) if drop_worst else 0)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 200, 2048, 2049])
@pytest.mark.parametrize("n_r", [1, 3])
def test_ranks_equal_put_along_axis_inverse(width, n_r):
    # the scorer's rank sums equal the put_along_axis inverse summed over
    # the races, less its per-boat maximum with drop_worst
    n_trials = 4 if width > 100 else 50
    orders = _trial_orders(1, 5, n_trials, n_r, width)
    if n_r == 1:  # one race's rank sums are its ranks
        assert (_summed_inverse(orders, False) == inverse_orders(orders)[:, 0]).all()
    for drop_worst in (False, True):
        expected = _summed_inverse(orders, drop_worst)
        # built for a longer run, so each chunk reads a prefix of the weight
        # tile (rows 2049 wide hold 3 trials a chunk at 3 races)
        tags, score = mc._rank_sums(n_trials + 3, n_r, width, drop_worst)
        step = len(tags)
        chunks = [orders[i : i + step].copy() for i in range(0, n_trials, step)]
        scores = np.concatenate([score(chunk) for chunk in chunks])
        assert scores.dtype == np.float64
        assert scores.shape == (n_trials, width)
        assert (scores == expected).all()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 40)),
    drop_worst=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ranks_invert_random_permutation_rows(shape, drop_worst, seed):
    rng = np.random.default_rng(seed)
    orders = rng.permuted(np.broadcast_to(np.arange(shape[-1]), shape), axis=-1)
    expected = _summed_inverse(orders, drop_worst)
    _, score = mc._rank_sums(shape[0], shape[1], shape[2], drop_worst)
    assert (score(orders.copy()) == expected).all()


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 200, 2046, 2047, 2048, 2049]),
    rows=st.integers(1, 4),
    distinct=st.integers(1, 3),
    base=st.integers(0, (1 << 53) - 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_order_words_breaks_exact_ties_by_column(width, rows, distinct, base, seed):
    # top 53 bits from at most three adjacent values, so most columns tie
    # exactly on the double and differ only in the 11 discarded low bits
    rng = np.random.default_rng(seed)
    high = base + rng.integers(0, distinct, size=(rows, width), dtype=np.uint64)
    low = rng.integers(0, 1 << 11, size=(rows, width), dtype=np.uint64)
    words = (high << np.uint64(11)) | low
    expected = np.argsort((words >> np.uint64(11)) * 2.0**-53, axis=-1, kind="stable")
    orders = mc._order_words(words.copy(), _columns(words.shape))
    assert (orders == expected).all()
    if width <= 1 << 11:
        # the keyed rows, sorted by the network up to width 5, order as
        # keys tagged with one broadcast arange
        keys = (words & ~mc._COLUMN_MASK) | np.arange(width, dtype=np.uint64)
        assert (orders == (np.sort(keys, axis=-1) & mc._COLUMN_MASK)).all()
    # tracked mode's tags, one row a race of a width + 1 boat fleet, come
    # back taken along the same stable order (keyed up to width 2046)
    ranks = rng.integers(1, width + 2, size=rows).tolist()
    tags, _ = mc._leftover_sums(ranks, width + 1, 1)
    values = mc._order_words(words.copy()[None], tags)
    assert values.dtype == np.int64
    assert (values[0] == np.take_along_axis(tags[0], expected, axis=-1)).all()


@pytest.mark.parametrize("width", sorted(mc._NETWORKS))
def test_networks_sort_every_permutation(width):
    assert mc._NETWORKS.keys() == {1, 2, 3, 4, 5}
    perms = list(itertools.permutations(range(width)))
    for perm in perms:
        row = list(perm)
        for i, j in mc._NETWORKS[width]:
            if row[i] > row[j]:
                row[i], row[j] = row[j], row[i]
        assert row == sorted(row)
    # and through the kernel: high bits hold the permutation
    perms = np.array(perms, dtype=np.uint64)
    expected = np.argsort(perms, axis=-1)
    assert (mc._order_words(perms << np.uint64(11), _columns(perms.shape)) == expected).all()


@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 6, 10, 200])
def test_tally_equals_shifted_bincount_of_axis_sums(width):
    rng = np.random.default_rng(width)
    ahead = rng.random((500, width)) < 0.5
    ahead[0], ahead[1] = True, False  # every boat ahead, and none
    expected = np.bincount(1 + ahead.sum(axis=1), minlength=width + 2)[1:]
    counts = mc._tally(ahead)
    assert counts.tolist() == expected.tolist()
    assert counts[0] >= 1 and counts[width] >= 1


def _broadcast_leftover_sums(tracked, n_b, orders, drop_worst):
    # reference: the leftover values gathered along the column orders, with
    # the race offsets broadcast from shape (n_r, 1)
    leftover = np.array([[v for v in range(1, n_b + 1) if v != r] for r in tracked])
    vals = leftover.ravel()[orders + (n_b - 1) * np.arange(len(tracked))[:, None]]
    return vals.sum(axis=1) - (vals.max(axis=1) if drop_worst else 0)


def _tracked_chunks(tracked, n_b, trials, drop_worst):
    # (tag-sorted scores, reference over the same trials' column orders) per chunk
    n_r, width = len(tracked), n_b - 1
    tags, score = mc._leftover_sums(tracked, n_b, trials, drop_worst)
    tagged = mc._order_chunks(SEED, 3, trials, tags)
    columns = mc._order_chunks(SEED, 3, trials, np.ascontiguousarray(_columns(tags.shape)))
    for values, orders in zip(tagged, columns, strict=True):
        yield score(values), _broadcast_leftover_sums(tracked, n_b, orders, drop_worst)


@pytest.mark.parametrize(
    "tracked, n_b, drop_worst",
    [((1, 2, 3), 3, False), ((1, 2, 3), 3, True), ((1, 4, 6), 6, True), ((2, 9), 10, False)],
)
@pytest.mark.parametrize("extra", [-5000, 0, 777])
def test_tracked_tag_tile_scores_as_gathered_leftover_values(tracked, n_b, drop_worst, extra):
    # the tag tile's sorted values score as the leftover values gathered
    # along the column orders, in runs shorter than one chunk (by 5000
    # trials, or by half of a shorter chunk), of exactly one chunk, and
    # with a final partial chunk after a full one
    step = mc._chunk_trials(*_chunk_args(n_b, len(tracked), tracked=True))
    trials = max(step + extra, step // 2)
    lengths = []
    for scores, expected in _tracked_chunks(tracked, n_b, trials, drop_worst):
        assert scores.dtype == np.int64
        assert (scores == expected).all()
        lengths.append(len(scores))
    assert lengths == ([trials] if extra <= 0 else [step, extra])


@pytest.mark.parametrize(
    "tracked, n_b, tail, branches",
    [
        ((1, 2, 3), 3, 10, 2),
        ((1, 100, 200) * 10, 200, 6, 1),
        (tuple(range(1, 11)), 10, 10, 2),
        ((1, 20, 5, 9, 13, 17, 20, 2), 20, 6, 1),
    ],
)
def test_tracked_drop_worst_passes_and_max_agree(tracked, n_b, tail, branches):
    # 3 x 3 (5957-trial chunks) and 10 x 10 (466, just over the crossover):
    # full chunks by race passes and the tail by the max over the race axis;
    # 20 x 8 (405, just under it) and 30 races of 200 boats (7): all by the max
    trials = 2 * mc._chunk_trials(*_chunk_args(n_b, len(tracked), tracked=True)) + tail
    lengths = []
    for scores, expected in _tracked_chunks(tracked, n_b, trials, True):
        assert (scores == expected).all()
        lengths.append(len(scores))
    assert len({n < mc._RACE_PASS_TRIALS for n in lengths}) == branches
    assert min(lengths) < mc._RACE_PASS_TRIALS


@pytest.mark.parametrize(
    "n_b, tracked",
    [
        pytest.param(2047, True, id="2047"),
        pytest.param(2048, True, id="2048"),
        pytest.param(2049, True, id="2049"),
        pytest.param(2048, False, id="virtual-2048"),
        pytest.param(2049, False, id="virtual-2049"),
    ],
)
def test_tracked_tags_past_the_column_bits_take_the_argsort(monkeypatch, n_b, tracked):
    # a row sorts as keys while its largest tag fits the 11 column bits: the
    # leftover value n_b up to 2047 boats, the column n_b - 1 up to 2048;
    # other rows gather their tags along the stable argsort, and their
    # chunks are charged its orders
    n_r, width, largest, tiles = _chunk_args(n_b, 2, tracked)
    keyed = largest < 1 << 11
    assert mc._keyed(largest) == keyed
    assert mc._trial_bytes(n_r, width, largest, tiles) - mc._trial_bytes(
        n_r, width, 0, tiles
    ) == (0 if keyed else 8 * n_r * width)
    argsorts = record(monkeypatch, mc.np, "argsort", key=lambda words, **kw: kw["kind"])
    if tracked:
        for scores, expected in _tracked_chunks((1, n_b), n_b, 5, False):
            assert (scores == expected).all()
        assert argsorts.total() == (not keyed)  # the column reference, at most 2048 wide, is keyed
    else:
        tags, score = mc._rank_sums(5, n_r, width)
        assert int(tags.max()) == largest
        (orders,) = mc._order_chunks(SEED, 3, 5, tags)
        assert argsorts.total() == (not keyed)
        u = trial_uniforms(SEED, 3, 0, 5, n_r * width).reshape(5, n_r, width)
        expected = _summed_inverse(u.argsort(axis=-1, kind="stable"), False)
        assert (score(orders) == expected).all()


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(n_b=0, n_r=2, trials=10, seed=1, n_t=4)
    with pytest.raises(ValueError):
        SimConfig(n_b=3, n_r=2, trials=0, seed=1, n_t=4)
    with pytest.raises(ValueError, match="n_t is required unless tracked_ranks is given"):
        SimConfig(n_b=3, n_r=2, trials=10, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_b=3, n_r=2, trials=10, seed=1, tracked_ranks=(1, 2, 3))
    with pytest.raises(ValueError):
        SimConfig(n_b=3, n_r=2, trials=10, seed=1, tracked_ranks=(0, 2))
    with pytest.raises(ValueError):
        SimConfig(n_b=3, n_r=2, trials=10, seed=-1, n_t=4)
    with pytest.raises(ValueError, match="not both"):
        SimConfig(n_b=3, n_r=3, trials=10, seed=1, n_t=4, tracked_ranks=(2, 2, 2))
    cfg = SimConfig(n_b=3, n_r=2, trials=10, seed=1, tracked_ranks=[1, 2])
    assert cfg.tracked_ranks == (1, 2)


@pytest.mark.parametrize("n_t", [4.5, np.float64(4.5), np.int64(5), Fraction(9, 2)])
def test_real_n_t_is_compared_as_given(n_t):
    # scores are integers, so every real score between 4 and 5 ranks as 5
    def counts(n_t):
        return simulate(SimConfig(n_b=3, n_r=2, trials=1000, seed=SEED, n_t=n_t)).counts

    assert counts(n_t) == counts(5)


@pytest.mark.parametrize(
    "run",
    [
        lambda: simulate(SimConfig(n_b=3, n_r=2, trials=10, seed=-1, n_t=4)),
        lambda: simulate(SimConfig(n_b=3, n_r=2, trials=10, seed=1 << 64, n_t=4)),
        lambda: simulate(SimConfig(n_b=3, n_r=2, trials=10, seed=1, n_t=4, stream=-1)),
        lambda: simulate(SimConfig(n_b=3, n_r=2, trials=10, seed=1, n_t=4, stream=1 << 64)),
        lambda: empirical_rank_moments(3, 1000, seed=-1),
        lambda: empirical_rank_moments(3, 1000, seed=1 << 64),
        lambda: empirical_rank_moments(3, 1000, seed=1, stream=-1),
        lambda: empirical_rank_moments(3, 1000, seed=1, stream=1 << 64),
    ],
)
def test_key_words_outside_64_bits_are_refused(monkeypatch, run):
    # -1 once wrapped to 2**64 - 1 and silently aliased that seed or stream
    block(monkeypatch, PHILOX)
    with pytest.raises(ValueError, match="(seed|stream) must be a 64-bit unsigned integer"):
        run()


def test_key_words_admit_the_64_bit_edges():
    top = (1 << 64) - 1
    SimConfig(n_b=3, n_r=2, trials=10, seed=top, n_t=4, stream=top)
    assert empirical_rank_moments(3, 1000, seed=top, stream=top).trials == 1000


@pytest.mark.parametrize("numpy_int", [np.int64, np.uint64])
def test_numpy_integer_key_words_read_as_their_value(numpy_int):
    # numpy_int(1) << 64 is 0, so a numpy stream once reran stream 0
    def counts(seed, stream):
        config = SimConfig(n_b=3, n_r=2, trials=1000, seed=seed, n_t=4, stream=stream)
        assert type(config.seed) is type(config.stream) is int
        return simulate(config).counts

    assert counts(numpy_int(5), numpy_int(1)) == counts(5, 1) != counts(5, 0)
    moments = empirical_rank_moments(3, 1000, numpy_int(5), stream=numpy_int(1))
    assert moments == empirical_rank_moments(3, 1000, 5, stream=1)


def test_trial_budget_admits_its_cap():
    # far above every tested trial: the widest is 2100 boats x 2 races
    assert mc.TRIAL_WORD_BUDGET >= 100 * 2100 * 2
    SimConfig(n_b=mc.TRIAL_WORD_BUDGET, n_r=1, trials=1, seed=1, n_t=2)
    SimConfig(n_b=mc.TRIAL_WORD_BUDGET // 2, n_r=2, trials=1, seed=1, tracked_ranks=(1, 1))


# one config per path through simulate's chunk loop
CHUNK_CASES = [
    SimConfig(n_b=5, n_r=3, trials=300, seed=SEED, n_t=9),
    SimConfig(n_b=5, n_r=3, trials=300, seed=SEED, n_t=7, drop_worst=True),
    SimConfig(n_b=3, n_r=3, trials=300, seed=SEED, tracked_ranks=(1, 2, 3)),  # width 2, padded
    SimConfig(n_b=6, n_r=3, trials=300, seed=SEED, tracked_ranks=(1, 4, 6), drop_worst=True),
    SimConfig(n_b=1, n_r=2, trials=300, seed=SEED, tracked_ranks=(1, 1)),  # width 0
]


def _chunk_case_results():
    return (
        [simulate(cfg) for cfg in CHUNK_CASES],
        empirical_rank_moments(4, 1000, seed=SEED),
        empirical_rank_moments(4, 1049, seed=SEED),  # 49 trials left out, none drawn
    )


_reference_results = functools.cache(_chunk_case_results)  # at the default chunk size


@settings(max_examples=25, deadline=None)
# budgets below a trial's bytes (51 words at 5 x 3) give one-trial chunks
@given(chunk_bytes=st.one_of(st.just(mc._CHUNK_BYTES), st.integers(1, 4096)))
def test_simulate_bit_identical_and_chunk_independent(chunk_bytes):
    reference = _reference_results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_CHUNK_BYTES", chunk_bytes)
        assert _chunk_case_results() == reference


@pytest.mark.parametrize("config", CHUNK_CASES[:3])
def test_one_philox_generator_per_run(monkeypatch, config):
    reference = _reference_results()
    counters = record(monkeypatch, mc.np.random, "Philox", key=lambda **kw: kw["counter"])
    monkeypatch.setattr(mc, "_CHUNK_BYTES", 2048)  # dozens of chunks per run
    assert simulate(config) == reference[0][CHUNK_CASES.index(config)]
    assert empirical_rank_moments(4, 1000, seed=SEED) == reference[1]
    assert empirical_rank_moments(4, 1049, seed=SEED) == reference[2]
    assert counters == Counter({0: 3})


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chunk_bound(n_r, width, largest_tag, tiles):
    # one chunk's charge plus half its unpadded words: the trial offsets and
    # the sort and tally temporaries the charge leaves out fit in that half,
    # while a second chunk's orders, held as the next chunk is drawn, would
    # not (they are a whole chunk's unpadded words)
    step = mc._chunk_trials(n_r, width, largest_tag, tiles)
    return step * mc._trial_bytes(n_r, width, largest_tag, tiles) + 4 * step * n_r * width


def test_moments_hold_one_batch_and_one_chunk():
    # the (2, size) batch and its product with boat 1's row, plus one chunk;
    # the whole (2, trials) array is 64 MiB
    trials = 1 << 22
    batch_bytes = 2 * 8 * (trials // 50)
    peak = _traced_peak(lambda: empirical_rank_moments(3, trials, seed=SEED))
    assert peak <= 2 * batch_bytes + _chunk_bound(*_chunk_args(3, 1))


def test_simulate_holds_one_chunk_at_a_time():
    # 4 chunks at n_b = 4, n_r = 2 (the network path), whose comparators'
    # `smaller` temporary is a quarter of the words
    args = _chunk_args(4, 2)
    config = SimConfig(n_b=4, n_r=2, trials=4 * mc._chunk_trials(*args), seed=SEED, n_t=5)
    assert _traced_peak(lambda: simulate(config)) <= _chunk_bound(*args)


# every other path through a chunk: the key sort, the argsort of rows over
# 2048 wide (whose orders are a second copy of the words), padded drop-worst
# with its running maximum, and tracked mode with and without drop-worst and
# on the argsort path (whose tags are gathered into the words)
PEAK_PATHS = {
    "sort": dict(n_b=8, n_r=3, n_t=12),
    "argsort": dict(n_b=2100, n_r=2, n_t=2101),
    "padded drop-worst": dict(n_b=5, n_r=3, n_t=7, drop_worst=True),
    "tracked": dict(n_b=3, n_r=3, tracked_ranks=(1, 2, 3)),
    "tracked drop-worst": dict(n_b=3, n_r=3, tracked_ranks=(1, 2, 3), drop_worst=True),
    "tracked argsort": dict(n_b=2100, n_r=2, tracked_ranks=(1, 2100)),
}


@pytest.mark.parametrize("path", PEAK_PATHS)
def test_each_path_holds_one_chunk_budget(path):
    # three full chunks and a partial one
    kwargs = PEAK_PATHS[path]
    args = _chunk_args(kwargs["n_b"], kwargs["n_r"], "tracked_ranks" in kwargs)
    config = SimConfig(trials=3 * mc._chunk_trials(*args) + 1, seed=SEED, **kwargs)
    assert _traced_peak(lambda: simulate(config)) <= _chunk_bound(*args)


def test_simulate_counts_sum_to_trials():
    res = simulate(SimConfig(n_b=4, n_r=2, trials=12_345, seed=SEED, n_t=5))
    assert sum(res.counts) == 12_345
    assert abs(sum(res.empirical_probs) - 1.0) <= 1e-12


def test_simulate_matches_exact_two_race():
    trials = 100_000
    res = simulate(SimConfig(n_b=3, n_r=2, trials=trials, seed=SEED, n_t=4))
    assert binwise_ok(res.empirical_probs, full_distribution(3, 4).probs, trials)


# n_b = 4 ranks with the sorting networks, n_b = 8 and 200 with ndarray.sort;
# scores below, at and above the middle n_b + 1
_LAW_CASES = [(4, 3), (4, 5), (4, 7), (8, 5), (8, 9), (8, 13), (200, 150), (200, 201), (200, 300)]


@pytest.mark.parametrize("n_b, n_t", _LAW_CASES)
def test_simulate_law_matches_exact_two_race_law(n_b, n_t):
    # 10^5 trials, ranks pooled to expect >= 5, family alpha 10^-3 Bonferroni-split
    res = simulate(SimConfig(n_b, 2, 10**5, SEED, n_t))
    chi2, df, p = pooled_chi2(res.counts, full_distribution(n_b, n_t).probs)
    assert df >= 1
    assert p > 1e-3 / len(_LAW_CASES), f"chi2 = {chi2:.1f} on {df} df"


# tracked fleets at 2 and 3 races against the composition enumeration, and
# virtual n_r = 3 against the score enumeration, below, at and above the
# middle score; all on the network path
_TRACKED_LAW_CASES = [
    (4, (1, 4)), (5, (2, 2)), (6, (1, 5)), (6, (3, 4)),
    (3, (1, 2, 3)), (4, (1, 1, 4)), (5, (1, 3, 5)), (6, (2, 4, 6)),
]
_THREE_RACE_LAW_CASES = [(3, 4), (3, 7), (4, 7), (4, 9), (5, 6), (5, 9), (5, 12)]
_ENUMERATED_LAW_TESTS = len(_TRACKED_LAW_CASES) + len(_THREE_RACE_LAW_CASES)


def _assert_law_fits(config, law, family=_ENUMERATED_LAW_TESTS):
    # 10^5 trials, ranks pooled to expect >= 5, family alpha 10^-3
    # Bonferroni-split over the family's cases
    chi2, df, p = pooled_chi2(simulate(config).counts, law.probs)
    assert df >= 1
    assert p > 1e-3 / family, f"chi2 = {chi2:.1f} on {df} df"


@pytest.mark.parametrize("n_b, ranks", _TRACKED_LAW_CASES)
def test_tracked_law_matches_composition_enumeration(n_b, ranks):
    config = SimConfig(n_b, len(ranks), 10**5, SEED, tracked_ranks=ranks)
    _assert_law_fits(config, brute_force_composition(n_b, ranks))


@pytest.mark.parametrize("n_b, n_t", _THREE_RACE_LAW_CASES)
def test_three_race_law_matches_score_enumeration(n_b, n_t):
    _assert_law_fits(SimConfig(n_b, 3, 10**5, SEED, n_t), brute_force_score(n_b, 3, n_t))


# a tracked boat of 7, whose 6-wide rows take ndarray.sort, at scores below,
# at and above the middle 8 (its enumeration takes ~7 ms a law), in a family
# of its own
_SORTED_TRACKED_LAW_CASES = [(2, 3), (2, 5), (4, 4), (6, 7)]


@pytest.mark.parametrize("ranks", _SORTED_TRACKED_LAW_CASES)
def test_sorted_tracked_law_matches_composition_enumeration(ranks):
    config = SimConfig(7, 2, 10**5, SEED, tracked_ranks=ranks)
    law = brute_force_composition(7, ranks)
    _assert_law_fits(config, law, family=len(_SORTED_TRACKED_LAW_CASES))


@pytest.mark.parametrize("trials, seed, counts, se", [
    (1, SEED, (0, 1, 0, 0), 0.0),  # one trial estimates no spread
    (2, SEED + 1, (0, 1, 1, 0), 0.5),  # Bessel variance 1/2, SE sqrt(1/2 / 2)
])
def test_std_error_mean_at_one_and_two_trials(trials, seed, counts, se):
    res = simulate(SimConfig(n_b=3, n_r=2, trials=trials, seed=seed, n_t=4))
    assert res.counts == counts
    assert res.std_error_mean == se


def test_std_error_variance_from_the_fourth_central_moment():
    res = simulate(SimConfig(n_b=5, n_r=3, trials=1000, seed=SEED, n_t=9))
    # the mean and central moments of m, exactly, from the counts
    mean = Fraction(sum(m * c for m, c in enumerate(res.counts, 1)), 1000)
    var, m4 = (sum((m - mean) ** k * c for m, c in enumerate(res.counts, 1)) / 1000
               for k in (2, 4))
    assert (res.mean, res.variance) == pytest.approx((mean, var), rel=1e-12)
    assert res.std_error_variance == pytest.approx(math.sqrt((m4 - var * var) / 1000), rel=1e-12)


def test_argsort_rows_match_the_eulerian_moments():
    # rows 2100 wide take the stable argsort; at the middle score of two
    # races the final rank less 1 is the descent count of a random
    # permutation of n_b (Eulerian numbers), so the rank has mean
    # (n_b + 1) / 2 and variance (n_b + 1) / 12
    n_b = 2100
    res = simulate(SimConfig(n_b=n_b, n_r=2, trials=2000, seed=SEED, n_t=n_b + 1))
    assert abs(res.mean - (n_b + 1) / 2) <= 4 * res.std_error_mean
    assert abs(res.variance - (n_b + 1) / 12) <= 4 * res.std_error_variance


def test_simulate_lowest_score_always_first():
    res = simulate(SimConfig(n_b=6, n_r=2, trials=2000, seed=SEED, n_t=2))
    assert res.empirical_probs[0] == 1.0
    assert res.mean == 1.0 and res.variance == 0.0


def test_race_sums_are_exact_in_both_modes():
    # no trial within the budget scores above n_r * n_b <= TRIAL_WORD_BUDGET:
    # virtual rank sums are float64, exact for integers below 2**53, and
    # tracked leftover sums are int64
    assert mc.TRIAL_WORD_BUDGET < 2**53
    assert mc.TRIAL_WORD_BUDGET < np.iinfo(np.int64).max
    _, score = mc._rank_sums(10, 3, 4)
    assert score(_trial_orders(0, 0, 10, 3, 4)).dtype == np.float64
    tags, score = mc._leftover_sums((1, 2, 4), 4, 10)
    (values,) = mc._order_chunks(SEED, 0, 10, tags)
    assert score(values).dtype == np.int64


@pytest.mark.parametrize("drop_worst", [False, True])
def test_out_of_range_scores_rank_last_or_first(drop_worst):
    def counts(n_t):
        cfg = SimConfig(n_b=4, n_r=3, trials=500, seed=SEED, n_t=n_t, drop_worst=drop_worst)
        return simulate(cfg).counts

    assert counts(10**12) == (0, 0, 0, 0, 500)
    assert counts(-(10**12)) == (500, 0, 0, 0, 0)


def test_simulate_drop_worst_two_races_reduces_to_best_rank():
    # with two races the improved score is the single best rank; exact
    # distribution by enumerating both race permutations with min scores
    n_b, n_t = 3, 2
    counts = Counter()
    perms = list(itertools.permutations(range(1, n_b + 1)))
    for a, b in itertools.product(perms, repeat=2):
        m = 1 + sum(1 for i in range(n_b) if min(a[i], b[i]) < n_t)
        counts[m] += 1
    exact = [Fraction(counts[m], len(perms) ** 2) for m in range(1, n_b + 2)]
    trials = 60_000
    res = simulate(
        SimConfig(n_b=n_b, n_r=2, trials=trials, seed=SEED, n_t=n_t, drop_worst=True)
    )
    assert binwise_ok(res.empirical_probs, exact, trials)


def test_simulate_composition_single_boat():
    res = simulate(SimConfig(n_b=1, n_r=2, trials=100, seed=SEED, tracked_ranks=(1, 1)))
    assert res.empirical_probs == (1.0,)


def test_empirical_rank_moments_validation():
    with pytest.raises(ValueError):
        empirical_rank_moments(1, 10_000, seed=1)
    with pytest.raises(ValueError):
        empirical_rank_moments(3, 999, seed=1)


def test_moments_trial_budget_admits_its_cap(monkeypatch):
    # far above every tested run: gate 12 draws 10**5 trials, the benchmark 2 * 10**5
    assert mc.MOMENTS_TRIAL_BUDGET >= 10 * 200_000
    monkeypatch.setattr(mc, "MOMENTS_TRIAL_BUDGET", 1000)
    assert empirical_rank_moments(3, 1000, seed=SEED).trials == 1000
    run = lambda: empirical_rank_moments(3, 1001, seed=SEED)
    assert_refused(monkeypatch, MONTECARLO, run, MOMENTS(1001, budget=1000))


def test_middle_band_grid():
    grid = middle_band_grid(200, 30, points=21)
    assert len(grid) == 21
    assert grid == sorted(grid)
    assert 3015 in grid  # odd point count centers the middle score
    assert all(30 <= v <= 6000 for v in grid)
    assert middle_band_grid(200, 30) == grid  # 21 points by default
    assert middle_band_grid(200, 30, points=1) == [3015]
    assert middle_band_grid(21, 4, points=1) == [44]
    for points in (0, -1):
        with pytest.raises(ValueError):
            middle_band_grid(200, 30, points=points)


def test_grid_budget_trips_before_linspace(monkeypatch):
    monkeypatch.setattr(mc, "GRID_POINT_BUDGET", 21)
    assert len(middle_band_grid(200, 30, points=21)) == 21
    run = lambda: middle_band_grid(200, 30, points=22)
    assert_refused(monkeypatch, MONTECARLO, run, GRID(22, budget=21))


def test_curve_sweep_checks_every_score_before_simulating(monkeypatch):
    block(monkeypatch, [(mc, "simulate")])
    with pytest.raises(ValueError, match=r"^score must be in \[2, 6\], got 100$"):
        curve_sweep(3, 2, [4, 100], 2_000_000, 1)


def test_grid_and_sweep_accept_numpy_integers():
    assert middle_band_grid(21, 4, np.int64(7)) == middle_band_grid(21, 4, 7)
    (row,) = curve_sweep(3, 2, [np.int64(4)], 100, 1)
    assert row == curve_sweep(3, 2, [4], 100, 1)[0]
    assert type(row.n_t) is int


def test_curve_sweep_deterministic_and_sane():
    grid = middle_band_grid(21, 4, points=7)
    rows1 = curve_sweep(21, 4, grid, trials=3000, seed=SEED)
    rows2 = curve_sweep(21, 4, grid, trials=3000, seed=SEED)
    assert rows1 == rows2
    assert [r.n_t for r in rows1] == grid
    mc_means = [r.mean_mc for r in rows1]
    assert mc_means[0] < mc_means[-1]  # sigmoid rises across the band
    for row in rows1:
        assert 0.0 <= row.mean_mc <= 22.0
        assert row.stderr_mean >= 0.0
