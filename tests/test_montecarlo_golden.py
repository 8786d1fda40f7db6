"""Golden seeded outputs: the Monte Carlo reproducibility contract as a gate.

Every value below was recorded with the original kernel, which ranked each
row by a stable argsort of the doubles ``(word >> 11) * 2**-53``.  Any kernel
change must reproduce them bit for bit; a changed value here is a break of
the reproducibility contract, not a test to update.
"""

import contextlib
import hashlib
import io
from dataclasses import astuple

import pytest

from racerank.cli import main
from racerank.montecarlo import SimConfig, empirical_rank_moments, simulate

SEED = 20260809


def _digest(counts: tuple[int, ...]) -> str:
    return hashlib.sha256(repr(counts).encode()).hexdigest()


def test_virtual_200x30_counts():
    res = simulate(SimConfig(n_b=200, n_r=30, trials=1000, seed=SEED, n_t=3015))
    assert sum(res.counts) == 1000
    assert res.mean == 100.837
    assert _digest(res.counts) == (
        "ab4ed434eab370f3f20341f9b52dc20a46be08256fbb141810370e1c9213ceb1"
    )


def test_virtual_drop_worst_padded_counts():
    # 5 races x 10 boats = 50 words per trial, padded to 52
    res = simulate(
        SimConfig(n_b=10, n_r=5, trials=20_000, seed=SEED, n_t=20, drop_worst=True)
    )
    assert res.counts == (0, 0, 5, 162, 1865, 6640, 7795, 3149, 372, 12, 0)


# (2, 2, 2) is degenerate: the two rivals score odd totals that sum to 12, so
# exactly one beats the tracked 6, m is always 2 and the pin cannot catch a
# wrong bit; (1, 2, 3) carries the check.
@pytest.mark.parametrize(
    "tracked, counts",
    [((2, 2, 2), (0, 20_000, 0)), ((1, 2, 3), (5082, 14918, 0))],
)
def test_tracked_padded_counts(tracked, counts):
    # 3 races x 2 other boats = 6 words per trial, padded to 8
    res = simulate(SimConfig(n_b=3, n_r=3, trials=20_000, seed=SEED, tracked_ranks=tracked))
    assert res.counts == counts


# Recorded with the broadcast column tag, race offsets and axis-sum tally,
# before rows up to 5 wide tagged each column on its own, tracked mode took
# its race offsets from a chunk-length tile (and later sorted its leftover
# values as key tags) and the tally became one matrix product: width-2 and
# width-3 runs that span several chunks.
@pytest.mark.parametrize(
    "config, counts",
    [
        # 8 full chunks and a partial one of 2344 trials
        (SimConfig(n_b=3, n_r=3, trials=50_000, seed=SEED, tracked_ranks=(1, 2, 3)),
         (12594, 37406, 0)),
        (SimConfig(n_b=3, n_r=3, trials=50_000, seed=SEED, tracked_ranks=(1, 2, 3),
                   drop_worst=True),
         (25206, 24794, 0)),
        # 17 full chunks and a partial one of 3134 trials
        (SimConfig(n_b=3, n_r=2, trials=100_000, seed=SEED, n_t=4),
         (16675, 66723, 16602, 0)),
    ],
)
def test_multi_chunk_short_row_counts(config, counts):
    assert simulate(config).counts == counts


def test_tracked_drop_worst_counts():
    res = simulate(
        SimConfig(
            n_b=10, n_r=3, trials=20_000, seed=SEED, tracked_ranks=(1, 5, 10), drop_worst=True
        )
    )
    assert res.counts == (537, 5179, 9703, 4215, 362, 4, 0, 0, 0, 0)


# Recorded with the per-row ``ndarray.sort`` kernel, before rows up to 5 wide
# moved to a compare-exchange network: one case per network width 1, 4, 5.
@pytest.mark.parametrize(
    "config, counts",
    [
        # width 1: the tracked boat's one rival takes the leftover rank
        (SimConfig(n_b=2, n_r=3, trials=20_000, seed=SEED, tracked_ranks=(1, 2, 2)),
         (0, 20_000)),
        # width 4: 12 words per trial, no padding
        (SimConfig(n_b=4, n_r=3, trials=20_000, seed=SEED, n_t=7),
         (1345, 12440, 6147, 68, 0)),
        # width 5: 15 words per trial, padded to 16
        (SimConfig(n_b=5, n_r=3, trials=20_000, seed=SEED, n_t=9),
         (8, 2837, 12043, 4995, 117, 0)),
        # width 5 through the tracked gather, dropping each boat's worst race
        (SimConfig(n_b=6, n_r=3, trials=20_000, seed=SEED, tracked_ranks=(1, 4, 6),
                   drop_worst=True),
         (260, 6436, 11185, 2119, 0, 0)),
    ],
)
def test_network_width_counts(config, counts):
    assert simulate(config).counts == counts


def test_rows_wider_than_2048_counts():
    virtual = simulate(SimConfig(n_b=2100, n_r=2, trials=300, seed=SEED, n_t=2101))
    assert _digest(virtual.counts) == (
        "590e62cc0ff72d6fef32c1edb4e1cf345bb83771c0f1f37ec793e032ee918bbb"
    )
    tracked = simulate(
        SimConfig(n_b=2100, n_r=2, trials=300, seed=SEED, tracked_ranks=(700, 1400))
    )
    assert _digest(tracked.counts) == (
        "79443804deb6e2c7430972a7ab4c89f12dda8387cda85f3a4e5602e378ff9169"
    )


# Recorded with the int32 rank scatter and einsum race sums, before virtual
# mode scored boats with one weighted bincount: drop_worst through a
# network width and through the argsort path past 2048 columns.
@pytest.mark.parametrize(
    "config, counts",
    [
        (SimConfig(n_b=4, n_r=3, trials=20_000, seed=SEED, n_t=5, drop_worst=True),
         (0, 448, 8752, 9858, 942)),
        (SimConfig(n_b=5, n_r=3, trials=20_000, seed=SEED, n_t=6, drop_worst=True),
         (0, 19, 1998, 10116, 7266, 601)),
    ],
)
def test_virtual_drop_worst_network_counts(config, counts):
    assert simulate(config).counts == counts


def test_virtual_drop_worst_rows_wider_than_2048_counts():
    res = simulate(
        SimConfig(n_b=2100, n_r=2, trials=300, seed=SEED, n_t=1051, drop_worst=True)
    )
    assert res.mean == 1577.3933333333334
    assert _digest(res.counts) == (
        "10b26b0fdf8f3ef0d75b70cafe61cf0926507cb7a9140e7ffe04d5da675fd86e"
    )


@pytest.mark.parametrize(
    "n_b, expected",
    [
        (3, (3, 10_000, 2.0053, 0.6669914572864322, -0.3301090452261306,
             0.007844678425011234, 0.004626550170976325, 0.004740098917828498)),
        (10, (10, 10_000, 5.567699999999999, 8.266321105527638, -0.9364989949748742,
              0.026196747733959927, 0.0639128316433339, 0.08324093399683635)),
        (200, (200, 10_000, 100.59779999999999, 3332.860466331658, -82.15339145728643,
               0.5947983908134635, 32.69162121948075, 31.236465844401142)),
    ],
)
def test_rank_moments_values(n_b, expected):
    assert astuple(empirical_rank_moments(n_b, 10_000, seed=SEED)) == expected


def test_rank_moments_leave_out_the_remainder():
    # 1049 trials: 50 batches of 20, the last 49 trials left out
    assert astuple(empirical_rank_moments(4, 1049, seed=SEED)) == (
        4, 1049, 2.5180000000000002, 1.264, -0.4633684210526316,
        0.037491767803895626, 0.03127434909837353, 0.033467502418464266,
    )


def test_curve_csv_digest():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["curve", "20", "5", "--trials", "2000", "--seed", "42"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "98f441d1e6788ab680affccdb7231ddb8773aeb12cac295336296281116896bf"
    )
