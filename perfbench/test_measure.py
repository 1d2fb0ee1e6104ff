"""Tests of the benchmark's own arithmetic.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import statistics

import pytest

from measure import (
    LATENCY_LIMIT_S,
    beyond_count,
    drive_open_loop,
    due_latency,
    goodput,
    percentile_supported,
    slice_median,
    slice_members,
    spread,
)
from repro.utils.clock import FakeClock


# -- a percentile needs ten samples beyond it ---------------------------------


@pytest.mark.parametrize(
    "n, q, supported",
    [
        (1000, 99, True),  # exactly 10 beyond
        (999, 99, False),
        (100, 90, True),
        (99, 90, False),
        (20, 50, True),
        (19, 50, False),
        (0, 50, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(n, q, supported):
    assert percentile_supported(n, q) is supported


def test_beyond_count_is_exact_at_the_boundary():
    # 1000 * 0.01 is 9.999999999999998 in floating point; it must count as 10.
    assert beyond_count(1000, 99) == 10
    assert beyond_count(1999, 99) == 19
    with pytest.raises(ValueError):
        beyond_count(10, 101)


def test_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    with pytest.raises(ValueError):
        spread([0.0, 0.0, 0.0])


def test_slices_split_the_window_by_start_time():
    t = [0.1, 0.5, 1.2, 2.5, 2.9, 4.9, 5.0]
    # A start at or past the end of the window counts in the last slice.
    assert slice_members(t, 5.0, slices=5) == [[0, 1], [2], [3, 4], [], [5, 6]]
    rates = lambda m, w: len(m) / w  # noqa: E731
    assert slice_median(t, 5.0, rates, slices=5) == 2.0
    assert slice_median(t, 10.0, rates, slices=2) == pytest.approx((1.2 + 0.2) / 2)
    with pytest.raises(ValueError):
        slice_members(t, 0.0)


# -- goodput under the latency limit ------------------------------------------


def test_goodput_counts_only_answers_within_the_limit():
    latencies = [0.010, LATENCY_LIMIT_S, LATENCY_LIMIT_S + 1e-9, None, 0.5, None]
    # Two within the limit (the limit itself counts); refusals never do.
    assert goodput(latencies, window_s=2.0) == pytest.approx(1.0)
    assert goodput([None, None], window_s=1.0) == 0.0
    assert goodput([0.2], window_s=1.0, limit_s=0.25) == 1.0
    with pytest.raises(ValueError):
        goodput([0.01], window_s=0.0)


# -- due-time latency and lateness on a fake clock ----------------------------


def _late(run):
    return [sent - due for due, sent in zip(run.due_s, run.sent_s)]


def test_open_loop_on_time_has_no_lateness():
    clock = FakeClock(start=100.0)
    sent = []
    run = drive_open_loop([0.0, 0.01, 0.02], sent.append, clock)
    assert _late(run) == [0.0, 0.0, 0.0]
    assert list(run.due_s) == pytest.approx([100.0, 100.01, 100.02])
    assert sent == [0, 1, 2]


def test_a_stall_is_charged_to_every_request_it_delays():
    clock = FakeClock()

    def submit(i):
        if i == 1:
            clock.advance(0.025)  # the generator stalls inside submit 1

    run = drive_open_loop([0.0, 0.01, 0.02, 0.03, 0.05], submit, clock)
    # Arrivals 2 and 3 were due during the stall and are sent late in a
    # burst; arrival 4 is due after it and goes out on time.
    assert _late(run) == pytest.approx([0.0, 0.0, 0.015, 0.005, 0.0])
    assert run.submit_s[1] == pytest.approx(0.025)
    service = 0.004
    latencies = [
        due_latency(run.due_s[i], run.sent_s[i], service) for i in range(5)
    ]
    assert latencies == pytest.approx([0.004, 0.004, 0.019, 0.009, 0.004])


def test_before_send_sees_each_arrival_at_its_due_time():
    clock = FakeClock()
    seen = []
    drive_open_loop(
        [0.0, 0.5, 1.5], lambda i: None, clock,
        before_send=lambda i, off: seen.append((i, off, clock.monotonic())),
    )
    assert seen == [(0, 0.0, 0.0), (1, 0.5, 0.5), (2, 1.5, 1.5)]
