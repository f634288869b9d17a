"""The shared median + tail helper."""

import pytest

from summary import TAIL_BEYOND, summarize


def test_tail_leaves_ten_samples_beyond():
    s = summarize([float(x) for x in range(100, 0, -1)])  # order must not matter
    assert s.n == 100
    assert s.median == 50.5
    assert s.tail == 90.0
    assert s.tail_pct == 90.0
    assert sum(1 for x in range(1, 101) if x > s.tail) == TAIL_BEYOND


def test_smallest_sample_with_a_tail():
    s = summarize(range(11))
    assert (s.tail, s.n) == (0.0, 11)
    assert s.tail_pct == pytest.approx(100 / 11)


def test_too_few_samples_report_the_maximum():
    s = summarize([3.0, 1.0, 2.0])
    assert (s.median, s.tail, s.tail_pct, s.n) == (2.0, 3.0, 100.0, 3)


def test_empty_sample_is_refused():
    with pytest.raises(ValueError):
        summarize([])
