"""The summary arithmetic of scripts/ab.py on fixed inputs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "ab.py")
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

HIGHER = {"name": "requests_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.25}


class TestQuartiles:
    def test_odd_count(self):
        assert ab.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)

    def test_interpolates_between_order_statistics(self):
        assert ab.quartiles([1, 2, 3, 4]) == pytest.approx((1.75, 2.5, 3.25))

    def test_single_run(self):
        assert ab.quartiles([7.5]) == (7.5, 7.5, 7.5)


class TestSummarize:
    def test_higher_is_better(self):
        pairs = [(1.0, 1.5), (1.1, 1.4), (0.9, 1.6), (1.0, 0.8)]
        row = ab.summarize(HIGHER, pairs)
        assert row["base"] == pytest.approx((0.975, 1.0, 1.025))
        assert row["change"] == pytest.approx((1.25, 1.45, 1.525))
        assert row["ratio"] == pytest.approx(1.45)
        assert (row["won"], row["pairs"]) == (3, 4)
        assert row["within_bound"] is True
        assert row["beats_spread"] is True

    def test_lower_is_better_and_bound_breaks(self):
        row = ab.summarize(LOWER, [(100.0, 130.0)] * 3)
        assert row["ratio"] == pytest.approx(1.3)
        assert row["won"] == 0
        assert row["within_bound"] is False
        assert row["beats_spread"] is False

    def test_worse_within_bound(self):
        row = ab.summarize(HIGHER, [(2.0, 1.6), (2.0, 1.6)])
        assert row["ratio"] == pytest.approx(0.8)
        assert row["within_bound"] is True

    def test_ties_are_not_wins(self):
        row = ab.summarize(LOWER, [(1.0, 1.0), (1.0, 0.5)])
        assert row["won"] == 1

    def test_gain_inside_the_base_spread_does_not_count(self):
        pairs = [(1.0, 1.1), (2.0, 2.1), (3.0, 3.1)]
        row = ab.summarize(HIGHER, pairs)
        assert row["won"] == 3
        assert row["base"] == pytest.approx((1.5, 2.0, 2.5))
        assert row["beats_spread"] is False  # 0.1 against an IQR of 1.0

    def test_unbounded_metric(self):
        row = ab.summarize(ab.PASS_WALL, [(30.0, 18.0)])
        assert row["within_bound"] is None
        assert row["won"] == 1


def test_render_has_one_line_per_metric():
    rows = [ab.summarize(HIGHER, [(1.0, 1.5)]), ab.summarize(ab.PASS_WALL, [(30.0, 18.0)])]
    lines = ab.render(rows).splitlines()
    assert len(lines) == 3
    assert lines[1].split()[:2] == ["requests_per_s", "higher"]
    assert lines[1].split()[-2:] == ["yes", "yes"]
    assert lines[2].split()[-3:] == ["-", "-", "yes"]
