"""Unit tests for placement geometry and block naming."""

import pytest

from repro.placement import (
    HORIZONTAL,
    VERTICAL,
    Cutline,
    Rect,
    block_name,
    block_region,
    midline,
)


class TestRect:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.area == 8
        assert r.center == (2.0, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_contains(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(1, 1)
        assert r.contains(0, 0)  # closed boundary
        assert r.contains(2, 2)
        assert not r.contains(2.1, 1)

    def test_long_axis(self):
        assert Rect(0, 0, 4, 2).long_axis() == VERTICAL
        assert Rect(0, 0, 2, 4).long_axis() == HORIZONTAL
        assert Rect(0, 0, 2, 2).long_axis() == VERTICAL  # tie

    def test_split_vertical(self):
        low, high = Rect(0, 0, 4, 2).split(VERTICAL)
        assert low == Rect(0, 0, 2, 2)
        assert high == Rect(2, 0, 4, 2)

    def test_split_horizontal_fraction(self):
        low, high = Rect(0, 0, 4, 10).split(HORIZONTAL, 0.3)
        assert low.height == pytest.approx(3.0)
        assert high.height == pytest.approx(7.0)

    def test_split_bad_fraction(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).split(VERTICAL, 0.0)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).split(VERTICAL, 1.0)

    def test_split_bad_axis(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).split("D")


class TestCutline:
    def test_side_of_vertical(self):
        c = Cutline(axis=VERTICAL, position=5.0)
        assert c.side_of(4.9, 100) == 0
        assert c.side_of(5.0, 0) == 0  # on-line convention
        assert c.side_of(5.1, 0) == 1

    def test_side_of_horizontal(self):
        c = Cutline(axis=HORIZONTAL, position=2.0)
        assert c.side_of(0, 1.0) == 0
        assert c.side_of(0, 3.0) == 1

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            Cutline(axis="Q", position=0.0)

    def test_midline(self):
        r = Rect(0, 0, 10, 4)
        assert midline(r, VERTICAL).position == 5.0
        assert midline(r, HORIZONTAL).position == 2.0


class TestNaming:
    def test_die_is_l0(self):
        assert block_name([]) == "L0"

    def test_nested_names(self):
        assert block_name([(VERTICAL, 0)]) == "L1_V0"
        assert (
            block_name([(VERTICAL, 0), (HORIZONTAL, 1)]) == "L2_V0_H1"
        )

    def test_bad_side(self):
        with pytest.raises(ValueError):
            block_name([(VERTICAL, 2)])

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            block_name([("Q", 0)])

    def test_block_region(self):
        die = Rect(0, 0, 8, 8)
        region = block_region(die, [(VERTICAL, 0), (HORIZONTAL, 1)])
        assert region == Rect(0, 4, 4, 8)

    def test_block_region_die(self):
        die = Rect(0, 0, 8, 8)
        assert block_region(die, []) == die
