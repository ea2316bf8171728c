"""Unit tests for variable domains and declarations."""

import math
import random

import pytest

from repro.core.variables import (
    BOOL,
    FiniteSet,
    IntRange,
    VariableSpec,
    comm,
    const,
    internal,
)


class TestIntRange:
    def test_contains_endpoints(self):
        d = IntRange(1, 5)
        assert 1 in d and 5 in d

    def test_excludes_outside(self):
        d = IntRange(1, 5)
        assert 0 not in d and 6 not in d

    def test_excludes_non_ints(self):
        d = IntRange(1, 5)
        assert 1.5 not in d
        assert "1" not in d

    def test_iteration_order(self):
        assert list(IntRange(2, 4)) == [2, 3, 4]

    def test_len(self):
        assert len(IntRange(0, 7)) == 8

    def test_singleton(self):
        d = IntRange(3, 3)
        assert list(d) == [3]
        assert d.bits == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            IntRange(5, 4)

    def test_bits_matches_log2(self):
        assert IntRange(1, 8).bits == pytest.approx(3.0)
        assert IntRange(1, 5).bits == pytest.approx(math.log2(5))

    def test_sample_in_domain(self):
        d = IntRange(3, 9)
        r = random.Random(0)
        assert all(d.sample(r) in d for _ in range(50))

    def test_sample_covers_domain(self):
        d = IntRange(1, 4)
        r = random.Random(1)
        assert {d.sample(r) for _ in range(200)} == {1, 2, 3, 4}


class TestFiniteSet:
    def test_contains(self):
        d = FiniteSet(("a", "b"))
        assert "a" in d and "c" not in d

    def test_len_and_iter(self):
        d = FiniteSet((10, 20, 30))
        assert len(d) == 3
        assert list(d) == [10, 20, 30]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FiniteSet(())

    def test_bool_domain(self):
        assert True in BOOL and False in BOOL
        assert BOOL.bits == pytest.approx(1.0)

    def test_equal_only_with_the_same_types(self):
        """Equality, like membership, tells ``1`` from ``True``: spec
        tuples over ``{0, 1}`` and ``{False, True}`` are not one key."""
        assert FiniteSet((False, True)) == BOOL
        assert hash(FiniteSet((False, True))) == hash(BOOL)
        assert FiniteSet((0, 1)) != BOOL
        assert len({FiniteSet((0, 1)), BOOL}) == 2

    def test_sample(self):
        d = FiniteSet(("x", "y"))
        r = random.Random(2)
        assert {d.sample(r) for _ in range(50)} == {"x", "y"}


class TestVariableSpec:
    def test_comm_readable_and_writable(self):
        spec = comm("C", IntRange(1, 3))
        assert spec.readable_by_neighbors and spec.writable

    def test_internal_private(self):
        spec = internal("cur", IntRange(1, 3))
        assert not spec.readable_by_neighbors and spec.writable

    def test_const_readonly(self):
        spec = const("C", IntRange(1, 3))
        assert spec.readable_by_neighbors and not spec.writable

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            VariableSpec("x", BOOL, "shared")
