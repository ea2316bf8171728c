"""The exact bulk sampler: ``randbelow_run`` against CPython's own draws.

``randbelow_run`` replays a run of ``_randbelow_with_getrandbits`` draws
from words fetched in bulk.  These suites pin it to the per-value calls
it replaces — the same values and the same generator state afterwards —
and pin how it fetches: never a word the per-value calls would not take.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rngstreams import draws_in_bulk, randbelow_run, word_try

#: sizes at the edges of one 32-bit word: k = 1, powers of two (half the
#: tries rejected), one past them (about half rejected), the top sizes
EDGE_SIZES = st.one_of(
    st.sampled_from([1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1]),
    st.integers(0, 31).map(lambda k: 2**k),
    st.integers(0, 31).map(lambda k: 2**k + 1),
    st.integers(1, 2**32 - 1),
)


class _Recording:
    """Wraps a generator's ``getrandbits`` and records each ``k``."""

    def __init__(self, rng):
        self.calls = []
        self._getrandbits = rng.getrandbits
        rng.getrandbits = self

    def __call__(self, k):
        self.calls.append(k)
        return self._getrandbits(k)


def per_value(rng, sizes):
    """The per-value draws ``randbelow_run`` replays."""
    return [rng._randbelow(n) for n in sizes]


class TestRandbelowRun:
    @settings(max_examples=60, deadline=None)
    @given(palette=st.lists(EDGE_SIZES, min_size=1, max_size=8),
           length=st.integers(0, 2000),
           pick_seed=st.integers(0, 2**32),
           seed=st.integers(0, 2**64))
    def test_equals_the_per_value_draws(self, palette, length, pick_seed,
                                        seed):
        """The values are ``[rng._randbelow(n) …]`` and
        ``[rng.randrange(n) …]``, and the generator ends where both
        leave it."""
        pick = random.Random(pick_seed)
        sizes = [pick.choice(palette) for _ in range(length)]
        bulk, below, ranged = (random.Random(seed) for _ in range(3))
        values = randbelow_run(bulk, [word_try(n) for n in sizes])
        assert values == per_value(below, sizes)
        assert values == [ranged.randrange(n) for n in sizes]
        assert bulk.getstate() == below.getstate() == ranged.getstate()

    @settings(max_examples=30, deadline=None)
    @given(bounds=st.lists(st.tuples(st.integers(-2**40, 2**40),
                                     st.integers(0, 2**32 - 2)),
                           max_size=300),
           seed=st.integers(0, 2**64))
    def test_offsets_replay_randint(self, bounds, seed):
        bulk, ref = random.Random(seed), random.Random(seed)
        tries = [word_try(width + 1, lo) for lo, width in bounds]
        assert randbelow_run(bulk, tries) == [
            ref.randint(lo, lo + width) for lo, width in bounds]
        assert bulk.getstate() == ref.getstate()

    def test_a_run_that_needs_several_refills(self):
        """Sizes 2**k + 1 reject about half of all tries, so the first
        fetch (one word per draw) runs out long before the last draw.
        Each fetch takes exactly one word per draw unfinished when it is
        made — counted by replaying the per-value draws one at a time —
        so the words fetched in all are the words those calls take."""
        sizes = [2**(1 + i % 31) + 1 for i in range(1500)]
        bulk, ref = random.Random(11), random.Random(11)
        fetched = _Recording(bulk)
        values = randbelow_run(bulk, [word_try(n) for n in sizes])
        words_per_draw, expected = [], []
        for n in sizes:
            taken = _Recording(ref)
            expected.append(ref._randbelow(n))
            del ref.getrandbits
            words_per_draw.append(len(taken.calls))
        assert values == expected
        assert bulk.getstate() == ref.getstate()
        assert len(fetched.calls) >= 5
        assert all(bits % 32 == 0 for bits in fetched.calls)
        unfinished, used, finished, spent = [], 0, 0, 0
        for bits in fetched.calls:
            unfinished.append(len(sizes) - finished)
            used += bits // 32
            while (finished < len(sizes)
                   and spent + words_per_draw[finished] <= used):
                spent += words_per_draw[finished]
                finished += 1
        assert [bits // 32 for bits in fetched.calls] == unfinished
        assert finished == len(sizes) and used == sum(words_per_draw)

    def test_an_empty_run_fetches_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        fetched = _Recording(rng)
        assert randbelow_run(rng, []) == []
        assert fetched.calls == []
        assert rng.getstate() == state


class TestWordTry:
    @pytest.mark.parametrize("n", [0, -1, -2**40, 2**32, 2**32 + 1, 2**70])
    def test_sizes_outside_one_word_are_refused(self, n):
        with pytest.raises(ValueError, match=r"0 < n < 2\*\*32"):
            word_try(n)

    @pytest.mark.parametrize("n,limit,shift", [
        (1, 2**31, 31), (2, 2**31, 30), (3, 3 << 30, 30),
        (2**31, 2**31, 0), (2**32 - 1, 2**32 - 1, 0),
    ])
    def test_limit_and_shift(self, n, limit, shift):
        assert word_try(n, 7) == (limit, shift, 7)


class TestDrawsInBulk:
    def test_a_plain_random_draws_in_bulk(self):
        rng = random.Random(1)
        rng.gauss(0.0, 1.0)  # sets gauss_next, an attribute of its own
        assert draws_in_bulk(rng)

    def test_a_subclass_draws_per_value(self):
        """Whatever it overrides, if anything."""
        for body in ({}, {"getrandbits": random.Random.getrandbits},
                     {"random": random.Random.random}):
            assert not draws_in_bulk(type("Sub", (random.Random,), body)(1))

    def test_other_generators_draw_per_value(self):
        assert not draws_in_bulk(random.SystemRandom())
        patched = random.Random(1)
        _Recording(patched)
        assert not draws_in_bulk(patched)
