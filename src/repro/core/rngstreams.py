"""Named random streams derived from one run seed.

A simulator historically drove everything — the arbitrary initial
configuration, the scheduler's draws, and any randomized actions — from
one ``random.Random(seed)``.  That makes runs replayable, but it also
means *any* new consumer of randomness (a fault script, a churn event)
would shift every subsequent draw and change the whole execution.

:class:`RngStreams` splits the run's randomness into *named streams*:

* ``scheduler`` and ``protocol`` — the two historical consumers.  They
  deliberately **share the root generator**, seeded exactly like the
  old single run RNG (``random.Random(seed)``): scheduler draws and
  randomized-action draws have always interleaved on one stream, and
  keeping that wiring preserves byte-identical traces for every
  pre-scenario run (the no-op-scenario regression tests pin this).
* ``scenario`` (and any other name) — an independent generator whose
  seed is derived from ``(seed, name)`` by SHA-256.  Drawing from a
  derived stream never perturbs the root sequence, which is the whole
  point: attaching a scenario to a run must not change what the
  scheduler or the protocol would have drawn.

:func:`randbelow_run` is the exact bulk sampler for long runs of
bounded integer draws (a start configuration, a shuffle): it gives the
values ``randrange``/``randint`` would give, one call per value, and
leaves the generator where those calls leave it, from words fetched in
bulk.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(limit, shift, offset)`` — one draw as :func:`randbelow_run` replays it
WordTry = Tuple[int, int, int]


def derive_seed(seed: Optional[int], name: str) -> int:
    """A stable substream seed for ``(seed, name)`` (SHA-256 based).

    ``None`` seeds are hashed as the literal string ``"None"`` — such
    runs are not replayable anyway, but the substreams stay distinct
    from each other and from the root.
    """
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """The named random streams of one run.

    ``scheduler`` and ``protocol`` alias the root generator (see the
    module docstring for why); every other name lazily materializes an
    independent :class:`random.Random` seeded by :func:`derive_seed`.
    """

    __slots__ = ("seed", "root", "_streams")

    #: names served by the shared root generator (historical wiring)
    ROOT_STREAMS = ("scheduler", "protocol")

    def __init__(self, seed: Optional[int]):
        self.seed = seed
        self.root = random.Random(seed)
        self._streams: Dict[str, random.Random] = {
            name: self.root for name in self.ROOT_STREAMS
        }

    def stream(self, name: str) -> random.Random:
        """The generator behind ``name`` (created on first use)."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = random.Random(
                derive_seed(self.seed, name)
            )
        return rng

    @property
    def scheduler(self) -> random.Random:
        """The scheduler's stream (the shared root generator)."""
        return self._streams["scheduler"]

    @property
    def protocol(self) -> random.Random:
        """The randomized-action stream (the shared root generator)."""
        return self._streams["protocol"]

    @property
    def scenario(self) -> random.Random:
        """The scenario/fault-script stream (independent of the root)."""
        return self.stream("scenario")

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed!r}, named={sorted(self._streams)})"


# ----------------------------------------------------------------------
# Exact bulk draws
# ----------------------------------------------------------------------
def draws_in_bulk(rng) -> bool:
    """Whether :func:`randbelow_run` replays ``rng``'s own draws: ``rng``
    is a plain :class:`random.Random` with no method of its own.  Any
    other generator (a subclass, :class:`random.SystemRandom`, an
    instance with a patched method) keeps its per-value calls."""
    return (type(rng) is random.Random
            and vars(rng).keys() <= {"gauss_next"})


def word_try(n: int, offset: int = 0) -> WordTry:
    """How one 32-bit word serves the draw ``offset + rng._randbelow(n)``
    (``0 < n < 2**32``): it is accepted when below ``limit`` and then
    yields ``offset + (word >> shift)``.

    CPython's ``_randbelow_with_getrandbits(n)`` calls
    ``getrandbits(k)``, ``k = n.bit_length()``, until the result is
    below ``n``, and ``getrandbits(k)`` for ``k <= 32`` is the
    generator's next 32-bit word ``w`` shifted right by ``32 - k``; so
    each try takes one word and succeeds when ``w < n << (32 - k)``.
    """
    if not 0 < n < 1 << 32:
        raise ValueError(f"word_try needs 0 < n < 2**32, got {n!r}")
    shift = 32 - n.bit_length()
    return n << shift, shift, offset


def _words(rng: random.Random, m: int) -> Iterator[int]:
    """The generator's next ``m`` 32-bit words, in order:
    ``getrandbits(32 * m)`` puts the first in its lowest 32 bits."""
    words = array("I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return iter(words)


def randbelow_run(rng: random.Random, tries: Sequence[WordTry]) -> List[int]:
    """``[offset + rng._randbelow(n) for each try]``, one value per
    :func:`word_try` in ``tries``, in order, for a ``rng`` that
    :func:`draws_in_bulk`.

    The values and the generator's state afterwards are those of the
    per-value calls (``randrange(n)``, ``randint(offset, offset + n -
    1)``).  Each fetch takes as many words as there are unfinished
    draws, so it never takes a word the per-value calls would not; a
    rejected try moves on to the next word, and a draw that runs out of
    words fetches again for the draws still unfinished.
    """
    values: List[int] = []
    push = values.append
    words: Iterator[int] = iter(())
    for limit, shift, offset in tries:
        for word in words:
            if word < limit:
                break
        else:  # out of words: fetch one per unfinished draw
            word = None
            while word is None:
                words = _words(rng, len(tries) - len(values))
                word = next(filter(limit.__gt__, words), None)
        push(offset + (word >> shift))
    return values
