"""Round accounting (Dolev-Israeli-Moran rounds).

The paper measures time in *rounds* (§2): the first round of a
computation is the minimal prefix in which every process has been
activated by the scheduler; the second round is the first round of the
remaining suffix, and so on.  :class:`RoundTracker` implements exactly
that with a shrinking remainder set.

Two accounting modes cover the two daemon families:

* Under the repo's classic daemons — which may select *disabled*
  processes (the paper's footnote: a disabled process does nothing) —
  a round ends once every process has been activated.
* Under enabled-drawing daemons (``draws_from == "enabled"``) disabled
  processes are never selected, so the literature's refinement applies:
  a process is also *served* for the round the moment it is observed
  disabled.  Callers opt in by passing ``still_enabled`` to
  :meth:`record_step`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Set

ProcessId = Hashable


class RoundTracker:
    """Counts completed rounds given the per-step activation sets."""

    def __init__(self, processes: Sequence[ProcessId]):
        self._all: Set[ProcessId] = set(processes)
        if not self._all:
            raise ValueError("round tracking requires at least one process")
        self._remaining: Set[ProcessId] = set(self._all)
        self._completed = 0

    @property
    def completed_rounds(self) -> int:
        """Number of rounds fully elapsed so far."""
        return self._completed

    @property
    def pending(self) -> Set[ProcessId]:
        """Processes not yet activated in the current round."""
        return set(self._remaining)

    def record_step(
        self,
        activated: Iterable[ProcessId],
        still_enabled: Optional[Iterable[ProcessId]] = None,
    ) -> bool:
        """Account one step; returns True when this step closed a round.

        ``still_enabled``, when given, is the enabled set *after* the
        step: any remaining process outside it became disabled and is
        treated as served for this round (the Dolev-Israeli-Moran
        refinement needed by enabled-drawing daemons, under which a
        disabled process is never activated).
        """
        self._remaining.difference_update(activated)
        if still_enabled is not None and self._remaining:
            self._remaining.intersection_update(still_enabled)
        if not self._remaining:
            self._completed += 1
            self._remaining = set(self._all)
            return True
        return False

    def advance_rounds(self, count: int) -> None:
        """Credit ``count`` closed rounds at once (fused synchronous
        driver: every step activates all processes, so each step closes
        exactly one round and the remainder set stays full)."""
        if count < 0:
            raise ValueError("cannot advance by a negative round count")
        self._completed += count
        if len(self._remaining) != len(self._all):
            self._remaining = set(self._all)

    def rebind(self, processes: Sequence[ProcessId]) -> None:
        """Re-point the tracker at a mutated process set (topology churn).

        ``completed_rounds`` is preserved.  Departed processes are
        dropped from the current round's remainder; joined processes
        must be served before the current round can close (they are, by
        definition, not yet activated in it).  If every pending process
        departed, the current round closes immediately.
        """
        new_all = set(processes)
        if not new_all:
            raise ValueError("round tracking requires at least one process")
        joined = new_all - self._all
        self._remaining.intersection_update(new_all)
        self._remaining.update(joined)
        self._all = new_all
        if not self._remaining:
            self._completed += 1
            self._remaining = set(self._all)

    def reset(self) -> None:
        """Restart accounting: zero rounds, a fresh full remainder set."""
        self._remaining = set(self._all)
        self._completed = 0
