"""Replacement policies for the ARCC-aware LLC.

The design point Section 4.2.3 argues for: when choosing a victim, an
upgraded sub-line's recency is the recency of the *most recently used* of
its two sub-lines, so one hot sub-line protects its cold sibling from
eviction (otherwise every eviction of the cold sibling forces a paired
writeback and refetch). ``NaivePairedLru`` omits that coupling and is used
by the ablation benchmark to show the thrash it causes.
"""

from __future__ import annotations

from typing import List, Optional, Protocol


class ReplacementPolicy(Protocol):
    """Victim selection given per-way recency values.

    ``recencies[w]`` is the last-touch sequence number of way ``w``;
    ``paired_recencies[w]`` is the sibling's last touch for upgraded lines
    (or ``None`` for relaxed lines). Returns the victim way index.
    """

    def select_victim(
        self,
        recencies: List[int],
        paired_recencies: List[Optional[int]],
    ) -> int:
        """Pick the way to evict."""
        ...


class PairedLruPolicy:
    """The paper's policy: use max(own, sibling) recency for upgraded lines."""

    def select_victim(
        self,
        recencies: List[int],
        paired_recencies: List[Optional[int]],
    ) -> int:
        def effective(w: int) -> int:
            paired = paired_recencies[w]
            if paired is None:
                return recencies[w]
            return max(recencies[w], paired)

        return min(range(len(recencies)), key=effective)


class NaivePairedLru:
    """Ablation: ignores sibling recency (cold sub-lines get thrashed)."""

    def select_victim(
        self,
        recencies: List[int],
        paired_recencies: List[Optional[int]],
    ) -> int:
        return min(range(len(recencies)), key=lambda w: recencies[w])
