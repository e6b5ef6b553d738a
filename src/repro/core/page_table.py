"""Page table and TLB extensions (Section 4.2.1).

Each physical-page entry carries a 1-bit (2-bit with the Section 5.1
extension) protection-strength flag, updated only at the end of a memory
scrub. The TLB caches the flag alongside translations; upgrading a page
must invalidate (or update) its TLB entry, and the stats here count those
shootdowns because they are part of ARCC's overhead story.

The paper boots the OS with every page upgraded, then immediately scrubs
to relax the fault-free ones — ``PageTable`` reproduces that start-up
protocol via ``initial_mode``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.core.modes import ProtectionMode


class PageTable:
    """Per-physical-page protection modes."""

    def __init__(
        self,
        pages: int,
        initial_mode: ProtectionMode = ProtectionMode.UPGRADED,
    ):
        if pages <= 0:
            raise ValueError("need at least one page")
        self.pages = pages
        self._default = initial_mode
        # Sparse: only pages that deviate from the default are stored.
        self._modes: Dict[int, ProtectionMode] = {}
        self.upgrade_events = 0
        self.relax_events = 0

    def _check(self, page: int) -> int:
        if not 0 <= page < self.pages:
            raise ValueError(f"page {page} out of range")
        return page

    def mode_of(self, page: int) -> ProtectionMode:
        """Current protection mode of a page."""
        return self._modes.get(self._check(page), self._default)

    def set_mode(self, page: int, mode: ProtectionMode) -> None:
        """Set a page's mode (scrub-end bookkeeping)."""
        self._check(page)
        previous = self.mode_of(page)
        if mode == previous:
            return
        if mode == self._default:
            self._modes.pop(page, None)
        else:
            self._modes[page] = mode
        strengths = list(ProtectionMode)
        if strengths.index(mode) > strengths.index(previous):
            self.upgrade_events += 1
        else:
            self.relax_events += 1

    def upgrade(self, page: int) -> ProtectionMode:
        """Move a page one step up the lattice; returns the new mode."""
        new_mode = self.mode_of(page).next_stronger()
        self.set_mode(page, new_mode)
        return new_mode

    def pages_in_mode(self, mode: ProtectionMode) -> int:
        """Count of pages currently in ``mode``."""
        deviating = sum(1 for m in self._modes.values() if m == mode)
        if mode == self._default:
            return self.pages - len(self._modes) + deviating
        return deviating

    def fraction_upgraded(self) -> float:
        """Fraction of pages above RELAXED (the power-overhead driver)."""
        relaxed = self.pages_in_mode(ProtectionMode.RELAXED)
        return 1.0 - relaxed / self.pages


@dataclass
class TlbStats:
    """TLB behaviour counters."""

    hits: int = 0
    misses: int = 0
    shootdowns: int = 0


class Tlb:
    """A small LRU TLB caching (page -> protection mode).

    The mode bit rides along with the translation, so a page upgrade must
    shoot the entry down — the ``shootdowns`` counter sizes that cost.
    """

    def __init__(self, page_table: PageTable, entries: int = 64):
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.page_table = page_table
        self.entries = entries
        self._cache: "OrderedDict[int, ProtectionMode]" = OrderedDict()
        self.stats = TlbStats()

    def lookup(self, page: int) -> ProtectionMode:
        """Translate a page, filling on miss."""
        if page in self._cache:
            self._cache.move_to_end(page)
            self.stats.hits += 1
            return self._cache[page]
        self.stats.misses += 1
        mode = self.page_table.mode_of(page)
        self._cache[page] = mode
        if len(self._cache) > self.entries:
            self._cache.popitem(last=False)
        return mode

    def shootdown(self, page: int) -> None:
        """Invalidate one page's entry (mode changed)."""
        if self._cache.pop(page, None) is not None:
            self.stats.shootdowns += 1

    def flush(self) -> None:
        """Drop every entry."""
        self.stats.shootdowns += len(self._cache)
        self._cache.clear()
