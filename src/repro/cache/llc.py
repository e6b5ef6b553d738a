"""The ARCC-aware last-level cache (Section 4.2.3).

A conventional set-associative cache of 64B lines, plus:

* one extra tag bit marking a line as a sub-line of an upgraded 128B line;
* paired fills — an upgraded miss brings *both* sub-lines in (they arrive
  together anyway, the two channels are accessed in parallel);
* paired eviction — evicting one sub-line evicts its sibling from the
  adjacent set, and a dirty pair is written back as one paired (two-channel)
  write so all four check symbols get updated;
* paired recency — the replacement policy sees the sibling's recency too
  (see :mod:`repro.cache.replacement`), and each replacement performs a
  second tag access, which the stats expose because the paper calls it the
  main cache overhead.

Because adjacent line addresses map to adjacent sets, the sibling of a
sub-line is always found in the set next door with the same tag — exactly
the lookup trick the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.replacement import PairedLruPolicy, ReplacementPolicy


@dataclass
class Writeback:
    """A dirty eviction headed for memory."""

    line_address: int
    upgraded: bool  # paired write: both channels, 128B


@dataclass
class AccessOutcome:
    """What one LLC access did."""

    hit: bool
    fills: Tuple[int, ...] = ()
    writebacks: Tuple[Writeback, ...] = ()


@dataclass
class CacheStats:
    """Aggregate LLC behaviour."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    paired_writebacks: int = 0
    paired_evictions: int = 0
    extra_tag_accesses: int = 0  # second tag lookup per replacement

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Demand miss rate (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


@dataclass
class _Line:
    line_address: int
    dirty: bool
    upgraded: bool
    recency: int


def validate_llc_geometry(sets: int, ways: int) -> None:
    """Reject LLC shapes that cannot hold sub-line pairs.

    Sibling sub-lines ``a`` and ``a ^ 1`` must sit in the adjacent sets
    ``s`` and ``s ^ 1``, which takes an even set count of at least 2.
    Every replay tier calls this, so they refuse the same geometries
    with the same message.
    """
    if sets < 2 or sets % 2:
        raise ValueError("need an even number of sets >= 2 for pairing")
    if ways < 1:
        raise ValueError("ways must be positive")


class LastLevelCache:
    """Set-associative LLC holding relaxed and upgraded lines together."""

    def __init__(
        self,
        sets: int,
        ways: int,
        policy: Optional[ReplacementPolicy] = None,
    ):
        validate_llc_geometry(sets, ways)
        self.sets = sets
        self.ways = ways
        self.policy = policy or PairedLruPolicy()
        self._sets: List[List[_Line]] = [[] for _ in range(sets)]
        self._clock = 0
        self.stats = CacheStats()

    # -- lookup helpers --------------------------------------------------------

    def _set_index(self, line_address: int) -> int:
        return line_address % self.sets

    def _find(self, line_address: int) -> Optional[_Line]:
        for line in self._sets[self._set_index(line_address)]:
            if line.line_address == line_address:
                return line
        return None

    def contains(self, line_address: int) -> bool:
        """True when the line is resident (no side effects)."""
        return self._find(line_address) is not None

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- eviction ---------------------------------------------------------------

    def _sibling_recency(self, line: _Line) -> Optional[int]:
        if not line.upgraded:
            return None
        sibling = self._find(line.line_address ^ 1)
        self.stats.extra_tag_accesses += 1
        return sibling.recency if sibling else None

    def _evict_from(self, set_index: int) -> List[Writeback]:
        """Free one way in ``set_index``; returns the writebacks produced."""
        ways = self._sets[set_index]
        recencies = [line.recency for line in ways]
        paired = [self._sibling_recency(line) for line in ways]
        victim_way = self.policy.select_victim(recencies, paired)
        victim = ways.pop(victim_way)
        writebacks: List[Writeback] = []
        if victim.upgraded:
            self.stats.paired_evictions += 1
            sibling_addr = victim.line_address ^ 1
            sibling = self._find(sibling_addr)
            dirty = victim.dirty or (sibling.dirty if sibling else False)
            if sibling is not None:
                self._sets[self._set_index(sibling_addr)].remove(sibling)
            if dirty:
                # One paired write updates all four check symbols of every
                # codeword in the upgraded line (Section 4.2.3).
                base = victim.line_address & ~1
                writebacks.append(Writeback(base, upgraded=True))
                self.stats.paired_writebacks += 1
                self.stats.writebacks += 1
        elif victim.dirty:
            writebacks.append(Writeback(victim.line_address, upgraded=False))
            self.stats.writebacks += 1
        return writebacks

    def _insert(
        self, line_address: int, dirty: bool, upgraded: bool
    ) -> List[Writeback]:
        set_index = self._set_index(line_address)
        writebacks: List[Writeback] = []
        while len(self._sets[set_index]) >= self.ways:
            writebacks.extend(self._evict_from(set_index))
        self._sets[set_index].append(
            _Line(
                line_address=line_address,
                dirty=dirty,
                upgraded=upgraded,
                recency=self._tick(),
            )
        )
        return writebacks

    # -- the access path ----------------------------------------------------------

    def access(
        self, line_address: int, is_write: bool, upgraded: bool = False
    ) -> AccessOutcome:
        """One demand access.

        ``upgraded`` declares the page's current protection mode (the TLB
        bit of Section 4.2.1): on a miss to an upgraded page both sub-lines
        are filled.
        """
        if line_address < 0:
            raise ValueError("line address must be non-negative")
        line = self._find(line_address)
        if line is not None:
            line.recency = self._tick()
            line.dirty = line.dirty or is_write
            self.stats.hits += 1
            return AccessOutcome(hit=True)

        self.stats.misses += 1
        writebacks: List[Writeback] = []
        fills: List[int] = [line_address]
        writebacks.extend(self._insert(line_address, is_write, upgraded))
        if upgraded:
            sibling = line_address ^ 1
            if self._find(sibling) is None:
                fills.append(sibling)
                writebacks.extend(self._insert(sibling, False, True))
            else:
                # The sibling was already resident (e.g. the page was
                # upgraded while it sat in the cache); mark it paired.
                resident = self._find(sibling)
                assert resident is not None
                resident.upgraded = True
        return AccessOutcome(
            hit=False, fills=tuple(fills), writebacks=tuple(writebacks)
        )

    def flush(self) -> List[Writeback]:
        """Write back every dirty line and empty the cache."""
        writebacks: List[Writeback] = []
        seen_pairs = set()
        for ways in self._sets:
            for line in ways:
                if line.upgraded:
                    base = line.line_address & ~1
                    if base in seen_pairs:
                        continue
                    sibling = self._find(line.line_address ^ 1)
                    dirty = line.dirty or (
                        sibling.dirty if sibling else False
                    )
                    if dirty:
                        writebacks.append(Writeback(base, upgraded=True))
                    seen_pairs.add(base)
                elif line.dirty:
                    writebacks.append(
                        Writeback(line.line_address, upgraded=False)
                    )
        for ways in self._sets:
            ways.clear()
        return writebacks

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(ways) for ways in self._sets)
