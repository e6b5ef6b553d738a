"""Memory transactions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional


_request_ids = itertools.count()


@dataclass
class MemoryRequest:
    """One line-granularity memory transaction.

    ``paired_with`` links the two sub-line requests of an upgraded 128B
    line; the controller must issue both simultaneously (Section 4.2.4).
    """

    line_address: int
    is_write: bool
    arrival_ns: float
    request_id: int = field(default_factory=lambda: next(_request_ids))
    paired_with: Optional[int] = None  # request_id of the sibling sub-line
    is_scrub: bool = False
    completion_ns: Optional[float] = None

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion latency; raises if not yet completed."""
        if self.completion_ns is None:
            raise ValueError("request has not completed")
        return self.completion_ns - self.arrival_ns
