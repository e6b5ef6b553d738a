"""Protection modes: the lattice ARCC moves pages through.

Each mode fixes the codeword geometry and how many channel sub-lines one
logical line spans. The storage overhead (check/data = 12.5%) is identical
in every mode — that is the whole trick of Section 4.1: doubling the
codeword doubles the check symbols *and* the data symbols.
"""

from __future__ import annotations

import enum

from repro.config import (
    DOUBLE_UPGRADED_GEOMETRY,
    RELAXED_GEOMETRY,
    UPGRADED_GEOMETRY,
    CodewordGeometry,
)


class ProtectionMode(enum.Enum):
    """Chipkill-correct strength of one physical page."""

    RELAXED = "relaxed"
    UPGRADED = "upgraded"
    DOUBLE_UPGRADED = "double_upgraded"  # Section 5.1

    @property
    def geometry(self) -> CodewordGeometry:
        """Codeword geometry of the mode."""
        return _GEOMETRY[self]

    @property
    def span(self) -> int:
        """64B sub-lines combined into one logical line (and channels
        accessed in lockstep per request)."""
        return _SPAN[self]

    @property
    def line_bytes(self) -> int:
        """Logical line size in this mode."""
        return 64 * self.span

    @property
    def devices_per_access(self) -> int:
        """Devices touched by one memory request."""
        return self.geometry.total_symbols

    @property
    def check_symbols(self) -> int:
        """Check symbols per codeword."""
        return self.geometry.check_symbols

    def next_stronger(self) -> "ProtectionMode":
        """The mode a page upgrades into; raises at the top of the lattice."""
        if self == ProtectionMode.RELAXED:
            return ProtectionMode.UPGRADED
        if self == ProtectionMode.UPGRADED:
            return ProtectionMode.DOUBLE_UPGRADED
        raise ValueError("already at the strongest mode")

    @property
    def is_strongest(self) -> bool:
        """True for the top of the lattice."""
        return self == ProtectionMode.DOUBLE_UPGRADED


_GEOMETRY = {
    ProtectionMode.RELAXED: RELAXED_GEOMETRY,
    ProtectionMode.UPGRADED: UPGRADED_GEOMETRY,
    ProtectionMode.DOUBLE_UPGRADED: DOUBLE_UPGRADED_GEOMETRY,
}

_SPAN = {
    ProtectionMode.RELAXED: 1,
    ProtectionMode.UPGRADED: 2,
    ProtectionMode.DOUBLE_UPGRADED: 4,
}
