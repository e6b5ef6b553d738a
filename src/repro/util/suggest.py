"""Closest-match suggestions for unknown-name error messages.

Every user-facing registry (CLI scenario names, policy keys, scenario-
file schema keys) rejects unknown names with the same message shape —
``unknown X 'nmae' (did you mean 'name'?); known: ...`` — built here so
the wording stays consistent and typo matching lives in one place.
"""

from __future__ import annotations

import difflib
from typing import Iterable


def did_you_mean(key: str, known: Iterable[str]) -> str:
    """``" (did you mean 'closest'?)"`` or ``""`` when nothing is close.

    Closeness is :func:`difflib.get_close_matches`' ratio with its 0.6
    cutoff; ties go to the name listed first in ``known`` (``fig7.l``
    suggests ``fig7.1``, not whichever tied name sorts last).
    """
    scores = {
        name: difflib.SequenceMatcher(None, name, key).ratio()
        for name in known
    }
    best = max(scores, key=scores.__getitem__, default=None)
    close = best is not None and scores[best] >= 0.6
    return f" (did you mean {best!r}?)" if close else ""


def unknown_key_message(
    kind: str, key: str, known: Iterable[str], known_label: str = "known"
) -> str:
    """One-line rejection: unknown name, closest match, the valid set."""
    known = list(known)
    return (
        f"unknown {kind} {key!r}{did_you_mean(key, known)}; "
        f"{known_label}: {', '.join(known)}"
    )
