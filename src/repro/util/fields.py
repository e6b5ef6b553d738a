"""Value errors that name the field they reject.

Domain objects own their value rules: a constructor that rejects a
value raises :class:`FieldError` naming the field (and the element,
``rate_multipliers[1]``). File loaders check only shape and re-raise a
:class:`FieldError` at the field's dotted path in the file, so a rule
and its wording live in one place whether the value came from Python
or from a scenario file.
"""

from __future__ import annotations

import math
from typing import Optional


class FieldError(ValueError):
    """A value rule failed on one field; ``str()`` is ``"field: message"``.

    Examples
    --------
    >>> str(FieldError("rate_multipliers[1]", "must be > 0, got 0"))
    'rate_multipliers[1]: must be > 0, got 0'
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _shown(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:g}"


def check_range(
    field: str,
    value: float,
    *,
    above: Optional[float] = None,
    at_least: Optional[float] = None,
    at_most: Optional[float] = None,
) -> None:
    """The one wording of a numeric rule: finite, and within its bounds.

    Every float must be finite: NaN passes every comparison, and an
    infinite rate or lifespan only fails deep inside the sampler.

    Examples
    --------
    >>> check_range("rate_multiplier", 0, above=0.0)
    Traceback (most recent call last):
    ...
    repro.util.fields.FieldError: rate_multiplier: must be > 0, got 0
    >>> check_range("fraction", float("nan"), at_least=0.0)
    Traceback (most recent call last):
    ...
    repro.util.fields.FieldError: fraction: must be finite, got nan
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise FieldError(field, f"must be finite, got {value:g}")
    if above is not None and value <= above:
        raise FieldError(field, f"must be > {_shown(above)}, got {_shown(value)}")
    if at_least is not None and value < at_least:
        raise FieldError(field, f"must be >= {_shown(at_least)}, got {_shown(value)}")
    if at_most is not None and value > at_most:
        raise FieldError(field, f"must be <= {_shown(at_most)}, got {_shown(value)}")
