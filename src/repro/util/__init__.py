"""Shared utilities: bit manipulation, unit constants, RNG, stats, tables,
field-naming value errors."""

from repro.util.bitops import bit_count, parity
from repro.util.fields import FieldError, check_range
from repro.util.rng import derive_seed, derive_seeds, make_rng, split_rng
from repro.util.stats import confidence_interval
from repro.util.suggest import did_you_mean, unknown_key_message
from repro.util.tables import format_table
from repro.util.units import (
    FIT_TO_PER_HOUR,
    GB,
    HOURS_PER_YEAR,
    KB,
    MB,
    SECONDS_PER_HOUR,
)

__all__ = [
    "FIT_TO_PER_HOUR",
    "FieldError",
    "GB",
    "HOURS_PER_YEAR",
    "KB",
    "MB",
    "SECONDS_PER_HOUR",
    "bit_count",
    "check_range",
    "confidence_interval",
    "derive_seed",
    "derive_seeds",
    "did_you_mean",
    "format_table",
    "make_rng",
    "parity",
    "split_rng",
    "unknown_key_message",
]
