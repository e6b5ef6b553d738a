"""Shared utilities: bit manipulation, unit constants, RNG, stats, tables,
field-naming value errors."""

from repro.util.bitops import (
    bit_count,
    bytes_to_symbols,
    extract_bits,
    insert_bits,
    parity,
    symbols_to_bytes,
)
from repro.util.fields import FieldError, check_range
from repro.util.rng import derive_seeds, make_rng, split_rng
from repro.util.stats import (
    OnlineStats,
    confidence_interval,
    geometric_mean,
    harmonic_mean,
)
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
    "OnlineStats",
    "SECONDS_PER_HOUR",
    "bit_count",
    "bytes_to_symbols",
    "check_range",
    "confidence_interval",
    "derive_seeds",
    "did_you_mean",
    "extract_bits",
    "format_table",
    "geometric_mean",
    "harmonic_mean",
    "insert_bits",
    "make_rng",
    "parity",
    "split_rng",
    "symbols_to_bytes",
    "unknown_key_message",
]
