"""Shared utilities: bit manipulation, unit constants, RNG, stats, tables,
field-naming value errors."""
