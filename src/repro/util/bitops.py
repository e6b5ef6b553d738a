"""Bit-level helpers: popcount, parity, power-of-two checks."""

from __future__ import annotations


def bit_count(value: int) -> int:
    """Number of set bits in ``value`` (popcount)."""
    if value < 0:
        raise ValueError("bit_count expects a non-negative integer")
    return bin(value).count("1")


def parity(value: int) -> int:
    """Even/odd parity (0 or 1) of the set bits of ``value``."""
    return bit_count(value) & 1


def is_power_of_two(value: int) -> bool:
    """Whether ``value`` is a positive power of two."""
    return value > 0 and value & (value - 1) == 0
