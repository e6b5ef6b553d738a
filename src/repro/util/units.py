"""Unit constants used throughout the simulator.

Fault rates in the DRAM reliability literature are quoted in FIT
(failures in time): expected failures per 10^9 device-hours. The
conversion factors here keep the experiment code free of magic numbers.
"""

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

SECONDS_PER_HOUR = 3600
HOURS_PER_YEAR = 8760  # 365 days; field studies use the same convention.

#: Multiply a FIT rate by this to get a per-device-hour arrival rate.
FIT_TO_PER_HOUR = 1e-9
