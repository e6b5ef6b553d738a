"""A DRAMsim-like DDR2 memory-system simulator.

Two concerns live here, deliberately separated:

* **Contents** — :class:`repro.dram.device.DRAMDevice` stores symbols
  sparsely and applies stuck-at fault overlays on read. The functional
  ARCC path (scrubbing, upgrade, decode) runs against device contents.
* **Timing & power** — :mod:`repro.dram.timing` holds the Micron DDR2-667
  datasheet parameters; :mod:`repro.dram.power` implements the IDD-based
  power methodology; :mod:`repro.dram.channel` /
  :mod:`repro.dram.controller` model bank/bus occupancy, the closed-page
  policy, the high-performance address map and the lockstep pairing of
  sub-line requests that upgraded ARCC pages require (Section 4.2.4).
"""

from repro.dram.addressing import AddressMapping
from repro.dram.channel import Channel
from repro.dram.controller import MemoryController
from repro.dram.device import DRAMDevice
from repro.dram.power import DevicePowerModel, PowerCounters, RankPowerModel
from repro.dram.system import MemorySystem
from repro.dram.timing import (
    DDR2_667_X4,
    DDR2_667_X8,
    MICRON_512MB_X4,
    MICRON_512MB_X8,
    DevicePowerParams,
    DeviceTimings,
)

__all__ = [
    "AddressMapping",
    "Channel",
    "DDR2_667_X4",
    "DDR2_667_X8",
    "DRAMDevice",
    "DevicePowerModel",
    "DevicePowerParams",
    "DeviceTimings",
    "MICRON_512MB_X4",
    "MICRON_512MB_X8",
    "MemoryController",
    "MemorySystem",
    "PowerCounters",
    "RankPowerModel",
]
