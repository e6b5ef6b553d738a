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
