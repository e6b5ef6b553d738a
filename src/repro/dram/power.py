"""IDD-based DRAM power model (Micron TN-47-04 methodology, as in DRAMsim).

Power is accounted per *device* and rolled up per rank:

* **Activate/precharge** — each ACT-PRE pair costs the charge
  ``IDD0*tRC - IDD3N*tRAS - IDD2N*(tRC - tRAS)`` (the one-bank activate
  current with its standby baseline removed) times VDD.
* **Read/write bursts** — ``(IDD4R - IDD3N) * VDD`` for the burst
  duration, plus a flat per-bit I/O figure.
* **Background** — IDD3N while any bank is open, IDD2N while precharged
  and the clock is running, IDD2P in precharge power-down. The closed-page
  policy means ranks spend most of their time precharged; idle ranks drop
  into power-down (CKE low), which is what makes the *number of ranks kept
  busy per access* — 36 devices vs 18 — dominate the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import DevicePowerParams, DeviceTimings


@dataclass
class PowerCounters:
    """Event counts accumulated by the timing model for one rank."""

    activates: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    elapsed_ns: float = 0.0
    active_ns: float = 0.0  # time with a bank open (IDD3N region)
    powerdown_ns: float = 0.0  # time in precharge power-down (IDD2P)

    def merge(self, other: "PowerCounters") -> None:
        """Accumulate another counter set (e.g. across simulation chunks)."""
        self.activates += other.activates
        self.read_bursts += other.read_bursts
        self.write_bursts += other.write_bursts
        self.elapsed_ns += other.elapsed_ns
        self.active_ns += other.active_ns
        self.powerdown_ns += other.powerdown_ns

    @property
    def standby_ns(self) -> float:
        """Precharge-standby time (clock running, no bank open)."""
        return max(self.elapsed_ns - self.active_ns - self.powerdown_ns, 0.0)


class DevicePowerModel:
    """Energy/power arithmetic for a single DRAM device."""

    def __init__(self, params: DevicePowerParams, timings: DeviceTimings):
        self.params = params
        self.timings = timings

    # -- per-event energies (nanojoules) --------------------------------------

    @property
    def energy_per_activate_nj(self) -> float:
        """Energy of one ACT-PRE pair above the standby baseline."""
        p = self.params
        t = self.timings
        charge_nc = (
            p.idd0 * t.trc_ns
            - p.idd3n * t.tras_ns
            - p.idd2n * (t.trc_ns - t.tras_ns)
        ) * 1e-3  # mA * ns -> nC
        return max(charge_nc, 0.0) * p.vdd

    def _burst_energy_nj(self, idd4: float) -> float:
        p = self.params
        t = self.timings
        core_nj = (idd4 - p.idd3n) * 1e-3 * t.burst_ns * p.vdd
        io_bits = t.burst_length * p.io_width
        io_nj = io_bits * p.dq_pj_per_bit * 1e-3
        return max(core_nj, 0.0) + io_nj

    @property
    def energy_per_read_burst_nj(self) -> float:
        """Energy of one read burst above active standby."""
        return self._burst_energy_nj(self.params.idd4r)

    @property
    def energy_per_write_burst_nj(self) -> float:
        """Energy of one write burst above active standby."""
        return self._burst_energy_nj(self.params.idd4w)

    # -- background powers (watts) ------------------------------------------

    @property
    def active_standby_w(self) -> float:
        """IDD3N background power (a bank is open)."""
        return self.params.idd3n * 1e-3 * self.params.vdd

    @property
    def precharge_standby_w(self) -> float:
        """IDD2N background power (all banks precharged, CKE high)."""
        return self.params.idd2n * 1e-3 * self.params.vdd

    @property
    def powerdown_w(self) -> float:
        """IDD2P background power (precharge power-down, CKE low)."""
        return self.params.idd2p * 1e-3 * self.params.vdd


class RankPowerModel:
    """Roll per-rank event counters up to average watts.

    Every device in the rank sees the same command stream (that is the
    definition of a rank), so rank power is device power times the device
    count.
    """

    def __init__(
        self,
        devices: int,
        params: DevicePowerParams,
        timings: DeviceTimings,
    ):
        self.devices = devices
        self.device_model = DevicePowerModel(params, timings)

    def average_power_w(self, counters: PowerCounters) -> float:
        """Average rank power over the counted interval."""
        if counters.elapsed_ns <= 0:
            return 0.0
        m = self.device_model
        dynamic_nj = (
            counters.activates * m.energy_per_activate_nj
            + counters.read_bursts * m.energy_per_read_burst_nj
            + counters.write_bursts * m.energy_per_write_burst_nj
        )
        background_nj = (
            counters.active_ns * m.active_standby_w
            + counters.standby_ns * m.precharge_standby_w
            + counters.powerdown_ns * m.powerdown_w
        )
        per_device_w = (dynamic_nj + background_nj) / counters.elapsed_ns
        return per_device_w * self.devices
