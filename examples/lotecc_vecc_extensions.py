#!/usr/bin/env python3
"""Chapter 5 scenario: ARCC on top of LOT-ECC and VECC.

ARCC is an optimization, not a code: this example applies it to the two
recently-proposed chipkill schemes from the paper's Chapter 5 and shows

* ARCC+LOT-ECC: relaxed nine-device pages upgrading to the 18-device
  double-chip-sparing form on faults, with the Figure 7.6 worst-case
  lifetime overhead and the ~17x DUE payoff;
* ARCC+VECC: nine-device detection-only pages whose correction symbols
  are virtualized into another rank, upgrading to full 18-device VECC.

Run:  python examples/lotecc_vecc_extensions.py

Exits 1 if a printed check (``intact``, ``all data survived``) is False.
"""

import sys

from repro.core.lotecc_vecc import ArccLotEcc, ArccVecc
from repro.experiments.fig7_6 import plan_fig7_6
from repro.runner.executor import execute_plan


def check(label: str, passed: bool) -> bool:
    """Print one check of the demo and return it."""
    print(f"{label}: {passed}")
    return passed


def demo_lotecc() -> bool:
    print("== ARCC + LOT-ECC (functional) ==")
    memory = ArccLotEcc(pages=8)
    payloads = {}
    for line in range(0, 8 * 64, 9):
        payload = bytes((line + i) % 256 for i in range(64))
        memory.write_line(line, payload)
        payloads[line] = payload

    memory.inject_device_fault(page=0, device=3)
    data, result = memory.read_line(0)
    print(f"read under fault: {result.status.name}")
    intact = check("intact", data == payloads[0])

    upgraded = memory.scrub()
    print(f"pages upgraded to 18-device LOT-ECC: {upgraded}; "
          f"page 0 mode: {memory.mode_of(0).value}")
    survived = all(
        memory.read_line(line)[0] == payload
        for line, payload in payloads.items()
    )
    survived = check("all data survived", survived)
    print(f"fraction upgraded: {memory.fraction_upgraded():.1%}")
    print()
    return intact and survived


def demo_vecc() -> bool:
    print("== ARCC + VECC (functional) ==")
    memory = ArccVecc(pages=8)
    payloads = {}
    for line in range(0, 8 * 64, 11):
        payload = bytes((3 * line + i) % 256 for i in range(64))
        memory.write_line(line, payload)
        payloads[line] = payload

    clean_accesses = memory.stats.device_accesses
    memory.read_line(0)
    print(f"clean read touches "
          f"{memory.stats.device_accesses - clean_accesses} devices "
          "(nine-device relaxed mode)")

    memory.inject_device_fault(page=0, device=1)
    data, result = memory.read_line(0)
    print(f"faulty read: {result.status.name} via the virtualized "
          f"correction symbols; slow-path reads: "
          f"{memory.stats.slow_path_reads}")

    upgraded = memory.scrub()
    print(f"pages upgraded to 18-device VECC: {upgraded}; "
          f"page 0 mode: {memory.mode_of(0).value}")
    survived = all(
        memory.read_line(line)[0] == payload
        for line, payload in payloads.items()
    )
    survived = check("all data survived", survived)
    print()
    return survived


def demo_lifetime() -> None:
    print("== Figure 7.6: worst-case lifetime overhead ==")
    result = execute_plan(plan_fig7_6(years=7, channels=800))
    print(result.to_table())


if __name__ == "__main__":
    passed = [demo_lotecc(), demo_vecc()]
    demo_lifetime()
    sys.exit(0 if all(passed) else 1)
