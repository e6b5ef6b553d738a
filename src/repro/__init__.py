"""repro — a reproduction of Adaptive Reliability Chipkill Correct (ARCC).

ARCC (Jian, HPCA 2013) layers adaptivity on top of chipkill-correct memory:
pages start in a *relaxed* mode that accesses half the devices per request
(two check symbols per codeword) and are upgraded page-by-page to the
strong commercial mode (four check symbols, two channels in lockstep) only
after the memory scrubber finds a fault in the page.

The package provides:

* ``repro.gf`` / ``repro.ecc`` — GF(2^8) arithmetic and every code the paper
  touches: Reed-Solomon symbol codes, SECDED, SCCDCD, double chip sparing,
  LOT-ECC (9- and 18-device), and VECC.
* ``repro.dram`` — a DRAMsim-like DDR2 timing and power simulator.
* ``repro.cache`` — the modified LLC (upgraded-line pairing) of Section 4.2.3.
* ``repro.faults`` / ``repro.reliability`` — the field-study fault taxonomy,
  Monte-Carlo lifetime simulation, and SDC/DUE reliability models of
  Chapters 3 and 6.
* ``repro.core`` — ARCC itself: page table mode bits, the enhanced scrubber,
  the page-upgrade engine, and full-system facades (including ARCC+LOT-ECC
  and ARCC+VECC).
* ``repro.workloads`` / ``repro.perf`` — the Table 7.3 workload mixes as
  synthetic trace generators and the trace-driven power/performance model.
* ``repro.experiments`` — one entry point per paper table and figure.

Top-level names are resolved lazily (PEP 562) so that importing ``repro``
stays cheap and subpackages can be used independently.
"""

import importlib
import sys
from typing import Any, Callable, Dict, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, table: Dict[str, Tuple[str, str]]
) -> Callable[[str], Any]:
    """A PEP 562 ``__getattr__`` for ``package`` over ``table``.

    ``table`` maps an exported name to ``(module, attribute)``; the module
    is imported on the name's first use and the value then cached as a
    global of ``package``, so later lookups bypass this function.
    """

    def __getattr__(name: str) -> Any:
        try:
            module_name, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module_name), attr)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


_LAZY_EXPORTS = {
    "ARCC_MEMORY_CONFIG": ("repro.config", "ARCC_MEMORY_CONFIG"),
    "BASELINE_MEMORY_CONFIG": ("repro.config", "BASELINE_MEMORY_CONFIG"),
    "MemoryConfig": ("repro.config", "MemoryConfig"),
    "PROCESSOR_CONFIG": ("repro.config", "PROCESSOR_CONFIG"),
    "ProcessorConfig": ("repro.config", "ProcessorConfig"),
    "ARCCMemorySystem": ("repro.core.arcc", "ARCCMemorySystem"),
    "ARCCStats": ("repro.core.arcc", "ARCCStats"),
    "ProtectionMode": ("repro.core.modes", "ProtectionMode"),
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)
