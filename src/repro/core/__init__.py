"""ARCC — the paper's primary contribution (Chapters 4 and 5).

* :mod:`repro.core.modes` — the protection-mode lattice: relaxed (2 check
  symbols, one channel) -> upgraded (4 check symbols, two channels in
  lockstep) -> double-upgraded (8 check symbols, four channels;
  Section 5.1).
* :mod:`repro.core.page_table` — per-page mode bits and the TLB that
  caches them (Section 4.2.1).
* :mod:`repro.core.scrubber` — the enhanced scrubber that probes memory
  with all-0s/all-1s patterns to flush out hidden stuck-at faults
  (Section 4.2.2).
* :mod:`repro.core.upgrade` — the upgrade engine that joins adjacent
  codewords across channels into double-width codewords (Section 4.1).
* :mod:`repro.core.arcc` — :class:`ARCCMemorySystem`, the functional
  facade: stores and loads real bytes through real codewords on
  fault-injectable devices, scrubs, upgrades, and keeps the statistics
  the experiments consume.
* :mod:`repro.core.lotecc_arcc` / :mod:`repro.core.vecc_arcc` — ARCC
  applied to LOT-ECC and VECC (Section 5.2).
"""
