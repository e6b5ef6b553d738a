"""DRAM fault taxonomy, rates, injection, and lifetime fault histories.

The paper's fault inputs come from the Sridharan-Liberty SC'12 field study
of >160,000 DIMMs [2]: per-device rates for single-bit, row, column, bank
(subbank), whole-device and lane faults. Chapter 3 turns those into the
fraction of 4 KB pages affected over a server lifespan (Figure 3.1);
Table 7.4 turns each fault type into the fraction of pages ARCC upgrades.
Lifetime populations are sampled by :func:`repro.fleet.engine.
sample_fleet`; :class:`~repro.faults.lifetime.FaultEvent` is the
per-channel history format its batches convert to.
"""
