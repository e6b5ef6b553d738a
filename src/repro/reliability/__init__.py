"""Reliability models for chipkill memory (Chapter 6, reference [12]).

Two independent implementations of the same question — *how often does a
second (or third) device-level fault land in an already-faulty codeword
before the first fault is detected?*:

* :mod:`repro.reliability.analytical` — closed-form Poisson race models
  with a codeword-overlap geometry table, following the structure of the
  authors' technical report [12].
* :mod:`repro.reliability.montecarlo` — event-driven simulation with
  exact footprint intersection on the fleet's fault-event format, used
  to validate the closed forms (the paper does the same cross-check);
  :func:`~repro.reliability.montecarlo.plan_montecarlo` runs a
  population as one runner plan.
* :mod:`repro.reliability.footprint` — the one rule of when two faults
  share a codeword, in scalar and vector form, which the Monte-Carlo
  engine and the fleet's uncorrectable-pair screen both read.
* :mod:`repro.reliability.due` — DUE-rate comparisons, including the
  double-chip-sparing exposure-window argument behind the 17x claim of
  Section 5.2.
"""
