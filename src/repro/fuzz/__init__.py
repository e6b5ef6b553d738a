"""Seeded differential fuzzing of every fast engine against its oracle.

``repro fuzz --seed N --count K`` samples K valid random scenarios
(:mod:`repro.fuzz.sampler`), runs each through one registered
fast-engine/exact-oracle pair (:mod:`repro.fuzz.oracles`) as ordinary
runner jobs (:mod:`repro.fuzz.campaign`), and greedily minimizes any
divergence into a replayable repro file (:mod:`repro.fuzz.shrink`).
See ``docs/fuzzing.md``.
"""
