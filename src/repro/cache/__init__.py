"""Last-level cache models.

Section 4.2.3: the LLC must hold relaxed 64B lines and upgraded 128B lines
simultaneously, because both sub-lines of an upgraded line must be written
back together (all four check symbols of each codeword span both).

* :class:`repro.cache.llc.LastLevelCache` — the paper's proposed design: a
  conventional 64B-line cache with one extra tag bit; the two sub-lines of
  an upgraded line sit in adjacent sets and share the recency of the most
  recently used sub-line.
"""
