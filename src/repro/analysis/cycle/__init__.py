"""Cycle detection (delay-set analysis).

The back-path test of Shasha & Snir (§4) in its efficient SPMD
formulation (conflict-alternating reachability):
:mod:`repro.analysis.cycle.spmd`.  The direct Definition-1 enumeration
it is cross-validated against lives with the tests
(``tests/analysis/general_backpath.py``).
"""

from repro.analysis.cycle.spmd import BackPathEngine

__all__ = ["BackPathEngine"]
