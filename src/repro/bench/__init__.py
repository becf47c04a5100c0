"""The benchmark harness regenerating every table and figure of §4.

``python -m repro.bench.grid`` is the one entry point; see
:mod:`repro.bench.grid` (machinery), :mod:`repro.bench.area` (what an
area is) and :mod:`repro.bench.areas` (one module per figure/table).
"""

from repro.bench.area import BenchArea, ParameterGrid
from repro.bench.fabric import Fabric
from repro.bench.report import ExperimentReport

__all__ = ["BenchArea", "ExperimentReport", "Fabric", "ParameterGrid"]
