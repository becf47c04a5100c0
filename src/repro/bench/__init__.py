"""The benchmark harness regenerating every table and figure of §4.

``python -m repro.bench.grid`` is the one entry point; see
:mod:`repro.bench.grid` (machinery), :mod:`repro.bench.area` (what an
area is) and :mod:`repro.bench.areas` (one module per figure, table,
ablation and the chaos soak).
"""

from repro.bench.area import BenchArea, ParameterGrid
from repro.bench.fabric import Fabric

__all__ = ["BenchArea", "Fabric", "ParameterGrid"]
