"""The benchmark areas: one module per paper figure, table or ablation.

Every module here (names not starting with ``_``) defines one ``AREA``
(:class:`~repro.bench.area.BenchArea`); importing the package collects
them into :data:`AREAS`, so adding an area is adding one module.
"""

import importlib
import pkgutil
from typing import Dict

from repro.bench.area import BenchArea

AREAS: Dict[str, BenchArea] = {}
for _info in sorted(pkgutil.iter_modules(__path__), key=lambda m: m.name):
    if not _info.name.startswith("_"):
        _area = importlib.import_module(f"{__name__}.{_info.name}").AREA
        AREAS[_area.name] = _area
