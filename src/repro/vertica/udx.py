"""User-Defined Extensions (UDx).

Vertica lets users extend SQL with custom functions (§2.1.1).  The
connector's MD component registers ``PMMLPredict`` here so models trained
in Spark can score rows inside the database via plain SQL::

    SELECT PMMLPredict(sepal_length, ..., USING PARAMETERS
                       model_name='regression') FROM IrisTable

A scalar UDx is block-oriented, like Vertica's SDK (``processBlock`` over
a ``BlockReader``): a Python callable ``(columns, parameters, num_rows) ->
list`` called once per batch, with one list per argument and ``num_rows``
(a UDx of no arguments has no column to measure), returning one value
per row.  The engine calls it only from the block kernel
(:mod:`repro.vertica.kernels`) and, on one-row columns, from
``UdxCall.apply`` — the row evaluator, which reports whatever the UDx
raises.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.vertica.errors import SqlError

UdxCallable = Callable[[List[List[Any]], Dict[str, Any], int], List[Any]]


class UdxRegistry:
    """Named scalar functions available to the query engine."""

    def __init__(self) -> None:
        self._functions: Dict[str, UdxCallable] = {}

    def register(self, name: str, function: UdxCallable, replace: bool = False) -> None:
        key = name.upper()
        if key in self._functions and not replace:
            raise SqlError(f"UDx {name!r} is already registered")
        self._functions[key] = function

    def unregister(self, name: str) -> None:
        self._functions.pop(name.upper(), None)

    def lookup(self, name: str) -> UdxCallable:
        try:
            return self._functions[name.upper()]
        except KeyError:
            raise SqlError(f"unknown function or UDx {name!r}") from None

    def is_registered(self, name: str) -> bool:
        return name.upper() in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)
