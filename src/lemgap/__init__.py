"""Propositional-logic workbench: saturation engine, truth-table oracle,
and excluded-middle gap reports.

The package exports each module's `__all__`, and nothing else: a public
name is listed once, in the module that defines it.
"""

from . import engine, formula, gap, oracle
from .engine import *
from .formula import *
from .gap import *
from .oracle import *

__all__ = [*formula.__all__, *oracle.__all__, *engine.__all__, *gap.__all__]
