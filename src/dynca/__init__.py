"""Nearest common ancestors on growing and linkable trees.

Static trees answer in O(1) words after linear setup; trees growing by
add_leaf and add_root keep that query cost with constant amortized update
work; arbitrary link sequences pay an inverse-Ackermann factor, with the
structure retuning itself as the workload's shape drifts.
"""

from .arena import Arena
from .errors import CapacityError, ConfigError, TraceParseError
from .fat_preorder import (DYNAMIC_PARAMS, STATIC_PARAMS, FatParams, StaticCa,
                           assign_numbers)
from .forest import CaTriple, Forest, combine_rerooted, oracle_ca
from .incremental import IncrementalTree
from .linkforest import AdaptiveLinkForest, LinkForest, alpha
from .microset import Microset
from .multilevel import MultilevelInc, edmonds_tree, linear_tree
from .numeric import LogTable, Rational
from .stats import Stats
from .traces import (Trace, TraceOp, RunReport, compatible_engines,
                     format_trace, generate, make_engine, parse_trace, run)

__version__ = "0.1.0"

__all__ = [
    "Arena", "CapacityError", "ConfigError", "TraceParseError",
    "DYNAMIC_PARAMS", "STATIC_PARAMS", "FatParams", "StaticCa",
    "assign_numbers", "CaTriple", "Forest", "combine_rerooted", "oracle_ca",
    "IncrementalTree", "AdaptiveLinkForest", "LinkForest", "alpha",
    "Microset", "MultilevelInc", "edmonds_tree", "linear_tree", "LogTable",
    "Rational", "Stats", "Trace", "TraceOp", "RunReport", "compatible_engines",
    "format_trace", "generate", "make_engine", "parse_trace", "run",
    "__version__",
]
