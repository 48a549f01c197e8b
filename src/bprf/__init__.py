"""Robinson-Foulds distances over balanced-parentheses tree encodings."""

from .bp import BpTree
from .newick import (
    LabelMismatchError,
    ModeError,
    ParseError,
    TreePair,
    parse_pair,
    parse_tree,
    write_newick,
)
from .distance import DistanceResult, OpCounts, compute
from .baseline import day_rf, naive_metric
from .treeio import PackError, SizeReport, pack, size_report, unpack

__all__ = [
    "BpTree",
    "DistanceResult",
    "LabelMismatchError",
    "ModeError",
    "OpCounts",
    "PackError",
    "ParseError",
    "SizeReport",
    "TreePair",
    "compute",
    "day_rf",
    "naive_metric",
    "pack",
    "parse_pair",
    "parse_tree",
    "size_report",
    "unpack",
    "write_newick",
]
