"""Robinson-Foulds distances over balanced-parentheses tree encodings."""

from .bp import BpTree
from .newick import (
    LabelMismatchError,
    LabelTable,
    ModeError,
    ParseError,
    TreePair,
    parse_pair,
    parse_tree,
    write_newick,
)
from .distance import (
    DistanceResult,
    OpCounts,
    compute,
    erf,
    rf_nextsibling,
    rf_postorder,
    werf,
    wrf,
)
from .baseline import day_rf, naive_metric
from .treeio import PackError, SizeReport, pack, size_report, unpack

__all__ = [
    "BpTree",
    "DistanceResult",
    "LabelMismatchError",
    "LabelTable",
    "ModeError",
    "OpCounts",
    "PackError",
    "ParseError",
    "SizeReport",
    "TreePair",
    "compute",
    "day_rf",
    "erf",
    "naive_metric",
    "pack",
    "parse_pair",
    "parse_tree",
    "rf_nextsibling",
    "rf_postorder",
    "size_report",
    "unpack",
    "werf",
    "wrf",
    "write_newick",
]
