"""Index structures for aggregate queries (Section 5.3).

* :class:`AggRangeTree2D` / :class:`PrefixAggregate1D` -- divisible
  aggregates at the leaves (Figure 8), with optional fractional
  cascading;
* :class:`CellGrid` -- the 2-d divisible index groups use, and the
  Figure-8 tree instead where their data crowd a cell;
* :func:`sweep_minmax` / :func:`sweep_arg_minmax` -- sweep-line min/max
  for constant range extents (Figure 9);
* :class:`IntervalAggregateIndex` -- the segment tree backing the sweep;
* :class:`KDTree` -- nearest-neighbour spatial aggregates;
* :class:`PartitionedIndex` + composite builders -- categorical hash
  layers above the continuous structures.
"""

from .agg_range_tree import AggRangeTree2D, PrefixAggregate1D
from .cell_grid import CellGrid
from .composite import (
    GroupAggIndex,
    partitioned_agg_tree,
    partitioned_kdtree,
    partitioned_rows,
)
from .divisible import MOMENT_AGGREGATES, Moments, MomentVector, is_divisible
from .hash_layer import PartitionedIndex
from .interval_agg import IntervalAggregateIndex
from .kdtree import KDTree, build_kdtree_from_rows
from .sweepline import sweep_arg_minmax, sweep_minmax

__all__ = [
    "AggRangeTree2D",
    "CellGrid",
    "GroupAggIndex",
    "IntervalAggregateIndex",
    "KDTree",
    "MOMENT_AGGREGATES",
    "Moments",
    "MomentVector",
    "PartitionedIndex",
    "PrefixAggregate1D",
    "build_kdtree_from_rows",
    "is_divisible",
    "partitioned_agg_tree",
    "partitioned_kdtree",
    "partitioned_rows",
    "sweep_arg_minmax",
    "sweep_minmax",
]
