"""Environment relation: schemas, multiset tables, and the ``⊕`` operator.

This package implements Section 4.2 of the paper: the tagged environment
relation ``E`` that holds all unit state, and the combination operator
``⊕`` that merges concurrent effect tables.
"""

from .combine import combine, combine_all, combine_pair
from .schema import Attribute, AttributeType, Schema, SchemaError, battle_schema
from .sharding import ShardingError, make_sharder
from .table import EnvironmentTable

__all__ = [
    "Attribute",
    "AttributeType",
    "EnvironmentTable",
    "Schema",
    "SchemaError",
    "ShardingError",
    "battle_schema",
    "combine",
    "combine_all",
    "combine_pair",
    "make_sharder",
]
