"""SGL -- the Scalable Games Language (Section 4 of the paper).

Public surface:

* :func:`parse_script` / :func:`parse_term` / :func:`parse_condition` --
  parse SGL surface syntax into ASTs;
* :class:`FunctionRegistry` -- built-in aggregate/action functions and
  game constants, registered from the restricted SQL fragment;
* :class:`Interpreter` / :func:`reference_tick` -- the reference
  semantics of Section 4.3, the oracle the compiled engine
  (:mod:`repro.engine.compile`) is tested against.

Scripts are validated by lowering them (:func:`repro.api.compile_script`).
"""

from .builtins import ActionFunction, AggregateFunction, FunctionRegistry
from .errors import (
    SglError,
    SglNameError,
    SglRuntimeError,
    SglSyntaxError,
    SglTypeError,
)
from .evalterm import EvalContext, eval_cond, eval_term
from .interp import Interpreter, NaiveAggregateEvaluator, reference_tick
from .parser import parse_action, parse_condition, parse_script, parse_term
from .sqlspec import (
    AggOutput,
    SqlActionSpec,
    SqlAggregateSpec,
    parse_sql_function,
    parse_sql_functions,
)
from .values import Record, Vec

__all__ = [
    "ActionFunction",
    "AggOutput",
    "AggregateFunction",
    "EvalContext",
    "FunctionRegistry",
    "Interpreter",
    "NaiveAggregateEvaluator",
    "Record",
    "SglError",
    "SglNameError",
    "SglRuntimeError",
    "SglSyntaxError",
    "SglTypeError",
    "SqlActionSpec",
    "SqlAggregateSpec",
    "Vec",
    "eval_cond",
    "eval_term",
    "parse_action",
    "parse_condition",
    "parse_script",
    "parse_sql_function",
    "parse_sql_functions",
    "parse_term",
    "reference_tick",
]
