"""Term/condition evaluation: [[.]]_term and [[.]]_cond of Section 4.3."""

import pytest

from repro.env.schema import Attribute, AttributeType, Schema
from repro.env.table import EnvironmentTable
from repro.sgl.builtins import FunctionRegistry
from repro.sgl.errors import SglNameError, SglRuntimeError, SglTypeError
from repro.sgl.evalterm import EvalContext, compare, eval_cond, eval_term
from repro.sgl.interp import NaiveAggregateEvaluator
from repro.sgl.parser import parse_condition, parse_term
from repro.sgl.values import Vec


def make_ctx(bindings=None, unit=None, registry=None):
    schema = Schema([Attribute("key", AttributeType.CONST)])
    return EvalContext(
        env=EnvironmentTable(schema),
        registry=registry or FunctionRegistry(),
        agg_eval=NaiveAggregateEvaluator(),
        rng=lambda row, i: (hash((row.get("key"), i)) & 0x7FFFFFFF),
        bindings=dict(bindings or {}),
        unit=unit,
    )


def ev(src, **kw):
    return eval_term(parse_term(src), make_ctx(**kw))


def cond(src, **kw):
    return eval_cond(parse_condition(src), make_ctx(**kw))


class TestArithmetic:
    def test_constants(self):
        assert ev("1 + 2 * 3") == 7

    def test_division(self):
        assert ev("7 / 2") == 3.5

    def test_modulo(self):
        assert ev("7 % 3") == 1

    def test_negation(self):
        assert ev("-(2 + 3)") == -5

    def test_division_by_zero(self):
        with pytest.raises(SglRuntimeError):
            ev("1 / 0")

    def test_string_plus_number_rejected(self):
        with pytest.raises(SglTypeError):
            ev("'a' + 1")


class TestNames:
    def test_binding_lookup(self):
        assert ev("x + 1", bindings={"x": 41}) == 42

    def test_unbound_name(self):
        with pytest.raises(SglNameError):
            ev("nope")

    def test_registry_constant(self):
        registry = FunctionRegistry()
        registry.register_constant("_HEAL", 3)
        assert ev("_HEAL * 2", registry=registry) == 6

    def test_field_access_on_unit(self):
        row = {"key": 1, "posx": 10}
        assert ev("u.posx", bindings={"u": row}) == 10


class TestVectors:
    def test_vector_literal(self):
        assert ev("(1, 2)") == Vec([1, 2])

    def test_vector_arithmetic(self):
        assert ev("(5, 5) - (2, 3)") == Vec([3, 2])

    def test_null_item_propagates(self):
        assert ev("(x, 2)", bindings={"x": None}) is None


class TestMathBuiltins:
    def test_sqrt(self):
        assert ev("sqrt(9)") == 3

    def test_abs(self):
        assert ev("abs(0 - 5)") == 5

    def test_step(self):
        assert ev("step(3)") == 1
        assert ev("step(0)") == 1
        assert ev("step(0 - 1)") == 0

    def test_nonsql_max_min(self):
        assert ev("nonsql_max(2, 5)") == 5
        assert ev("nonsql_min(2, 5)") == 2

    def test_norm_of_vec(self):
        assert ev("norm((3, 4))") == 5

    def test_null_argument_propagates(self):
        assert ev("sqrt(x)", bindings={"x": None}) is None

    @pytest.mark.parametrize(
        "src", ["exp(1000.0)", "pow(10.0, 400)", "floor(x)", "ceil(0 - x)"]
    )
    def test_overflow_is_an_sgl_runtime_error(self, src):
        with pytest.raises(SglRuntimeError, match="range|large|infinity"):
            ev(src, bindings={"x": float("inf")})

    def test_domain_errors_stay_type_errors(self):
        with pytest.raises(SglTypeError):
            ev("sqrt(0 - 1)")
        with pytest.raises(SglTypeError):
            ev("floor(x)", bindings={"x": float("nan")})


class TestRandom:
    def test_single_arg_uses_unit(self):
        unit = {"key": 7}
        value = ev("Random(1)", unit=unit)
        assert value == ev("Random(1)", unit=unit)  # stable per tick

    def test_two_arg_uses_given_row(self):
        unit = {"key": 7}
        other = {"key": 9}
        assert ev("Random(e, 1)", unit=unit, bindings={"e": other}) == ev(
            "Random(e, 1)", unit=unit, bindings={"e": other}
        )

    def test_without_unit_raises(self):
        with pytest.raises(SglRuntimeError):
            ev("Random(1)")

    @pytest.mark.parametrize("index", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_index_is_an_sgl_runtime_error(self, index):
        unit = {"key": 7}
        with pytest.raises(SglRuntimeError, match="not finite"):
            ev("Random(i)", unit=unit, bindings={"i": index})
        with pytest.raises(SglRuntimeError, match="not finite"):
            ev("Random(e, i)", unit=unit, bindings={"e": unit, "i": index})

    def test_unknown_function(self):
        with pytest.raises(SglNameError):
            ev("Mystery(1)")


class TestConditions:
    def test_comparisons(self):
        assert cond("2 < 3") and cond("3 <= 3") and cond("4 > 3")
        assert cond("3 >= 3") and cond("1 = 1") and cond("1 <> 2")

    def test_boolean_connectives(self):
        assert cond("1 = 1 and 2 = 2")
        assert cond("1 = 2 or 2 = 2")
        assert cond("not 1 = 2")

    def test_string_equality(self):
        assert cond("x = 'knight'", bindings={"x": "knight"})

    def test_short_circuit_and(self):
        # right side would raise if evaluated
        assert not cond("1 = 2 and 1 / 0 = 1")


class TestNullComparisons:
    """SQL three-valued logic: NULL compares false under every operator."""

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_null_left(self, op):
        assert compare(op, None, 1) is False

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_null_right(self, op):
        assert compare(op, 1, None) is False

    def test_null_both(self):
        assert compare("=", None, None) is False

    def test_null_arithmetic_propagates(self):
        assert ev("x + 1", bindings={"x": None}) is None
        assert ev("-x", bindings={"x": None}) is None

    def test_incomparable_types(self):
        with pytest.raises(SglTypeError):
            compare("<", "a", 1)
