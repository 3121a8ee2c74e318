"""Parser and evaluator behavior, pinned down to the exact error texts the
command line relies on."""

import math
import struct

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraclab import evaluate, parse_expression, to_source
from fraclab.errors import ArityMismatchError, ParseError, UnknownIdentifierError
from fraclab.expressions import (
    FUNCTION_ARITY,
    PAIR_VARS,
    POINT_VARS,
    _Parser,
    check_variables,
    fold,
    free_variables,
    same_up_to_commuting,
    substitute,
)


def ev(src, **env):
    return evaluate(parse_expression(src), env)


def test_precedence_and_grouping():
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("2*3^2") == 18.0
    assert ev("10 - 4 - 3") == 3.0
    assert ev("12/3/2") == 2.0


def test_power_chains_group_left():
    # chained powers associate left to right; pinned so a config author
    # always gets one answer
    assert ev("2^3^2") == 64.0
    assert ev("2^(3^2)") == 512.0


def test_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("--2") == 2.0
    assert ev("3 - -2") == 5.0
    assert ev("2^-1") == 0.5


@pytest.mark.parametrize(
    "src,val",
    [
        ("sin(0.5)", math.sin(0.5)),
        ("cos(0.5)", math.cos(0.5)),
        ("exp(-1)", math.exp(-1.0)),
        ("abs(-3)", 3.0),
        ("sqrt(4)", 2.0),
        ("min(1, 2)", 1.0),
        ("max(3, 1)", 3.0),
    ],
)
def test_function_values(src, val):
    assert ev(src) == pytest.approx(val, rel=1e-15)


def test_function_table():
    assert FUNCTION_ARITY == {
        "sin": 1, "cos": 1, "exp": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2,
    }
    assert POINT_VARS == ("x", "x1", "x2")
    assert PAIR_VARS == ("y", "y1", "y2")


def test_array_evaluation_broadcasts():
    x = np.array([0.1, 0.9])
    v = ev("min(x, 0.3) + max(x, 0.7)", x=x)
    assert np.allclose(v, [0.8, 1.2])


def test_no_named_constants():
    # the grammar has no pi; circle constants must be written as literals
    with pytest.raises(UnknownIdentifierError, match="unknown identifier 'pi'"):
        ev("2 + pi")


@pytest.mark.parametrize(
    "src,message",
    [
        ("x1 **x2", "unexpected '*' (at position 4)"),
        ("1 + * 2", "unexpected '*' (at position 4)"),
        ("sin(x", "expected ')', found 'end of input' (at position 5)"),
        ("(1+2", "expected ')', found 'end of input' (at position 4)"),
        ("", "empty expression (at position 0)"),
        ("1 2", "unexpected trailing '2' (at position 2)"),
        ("min(x)", "min takes 2 arguments, got 1 (at position 0)"),
        ("sin(x, x)", "sin takes 1 argument, got 2 (at position 0)"),
    ],
)
def test_parse_error_positions(src, message):
    with pytest.raises(ParseError) as exc:
        parse_expression(src)
    assert str(exc.value) == message


def test_trailing_whitespace_ends_the_input():
    assert parse_expression("x + 1 \t ") == parse_expression("x + 1")


def test_unexpected_character_names_its_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("2 $ x")
    assert str(exc.value) == "unexpected character '$' (at position 2)"


def test_unknown_function():
    with pytest.raises(UnknownIdentifierError, match="unknown function 'foo'"):
        parse_expression("foo(2)")


def test_free_variables_and_check():
    tree = parse_expression("2 + x*y - sin(x1)")
    assert free_variables(tree) == {"x", "x1", "y"}
    with pytest.raises(ArityMismatchError, match="variable 'y' not allowed in p"):
        check_variables(tree, POINT_VARS, "p")
    check_variables(tree, POINT_VARS + PAIR_VARS, "p")


def test_free_variables_under_negation():
    assert free_variables(parse_expression("-x1")) == {"x1"}


@pytest.mark.parametrize("env, bound", [({"x": 1.0}, "x"), ({}, "none")])
def test_evaluating_an_unbound_variable_names_the_bound_ones(env, bound):
    with pytest.raises(UnknownIdentifierError) as exc:
        evaluate(parse_expression("2*y"), env)
    assert str(exc.value) == f"variable 'y' is not available here (bound: {bound})"


@pytest.mark.parametrize(
    "call",
    [
        lambda: to_source(object()),
        lambda: evaluate(object(), {}),
        lambda: free_variables(object()),
        lambda: fold(object()),
        lambda: substitute(object(), {}),
    ],
    ids=["to_source", "evaluate", "free_variables", "fold", "substitute"],
)
def test_walkers_reject_what_is_not_a_node(call):
    with pytest.raises(TypeError, match="^not an expression node: <object object at "):
        call()


def test_fold_collapses_constant_subtrees():
    assert to_source(fold(parse_expression("1 + 2*3 + x"))) == "(7.0 + x)"
    # fully constant trees fold at parse time already
    assert to_source(parse_expression("min(1, 2) + 4")) == "5.0"


def test_substitute_renames_variables():
    tree = substitute(parse_expression("x + sin(x1)"), {"x": "y", "x1": "y1"})
    assert to_source(tree) == "(y + sin(y1))"


def test_substitute_keeps_numbers_and_negations():
    tree = substitute(parse_expression("-x + 2"), {"x": "y"})
    assert to_source(tree) == "((-y) + 2.0)"


@pytest.mark.parametrize(
    "a, b, same",
    [
        ("x1 + 2*x2", "x1 + 2*x2", True),
        ("x1 + x2", "x2 + x1", True),
        ("x1 * x2", "x2 * x1", True),
        ("x1 - x2", "x2 - x1", False),
        ("x1 / x2", "x2 / x1", False),
        ("x1 + x2", "x1 * x2", False),
        ("x1 - x2", "x1 - x1", False),
        ("x1 + x2", "x2 + 1", False),
        ("x1 + 2*x2", "2*x2 + x1", True),
        ("-(x1 + x2)", "-(x2 + x1)", True),
        ("-x1", "-x2", False),
        ("-x1", "x1", False),
        ("sin(x1 + x2)", "sin(x2 + x1)", True),
        ("sin(x1)", "cos(x1)", False),
        ("sin(x1)", "-x1", False),
        ("min(x1, x2)", "min(x2, x1)", False),
        ("max(x1 + x2, 1)", "max(x2 + x1, 1)", True),
        ("x1", "x1", True),
        ("x1", "x2", False),
        ("x1", "-x1", False),
    ],
)
def test_same_up_to_commuting(a, b, same):
    assert same_up_to_commuting(parse_expression(a), parse_expression(b)) is same
    assert same_up_to_commuting(parse_expression(b), parse_expression(a)) is same


ROUNDTRIP_CORPUS = [
    "x",
    "2 + x/2",
    "1.5 + 0.3*sin(6.283185307179586*x)",
    "min(x1, x2) + max(y1, y2)",
    "exp(-x1 - x2)",
    "(x - 0.5)^2 + 0.25",
    "sqrt(abs(x - y)) + 1",
    "2^-x",
]


@pytest.mark.parametrize("src", ROUNDTRIP_CORPUS)
def test_to_source_round_trip(src):
    tree = parse_expression(src)
    again = parse_expression(to_source(tree))
    env = {
        "x": np.linspace(0.05, 0.95, 7),
        "y": np.linspace(0.9, 0.1, 7),
        "x1": np.linspace(0.2, 0.8, 7),
        "x2": np.linspace(0.7, 0.3, 7),
        "y1": np.linspace(0.15, 0.85, 7),
        "y2": np.linspace(0.6, 0.4, 7),
    }
    assert np.array_equal(evaluate(tree, env), evaluate(again, env))


@given(
    a=st.floats(-50, 50, allow_nan=False),
    b=st.floats(0.1, 50, allow_nan=False),
)
def test_arithmetic_matches_python(a, b):
    src = f"({a!r}) * ({b!r}) + ({a!r})/({b!r}) - ({b!r})^2"
    assert ev(src) == pytest.approx(a * b + a / b - b * b, rel=1e-12, abs=1e-12)


@given(x=st.floats(-3, 3, allow_nan=False))
def test_function_composition_matches_numpy(x):
    got = ev("exp(sin(x)) + sqrt(abs(x))", x=x)
    assert got == pytest.approx(math.exp(math.sin(x)) + math.sqrt(abs(x)), rel=1e-12)


# Generated trees are drawn as nested tuples, apart from the package's node
# classes: a float is a constant, a str a variable and (name, *operands) an
# operator, with "neg" for unary minus.  Constants are drawn finite and
# non-negative: a negative one is a negation of a drawn constant.
UNARY_OPS = ("neg", "sin", "cos", "exp", "abs", "sqrt")
BINARY_OPS = ("+", "-", "*", "/", "^", "min", "max")
EXACT_OPS = {"neg", "+", "-", "*", "/", "abs", "sqrt", "min", "max"}
TRANSPOSE = {"x": "y", "y": "x", "x1": "y1", "y1": "x1", "x2": "y2", "y2": "x2"}

drawn_trees = st.recursive(
    st.floats(0.0, 1e3) | st.sampled_from(POINT_VARS + PAIR_VARS),
    lambda sub: st.tuples(st.sampled_from(UNARY_OPS), sub) | st.tuples(st.sampled_from(BINARY_OPS), sub, sub),
    max_leaves=8,
)


def render(tree, commute=False):
    """Fully parenthesized source of a drawn tree; commute swaps the
    operands of every + and *."""
    if isinstance(tree, float):
        return repr(tree)
    if isinstance(tree, str):
        return tree
    name, *args = tree
    args = [render(a, commute) for a in args]
    if commute and name in ("+", "*"):
        args.reverse()
    if name == "neg":
        return f"(-{args[0]})"
    if name in FUNCTION_ARITY:
        return f"{name}({', '.join(args)})"
    return f"({args[0]} {name} {args[1]})"


def unfolded(tree, commute=False):
    return _Parser(render(tree, commute)).parse()


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def checked_value(tree, env):
    """The package's value of a drawn tree.  At each operator node, the
    scalar oracle applied to the operand values the package computed must
    give the package's value: bit for bit for the exact operators, within
    one ulp for ^ sin cos exp."""
    value = float(evaluate(unfolded(tree), env))
    if isinstance(tree, tuple):
        name, *args = tree
        want = oracles.scalar_evaluate((name, *[checked_value(a, env) for a in args]), env)
        near = (want, math.nextafter(want, math.inf), math.nextafter(want, -math.inf))
        assert same_bits(value, want) or (name not in EXACT_OPS and value in near), (render(tree), value, want)
    return value


def operators(tree):
    if not isinstance(tree, tuple):
        return set()
    return {tree[0]}.union(*map(operators, tree[1:]))


@pytest.mark.parametrize("root", UNARY_OPS + BINARY_OPS)
@given(data=st.data())
def test_generated_trees(root, data):
    tree = (root, *[data.draw(drawn_trees) for _ in range(1 if root in UNARY_OPS else 2)])
    env = data.draw(st.fixed_dictionaries({v: st.floats(-10.0, 10.0) for v in POINT_VARS + PAIR_VARS}))
    t = unfolded(tree)
    # repr, not ==: a constant subtree may fold to nan
    assert repr(parse_expression(to_source(t))) == repr(fold(t))
    assert substitute(substitute(t, TRANSPOSE), TRANSPOSE) == t
    assert same_up_to_commuting(t, unfolded(tree, commute=True))
    assert same_up_to_commuting(unfolded(tree, commute=True), t)
    value = checked_value(tree, env)
    assert same_bits(float(evaluate(fold(t), env)), value)
    if operators(tree) <= EXACT_OPS:
        assert same_bits(oracles.scalar_evaluate(tree, env), value)
