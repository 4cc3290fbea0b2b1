"""Tests for the FPCore lexer/parser/printer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fpcore import (
    Const,
    FPCoreSyntaxError,
    If,
    Let,
    Num,
    Op,
    Var,
    While,
    format_expr,
    format_fpcore,
    parse_expr,
    parse_fpcore,
    parse_fpcores,
)
from repro.fpcore.parser import MAX_NESTING_DEPTH, parse_number, tokenize


class TestTokenizer:
    def test_basic(self):
        assert list(tokenize("(+ x 1)")) == ["(", "+", "x", "1", ")"]

    def test_brackets_normalized(self):
        assert list(tokenize("[a b]")) == ["(", "a", "b", ")"]

    def test_comments_dropped(self):
        assert list(tokenize("(a ; comment\n b)")) == ["(", "a", "b", ")"]

    def test_strings(self):
        assert list(tokenize('(:name "hi there")')) == ["(", ":name", '"hi there"', ")"]

    def test_unbalanced(self):
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("(+ x 1")
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("+ x 1)")


class TestNumbers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", Fraction(1)),
            ("-3", Fraction(-3)),
            ("0.5", Fraction(1, 2)),
            ("1e3", Fraction(1000)),
            ("2.5e-2", Fraction(1, 40)),
            ("1/3", Fraction(1, 3)),
            ("-1/3", Fraction(-1, 3)),
            (".25", Fraction(1, 4)),
            ("3.", Fraction(3)),
        ],
    )
    def test_parse_number(self, text, expected):
        assert parse_number(text) == expected

    def test_non_numbers(self):
        assert parse_number("x") is None
        assert parse_number("+") is None
        assert parse_number("1.2.3") is None

    def test_hex_float(self):
        assert parse_number("0x1.8p1") == Fraction(3)

    def test_exact_decimal_semantics(self):
        # 0.1 is the exact rational 1/10, not the double 0.1.
        value = parse_expr("0.1")
        assert isinstance(value, Num)
        assert value.value == Fraction(1, 10)


class TestExpressions:
    def test_operator(self):
        expr = parse_expr("(+ x (* y 2))")
        assert expr == Op("+", (Var("x"), Op("*", (Var("y"), Num(Fraction(2), "2")))))

    def test_unary_minus_becomes_neg(self):
        assert parse_expr("(- x)") == Op("neg", (Var("x"),))

    def test_unary_plus_disappears(self):
        assert parse_expr("(+ x)") == Var("x")

    def test_constants(self):
        assert parse_expr("PI") == Const("PI")
        assert parse_expr("pi") == Var("pi")  # case-sensitive

    def test_if(self):
        expr = parse_expr("(if (< x 0) (- x) x)")
        assert isinstance(expr, If)
        assert expr.cond == Op("<", (Var("x"), Num(Fraction(0), "0")))

    def test_let(self):
        expr = parse_expr("(let ([a 1] [b 2]) (+ a b))")
        assert isinstance(expr, Let)
        assert not expr.sequential
        assert [name for name, __ in expr.bindings] == ["a", "b"]

    def test_let_star(self):
        expr = parse_expr("(let* ([a 1] [b (+ a 1)]) b)")
        assert isinstance(expr, Let) and expr.sequential

    def test_while(self):
        expr = parse_expr("(while (< i n) ([i 0 (+ i 1)]) i)")
        assert isinstance(expr, While)
        assert expr.bindings[0][0] == "i"

    def test_annotation_dropped(self):
        expr = parse_expr("(! :precision binary32 (+ x 1))")
        assert expr == parse_expr("(+ x 1)")

    def test_malformed(self):
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("()")
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("(if x y)")
        with pytest.raises(FPCoreSyntaxError):
            parse_expr("(let (x 1) x)")


class TestFPCoreForms:
    def test_simple(self):
        core = parse_fpcore("(FPCore (x) (+ x 1))")
        assert core.arguments == ("x",)
        assert core.name is None

    def test_named_symbol(self):
        core = parse_fpcore("(FPCore myname (x y) (* x y))")
        assert core.name == "myname"

    def test_name_property(self):
        core = parse_fpcore('(FPCore (x) :name "nice name" x)')
        assert core.name == "nice name"

    def test_pre_parsed(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 0 x 10) x)")
        assert isinstance(core.pre, Op)
        assert core.pre.op == "<="

    def test_annotated_argument(self):
        core = parse_fpcore("(FPCore ((! :precision binary64 x)) x)")
        assert core.arguments == ("x",)

    def test_multiple(self):
        cores = parse_fpcores("(FPCore (x) x) (FPCore (y) y)")
        assert len(cores) == 2

    def test_body_required(self):
        with pytest.raises(FPCoreSyntaxError):
            parse_fpcore("(FPCore (x))")


class TestPrinterRoundtrip:
    EXPRESSIONS = [
        "(+ x 1)",
        "(- x)",
        "(sqrt (+ (* x x) (* y y)))",
        "(if (< x 0) (- x) x)",
        "(let ([a (+ x 1)]) (* a a))",
        "(let* ([a 1] [b (+ a 1)]) b)",
        "(while (< i n) ([i 0 (+ i 1)]) i)",
        "(and (<= 0 x 1) (!= y 0))",
        "PI",
        "(atan2 y x)",
        "(fma a b c)",
    ]

    @pytest.mark.parametrize("source", EXPRESSIONS)
    def test_roundtrip(self, source):
        expr = parse_expr(source)
        assert parse_expr(format_expr(expr)) == expr

    def test_fpcore_roundtrip(self):
        source = '(FPCore (x y) :name "t" :pre (<= 0 x y) (+ x y))'
        core = parse_fpcore(source)
        reparsed = parse_fpcore(format_fpcore(core))
        assert reparsed.body == core.body
        assert reparsed.arguments == core.arguments
        assert reparsed.name == core.name

    def test_multiline_format(self):
        core = parse_fpcore("(FPCore (x) :pre (<= 0 x 1) (sqrt x))")
        text = format_fpcore(core, multiline=True)
        assert text.startswith("(FPCore (x)\n")
        assert parse_fpcore(text).body == core.body


def _nested(levels):
    """An FPCore whose parentheses nest exactly ``levels`` deep: the
    (FPCore ...) form around a chain of ``levels - 1`` additions."""
    chain = levels - 1
    return ("(FPCore (x) :pre (<= 1 x 2) "
            + "(+ 1 " * chain + "x" + ")" * chain + ")")


class TestNestingBound:
    """Parsing, printing, compiling and analysing all recurse on an
    expression's depth; inputs past ``MAX_NESTING_DEPTH`` are refused
    as syntax errors instead of exhausting the recursion limit."""

    def test_the_bound_itself_parses_and_analyzes(self):
        from repro.api import AnalysisSession
        from repro.core import AnalysisConfig

        source = _nested(MAX_NESTING_DEPTH)
        text = format_fpcore(parse_fpcore(source))
        assert format_fpcore(parse_fpcore(text)) == text
        result = AnalysisSession(
            config=AnalysisConfig(shadow_precision=96), num_points=2,
        ).analyze(source)
        assert result.num_points == 2
        assert result.max_output_error == 0.0

    @pytest.mark.parametrize("levels", [MAX_NESTING_DEPTH + 1, 2000])
    def test_deeper_input_is_a_syntax_error(self, levels):
        with pytest.raises(FPCoreSyntaxError, match="nesting deeper"):
            parse_fpcore(_nested(levels))

    def test_deep_expression_text_is_a_syntax_error(self):
        with pytest.raises(FPCoreSyntaxError, match="nesting deeper"):
            parse_expr("(- " * 2000 + "x" + ")" * 2000)


@st.composite
def random_exprs(draw, depth=0):
    """Random small expression trees for printer/parser fuzzing."""
    if depth > 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Num(Fraction(draw(st.integers(-100, 100))))
        if choice == 1:
            return Var(draw(st.sampled_from("abcxyz")))
        return Const(draw(st.sampled_from(["PI", "E", "SQRT2"])))
    op = draw(st.sampled_from(["+", "-", "*", "/", "pow", "atan2"]))
    left = draw(random_exprs(depth=depth + 1))
    right = draw(random_exprs(depth=depth + 1))
    return Op(op, (left, right))


class TestFuzzRoundtrip:
    @given(random_exprs())
    def test_print_parse_identity(self, expr):
        assert parse_expr(format_expr(expr)) == expr
