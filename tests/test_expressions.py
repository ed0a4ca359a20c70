"""The closed coefficient/forcing expression grammar."""

import numpy as np
import pytest

from duhamel import ExpressionError, compile_expression


class TestGrammar:
    def test_arithmetic_and_functions(self):
        e = compile_expression("sin(x)*exp(-t) + cos(2*x)/4 - 1")
        x = np.linspace(0, 2 * np.pi, 17)
        got = e(x=x, t=0.3)
        want = np.sin(x) * np.exp(-0.3) + np.cos(2 * x) / 4 - 1
        assert np.allclose(got, want, atol=1e-15)

    def test_constants_and_unary(self):
        e = compile_expression("-pi + +2.5")
        assert np.isclose(e(), 2.5 - np.pi)

    def test_numpy_float_semantics(self):
        # a zero divisor gives inf or nan, not ZeroDivisionError, even in a
        # constant expression; integer literals are floats, so nothing wraps
        with np.errstate(divide="ignore", invalid="ignore"):
            assert compile_expression("1/(1-1)")() == np.inf
            assert np.isnan(compile_expression("0/0")())
        assert compile_expression("10000000000*10000000000")() == 1e20

    def test_rejects_literal_beyond_float_range(self):
        with pytest.raises(ExpressionError, match="float range"):
            compile_expression("1" + "0" * 400)

    def test_variables_detected(self):
        assert compile_expression("sin(x)*t + y").variables == ("t", "x", "y")
        assert compile_expression("1 + 2").variables == ()

    def test_missing_variable_raises(self):
        e = compile_expression("x + t")
        with pytest.raises(ExpressionError, match="needs variable"):
            e(x=1.0)

    @pytest.mark.parametrize(
        "src",
        [
            "x ** 2",            # power not in the grammar
            "__import__('os')",  # call other than sin/cos/exp
            "tan(x)",
            "x % 2",
            "unknown_name",
            "sin(x, 2)",
            "[1, 2]",
            "'text'",
            "x if t else 1",
        ],
    )
    def test_rejects_out_of_grammar(self, src):
        with pytest.raises(ExpressionError):
            compile_expression(src)

    def test_rejects_syntax_error(self):
        with pytest.raises(ExpressionError, match="invalid expression"):
            compile_expression("sin(x")

    def test_broadcasting(self):
        e = compile_expression("x*t")
        x = np.ones((4, 5))
        assert e(x=x, t=2.0).shape == (4, 5)
