"""Small closed expression grammar for coefficients and forcings.

Supported: ``+ - * /``, unary minus, ``sin`` ``cos`` ``exp``, numeric
literals, the constant ``pi``, the spatial variables ``x`` ``y`` ``z`` and
time ``t``.  Expressions compile once into a numpy-broadcasting callable, so
config files stay declarative and evaluation stays safe.  Evaluation has
numpy float semantics even where no variable enters: literals and ``pi`` are
numpy float scalars, so a zero divisor gives inf or nan, which callers
reject as non-finite, instead of raising.  The operators stay Python
operators, so numpy can reuse the temporaries of a chain of array operations
(explicit ufunc calls raise the peak memory of a forcing stack by half).
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["ExpressionError", "Expression", "compile_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.float64(np.pi)}
_VARIABLES = ("x", "y", "z", "t")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


class ExpressionError(ValueError):
    """Raised for syntax or vocabulary outside the grammar."""


class Expression:
    """Compiled expression over (x, y, z, t); broadcasts over arrays."""

    def __init__(self, source: str):
        self.source = source
        names, self._literals = set(), {}
        try:
            tree = ast.parse(source, mode="eval")
            body = self._checked(tree.body, names, self._literals)
            self._code = compile(ast.Expression(body=body), "<expression>", "eval")
        except SyntaxError as exc:
            raise ExpressionError(f"invalid expression {source!r}: {exc.msg}") from None
        except RecursionError:
            raise ExpressionError("expression nests too deeply to compile") from None
        self._names = sorted(names)

    @staticmethod
    def _checked(node, names: set, literals: dict):
        """``node`` checked against the grammar, with each literal replaced
        by a name bound in ``literals`` to its numpy float.  Adds the
        variables it uses to ``names``."""
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric literal {node.value!r}")
            name = f"_{len(literals)}"
            try:
                literals[name] = np.float64(node.value)
            except OverflowError:
                raise ExpressionError("numeric literal out of the float range") from None
            return ast.copy_location(ast.Name(name, ast.Load()), node)
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, _BINOPS):
                raise ExpressionError(f"operator {type(node.op).__name__} not in grammar")
            node.left = Expression._checked(node.left, names, literals)
            node.right = Expression._checked(node.right, names, literals)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise ExpressionError(f"operator {type(node.op).__name__} not in grammar")
            node.operand = Expression._checked(node.operand, names, literals)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ExpressionError("only sin, cos and exp calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError(f"{node.func.id} takes exactly one argument")
            node.args = [Expression._checked(node.args[0], names, literals)]
        elif isinstance(node, ast.Name):
            if node.id in _VARIABLES:
                names.add(node.id)
            elif node.id not in _CONSTANTS:
                raise ExpressionError(f"unknown name {node.id!r}")
        else:
            raise ExpressionError(f"syntax {type(node).__name__} not in grammar")
        return node

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __call__(self, **values):
        env = dict(_CONSTANTS)
        env.update(_FUNCTIONS)
        env.update(self._literals)
        for name in self._names:
            if name not in values:
                raise ExpressionError(f"expression {self.source!r} needs variable {name!r}")
        env.update(values)
        return eval(self._code, {"__builtins__": {}}, env)

    def __repr__(self):
        return f"Expression({self.source!r})"


def compile_expression(source: str) -> Expression:
    return Expression(source)
