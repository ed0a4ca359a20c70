"""The exit-code contract of ``duhamel solve`` as a property over the config schema.

Each example starts from one of the valid ``CONFIGS`` and sets one or two
leaves declared in ``config._SECTIONS`` to values that their parser accepts
but that sit at the edge of what the solver can represent.  Whatever the
outcome, ``solve`` must exit 0, 2 or 3, print nothing on stderr but one
strict-JSON error list, raise no RuntimeWarning, and name a declared leaf, a
section or the run kind in every error.  The pools are keyed by parser, so
a leaf added to the table with an existing parser is drawn with no edit here.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from duhamel.cli import main
from duhamel.config import _SECTIONS
from test_config_cli import CONFIGS, SECTIONS

HUGE = 1.7976931348623157e308
TINY = 5e-324

# valid-but-extreme values for each leaf parser; every config keeps 1-D
# grids and few steps so that a solve stays in milliseconds
POOLS = {
    "points": [[8], [9], [64], [128]],
    "lengths": [[1e-300], [1e-153], [1e-3], [16.0], [1e3], [1e300]],
    "point": [[-1e308], [-8.0], [0.0], [TINY], [3.0], [1e308]],
    "boundary": ["periodic", {"free_space": {}}],
    "integer": [0, 1, 2, 3, 64],
    "numbers": [[0.0], [0.5], [0.25, 0.5], [TINY], [1e300]],
    "positive": [TINY, 1e-300, 1e-14, 1e-3, 0.5, 1.0, 750.0, 1e300, HUGE],
    "number": [-HUGE, -3000.0, -1400.0, 0.0, TINY, 1400.0, HUGE],
    "expression": ["exp(-x*x)", "1 + 0.5*cos(x)", "1e300", "5e-324*sin(x)", "exp(700)",
                   "exp(709*cos(x))", "exp(-750)", "1e-300 + 0*t"],
    # amplitudes past 1.34e154, whose square overflows, included
    "expressions": [["0.3*sin(x)"], ["1e200*sin(x)"], ["exp(700)*sin(x)"], ["1e-300*sin(x)"],
                    ["sin(x)/(1+0.5*cos(x))"], ["0*x"]],
    "number_or_expression": [-HUGE, -750.0, 0.0, 750.0, HUGE, "exp(t*800)", "1e300*cos(x)",
                             "0.3*cos(x)", "-1e308"],
}


def _parser(parse) -> str:
    """The ``_Checker`` method a schema row parses with, its bound keywords aside."""
    return getattr(parse, "func", parse).__name__


PARSERS = {(section, key): _parser(parse) for section, rows in _SECTIONS.items() for key, _, parse in rows}
# grid.spacing and grid.extent are alternatives: setting one drops the other
ALTERNATIVE = {("grid", "spacing"): "extent", ("grid", "extent"): "spacing"}


def _changes(name: str) -> list[tuple]:
    """Every (section, key, value) that an example may set on config ``name``."""
    own = ("grid", "series", SECTIONS[name])
    return [(section, key, value) for (section, key), parser in PARSERS.items() if section in own
            for value in POOLS[parser]]


# a config and one or two of its leaves set, each leaf at most once
CASES = st.one_of([st.tuples(st.just(name), st.lists(st.sampled_from(_changes(name)), min_size=1, max_size=2,
                                                     unique_by=lambda change: change[:2]))
                   for name in sorted(CONFIGS)])


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_every_leaf_parser_has_a_pool():
    assert set(PARSERS.values()) == set(POOLS)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(CASES)
# rows the draws have found, kept whatever the seed draws: speeds whose square
# overflows, and a parabolic pullback whose knot spacing squares to zero
@example(("nse", [("nse", "velocity", ["1e200*sin(x)"]), ("nse", "speed_bound", 1e300)]))
@example(("nse", [("nse", "velocity", ["exp(700)*sin(x)"])]))
@example(("parabolic", [("parabolic", "A", -HUGE)]))
def test_solve_keeps_the_exit_code_contract(case):
    name, changes = case
    body = CONFIGS[name]()
    for section, key, value in changes:
        body[section][key] = value
        body[section].pop(ALTERNATIVE.get((section, key)), None)

    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(body))
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = main(["solve", str(path), "-o", str(Path(tmp) / "out")])

    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert rc in (0, 2, 3)
    if rc == 0:
        assert stderr.getvalue() == ""
        return
    # all of stderr is one strict-JSON error list
    payload = json.loads(stderr.getvalue(), parse_constant=_reject)
    assert list(payload) == ["errors"] and payload["errors"]
    named = {f"{section}.{key}" for section, key in PARSERS} | set(_SECTIONS) | {body["kind"]}
    for error in payload["errors"]:
        assert re.sub(r"\[\d+\]", "", error["path"]) in named, error
