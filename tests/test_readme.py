"""The README's library quick start runs as written and gives the values
its comments and the paragraph after it state (Table 1, unit E)."""

import ast
import pathlib
import re

import pytest

from helpers import count_lps
from udea.robust import _proof

README = pathlib.Path(__file__).parent.parent / "README.md"


def _quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start(monkeypatch):
    namespace = {}
    values = []
    calls = []
    for stmt in ast.parse(_quick_start()).body:
        source = ast.unparse(stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        if source.startswith("iterative_udea"):
            calls = count_lps(monkeypatch)
        values.append(eval(source, namespace))
        monkeypatch.undo()
    thetas, robust, exact, half_beta, upsilon = values
    assert thetas == pytest.approx([1, 1, 1, 1, 13 / 24, 5 / 18])
    assert [round(t, 4) for t in thetas] == [1, 1, 1, 1, 0.5417, 0.2778]
    assert round(robust, 4) == 0.8222
    assert exact == pytest.approx(11 / 14)
    assert half_beta == pytest.approx(11 / 14)
    assert upsilon == pytest.approx(0.79)
    # "iterative_udea(ds, 4) above makes two LP solves"
    assert len(calls) == 2
    # "the directional distance beta* = 11/7 ... duals (u, v) = (4/7, 3/7)"
    beta, lam, u, v = _proof(namespace["ds"], 4)
    assert beta == pytest.approx(11 / 7)
    assert lam is not None
    assert u == pytest.approx([4 / 7])
    assert v == pytest.approx([3 / 7])
