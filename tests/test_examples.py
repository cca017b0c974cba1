"""The shipped examples must stay runnable (they are documentation)."""

import runpy
import sys

import pytest

EXAMPLES = [
    "examples/quickstart.py",
    "examples/marked_nulls.py",
    "examples/lint_queries.py",
    "examples/price_of_correctness.py",
]


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # examples narrate what they show


def test_tpch_example_runs_small(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["examples/tpch_false_positives.py", "0.05"])
    runpy.run_path("examples/tpch_false_positives.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "recall" in out


def test_rewriting_example_single_query(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["examples/direct_sql_rewriting.py", "Q3"])
    runpy.run_path("examples/direct_sql_rewriting.py", run_name="__main__")
    out = capsys.readouterr().out
    assert "equal=True" in out
