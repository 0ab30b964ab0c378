"""Every function ``perfbench/spans.py`` traces exists in the package.

``Tracer.install`` resolves each name of ``TRACED`` with ``getattr``, so a
renamed or removed function breaks every traced benchmark run.  The table
is read from the file's source, which is neither imported nor changed.
"""
import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py defines no TRACED table")


@pytest.mark.parametrize("layer, qual", [(layer, qual) for layer, names in _traced().items() for qual in names])
def test_traced_name_resolves(layer, qual):
    owner = importlib.import_module(f"polycone.{layer}")
    for attr in qual.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
