"""fields.py is the one home of the rule for spending a buffer.

A kernel may write its result into a consumable field's buffer, so a field
marked consumable while another array still reads its buffer corrupts that
array.  Only ``fields._consumable`` sets the mark, and it runs the aliasing
test itself; no other module assigns ``.consumable`` or calls
``np.may_share_memory``.
"""

import ast
from pathlib import Path

import numpy as np

import photonloc
from photonloc import FREQUENCY, Grid
from photonloc.fields import _consumable, _trusted

SOURCES = sorted(Path(photonloc.__file__).parent.glob("*.py"))


def _spending_sites(tree) -> list:
    """Line numbers that assign an attribute named ``consumable`` (setattr
    included) or call ``may_share_memory``."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            sites += [node.lineno for t in targets
                      if isinstance(t, ast.Attribute) and t.attr == "consumable"]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "may_share_memory" or (
                    name == "setattr" and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "consumable"):
                sites.append(node.lineno)
    return sites


def test_only_fields_sets_the_consumable_mark():
    assert any(p.name == "fields.py" for p in SOURCES)
    offenders = {p.name: lines for p in SOURCES if p.name != "fields.py"
                 for lines in [_spending_sites(ast.parse(p.read_text()))] if lines}
    assert not offenders, offenders
    assert _spending_sites(ast.parse((SOURCES[0].parent / "fields.py").read_text()))


def _field():
    grid = Grid(1, 16.0, 64)
    return _trusted(grid, np.ones(grid.field_shape, complex), FREQUENCY, True)


def test_a_field_whose_buffer_is_still_held_is_not_spent():
    f = _field()
    assert _consumable(f, f.data[::2]) is f
    assert not f.consumable
    assert not _consumable(f, np.zeros(3), f.data.real).consumable


def test_a_field_whose_buffer_nothing_holds_is_spent():
    f = _field()
    assert _consumable(f, np.zeros(f.data.shape, complex)) is f
    assert f.consumable
    assert _consumable(_field()).consumable
