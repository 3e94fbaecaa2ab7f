"""One integer rule for the whole package: exactly an int, never a bool.

Library parameters, `ProjLine` coefficient components and JSON input all go through
`plurican.errors.is_int` / `all_int` / `check_int`; no other module tests for
integers.
"""

import ast
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import plurican
from plurican.arrangements import ProjLine
from plurican.errors import ValidationError, all_int, check_int, is_int
from plurican.evenclass import enumerate_totally_even
from plurican.f2geom import F2Point, Hyperplane, PointSet
from plurican.glgroup import F2Matrix
from plurican.invariants import (
    CoveringParams,
    SurfaceInvariants,
    composed_canonical_degree,
    generic_pluricanonical_smooth,
    moduli_dimension,
)
from plurican.torsion import (
    FiniteAbelianGroup,
    cnew_component_count,
    covering_count,
    cplus_total,
    theorem_mod_component_bound,
    tor_d_order,
)

Z5 = FiniteAbelianGroup((5,))


def test_is_int():
    assert is_int(0) and is_int(-7) and is_int(10**40)
    for x in (True, False, 1.0, 0.5, "1", None, Fraction(1), [1], IntEnum("E", "A").A):
        assert not is_int(x)
        assert not all_int([0, x, 1])
    assert all_int([]) and all_int((0, -7, 10**40))


def test_check_int_bounds_and_message():
    assert check_int(3, "x must be in 1..3", lo=1, hi=3) == 3
    assert check_int(-5, "x must be an integer") == -5
    for bad in (0, 4, True, 2.0):
        with pytest.raises(ValidationError) as exc:
            check_int(bad, "x must be in 1..3", lo=1, hi=3)
        assert str(exc.value) == f"x must be in 1..3, got {bad!r}"
        assert exc.value.details == {"value": bad, "lo": 1, "hi": 3}
    # only the bounds given are named
    with pytest.raises(ValidationError) as exc:
        check_int(0, "x must be >= 1", lo=1)
    assert exc.value.details == {"value": 0, "lo": 1}
    with pytest.raises(ValidationError) as exc:
        check_int(1.5, "x must be an integer")
    assert exc.value.details == {"value": 1.5}


@pytest.mark.parametrize("call", [
    lambda: SurfaceInvariants(p_g=True, q=False, K2=2),
    lambda: SurfaceInvariants(p_g=1, q=0, K2=2.0),
    lambda: SurfaceInvariants.from_pa(True, 0, 1),
    lambda: CoveringParams(2, True),
    lambda: CoveringParams(True, 3),
    lambda: CoveringParams(2.0, 3),
    lambda: tor_d_order(Z5, True),
    lambda: covering_count(Z5, 2.0),
    lambda: theorem_mod_component_bound(Z5, True),
    lambda: cplus_total(2, True),
    lambda: cplus_total(True, 3),
    lambda: cnew_component_count(Z5, [], 7, 1.0),
    lambda: FiniteAbelianGroup((True, 5)),
    lambda: composed_canonical_degree(True),
    lambda: generic_pluricanonical_smooth(2, True, 3),
    lambda: generic_pluricanonical_smooth(True, 2, 3),
    lambda: generic_pluricanonical_smooth(5, 2, 1.0),
    lambda: moduli_dimension(True, SurfaceInvariants(0, 0, 1)),
    lambda: enumerate_totally_even(True),
    lambda: ProjLine(((0.1, 0), 0, 1)),
    lambda: ProjLine(((1, False), 0, 1)),
    lambda: ProjLine((("1/2", 0), 0, 1)),
    lambda: ProjLine(((1, 0, 0), 0, 1)),
    lambda: ProjLine((0.1, True, 3)),
    lambda: ProjLine((1, True, 3)),
    lambda: F2Point(3, 1.5),
    lambda: F2Point(3, True),
    lambda: F2Point(3.0, 1),
    lambda: F2Point.from_coords([0, True, 1]),
    lambda: Hyperplane(3, 1.0),
    lambda: PointSet(3, 2.0),
    lambda: PointSet.from_codes(3, [2.0]),
    lambda: F2Matrix(2, (2.0, 1)),
    lambda: F2Matrix(2, (True, 2)),
])
def test_non_integers_are_rejected(call):
    with pytest.raises(ValidationError):
        call()


def _integer_checks(tree: ast.AST):
    """Yield the line of every isinstance(..., int) (int alone or in a tuple),
    every type(...) is int / is not int, and every set display holding int,
    as in set(map(type, x)) <= {int}."""
    def names(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.Set)) else [node]
        return {e.id for e in elts if isinstance(e, ast.Name)}

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "int" in names(node.args[1])):
            yield node.lineno
        if (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any("int" in names(c) for c in [node.left, *node.comparators])):
            yield node.lineno
        if isinstance(node, ast.Set) and "int" in names(node):
            yield node.lineno


def test_guard_finds_both_spellings():
    src = ("isinstance(x, int)\nisinstance(x, (int, str))\ntype(x) is int\n"
           "type(x) is not int\nset(map(type, x)) <= {int}\n{type(y) for y in x} <= {bool, int}\n")
    assert list(_integer_checks(ast.parse(src))) == [1, 2, 3, 4, 5, 6]
    assert not list(_integer_checks(ast.parse(
        "isinstance(x, str)\ntype(x) is Fraction\nset(map(type, x)) <= {list, tuple}\n")))


def test_integer_checks_live_only_in_errors():
    package = Path(plurican.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.rglob("*.py")) if path.name != "errors.py"
        for line in _integer_checks(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
