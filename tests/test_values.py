"""The package's value classes are slotted frozen dataclasses: no instance
has a `__dict__`, no field can be set, and a source position never takes
part in equality or hashing."""

import dataclasses
import inspect

import pytest

from sqldiagram import (build_diagram, build_logic_tree, check_nondegenerate, diagram, logic,
                        parse, recovery, resolve_scopes, sqlast)
from sqldiagram.diagram import reading_order
from sqldiagram.recovery import diagram_to_graph, recover_depths
from sqldiagram.sqlast import ColumnRef, Comparison, Constant, TableRef

VALUE_MODULES = (sqlast, logic, diagram, recovery)
SQL = ("SELECT S.a FROM S, R WHERE S.a = R.a AND S.b = 'x' AND S.c IN (SELECT T.c FROM T) "
       "AND NOT EXISTS (SELECT * FROM U WHERE U.d = S.a)")
DISCONNECTED = "SELECT S.a FROM S WHERE EXISTS (SELECT * FROM T)"


def _value_classes():
    return [cls for module in VALUE_MODULES for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)]


def _reachable(roots):
    """Every dataclass instance reachable from `roots` through fields and tuples."""
    found, stack = {}, list(roots)
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            stack.extend(value)
        elif dataclasses.is_dataclass(value):
            found.setdefault(type(value), value)
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))
    return found


def _one_of_each():
    ast = parse(SQL)
    lt = build_logic_tree(resolve_scopes(ast))
    d = build_diagram(lt)
    graph = diagram_to_graph(d)
    degenerate = check_nondegenerate(build_logic_tree(resolve_scopes(parse(DISCONNECTED))))
    return _reachable([ast, lt, check_nondegenerate(lt), degenerate, d, reading_order(d), graph,
                       recover_depths(graph)])


def test_every_value_class_is_a_slotted_frozen_dataclass():
    classes, instances = _value_classes(), _one_of_each()
    assert len(classes) == 15
    for cls in classes:
        assert "__slots__" in cls.__dict__, cls
        assert cls.__dataclass_params__.frozen, cls
        value = instances[cls]
        assert not hasattr(value, "__dict__"), cls
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, getattr(value, first))


@pytest.mark.parametrize("value, change", [
    (ColumnRef("S", "a", 3, 7), {"alias": "T"}),
    (TableRef("Sailor", "S", 3, 7), {"alias": "T"}),
])
def test_positions_survive_replace_and_stay_out_of_equality(value, change):
    moved = dataclasses.replace(value, **change)
    assert (moved.line, moved.column) == (3, 7)
    elsewhere = dataclasses.replace(value, line=1, column=1)
    assert elsewhere == value
    assert hash(elsewhere) == hash(value)
    assert repr(elsewhere) == repr(value)
    assert moved != value


@dataclasses.dataclass(frozen=True)
class _Negated(Comparison):
    """Shaped like the subclass that test_sqlite_differential.py writes as
    NOT (lhs op rhs): a frozen dataclass with no fields of its own."""

    def text(self) -> str:
        return f"NOT ({super().text()})"


def test_a_subclass_of_a_slotted_value_still_works():
    negated = _Negated(ColumnRef("S", "a"), "<", Constant("number", "1"))
    assert isinstance(negated, Comparison)
    assert negated.text() == "NOT (S.a < 1)"
    assert negated == _Negated(ColumnRef("S", "a", 2, 2), "<", Constant("number", "1"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        negated.op = ">"
