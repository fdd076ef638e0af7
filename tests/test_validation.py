from sqldiagram import ViolationKind, check_nondegenerate
from sqldiagram.fixtures import OWL_SELECTION_BURIED, UNIQUE_BEER_SET, VALID_QUERIES

from graphs import lower


def test_buried_selection_violates_local_attributes():
    report = check_nondegenerate(lower(OWL_SELECTION_BURIED))
    assert not report.ok
    (violation,) = report.violations
    assert violation.kind is ViolationKind.LOCAL_ATTRIBUTES
    assert violation.predicate.text() == "F.bar = 'Owl'"
    assert violation.node_path == (0,)


def test_unique_set_query_is_clean():
    report = check_nondegenerate(lower(UNIQUE_BEER_SET))
    assert report.ok
    assert report.depth_ok


def test_all_fixture_queries_validate():
    for name, sql in VALID_QUERIES.items():
        report = check_nondegenerate(lower(sql))
        assert report.ok, (name, [str(v) for v in report.violations])


def test_depth_four_chain_reported():
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TC C WHERE C.x = B.x"
           " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = C.x"
           " AND NOT EXISTS (SELECT * FROM TE E WHERE E.x = D.x))))")
    report = check_nondegenerate(lower(sql))
    assert not report.depth_ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {ViolationKind.DEPTH_EXCEEDED}
    assert [v.node_path for v in report.violations] == [(0, 0, 0, 0)]


def test_disconnected_subquery_reported():
    # the nested block references neither its parent nor is it covered by
    # children that reference both it and the parent
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TC C WHERE C.y = C.x"
           " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = A.x)))")
    report = check_nondegenerate(lower(sql))
    kinds = [(v.kind, v.node_path) for v in report.violations]
    assert (ViolationKind.CONNECTED_SUBQUERIES, (0, 0)) in kinds


def test_mediated_connection_satisfies_property():
    # depth-2 block never references its parent, but its only child
    # references both the block and the block's parent
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TC C WHERE C.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = C.x AND D.y = B.y)))")
    report = check_nondegenerate(lower(sql))
    assert report.ok, [str(v) for v in report.violations]


def test_mediation_requires_every_child():
    # same as above but with a second child that skips the parent: broken
    sql = ("SELECT A.x FROM TA A WHERE NOT EXISTS (SELECT * FROM TB B WHERE B.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TC C WHERE C.x = A.x"
           " AND NOT EXISTS (SELECT * FROM TD D WHERE D.x = C.x AND D.y = B.y)"
           " AND NOT EXISTS (SELECT * FROM TE E WHERE E.x = A.x)))")
    report = check_nondegenerate(lower(sql))
    assert any(v.kind is ViolationKind.CONNECTED_SUBQUERIES and v.node_path == (0, 0)
               for v in report.violations)


def test_childless_block_must_reference_parent():
    sql = "SELECT A.x FROM TA A WHERE EXISTS (SELECT * FROM TB B WHERE B.x = B.y)"
    report = check_nondegenerate(lower(sql))
    assert any(v.kind is ViolationKind.CONNECTED_SUBQUERIES for v in report.violations)
