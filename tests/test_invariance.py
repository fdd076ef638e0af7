"""A diagram captures a query's logical intent, not its spelling.

On the 12 fixtures and seeded generated queries, three kinds of respelling
(see `variants.py`) must not change what the query compiles to:

- reordering FROM items, conjuncts and subqueries and swapping join
  operands keeps the diagram's DOT and JSON byte-identical;
- rewriting [NOT] EXISTS subqueries as ANY or ALL comparisons keeps the
  logic tree equal;
- renaming aliases keeps the logic tree and the diagram equal up to
  renaming.

Each variant is printed back to SQL and compiled from that text.
"""

import random

from sqldiagram import (
    build_diagram,
    build_logic_tree,
    diagram_isomorphic,
    diagram_to_json,
    emit_dot,
    lt_equal,
    lt_to_sql,
    parse,
    print_sql,
    resolve_scopes,
)
from sqldiagram.corpus import random_logic_tree
from sqldiagram.fixtures import VALID_QUERIES

from variants import quantified, renamed, reordered

SEED = 2113
GENERATED = 150
VARIANTS = 2  # of each kind per query


def queries():
    """The fixtures' text, then the generated trees' SQL."""
    rng = random.Random(SEED)
    return [*VALID_QUERIES.values(),
            *(lt_to_sql(random_logic_tree(rng)) for _ in range(GENERATED))]


def lower(sql):
    return build_logic_tree(resolve_scopes(parse(sql)))


def drawn(lt):
    """The DOT and JSON of the tree's diagram, raw and simplified."""
    raw, simplified = build_diagram(lt, simplified=False), build_diagram(lt)
    return emit_dot(raw), diagram_to_json(raw), emit_dot(simplified), diagram_to_json(simplified)


def test_respelling_a_query_keeps_what_it_compiles_to():
    rng = random.Random(SEED)
    counts = {"quantified": 0, "renamed": 0}
    for sql in queries():
        ast = resolve_scopes(parse(sql))
        lt = build_logic_tree(ast)
        pictures = drawn(lt)
        for _ in range(VARIANTS):
            variant = print_sql(reordered(ast, rng))
            assert drawn(lower(variant)) == pictures, (sql, variant)

            variant = print_sql(quantified(ast, rng))
            assert lower(variant) == lt, (sql, variant)
            counts["quantified"] += " ANY (" in variant or " ALL (" in variant or " IN (" in variant

            variant = print_sql(renamed(ast, rng))
            other = lower(variant)
            assert lt_equal(lt, other, modulo_renaming=True), (sql, variant)
            assert diagram_isomorphic(build_diagram(lt), build_diagram(other)), (sql, variant)
            counts["renamed"] += other != lt
    # the rewrites reach most queries, not only a few
    assert counts["quantified"] >= GENERATED and counts["renamed"] >= GENERATED, counts
