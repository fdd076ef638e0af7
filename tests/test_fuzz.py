"""Seeded fuzzers for the SQL front end and for diagram JSON.

Random Logic Trees are rendered as SQL, with their constants respelled as
signed numbers, exponents and strings with escaped quotes.  Printing and
re-parsing must give the same AST, and so must the same SQL with comments
between its tokens.  Dropping, duplicating or swapping one token of that SQL,
or of a query with an IN, ANY or ALL subquery, must make every command end
in exit 0, 1 or 2 with a diagnostic, never with an exception.  Deleting,
replacing or duplicating one field of a diagram's JSON must make `recover`
end the same way.
"""

import copy
import io
import itertools
import json
import random
import re

from sqldiagram import (build_diagram, build_logic_tree, diagram_to_json, lt_to_sql, parse,
                        print_sql, resolve_scopes)
from sqldiagram.cli import run
from sqldiagram.corpus import random_logic_tree
from sqldiagram.fixtures import VALID_QUERIES
from sqldiagram.parser import tokenize

from graphs import SUBQUERY_SEEDS, lower

SEED = 4242
TREES = 250
MUTATED_TREES = 120

# No spaces inside the strings: comments go in place of spaces.
CONSTANTS = ("-1", "+2", "- 7", "1e5", "2.5E-3", "0.5", "'O''Brien'", "''", "'--x'",
             "'/*y*/'", "'Größe'")
COMMENTS = (" /* c */ ", " /*\n*/ ", " -- c\n", "/**/")
COMMANDS = (["viz"], ["viz", "--format", "json"], ["lt"], ["trc"], ["check"],
            ["roundtrip"], ["metrics"])
DIAGRAM_TREES = 20
DIAGRAM_MUTANTS = 1500
REPLACEMENTS = (None, 0, -1, 1.5, True, "", "x", [], ["x"], {})


def _generated_sql(rng):
    sql = lt_to_sql(random_logic_tree(rng, max_nodes=rng.randint(1, 10)))
    return re.sub(r"(?<=[<>=] )\d+", lambda m: rng.choice(CONSTANTS), sql)


def _with_comments(rng, sql):
    return re.sub(" ", lambda m: rng.choice(COMMENTS) if rng.random() < 0.3 else " ", sql)


def _source(token):
    if token.kind == "STRING":
        return "'" + token.text.replace("'", "''") + "'"
    return token.text


def _mutant(rng, sql):
    words = [_source(t) for t in tokenize(sql)[:-1]]
    i = rng.randrange(len(words))
    action = rng.choice(("drop", "duplicate", "swap"))
    if action == "drop":
        del words[i]
    elif action == "duplicate":
        words.insert(i, words[i])
    else:
        j = rng.randrange(len(words))
        words[i], words[j] = words[j], words[i]
    return " ".join(words)


def test_printed_sql_parses_back_to_the_same_ast():
    rng = random.Random(SEED)
    for _ in range(TREES):
        sql = _generated_sql(rng)
        ast = parse(sql)
        assert parse(print_sql(ast)) == ast, sql
        resolved = resolve_scopes(ast)
        assert parse(print_sql(resolved)) == resolved, sql
        assert parse(_with_comments(rng, sql)) == ast, sql
        lt = build_logic_tree(resolved)
        assert lower(lt_to_sql(lt)) == lt, sql


def test_one_token_mutations_end_in_a_diagnostic(monkeypatch, capsys):
    rng = random.Random(SEED + 1)
    codes = set()
    generated = (_generated_sql(rng) for _ in range(MUTATED_TREES))
    for sql in itertools.chain(generated, SUBQUERY_SEEDS):
        for _ in range(3):
            mutant = _mutant(rng, sql)
            monkeypatch.setattr("sys.stdin", io.StringIO(mutant))
            code = run(rng.choice(COMMANDS))
            err = capsys.readouterr().err
            assert code in (0, 1, 2), mutant
            assert "Traceback" not in err and "malformed input" not in err, (mutant, err)
            assert code != 2 or err.startswith("error: "), (mutant, err)
            codes.add(code)
    assert {0, 2} <= codes


def _fields(doc):
    """Every (container, key) pair below doc, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _fields(value)


def _diagram_mutant(rng, doc):
    doc = copy.deepcopy(doc)
    fields = list(_fields(doc))
    action = rng.choice(("delete", "replace", "duplicate"))
    if action == "delete":
        container, key = rng.choice([f for f in fields if isinstance(f[0], dict)])
        del container[key]
    elif action == "duplicate":
        container, key = rng.choice([f for f in fields if isinstance(f[0], list)])
        container.insert(key, container[key])
    else:
        container, key = rng.choice(fields)
        container[key] = rng.choice(REPLACEMENTS)
    return json.dumps(doc)


def test_one_field_diagram_mutations_end_in_a_diagnostic(monkeypatch, capsys):
    rng = random.Random(SEED + 2)
    trees = [lower(sql) for sql in VALID_QUERIES.values()]
    trees += [random_logic_tree(rng) for _ in range(DIAGRAM_TREES)]
    docs = [json.loads(diagram_to_json(build_diagram(lt))) for lt in trees]
    codes = set()
    for _ in range(DIAGRAM_MUTANTS):
        mutant = _diagram_mutant(rng, rng.choice(docs))
        monkeypatch.setattr("sys.stdin", io.StringIO(mutant))
        code = run(["recover"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), mutant
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (mutant, err)
        codes.add(code)
    assert codes == {0, 1, 2}
