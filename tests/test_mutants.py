"""The committed mutants still point at their lines."""

import mutants


def test_every_mutant_line_is_found_once():
    """Each entry's line occurs exactly once in its file, so editing an
    anchored line fails here and not only in a full mutants run."""
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.file).read_text(encoding="utf-8")
        assert mutants.apply(text, mutant) != text, mutant.line
