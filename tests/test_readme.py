"""README's code examples run against the package as it is."""

import re
from pathlib import Path

from sqldiagram.fixtures import UNIQUE_BEER_SET

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope = {"sql_text": UNIQUE_BEER_SET}
    exec(block, scope)
    assert scope["assignment"].depths["g0_1"] == 0
    assert scope["dot_text"].startswith("digraph ")
