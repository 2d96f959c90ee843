"""README's "Library overview" table against ``oscbath.__all__``.

Every name in the table's contents column must be exported, and every
public function and class in ``__all__`` (errors and constants aside) must
be listed, so the table cannot drift from the API.
"""

import inspect
import re
from pathlib import Path

import oscbath

README = Path(__file__).resolve().parents[1] / "README.md"


def _table_names() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    rows = []
    for line in section.lstrip().splitlines():
        if not line.startswith("|"):
            break
        rows.append(line)
    names = []
    for row in rows[2:]:  # below the header and its rule
        contents = row.split("|")[2]
        names.extend(re.findall(r"`([A-Za-z_]\w*)`", contents))
    return names


def _public_functions_and_classes() -> set[str]:
    names = set()
    for name in oscbath.__all__:
        obj = getattr(oscbath, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            names.add(name)
    return names


def test_table_is_found():
    names = _table_names()
    assert "evolve_trajectory" in names and "SystemParams" in names
    assert len(names) == len(set(names))


def test_every_table_name_is_exported():
    assert set(_table_names()) - set(oscbath.__all__) == set()


def test_every_public_function_and_class_is_in_the_table():
    assert _public_functions_and_classes() - set(_table_names()) == set()
