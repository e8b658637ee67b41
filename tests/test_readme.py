"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import triconvex
from triconvex.generators import SPECS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_its_comments():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_block(), namespace)
    dec = namespace["dec"]
    assert [sorted(a) for a in dec.atoms] == [[0, 1, 2], [0, 3, 4]]
    assert [sorted(r) for r in dec.r_sets] == [[0]]
    assert sorted(namespace["hull"]) == [0, 1, 2, 3, 4]
    assert out.getvalue().split() == ["3", "2"]


def test_every_export_is_named_in_the_readme():
    text = README.read_text(encoding="utf-8")
    assert [name for name in triconvex.__all__ if f"`{name}`" not in text] == []


def test_every_name_the_example_imports_is_exported():
    imported = re.search(r"from triconvex import \((.*?)\)", library_block(), re.S).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert names and set(names) <= set(triconvex.__all__)


def test_generator_kinds_are_the_spec_forms():
    text = README.read_text(encoding="utf-8")
    kinds = re.search(r"Generator kinds: (.*?)\n\n", text, re.S).group(1)
    assert re.findall(r"`([^`]*)`", kinds) == [form for form, _, _ in SPECS.values()]
