"""The library's entry points: README's Library example runs as printed,
and every name `grtor` exports resolves."""

import re
from pathlib import Path

import grtor

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The `python` block under README's `## Library` heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_verifies():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    run = namespace["run"]
    assert run.verified
    assert run.page1.dims.coefficients and run.page_infinity.dims.coefficients


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from grtor import *", namespace)
    missing = [name for name in grtor.__all__ if name not in namespace]
    assert not missing
    assert len(set(grtor.__all__)) == len(grtor.__all__)
