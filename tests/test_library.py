"""The library's entry points: README's Library example runs as printed,
every name `grtor` exports resolves, and the local cap is set on the
`Ring` alone."""

import inspect
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


def test_only_the_ring_and_tor_local_low_take_a_cap():
    # the local window lives on the Ring; `tor_local_low` keeps its `cap`
    # as a ring of that cap.  Walk every exported function, constructor and
    # method for a parameter named `cap`
    takers = set()
    for name in grtor.__all__:
        obj = getattr(grtor, name)
        if inspect.isclass(obj):
            members = ((attr, getattr(obj, attr)) for attr in vars(obj))
            callables = [("%s.%s" % (name, attr), fn) for attr, fn in members
                         if inspect.isfunction(fn) or inspect.ismethod(fn)]
        elif inspect.isfunction(obj):
            callables = [(name, obj)]
        else:
            continue
        takers.update(label for label, fn in callables
                      if "cap" in inspect.signature(fn).parameters)
    assert takers == {"Ring.__init__", "tor_local_low"}
