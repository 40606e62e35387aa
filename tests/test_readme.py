"""The README's cache paragraph names every functools cache of the library,
and every cache slot it names is one the library assigns."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import speccy

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def modules():
    """name -> module of every speccy module."""
    # importing __main__ runs the CLI
    return {info.name: importlib.import_module(f"speccy.{info.name}")
            for info in pkgutil.iter_modules(speccy.__path__) if info.name != "__main__"}


def cache_paragraph():
    (paragraph,) = [p for p in README.read_text().split("\n\n") if "fill in caches" in p]
    return paragraph


def cached_functions():
    """`module.function` (or `module.Class.method`) of every function a
    speccy module defines that has cache_info."""
    names = set()
    for modname, mod in modules().items():
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if hasattr(value, "cache_info"):
                names.add(f"{modname}.{name}")
            elif isinstance(value, type):
                names.update(f"{modname}.{name}.{attr}" for attr, v in vars(value).items()
                             if hasattr(v, "cache_info"))
    return names


def test_readme_names_every_cache():
    paragraph = cache_paragraph()
    found = cached_functions()
    assert "lattice._search_setup" in found  # the walk reaches the modules
    assert sorted(n for n in found if f"`{n}`" not in paragraph) == []


def test_readme_cache_slots_are_assigned():
    # every `Class._slot` the paragraph names is assigned as self._slot in
    # that class of a speccy module, and every `module._name` exists
    mods = modules()
    classes = {name: value for mod in mods.values() for name, value in vars(mod).items()
               if isinstance(value, type) and value.__module__ == mod.__name__}

    def assigned(owner, slot):
        if owner in mods:
            return hasattr(mods[owner], slot)
        return owner in classes and re.search(
            rf"self\.{slot} = ", inspect.getsource(classes[owner])) is not None

    named = re.findall(r"`(\w+)\.(_\w+)`", cache_paragraph())
    assert ("QuadLattice", "_disc_group") in named
    assert [f"{owner}.{slot}" for owner, slot in named if not assigned(owner, slot)] == []
