"""The README's cache paragraph names every functools cache of the library."""

import importlib
import pathlib
import pkgutil

import speccy

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def cached_functions():
    """`module.function` (or `module.Class.method`) of every function a
    speccy module defines that has cache_info."""
    names = set()
    for info in pkgutil.iter_modules(speccy.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"speccy.{info.name}")
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if hasattr(value, "cache_info"):
                names.add(f"{info.name}.{name}")
            elif isinstance(value, type):
                names.update(f"{info.name}.{name}.{attr}" for attr, v in vars(value).items()
                             if hasattr(v, "cache_info"))
    return names


def test_readme_names_every_cache():
    (paragraph,) = [p for p in README.read_text().split("\n\n") if "fill in caches" in p]
    found = cached_functions()
    assert "lattice._search_setup" in found  # the walk reaches the modules
    assert sorted(n for n in found if f"`{n}`" not in paragraph) == []
