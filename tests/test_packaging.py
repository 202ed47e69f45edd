"""``pyproject.toml``: PEP 621 metadata and the ``repro-snd`` entry point."""

import importlib
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def _pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_entry_point_resolves_to_a_callable():
    target = _pyproject()["project"]["scripts"]["repro-snd"]
    module_name, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_src_layout_holds_the_package():
    where = _pyproject()["tool"]["setuptools"]["packages"]["find"]["where"]
    assert (ROOT / where[0] / "repro" / "__init__.py").is_file()


def test_version_comes_from_the_package():
    config = _pyproject()
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module_name, _, name = attr.rpartition(".")
    assert getattr(importlib.import_module(module_name), name) == repro.__version__


def test_runtime_dependencies():
    assert sorted(_pyproject()["project"]["dependencies"]) == ["numpy", "scipy"]
