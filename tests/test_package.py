"""The package surface: public names and submodules resolve on first access."""

import importlib
import subprocess
import sys

import pytest

import curvop

SUBMODULES = ("base", "core", "operators", "weighted", "models", "verify", "cli")


def test_every_public_name_is_its_modules_object():
    """``curvop.X`` is ``curvop.<module>.X``, and ``__all__`` is the union of the modules'.

    The command's ``main`` and ``entrypoint`` stay in ``curvop.cli``.
    """
    homes = {}
    for short in SUBMODULES[:-1]:
        module = importlib.import_module(f"curvop.{short}")
        homes.update(dict.fromkeys(module.__all__, module))
    assert sorted(homes) == curvop.__all__
    for name, module in homes.items():
        assert getattr(curvop, name) is getattr(module, name), name


def test_submodules_resolve_before_any_explicit_import():
    probe = ("import curvop\n"
             f"print(*(getattr(curvop, m).__name__ for m in {SUBMODULES!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == [f"curvop.{m}" for m in SUBMODULES]


def test_dir_lists_the_public_names_and_unknown_names_raise():
    listed = dir(curvop)
    assert set(curvop.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(curvop, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from curvop import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(curvop.__all__)


def test_package_names_follow_a_monkeypatch_of_their_module(monkeypatch):
    import curvop.verify

    original = curvop.verify.all_checks

    def replacement(*args, **kwargs):
        return ()

    monkeypatch.setattr(curvop.verify, "all_checks", replacement)
    assert curvop.all_checks is replacement
    monkeypatch.undo()
    assert curvop.all_checks is original
