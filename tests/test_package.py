"""The package surface: public names, submodules, and the one rule for numeric parameters."""

import importlib
import json
import math
import subprocess
import sys

import numpy as np
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


# --- numeric parameters -------------------------------------------------------

#: Each model parameter's value just below its builder's range, or None when it has none.
_MODEL_BELOW = {"n": 1, "kappa": None, "p": 1, "q": 1, "r1": 0.0, "r2": 0.0, "m": 0}

#: Each fuzz_campaign argument's good value and the value just below its minimum (one n of ns).
_FUZZ = dict(seed=(4, -1), trials_per_n=(1, 0), ns=(3, 2), e_per_tensor=(2, 0),
             tol=(1e-9, -5e-324), jobs=(1, 0))


def _fuzz(name, value):
    args = {key: good for key, (good, _) in _FUZZ.items()}
    args[name] = value
    return curvop.fuzz_campaign(**{**args, "ns": (args["ns"],)})


def _sites():
    """(id, call of the value under test, int or float, a good value, the value just
    below the minimum or None, the error) for every numeric parameter of the package."""
    T = curvop.constant_curvature(4, 1.0)
    yield "threshold_profile-n", curvop.threshold_profile, int, 3, 2, ValueError
    yield ("CurvatureTensor-n", lambda v: curvop.CurvatureTensor(v, np.zeros((3,) * 4)),
           int, 3, 1, ValueError)
    yield "Sym2Tensor-n", lambda v: curvop.Sym2Tensor(v, np.eye(2)), int, 2, 0, ValueError
    yield "random_curvature-seed", lambda v: curvop.random_curvature(v, 3), int, 5, -1, ValueError
    yield "random_curvature-n", lambda v: curvop.random_curvature(5, v), int, 3, 1, ValueError
    yield ("random_curvature-terms", lambda v: curvop.random_curvature(5, 3, v),
           int, 2, 0, ValueError)
    yield ("tensor_from_json-n", lambda v: curvop.tensor_from_json({"n": v, "entries": []}),
           int, 3, 1, curvop.SchemaError)
    for entry in curvop.catalog():
        build, example = getattr(curvop, entry.kind), entry.example.params
        for name, typ in entry.params.items():
            kind, below = (int if typ == "int" else float), _MODEL_BELOW[name]
            yield (f"{entry.kind}-{name}", lambda v, b=build, e=example, p=name: b(**{**e, p: v}),
                   kind, example[name], below, ValueError)
            yield (f"ModelSpec-{entry.kind}-{name}",
                   lambda v, k=entry.kind, e=example, p=name: curvop.ModelSpec(
                       k, {**e, p: v}).build(),
                   kind, example[name], below, curvop.SchemaError)
    yield "all_checks-tol", lambda v: curvop.all_checks(T, tol=v), float, 1e-6, -5e-324, ValueError
    for name, (good, below) in _FUZZ.items():
        yield (f"fuzz_campaign-{name}", lambda v, p=name: _fuzz(p, v),
               float if name == "tol" else int, good, below, ValueError)
    yield "WeightClass-omega", lambda v: curvop.WeightClass(v, 2.0), float, 1.5, 0.0, ValueError
    yield "WeightClass-total", lambda v: curvop.WeightClass(1.5, v), float, 2.0, 0.0, ValueError
    yield ("k_sum-k", lambda v: curvop.k_sum([1.0, 2.0, 3.0], v), float, 2.5, 1.0 - 1e-9,
           ValueError)


_SITES = {site[0]: site[1:] for site in _sites()}


def _bits(result):
    """A result as comparable data: a tensor's n and component bytes, a report's JSON."""
    if hasattr(result, "components"):
        return result.n, type(result.n), result.components.tobytes()
    if isinstance(result, tuple):
        return [_bits(r) for r in result]
    if hasattr(result, "to_json"):
        return json.dumps(result.to_json())
    return repr(result)


@pytest.mark.parametrize("site", sorted(_SITES))
def test_every_entry_point_judges_numbers_by_one_rule(site):
    """An integer parameter takes a Python or numpy integer, a real one a Python or numpy
    real, finite; never a bool or a string.  Every refusal is a ValueError, or a
    SchemaError from a document, and never a TypeError; an integer beyond the double
    range is no real.  numpy arguments give bitwise the result of Python ones."""
    call, kind, good, below, error = _SITES[site]
    bad = [True, np.True_, "1", math.nan, math.inf]
    bad += [2.0] if kind is int else [10**400]
    bad += [] if below is None else [below]
    for value in bad:
        try:
            call(value)
        except error:
            continue
        except Exception as other:
            pytest.fail(f"{site} given {value!r} raised {other!r}")
        pytest.fail(f"{site} took {value!r}")
    assert _bits(call(np.int64(good) if kind is int else np.float64(good))) == _bits(call(good))
