"""The README's Quick start and the demos run against the current API."""

import ast
import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

import curvop

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), "README.md (Quick start)", "exec"), {})
    assert "scalar_lower_bound" in out.getvalue()


def test_all_four_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CURVOP_REGRESSION_DIR", str(tmp_path / "regressions"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
    assert not (tmp_path / "regressions").exists()



def test_public_names_are_used_by_the_package_or_documented():
    """Reference arithmetic that only tests compare against lives in tests/oracles.py.

    A public name must be read by name in src/curvop outside its own def
    or class and ``__all__`` (a relative import reads its module), or
    appear in the README or a demo.  A same-named attribute, such as
    ``prep.traceless_ricci``, is not a read of the public function.
    """
    used = set()
    for path in (ROOT / "src" / "curvop").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if "__all__" in [getattr(t, "id", None) for t in getattr(stmt, "targets", [])]:
                continue
            reads = {
                getattr(node, key) for node in ast.walk(stmt) for key in ("id", "module")
                if isinstance(getattr(node, key, None), str)
                and not isinstance(getattr(node, "ctx", None), ast.Store)
            }
            used |= reads - {getattr(stmt, "name", None)}
    docs = "\n".join(p.read_text() for p in [ROOT / "README.md", *DEMOS])
    unused = [name for name in curvop.__all__
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", docs)]
    assert unused == []
