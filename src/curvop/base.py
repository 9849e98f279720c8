"""The numpy-free base of the package: errors, report records, JSON text, thresholds.

Everything here is plain Python, so the commands that need no array
(``curvop threshold``, ``curvop models``, ``--help``) and the parser that
every command builds run without loading numpy.  The array modules import
their errors and their record base from here.

The two dimension thresholds of the paper are closed-form:

* einstein_threshold      k = n(n+2)/(2(n+1)): k-nonnegativity forces a
  compact manifold with harmonic curvature to be Einstein;
* constant_curvature_threshold  min(einstein, max(4, floor((n+2)/4))):
  k-nonnegativity at this level forces constant sectional curvature.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields

from . import _EXPORTS

__all__ = list(_EXPORTS["base"])

#: Base absolute tolerance for inequality margins, before input scaling.
TOL_INEQ = 1e-9


class CurvopError(Exception):
    """Base class for errors raised by this package."""


class InvalidTensorError(CurvopError):
    """A curvature tensor failed its symmetry validation."""

    def __init__(self, report: "SymmetryReport"):
        self.report = report
        super().__init__(
            "curvature tensor violates its defining symmetries: "
            f"antisymmetry {report.antisymmetry:.3e}, "
            f"pair symmetry {report.pair_symmetry:.3e}, "
            f"first Bianchi {report.first_bianchi:.3e} "
            f"(tolerance {report.tol:.1e})"
        )


class TraceError(CurvopError):
    """A tensor that must be trace-free is not."""


class SchemaError(CurvopError):
    """Malformed or inconsistent serialized input."""


class AdmissibilityError(CurvopError):
    """A weight class is not admissible for the given spectrum length."""


def _plain(value):
    """A report value as JSON data: a record as its to_json, a tuple as a list, a dict copied."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


class _Record:
    """Base of the report dataclasses: a report's JSON is its fields in declaration order.

    A field with ``metadata={"json": False}`` is left out, and the
    properties named in ``_json_properties`` follow the fields.
    """

    _json_properties: tuple[str, ...] = ()

    def to_json(self) -> dict:
        names = [f.name for f in fields(self) if f.metadata.get("json", True)]
        return {name: _plain(getattr(self, name)) for name in [*names, *self._json_properties]}


def _json_text(obj, pad: str = "\n") -> str:
    """Exactly what ``json.dumps`` writes with an indent of 2, flat number lists in C.

    Any indent sends json to its pure-Python encoder, one call per value.
    Here only the nesting is Python: a list of plain ints and floats is
    one ``json.dumps`` whose ``", "`` separators (which no number holds)
    become the indented line breaks, and every other scalar and key is
    one ``json.dumps`` too.  ``pad`` is the line break plus the
    indentation of ``obj``'s own level.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        # json.dumps({key: 0}) is '{KEY: 0}': KEY as json converts it, str or not.
        ends, items = "{}", (f"{json.dumps({key: 0})[1:-4]}: {_json_text(value, inner)}"
                             for key, value in obj.items())
    elif isinstance(obj, (list, tuple)) and obj:
        if {*map(type, obj)} <= {int, float}:
            return f"[{inner}{json.dumps(obj)[1:-1].replace(', ', ',' + inner)}{pad}]"
        ends, items = "[]", (_json_text(item, inner) for item in obj)
    else:
        return json.dumps(obj)
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


@dataclass(frozen=True)
class ThresholdProfile(_Record):
    """Dimension-dependent k-nonnegativity thresholds.

    ``branch`` records which regime the constant-curvature threshold came
    from: "i" (n <= 7, equals the Einstein threshold), "ii" (8 <= n <= 13,
    equals 4), "iii" (n >= 14, equals floor((n+2)/4)).
    """

    n: int
    einstein_threshold: float
    constant_curvature_threshold: float
    branch: str


def threshold_profile(n: int) -> ThresholdProfile:
    """Evaluate both thresholds at dimension n >= 3.

    The constant-curvature threshold is min(einstein, max(4, floor((n+2)/4)));
    the three branches of the piecewise form are labelled by n-range.  A
    numpy integer is accepted (numpy registers its integers as
    ``numbers.Integral``); a bool is not.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 3:
        raise ValueError(f"thresholds are defined for integer n >= 3, got {n!r}")
    n = int(n)
    einstein = n * (n + 2.0) / (2.0 * (n + 1.0))
    if n <= 7:
        cc, branch = einstein, "i"
    elif n <= 13:
        cc, branch = 4.0, "ii"
    else:
        cc, branch = float((n + 2) // 4), "iii"
    return ThresholdProfile(
        n=n,
        einstein_threshold=einstein,
        constant_curvature_threshold=cc,
        branch=branch,
    )
