"""The numpy-free base of the package: errors, input rules, report records, JSON text, thresholds.

Everything here is plain Python, so the commands that need no array
(``curvop threshold``, ``curvop models``, ``--help``) and the parser that
every command builds run without loading numpy.  The array modules import
their errors and their record base from here.  So does every rule that
judges an input before an array exists: the dimension formulas, the
tensor document's header, the size guard, k, the tolerance, the bounds'
n >= 3 and the fuzz campaign's arguments.  The library applies each where
it is needed, and the CLI applies it first, so a refused input never
loads numpy.

The two dimension thresholds of the paper are closed-form:

* einstein_threshold      k = n(n+2)/(2(n+1)): k-nonnegativity forces a
  compact manifold with harmonic curvature to be Einstein;
* constant_curvature_threshold  min(einstein, max(4, floor((n+2)/4))):
  k-nonnegativity at this level forces constant sectional curvature.

The floor is a deliberate, conservative reading of the abstract's
max{4, (n+2)/4}.  The two differ for n >= 15 with n not 2 mod 4 (4
against 4.25 at n = 15, 5 against 5.5 at n = 20); since 4-nonnegativity
implies 4.25-nonnegativity, the floor never certifies more than the
theorem states.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
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


def _integer(what: str, value, low: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, and at least ``low``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low is None or value >= low:
            return int(value)
    raise ValueError(f"{what} must be an integer{'' if low is None else f' >= {low}'}, "
                     f"got {value!r}")


def _real(what: str, value, low: float = -math.inf, strict: bool = False) -> float:
    """``value`` as a float: a Python or numpy real, not a bool, finite, at least ``low``.

    With ``strict`` it must be above ``low``.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the double range
            raise ValueError(f"{what} is out of double precision range") from None
        if math.isfinite(x) and (x > low if strict else x >= low):
            return x
    bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
    raise ValueError(f"{what} must be a number, finite{bound}, got {value!r}")


def _physical_memory() -> int | None:
    """Bytes of physical memory, from ``os.sysconf``; None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def lambda2_dim(n: int) -> int:
    """Dimension of the space of antisymmetric matrices, n(n-1)/2."""
    return n * (n - 1) // 2


def s2_traceless_dim(n: int) -> int:
    """Dimension of the space of trace-free symmetric matrices, (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


def _tensor_bytes(n: int) -> int:
    """Bytes of an n-dimensional tensor and its two operator matrices: 8 (n^4 + N1^2 + N2^2)."""
    n = max(n, 0)
    return 8 * (n**4 + lambda2_dim(n) ** 2 + s2_traceless_dim(n) ** 2)


def _require_memory(what: str, nbytes: int) -> None:
    """Raise :class:`ValueError` when ``nbytes`` exceeds physical memory.

    ``nbytes`` estimates what ``what`` will hold.  Called before anything
    is allocated, so an input too large to run is refused up front, not
    by the kernel once overcommitted pages are touched.
    """
    limit = _physical_memory()
    if limit is not None and nbytes > limit:
        raise ValueError(f"{what} is too large to run: it needs about {nbytes / 2**30:.3g} GiB, "
                         f"more than the {limit / 2**30:.3g} GiB of physical memory")


def _tensor_header(obj) -> tuple[int, list]:
    """``(n, entries)`` of a tensor document, judged before anything is allocated.

    Raises :class:`SchemaError` unless ``obj`` is a dict with an "n" that
    is an integer >= 2 and an "entries" list, and :class:`ValueError`
    when the tensor and its two operator matrices would not fit in
    physical memory.  The entries themselves are judged as they are loaded.
    """
    if not isinstance(obj, dict):
        raise SchemaError("tensor document must be a JSON object")
    try:
        n = obj["n"]
        entries = obj["entries"]
    except KeyError as missing:
        raise SchemaError(f"tensor document is missing key {missing}") from None
    try:
        n = _integer('"n"', n, 2)
    except ValueError as bad:
        raise SchemaError(str(bad)) from None
    if not isinstance(entries, list):
        raise SchemaError('"entries" must be a list')
    _require_memory(f"a tensor of dimension n = {n}", _tensor_bytes(n))
    return n, entries


def _k_count(k, N: int) -> float:
    """``k`` as a fractional count of N eigenvalues: finite and in [1, N] to 1e-12, clamped."""
    if not 1.0 - 1e-12 <= _real("k", k) <= N * (1.0 + 1e-12):
        raise ValueError(f"k must lie in [1, {N}], got {k}")
    return min(max(float(k), 1.0), float(N))


def _tol(tol) -> float:
    """A base margin tolerance: a finite number >= 0."""
    return _real("tol", tol, 0.0)


def _require_bounds_dimension(n: int) -> None:
    """Raise :class:`ValueError` unless the curvature bounds are defined at n (n >= 3)."""
    if n < 3:
        raise ValueError("curvature bounds require n >= 3")


#: A fuzz block holds at most this many trials, all of one dimension n.  Its
#: tensors are drawn, validated, assembled and eigensolved together.
_BLOCK_TRIALS = 32

#: What a campaign holds per block until it reports: the block and its task
#: (about 185 bytes) and its results (about 17 KB, measured with tracemalloc
#: on full blocks at n = 3), rounded up.
_BLOCK_HELD_BYTES = 20_000


def _fuzz_arguments(seed, trials_per_n, ns, e_per_tensor, tol, jobs) -> tuple:
    """The arguments of ``verify.fuzz_campaign``, judged in signature order, then its size.

    Raises :class:`ValueError` unless seed >= 0, trials_per_n >= 1, ``ns``
    holds one or more n >= 3, e_per_tensor >= 1, tol >= 0 and jobs >= 1,
    or when the block list, the results and one block's stack of the
    largest n would not fit in physical memory.
    """
    seed = _integer("seed", seed, 0)
    trials_per_n = _integer("trials_per_n", trials_per_n, 1)
    ns = tuple(_integer("each of the fuzz dimensions", n, 3) for n in ns)
    if not ns:
        raise ValueError(f"fuzz dimensions must be one or more n >= 3, got {ns!r}")
    e_per_tensor = _integer("e_per_tensor", e_per_tensor, 1)
    tol = _tol(tol)
    jobs = _integer("jobs", jobs, 1)
    blocks_per_n = -(-trials_per_n // _BLOCK_TRIALS)
    _require_memory(
        f"a campaign of {trials_per_n} trials for each n in {list(ns)}",
        len(ns) * blocks_per_n * _BLOCK_HELD_BYTES
        + min(trials_per_n, _BLOCK_TRIALS) * _tensor_bytes(max(ns)),
    )
    return seed, trials_per_n, ns, e_per_tensor, tol, jobs


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


def _json_text(obj) -> str:
    """Exactly what ``json.dumps`` writes with an indent of 2, flat lists in C.

    Any indent sends json to its pure-Python encoder, one call per value.
    Here only the nesting is Python, written in one pass into one list
    that is joined once.  A list or tuple whose first item is not a
    list, tuple, dict or str is one call of json's C encoder, whose item
    separator is already the indented line break of its depth; its text
    is used as it is when it holds no string and no nested container (no
    ``"``, no ``{``, no ``[`` after the first character), and otherwise
    the list is written item by item.  Every other scalar and key is one
    ``json.dumps``.
    """
    out: list[str] = []
    _write_json(out.append, obj, "\n")
    return "".join(out)


@functools.cache
def _flat_encoder(inner: str):
    """json's C encoder with ``"," + inner`` between list items: a list whose items sit at ``inner``."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _write_json(put, obj, pad: str) -> None:
    """Pass the text of ``obj`` to ``put`` in pieces; ``pad`` is the line break and indent of obj."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key, value in obj.items():
            # json.dumps({key: 0}) is '{KEY: 0}': KEY as json converts it, str or not.
            put(sep + json.dumps({key: 0})[1:-2])
            _write_json(put, value, inner)
            sep = "," + inner
        put(pad + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        if not isinstance(obj[0], (list, tuple, dict, str)):
            text = _flat_encoder(inner)(obj)
            if '"' not in text and "{" not in text and text.find("[", 1) < 0:
                put("[" + inner)
                put(text[1:-1])
                put(pad + "]")
                return
        sep = "[" + inner
        for item in obj:
            put(sep)
            _write_json(put, item, inner)
            sep = "," + inner
        put(pad + "]")
    else:
        put(json.dumps(obj))


@dataclass(frozen=True)
class ThresholdProfile(_Record):
    """Dimension-dependent k-nonnegativity thresholds.

    ``branch`` records which regime the constant-curvature threshold came
    from: "i" (n <= 7, equals the Einstein threshold), "ii" (8 <= n <= 13,
    equals 4), "iii" (n >= 14, equals floor((n+2)/4), a deliberate,
    conservative reading of the paper's (n+2)/4; see the module docstring).
    """

    n: int
    einstein_threshold: float
    constant_curvature_threshold: float
    branch: str


def threshold_profile(n: int) -> ThresholdProfile:
    """Evaluate both thresholds at dimension n >= 3.

    The constant-curvature threshold is min(einstein, max(4, floor((n+2)/4)));
    the three branches of the piecewise form are labelled by n-range, and
    the floor is the conservative reading of the abstract's (n+2)/4.
    Raises :class:`ValueError` when n is not an integer >= 3 or a
    threshold is not a finite double (from about n = 1.3e154).
    """
    n = _integer("n", n, 3)
    try:
        einstein = n * (n + 2.0) / (2.0 * (n + 1.0))
    except OverflowError:  # n itself is beyond the double range
        einstein = math.inf
    if not math.isfinite(einstein):
        raise ValueError(f"the thresholds at n = {n} are out of double precision range")
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
