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
        gib = nbytes / 2**30 if nbytes < 2**1024 else math.inf  # a double holds no more
        raise ValueError(f"{what} is too large to run: it needs about {gib:.3g} GiB, "
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

#: A probe slice of a block holds at most this many bytes of probe matrices,
#: trials * P * n^2 * 8, and under half as much of frame coordinates, though
#: always one trial.  With the kernel pass's temporaries, a slice's peak is at
#: most 2.4 times its probes' e * (n^2 + N) * 8 bytes a trial (measured with
#: tracemalloc at n = 3 to 24: 2.36 at n = 3, about 1.7 from n = 5 on), and the
#: campaign's size guard counts 2.5 times.
_BLOCK_PROBE_BYTES = 1 << 19

#: What a campaign holds per block until it reports: the block and its task
#: (about 185 bytes) and its results (about 17 KB, measured with tracemalloc
#: on full blocks at n = 3), rounded up.
_BLOCK_HELD_BYTES = 20_000


def _probe_slices(n: int, count: int, e_per_tensor: int) -> list[slice]:
    """The runs of consecutive trials of a block of ``count`` whose probes go through together.

    A slice holds at most ``_BLOCK_PROBE_BYTES`` of probe matrices, though
    always one trial.
    """
    size = max(1, _BLOCK_PROBE_BYTES // (e_per_tensor * n * n * 8))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _fuzz_arguments(seed, trials_per_n, ns, e_per_tensor, tol, jobs) -> tuple:
    """The arguments of ``verify.fuzz_campaign``, judged in signature order, then its size.

    Raises :class:`ValueError` unless seed >= 0, trials_per_n >= 1, ``ns``
    holds one or more n >= 3, e_per_tensor >= 1, tol >= 0 and jobs >= 1,
    or when the block list, the results, and one block's stack and one
    probe slice of the largest n would not fit in physical memory.
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
    n, block = max(ns), min(trials_per_n, _BLOCK_TRIALS)
    probes = _probe_slices(n, block, e_per_tensor)[0].stop * e_per_tensor
    _require_memory(
        f"a campaign of {trials_per_n} trials for each n in {list(ns)}",
        len(ns) * blocks_per_n * _BLOCK_HELD_BYTES + block * _tensor_bytes(n)
        + 20 * probes * (n * n + s2_traceless_dim(n)),  # 2.5 times 8 bytes a value
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
    """Base of the package's records: immutable plain classes, serialized by ``to_json``.

    The fields are the class annotations in declaration order, bases first,
    read when the class is created; a class attribute of the same name is
    a default.  ``__init__`` takes them by position or keyword, then calls
    ``__post_init__`` with those named with a leading "_", which are not
    stored.  Setting or deleting an attribute raises AttributeError (so a
    ``__post_init__`` uses ``object.__setattr__``).  Records compare and
    hash by their fields within one class, or by identity if ``eq=False``.
    ``to_json`` is the fields not in ``_json_hidden``, then the properties
    in ``_json_properties``; ``tensor_to_json`` and ``operator_to_json``
    write the records that hold arrays.
    """

    _fields = _stored = _arguments = _json_names = _json_hidden = _json_properties = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        cls._fields = (*cls._fields, *(name for name in own if name not in cls._fields))
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._stored = tuple(name for name in cls._fields if name[0] != "_")
        cls._arguments = tuple(name for name in cls._fields if name[0] == "_")
        cls._json_names = (*(n for n in cls._stored if n not in cls._json_hidden),
                           *cls._json_properties)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._positional(args, kwargs)
        state = self.__dict__
        state.update(zip(cls._fields, args))
        if cls._arguments:
            self.__post_init__(*map(state.pop, cls._arguments))
        else:
            self.__post_init__()

    @classmethod
    def _positional(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value in order, from the arguments and the defaults; else TypeError."""
        rest = cls._fields[len(args):]
        values = {**cls._defaults, **kwargs}
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(rest) <= values.keys():
            raise TypeError(f"{cls.__name__}() takes {', '.join(cls._fields)}: got {len(args)} "
                            f"by position and {', '.join(kwargs) or 'none'} by keyword")
        return (*args, *map(values.__getitem__, rest))

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._stored)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._stored)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A new record of this class, its fields with ``changes``, judged as any other."""
        return type(self)(**dict(zip(self._stored, self._values()), **changes))

    def to_json(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._json_names}


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
    return ThresholdProfile(n, einstein, cc, branch)
