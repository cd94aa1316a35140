"""Static grid data model: buses, branches, generators, plants, and case files.

All electrical quantities are per-unit on the case's ``base_mva`` (voltages on
the nominal voltage base). Case files are JSON documents whose field names
match the dataclass fields one-for-one; :func:`parse_case` and
:func:`serialize_case` are exact inverses for every representable value.

:func:`serialize_case` writes one top-level key per line and one bus,
branch, generator or plant record per line. Each record list is encoded by
one call of json's C encoder, whose text is then split into the record
lines (:func:`_record_lines` states why the split is exact); each line is
the record's ``json.dumps``. :func:`parse_case` accepts any
JSON whitespace, so files in other layouts (such as ``json.dumps(doc,
indent=2)``) load to the same case. :func:`save_case` is a plain write: a
file torn by a crash ends before the top-level object closes, and loading
it raises :class:`CaseSyntaxError` with the line it ends on.

Memo: snapshots drawn from one base case share its ``branches``,
``plants`` and monitored lists, as the very same tuple objects, since the
``with_*`` helpers never copy a field they do not change. So
:func:`serialize_case` keeps, per case field, the last tuple it encoded and
the line it wrote, and reuses that line while the next case holds the same
tuple object; a drawn snapshot has only ``base_mva``, ``buses`` and
``generators`` encoded. The file keeps every byte it would have without the
memo; :func:`serialize_case` states the rules that make that so.

Reading mirrors it: such snapshot files repeat those fields' text byte for
byte. So :func:`parse_case` keeps, per case field, the text of its value in
the last file it read in the canonical layout and the value it read from
it, and reuses that value, the very same tuple, while the next file holds
the same text; a snapshot has only ``buses`` and ``generators`` decoded,
and loaded snapshots share their base's tuples.
The case is the one the plain read gives; :func:`parse_case` states the
rules that make that so.

Case files and config files are read under one rule, by :func:`from_json`:
each value has the JSON type of its dataclass field (an integer for an
``int``, any number for a ``float``, ``true``/``false`` for a ``bool``, a
string, one of an enum's values, an object, an array, and ``null`` only
where the field is optional), and an unknown or missing key is refused. A
case that breaks the rule raises :class:`CaseSemanticError`, a config
``ValueError``; both exit the command line with code 2.

:func:`from_json` builds an instance without the dataclass's generated
``__init__``: it writes the values it reads straight into the new
instance's ``__dict__``, in field order whatever the order of the keys (so
``vars``, and :func:`serialize_case`, see the fields in order), fills each
left-out field with its default, calling a ``default_factory`` once per
instance, and then runs the class's ``__post_init__`` where it has one
(:class:`GridCase` validates there).
"""

from __future__ import annotations

import enum
import json
import math
import os
from contextlib import suppress
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, cached_property, partial
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import (Any, Callable, Mapping, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

__all__ = [
    "BusKind",
    "Bus",
    "Branch",
    "Generator",
    "Plant",
    "GridCase",
    "CaseError",
    "CaseSyntaxError",
    "CaseSemanticError",
    "parse_case",
    "serialize_case",
    "load_case",
    "save_case",
    "bundled_case",
    "bundled_case_names",
    "plant_setpoints",
    "with_plant_setpoints",
    "with_loads",
    "with_generation",
]

# Default voltage security zone, overridable per bus in the case file.
DEFAULT_V_MIN = 0.97
DEFAULT_V_MAX = 1.07

# Global bounds of the continuous voltage-setpoint command, p.u.
V_SET_MIN = 0.9
V_SET_MAX = 1.1


class CaseError(Exception):
    """Base class for case-file problems."""


class CaseSyntaxError(CaseError):
    """Malformed case text. Carries the offending line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class CaseSemanticError(CaseError):
    """Structurally valid text that violates a grid-model invariant."""


class BusKind(str, enum.Enum):
    SLACK = "Slack"
    PV = "PV"
    PQ = "PQ"


@dataclass(frozen=True)
class Bus:
    """A network node with its demand, shunt, and voltage security zone.

    ``g_shunt`` and ``b_shunt`` are the per-unit active and reactive power the
    shunt consumes at 1.0 p.u. voltage (consumption scales with V^2; a
    capacitor bank therefore carries a negative ``b_shunt``).
    """

    id: int
    kind: BusKind
    v_mag: float = 1.0
    v_ang: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX


@dataclass(frozen=True)
class Branch:
    """A transmission line or (fixed-tap) transformer between two buses.

    Series impedance is stored as ``r`` and ``x``; the pi-model conductance
    and susceptance are derived on demand. ``b_charge`` is the per-end half
    line-charging susceptance and ``s_max`` the apparent-power rating.
    """

    id: int
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charge: float = 0.0
    s_max: float = 1.0
    in_service: bool = True


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p_gen: float
    q_gen: float
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    v_set: float
    plant: int


@dataclass(frozen=True)
class Plant:
    """A group of generators that receive one shared voltage command."""

    id: int
    name: str
    generators: tuple[int, ...]


@dataclass(frozen=True)
class GridCase:
    """Validated, immutable network description.

    Instances are safe to share read-only across concurrent solvers and
    environments; derive modified cases with the ``with_*`` helpers.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    plants: tuple[Plant, ...]
    monitored_buses: tuple[int, ...]
    monitored_branches: tuple[int, ...]

    def __post_init__(self):
        _validate(self)

    @cached_property
    def bus_order(self) -> tuple[int, ...]:
        """Canonical bus ordering (ascending id) used by all solution arrays."""
        return tuple(sorted(b.id for b in self.buses))

    @cached_property
    def bus_position(self) -> dict[int, int]:
        return {bus_id: i for i, bus_id in enumerate(self.bus_order)}

    @cached_property
    def bus_by_id(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def branch_by_id(self) -> dict[int, Branch]:
        return {b.id: b for b in self.branches}

    @cached_property
    def generator_by_id(self) -> dict[int, Generator]:
        return {g.id: g for g in self.generators}

    @cached_property
    def plant_by_id(self) -> dict[int, Plant]:
        return {p.id: p for p in self.plants}

    @cached_property
    def plant_order(self) -> tuple[int, ...]:
        """Canonical plant ordering (ascending id); defines the action layout."""
        return tuple(sorted(p.id for p in self.plants))

    @cached_property
    def generators_at_bus(self) -> dict[int, tuple[Generator, ...]]:
        out: dict[int, list[Generator]] = {b.id: [] for b in self.buses}
        for g in self.generators:
            out[g.bus].append(g)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.kind is BusKind.SLACK)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_branches(self) -> int:
        return len(self.branches)


def _validate(case: GridCase) -> None:
    if case.base_mva <= 0:
        raise CaseSemanticError("base_mva must be positive")

    bus_ids = [b.id for b in case.buses]
    if len(set(bus_ids)) != len(bus_ids):
        raise CaseSemanticError("duplicate bus id")
    bus_set = set(bus_ids)
    if not bus_set:
        raise CaseSemanticError("case has no buses")

    slack_ids = [b.id for b in case.buses if b.kind is BusKind.SLACK]
    if not slack_ids:
        raise CaseSemanticError("missing slack: no bus of kind Slack")
    if len(slack_ids) > 1:
        raise CaseSemanticError(f"multiple slack buses: {slack_ids}")

    for b in case.buses:
        if not (b.v_min < b.v_max):
            raise CaseSemanticError(f"bus {b.id}: v_min must be < v_max")
        for name in ("v_mag", "v_ang", "p_load", "q_load", "g_shunt", "b_shunt"):
            v = getattr(b, name)
            if not math.isfinite(v):
                raise CaseSemanticError(f"bus {b.id}: {name} not finite")

    branch_ids = [b.id for b in case.branches]
    branch_set = set(branch_ids)
    if len(branch_set) != len(branch_ids):
        raise CaseSemanticError("duplicate branch id")
    for br in case.branches:
        if br.from_bus not in bus_set or br.to_bus not in bus_set:
            raise CaseSemanticError(f"branch {br.id}: dangling bus reference")
        if br.from_bus == br.to_bus:
            raise CaseSemanticError(f"branch {br.id}: from_bus equals to_bus")
        for name in ("r", "x", "b_charge", "s_max"):
            if not math.isfinite(getattr(br, name)):
                raise CaseSemanticError(f"branch {br.id}: {name} not finite")
        if br.r < 0:
            raise CaseSemanticError(f"branch {br.id}: negative resistance")
        if br.x == 0:
            raise CaseSemanticError(f"branch {br.id}: zero reactance")
        if br.r * br.r + br.x * br.x == 0:
            # r^2 + x^2 can underflow to zero although x != 0.
            raise CaseSemanticError(f"branch {br.id}: zero series impedance")
        if br.s_max <= 0:
            raise CaseSemanticError(f"branch {br.id}: s_max must be positive")

    gen_ids = [g.id for g in case.generators]
    if len(set(gen_ids)) != len(gen_ids):
        raise CaseSemanticError("duplicate generator id")
    plant_ids = {p.id for p in case.plants}
    if len(plant_ids) != len(case.plants):
        raise CaseSemanticError("duplicate plant id")
    for g in case.generators:
        if g.bus not in bus_set:
            raise CaseSemanticError(f"generator {g.id}: dangling bus reference")
        if g.plant not in plant_ids:
            raise CaseSemanticError(f"generator {g.id}: dangling plant reference")
        for name in ("p_gen", "q_gen", "p_min", "p_max", "q_min", "q_max", "v_set"):
            if not math.isfinite(getattr(g, name)):
                raise CaseSemanticError(f"generator {g.id}: {name} not finite")
        if not (g.q_min < g.q_max):
            raise CaseSemanticError(f"generator {g.id}: q_min must be < q_max")
        _check_p_gen_range(g, g.p_gen)
        _check_v_set_range(g, g.v_set)

    gen_set = set(gen_ids)
    claimed: dict[int, int] = {}
    for p in case.plants:
        if not p.generators:
            raise CaseSemanticError(f"plant {p.id}: no generators")
        for gid in p.generators:
            if gid not in gen_set:
                raise CaseSemanticError(f"plant {p.id}: dangling generator reference {gid}")
            if gid in claimed:
                raise CaseSemanticError(f"generator {gid} assigned to plants {claimed[gid]} and {p.id}")
            claimed[gid] = p.id
    for g in case.generators:
        if claimed.get(g.id) != g.plant:
            raise CaseSemanticError(f"generator {g.id}: plant membership mismatch")

    for m in case.monitored_buses:
        if m not in bus_set:
            raise CaseSemanticError(f"monitored bus {m} does not exist")
    for m in case.monitored_branches:
        if m not in branch_set:
            raise CaseSemanticError(f"monitored branch {m} does not exist")
    for name in ("monitored_buses", "monitored_branches"):
        listed = getattr(case, name)
        if len(set(listed)) != len(listed):
            repeated = next(m for i, m in enumerate(listed) if m in listed[:i])
            raise CaseSemanticError(f"{name} lists {repeated} more than once")

    _check_connected(case)


def _check_connected(case: GridCase) -> None:
    if len(case.buses) == 1:
        return
    adjacency: dict[int, list[int]] = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.in_service:
            adjacency[br.from_bus].append(br.to_bus)
            adjacency[br.to_bus].append(br.from_bus)
    start = case.buses[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    missing = sorted(set(b.id for b in case.buses) - seen)
    if missing:
        raise CaseSemanticError(f"buses {missing} disconnected from bus {start}")


def _check_finite(what: str, ident: int, name: str, value: float) -> None:
    """The check and message of :func:`_validate` for one finite field."""
    if not math.isfinite(value):
        raise CaseSemanticError(f"{what} {ident}: {name} not finite")


def _check_p_gen_range(g: Generator, p_gen: float) -> None:
    if not (g.p_min <= p_gen <= g.p_max):
        raise CaseSemanticError(f"generator {g.id}: p_gen outside [p_min, p_max]")


def _check_v_set_range(g: Generator, v_set: float) -> None:
    if not (V_SET_MIN <= v_set <= V_SET_MAX):
        raise CaseSemanticError(f"generator {g.id}: v_set outside [{V_SET_MIN}, {V_SET_MAX}]")


# --- case file format -------------------------------------------------------

def parse_case(text: str) -> GridCase:
    """Parse case-file text into a validated :class:`GridCase`.

    Values in the file are per-unit on the declared ``base_mva`` and are
    stored as given. Raises :class:`CaseSyntaxError` for malformed text (with
    position) and :class:`CaseSemanticError` for a value of the wrong JSON
    type (see :func:`from_json`) or an invariant violation.

    A file in :func:`serialize_case`'s layout is read field by field: a
    field whose value text equals the text last read for it reuses the value
    read then (the Memo paragraph of the module docstring). The memo is
    exact under these rules:

    - The split is exact. The text must start with ``{\\n  "`` and end with
      ``\\n}\\n``, and splitting what lies between at ``,\\n  "`` must give
      exactly the case fields, in order, each as ``<name>": <value text>``.
      If every value text then decodes as JSON, the whole text is a JSON
      object with exactly these keys, in this order, holding these values;
      whatever wrote it, it reads as the path below would read it. (In a
      file :func:`serialize_case` wrote, strings hold no raw newline and
      record lines start with four spaces, so the separator occurs only
      between top-level keys.)
    - A value text matches on exact text equality (``==`` on ``str``),
      never on the value it decodes to: ``-0.0 == 0.0``, ``1 == 1.0 ==
      True`` and ``0 == False``, yet each is written, and read, differently.
    - A value is shared between loaded cases only because it is immutable:
      the readers build tuples of frozen records with scalar or tuple
      fields, so the write memo's identity rule keeps holding too.
    - Each entry is one immutable ``(text, value)`` pair, written in one
      assignment, so a thread never reads the text of one entry with the
      value of another. There is one entry per field and nothing to size.
    - Each value is read by the field's :func:`from_json` reader, and the
      case is finished as :func:`from_json` finishes it, so
      ``GridCase.__post_init__`` validates it in full. Any other layout,
      and any error on this path, goes to the path below, which raises the
      error with its class, message and position.
    """
    with suppress(Exception):     # the path below raises it, as for any layout
        case = _parse_canonical(text)
        if case is not None:
            return case
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:     # an integer beyond Python's digit limit
        raise CaseSyntaxError(str(exc)) from exc
    try:
        return from_json(GridCase, doc)
    except ValueError as exc:
        raise CaseSemanticError(str(exc)) from exc


_CASE_FIELDS = tuple(f.name for f in fields(GridCase))
# The GridCase fields that hold records, written one record per line.
_RECORD_LISTS = frozenset(name for name, tp in get_type_hints(GridCase).items()
                          if any(is_dataclass(arg) for arg in get_args(tp)))


# parse_case's memo: per case field, the text of its value in the last
# canonical file read and the value read from it, as one (text, value) pair.
# No text equals None, so a fresh entry never matches. See parse_case.
_PARSE_MEMO: dict[str, tuple[str | None, Any]] = dict.fromkeys(_CASE_FIELDS, (None, None))


def _parse_canonical(text: str) -> GridCase | None:
    """The case in ``text`` read through the parse memo, or None when the
    text is not in the canonical layout; see :func:`parse_case`."""
    if not (text.startswith('{\n  "') and text.endswith("\n}\n")):
        return None
    parts = text[5:-3].split(',\n  "')
    if len(parts) != len(_CASE_FIELDS):
        return None
    readers = _class_readers(GridCase)[0]
    case, state = _blank(GridCase)
    for name, part in zip(_CASE_FIELDS, parts):
        key, _, value_text = part.partition('": ')
        if key != name:
            return None
        memo_text, value = _PARSE_MEMO[name]
        if memo_text != value_text:
            value = readers[name](json.loads(value_text))
            _PARSE_MEMO[name] = (value_text, value)
        state[name] = value
    case.__post_init__()
    return case


# serialize_case's memo: per case field, the last tuple it encoded and the
# line it wrote for it, as one (value, line) pair. See serialize_case.
_LINE_MEMO: dict[str, tuple[Any, str]] = dict.fromkeys(_CASE_FIELDS, (object(), ""))


def serialize_case(case: GridCase) -> str:
    """Emit the canonical case-file text; exact inverse of :func:`parse_case`.

    Each field of the case, and each field of a record, is written under its
    name in field order; a record is the dict of its own fields (``vars``).
    Every value is encoded without ``indent``, which keeps json on CPython's
    C encoder; the layout is in the module docstring.

    A field that holds the very tuple last encoded for it reuses the line
    written then (the Memo paragraph of the module docstring). The memo is
    exact under these rules:

    - A value matches on identity (``is``) only, never ``==``: ``-0.0 ==
      0.0`` and ``1 == 1.0 == True``, yet each is written differently.
    - A value is remembered only when ``type(value) is tuple``; a list can
      change between two calls.
    - The entry holds a strong reference to its value, so the value's id
      cannot be reused by another object while the entry exists.
    - Each entry is one immutable ``(value, line)`` pair, written in one
      assignment, so a thread never reads the value of one entry with the
      line of another.
    - Records are frozen, with scalar or tuple fields, so a tuple of records
      cannot change under its identity. :func:`from_json` and the
      ``with_*`` helpers build them that way, and the package constructs no
      :class:`GridCase` or :class:`Plant` directly.
    """
    lines = []
    for name in _CASE_FIELDS:
        value = getattr(case, name)
        memo_value, line = _LINE_MEMO[name]
        if memo_value is not value:
            if name in _RECORD_LISTS and value:
                line = f'  "{name}": [\n    {_record_lines(value)}\n  ]'
            else:
                line = f'  "{name}": {json.dumps(value)}'
            if type(value) is tuple:
                _LINE_MEMO[name] = (value, line)
        lines.append(line)
    return "{\n" + ",\n".join(lines) + "\n}\n"


_RECORD_ENCODER = json.JSONEncoder(separators=(",\n", ": "))


def _record_lines(records) -> str:
    """``",\n    ".join(json.dumps(vars(r)) for r in records)``, from one
    encoder call over the whole list.

    The split is exact because the encoder escapes control characters in
    strings, so no raw newline occurs inside a value, and no record field
    holds an object (fields are scalars or arrays of scalars). So ``",\n{"``
    occurs in the text exactly where one record ends and the next begins,
    and every other ``",\n"`` separates two items of one record or of one
    array field, which ``json.dumps`` writes as ``", "``.
    """
    text = _RECORD_ENCODER.encode(list(map(vars, records)))
    return ",\n    {".join(part.replace(",\n", ", ")
                           for part in text[1:-1].split(",\n{"))


def load_case(path: str | Path) -> GridCase:
    """Parse the case file at ``path``; a :class:`CaseError` names the file."""
    try:
        return parse_case(Path(path).read_text())
    except CaseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def save_case(case: GridCase, path: str | Path) -> None:
    """Plain write, without fsync: a torn file fails to load with
    :class:`CaseSyntaxError` (see the module docstring)."""
    Path(path).write_text(serialize_case(case))


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to a sibling ``*.tmp`` file, flush and fsync it, then
    rename it over ``path``: a crash leaves the old file or the new one,
    never a torn one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- JSON input ---------------------------------------------------------------

class _WrongType(Exception):
    """A JSON value of the wrong type: what was expected, the value, and
    where it sits below the field (``[i]`` for an array item)."""

    def __init__(self, expected: str, value: Any, where: str = ""):
        super().__init__(expected)
        self.expected, self.value, self.where = expected, value, where


def from_json(cls, doc):
    """An instance of the dataclass ``cls`` from the JSON object ``doc``,
    under the type rule of the module docstring. A field with a default may
    be left out; a nested dataclass is read through its ``from_dict`` where
    it has one. A non-object, an unknown or missing key, or a value of the
    wrong JSON type is refused with ``ValueError`` naming the class and the
    key; range checks are left to the class's ``__post_init__``.

    The instance is built as the module docstring says, without the
    generated ``__init__``.
    """
    readers, names, required, defaults, post_init = _class_readers(cls)
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object")
    new, state = _blank(cls)
    try:
        for key, value in doc.items():
            read = readers.get(key)
            if read is None:
                unknown = sorted(doc.keys() - readers.keys())
                raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
            state[key] = read(value)
    except _WrongType as exc:
        raise ValueError(f"{cls.__name__} key {key}{exc.where} must be {exc.expected}, "
                         f"not {json.dumps(exc.value)}") from None
    if tuple(state) != names:     # a key left out, or the keys out of field order
        if not state.keys() >= required:
            missing = [name for name in names if name in required and name not in doc]
            raise ValueError(f"missing {cls.__name__} keys: {', '.join(missing)}")
        given = dict(state)
        state.clear()
        for name in names:
            state[name] = given[name] if name in given else _default(defaults[name])
    if post_init is not None:
        post_init(new)
    return new


@cache
def _class_readers(cls):
    """What :func:`from_json` needs of ``cls``, built once per class: the
    reader of each field, the field names in order, the names of the fields
    without a default, the fields with one, and ``__post_init__`` or None."""
    hints = get_type_hints(cls)
    readers = {f.name: _reader(hints[f.name]) for f in fields(cls)}
    required = frozenset(f.name for f in fields(cls)
                         if f.default is MISSING and f.default_factory is MISSING)
    defaults = {f.name: f for f in fields(cls) if f.name not in required}
    return (readers, tuple(readers), required, defaults,
            getattr(cls, "__post_init__", None))


def _default(f):
    """The default of the field ``f``; a ``default_factory`` makes a new
    value for each instance."""
    return f.default if f.default_factory is MISSING else f.default_factory()


def _reader(tp) -> Callable[[Any], Any]:
    """The function that reads one JSON value under the annotation ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        (inner,) = (arg for arg in args if arg is not type(None))
        return _optional(_reader(inner))
    if origin in (tuple, list):
        return _array(origin, _reader(args[0]))
    if is_dataclass(tp):
        return getattr(tp, "from_dict", None) or partial(from_json, tp)
    if issubclass(tp, enum.Enum):
        return _enum(tp)
    return _SCALARS[tp]


def _exactly(kind, expected):
    # `type(...) is` because bool is a subclass of int, but `true` is not a
    # JSON integer.
    def read(value):
        if type(value) is kind:
            return value
        raise _WrongType(expected, value)
    return read


def _read_float(value):
    if type(value) is float:
        return value
    if isinstance(value, float) or type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise _WrongType("a number in the float range", value) from None
    raise _WrongType("a number", value)


_SCALARS = {int: _exactly(int, "an integer"), float: _read_float,
            bool: _exactly(bool, "true or false"), str: _exactly(str, "a string")}


def _optional(read):
    def read_optional(value):
        try:
            return None if value is None else read(value)
        except _WrongType as exc:
            raise _WrongType(f"{exc.expected} or null", value) from None
    return read_optional


def _array(container, read):
    def read_array(value):
        if type(value) is not list:
            raise _WrongType("a list", value)
        items = []
        for i, item in enumerate(value):
            try:
                items.append(read(item))
            except _WrongType as exc:
                raise _WrongType(exc.expected, exc.value, f"[{i}]") from None
        return container(items)
    return read_array


def _enum(cls):
    members = {member.value: member for member in cls}
    expected = "one of " + ", ".join(json.dumps(v) for v in members)

    def read_enum(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            raise _WrongType(expected, value) from None
    return read_enum


def bundled_case_names() -> tuple[str, ...]:
    files = resources.files("gridsac") / "cases"
    return tuple(sorted(p.name.removesuffix(".json")
                        for p in files.iterdir() if p.name.endswith(".json")))


def bundled_case(name: str) -> GridCase:
    """Load a case shipped with the package (``case3`` or ``case14``)."""
    ref = resources.files("gridsac") / "cases" / f"{name}.json"
    if not ref.is_file():
        raise KeyError(f"no bundled case {name!r}; available: {bundled_case_names()}")
    return parse_case(ref.read_text())


# --- case derivation --------------------------------------------------------

# Cached properties that depend only on ids and topology, which no
# ``with_*`` derivation changes; a derived case shares them with its source.
_TOPOLOGY_CACHES = ("bus_order", "bus_position", "branch_by_id", "plant_by_id",
                    "plant_order")


def _blank(cls):
    """A new instance of the dataclass ``cls`` and its empty ``__dict__``,
    made without the generated ``__init__`` and so without
    ``__post_init__``. The caller writes every field into the dict, in
    field order: ``vars``, and so :func:`serialize_case`, follow it."""
    new = object.__new__(cls)
    return new, new.__dict__


def _copy_with(component, **changes):
    """``replace(component, **changes)`` for a bus or generator, whose
    dataclass has no ``__post_init__``."""
    new, state = _blank(type(component))
    state.update(component.__dict__, **changes)
    return new


def _derived(case: GridCase, **changes) -> GridCase:
    """``replace(case, **changes)`` without re-running the full validation.

    Only for changes the caller has already checked with the checks and
    messages of :func:`_validate`: every other invariant holds because
    ``case`` passed validation.
    """
    source = case.__dict__
    new, state = _blank(GridCase)
    state.update({name: source[name] for name in _CASE_FIELDS}, **changes)
    for name in _TOPOLOGY_CACHES:
        if name in source:
            state[name] = source[name]
    return new


def with_plant_setpoints(case: GridCase, setpoints: Mapping[int, float]) -> GridCase:
    """New case with the given per-plant voltage setpoint applied to every
    generator of each listed plant."""
    for pid in setpoints:
        if pid not in case.plant_by_id:
            raise KeyError(f"unknown plant id {pid}")
    generators = []
    for g in case.generators:
        if g.plant in setpoints:
            v_set = float(setpoints[g.plant])
            _check_finite("generator", g.id, "v_set", v_set)
            _check_v_set_range(g, v_set)
            g = _copy_with(g, v_set=v_set)
        generators.append(g)
    return _derived(case, generators=tuple(generators))


def plant_setpoints(case: GridCase) -> np.ndarray:
    """Voltage setpoint of each plant in ``case.plant_order``: the mean
    ``v_set`` of its generators."""
    return np.array([np.mean([case.generator_by_id[g].v_set for g in case.plant_by_id[pid].generators])
                     for pid in case.plant_order], dtype=float)


def with_loads(case: GridCase, p_load: Mapping[int, float],
               q_load: Mapping[int, float] | None = None) -> GridCase:
    """New case with the given per-bus active and reactive loads; buses not
    listed keep theirs."""
    q_load = q_load if q_load is not None else {}
    buses = []
    for b in case.buses:
        p, q = float(p_load.get(b.id, b.p_load)), float(q_load.get(b.id, b.q_load))
        _check_finite("bus", b.id, "p_load", p)
        _check_finite("bus", b.id, "q_load", q)
        buses.append(_copy_with(b, p_load=p, q_load=q))
    return _derived(case, buses=tuple(buses))


def with_generation(case: GridCase, p_gen: Mapping[int, float]) -> GridCase:
    """New case with the given per-generator active outputs; generators not
    listed keep theirs."""
    generators = []
    for g in case.generators:
        p = float(p_gen.get(g.id, g.p_gen))
        _check_finite("generator", g.id, "p_gen", p)
        _check_p_gen_range(g, p)
        generators.append(_copy_with(g, p_gen=p))
    return _derived(case, generators=tuple(generators))
