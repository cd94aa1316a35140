"""Static grid data model: buses, branches, generators, plants, and case files.

All electrical quantities are per-unit on the case's ``base_mva`` (voltages on
the nominal voltage base). Case files are JSON documents whose field names
match the dataclass fields one-for-one; :func:`parse_case` and
:func:`serialize_case` are exact inverses for every representable value.

:func:`serialize_case` writes one top-level key per line and one bus,
branch, generator or plant record per line. :func:`parse_case` accepts any
JSON whitespace, so files in other layouts (such as ``json.dumps(doc,
indent=2)``) load to the same case. :func:`save_case` is a plain write: a
file torn by a crash ends before the top-level object closes, and loading
it raises :class:`CaseSyntaxError` with the line it ends on.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

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
    "derive_admittance_params",
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


def derive_admittance_params(branch: Branch) -> tuple[float, float]:
    """Series conductance and susceptance of a branch's pi-model.

    g = r / (r^2 + x^2), b = -x / (r^2 + x^2).
    """
    z2 = branch.r * branch.r + branch.x * branch.x
    if z2 <= 0.0:
        raise ValueError(f"branch {branch.id}: zero series impedance")
    return branch.r / z2, -branch.x / z2


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
            if not _finite(v):
                raise CaseSemanticError(f"bus {b.id}: {name} not finite")

    branch_ids = [b.id for b in case.branches]
    if len(set(branch_ids)) != len(branch_ids):
        raise CaseSemanticError("duplicate branch id")
    for br in case.branches:
        if br.from_bus not in bus_set or br.to_bus not in bus_set:
            raise CaseSemanticError(f"branch {br.id}: dangling bus reference")
        if br.from_bus == br.to_bus:
            raise CaseSemanticError(f"branch {br.id}: from_bus equals to_bus")
        for name in ("r", "x", "b_charge", "s_max"):
            if not _finite(getattr(br, name)):
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
            if not _finite(getattr(g, name)):
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
        if m not in set(branch_ids):
            raise CaseSemanticError(f"monitored branch {m} does not exist")

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


def _finite(x: float) -> bool:
    return x == x and abs(x) != float("inf")


def _check_finite(what: str, ident: int, name: str, value: float) -> None:
    """The check and message of :func:`_validate` for one finite field."""
    if not _finite(value):
        raise CaseSemanticError(f"{what} {ident}: {name} not finite")


def _check_p_gen_range(g: Generator, p_gen: float) -> None:
    if not (g.p_min <= p_gen <= g.p_max):
        raise CaseSemanticError(f"generator {g.id}: p_gen outside [p_min, p_max]")


def _check_v_set_range(g: Generator, v_set: float) -> None:
    if not (V_SET_MIN <= v_set <= V_SET_MAX):
        raise CaseSemanticError(f"generator {g.id}: v_set outside [{V_SET_MIN}, {V_SET_MAX}]")


# --- case file format -------------------------------------------------------

_BUS_FIELDS = ("id", "kind", "v_mag", "v_ang", "p_load", "q_load",
               "g_shunt", "b_shunt", "v_min", "v_max")
_BRANCH_FIELDS = ("id", "from_bus", "to_bus", "r", "x", "b_charge", "s_max", "in_service")
_GEN_FIELDS = ("id", "bus", "p_gen", "q_gen", "p_min", "p_max", "q_min", "q_max", "v_set", "plant")
_PLANT_FIELDS = ("id", "name", "generators")
_TOP_KEYS = ("base_mva", "buses", "branches", "generators", "plants",
             "monitored_buses", "monitored_branches")
# Top-level lists written one record per line by :func:`serialize_case`.
_RECORD_KEYS = ("buses", "branches", "generators", "plants")

_BUS_DEFAULTS: dict[str, Any] = {
    "v_mag": 1.0, "v_ang": 0.0, "p_load": 0.0, "q_load": 0.0,
    "g_shunt": 0.0, "b_shunt": 0.0, "v_min": DEFAULT_V_MIN, "v_max": DEFAULT_V_MAX,
}
_BRANCH_DEFAULTS: dict[str, Any] = {"b_charge": 0.0, "s_max": 1.0, "in_service": True}


def parse_case(text: str) -> GridCase:
    """Parse case-file text into a validated :class:`GridCase`.

    Values in the file are per-unit on the declared ``base_mva`` and are
    stored as given. Raises :class:`CaseSyntaxError` for malformed text (with
    position) and :class:`CaseSemanticError` for invariant violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise CaseSemanticError("case document must be an object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise CaseSemanticError(f"unknown top-level keys: {sorted(unknown)}")
    missing = [k for k in _TOP_KEYS if k not in doc]
    if missing:
        raise CaseSemanticError(f"missing top-level keys: {missing}")

    buses = tuple(_parse_component(o, "bus", _BUS_FIELDS, _BUS_DEFAULTS, _make_bus)
                  for o in doc["buses"])
    branches = tuple(_parse_component(o, "branch", _BRANCH_FIELDS, _BRANCH_DEFAULTS, _make_branch)
                     for o in doc["branches"])
    generators = tuple(_parse_component(o, "generator", _GEN_FIELDS, {}, _make_generator)
                       for o in doc["generators"])
    plants = tuple(_parse_component(o, "plant", _PLANT_FIELDS, {}, _make_plant)
                   for o in doc["plants"])
    return GridCase(
        base_mva=float(doc["base_mva"]),
        buses=buses,
        branches=branches,
        generators=generators,
        plants=plants,
        monitored_buses=tuple(int(i) for i in doc["monitored_buses"]),
        monitored_branches=tuple(int(i) for i in doc["monitored_branches"]),
    )


def _parse_component(obj, what, fields, defaults, make):
    if not isinstance(obj, dict):
        raise CaseSemanticError(f"each {what} must be an object")
    unknown = obj.keys() - fields
    if unknown:
        raise CaseSemanticError(f"{what}: unknown fields {sorted(unknown)}")
    values = {**defaults, **obj}
    # Unknown names were refused above, so a short dict lacks a field.
    if len(values) < len(fields):
        missing = next(name for name in fields if name not in values)
        raise CaseSemanticError(f"{what}: missing field {missing!r}")
    try:
        return make(values)
    except (TypeError, ValueError) as exc:
        raise CaseSemanticError(f"{what}: {exc}") from exc


def _make_bus(v) -> Bus:
    return Bus(
        id=int(v["id"]), kind=BusKind(v["kind"]),
        v_mag=float(v["v_mag"]), v_ang=float(v["v_ang"]),
        p_load=float(v["p_load"]), q_load=float(v["q_load"]),
        g_shunt=float(v["g_shunt"]), b_shunt=float(v["b_shunt"]),
        v_min=float(v["v_min"]), v_max=float(v["v_max"]),
    )


def _make_branch(v) -> Branch:
    if not isinstance(v["in_service"], bool):
        raise ValueError("in_service must be a boolean")
    return Branch(
        id=int(v["id"]), from_bus=int(v["from_bus"]), to_bus=int(v["to_bus"]),
        r=float(v["r"]), x=float(v["x"]), b_charge=float(v["b_charge"]),
        s_max=float(v["s_max"]), in_service=v["in_service"],
    )


def _make_generator(v) -> Generator:
    return Generator(
        id=int(v["id"]), bus=int(v["bus"]),
        p_gen=float(v["p_gen"]), q_gen=float(v["q_gen"]),
        p_min=float(v["p_min"]), p_max=float(v["p_max"]),
        q_min=float(v["q_min"]), q_max=float(v["q_max"]),
        v_set=float(v["v_set"]), plant=int(v["plant"]),
    )


def _make_plant(v) -> Plant:
    return Plant(id=int(v["id"]), name=str(v["name"]),
                 generators=tuple(int(g) for g in v["generators"]))


def _case_document(case: GridCase) -> dict[str, Any]:
    """The JSON document of a case, in the field order of the case file."""
    return {
        "base_mva": case.base_mva,
        "buses": [
            {"id": b.id, "kind": b.kind.value, "v_mag": b.v_mag, "v_ang": b.v_ang,
             "p_load": b.p_load, "q_load": b.q_load, "g_shunt": b.g_shunt,
             "b_shunt": b.b_shunt, "v_min": b.v_min, "v_max": b.v_max}
            for b in case.buses
        ],
        "branches": [
            {"id": b.id, "from_bus": b.from_bus, "to_bus": b.to_bus, "r": b.r,
             "x": b.x, "b_charge": b.b_charge, "s_max": b.s_max,
             "in_service": b.in_service}
            for b in case.branches
        ],
        "generators": [
            {"id": g.id, "bus": g.bus, "p_gen": g.p_gen, "q_gen": g.q_gen,
             "p_min": g.p_min, "p_max": g.p_max, "q_min": g.q_min,
             "q_max": g.q_max, "v_set": g.v_set, "plant": g.plant}
            for g in case.generators
        ],
        "plants": [
            {"id": p.id, "name": p.name, "generators": list(p.generators)}
            for p in case.plants
        ],
        "monitored_buses": list(case.monitored_buses),
        "monitored_branches": list(case.monitored_branches),
    }


def serialize_case(case: GridCase) -> str:
    """Emit the canonical case-file text; exact inverse of :func:`parse_case`.

    Every value goes through ``json.dumps`` without ``indent``, which keeps
    it on CPython's C encoder; the layout is in the module docstring.
    """
    lines = []
    for key, value in _case_document(case).items():
        if key in _RECORD_KEYS and value:
            records = ",\n".join("    " + json.dumps(record) for record in value)
            lines.append(f'  "{key}": [\n{records}\n  ]')
        else:
            lines.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


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
_CASE_FIELDS = tuple(f.name for f in fields(GridCase))


def _copy_with(component, **changes):
    """``replace(component, **changes)`` for a bus or generator, whose
    dataclass has no ``__post_init__``; skips the frozen ``__init__``."""
    new = object.__new__(type(component))
    new.__dict__.update(component.__dict__, **changes)
    return new


def _derived(case: GridCase, **changes) -> GridCase:
    """``replace(case, **changes)`` without re-running the full validation.

    Only for changes the caller has already checked with the checks and
    messages of :func:`_validate`: every other invariant holds because
    ``case`` passed validation.
    """
    source = case.__dict__
    state = {name: source[name] for name in _CASE_FIELDS}
    state.update(changes)
    for name in _TOPOLOGY_CACHES:
        if name in source:
            state[name] = source[name]
    new = object.__new__(GridCase)
    new.__dict__.update(state)
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
