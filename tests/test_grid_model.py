"""Case model: parsing, serialization, validation, derived admittances."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsac.grid_model import (Branch, Bus, BusKind, CaseSemanticError,
                                CaseSyntaxError, Generator, GridCase, Plant,
                                bundled_case, bundled_case_names,
                                _case_document, derive_admittance_params,
                                parse_case, rebase, serialize_case,
                                with_generation, with_loads,
                                with_plant_setpoints)

from conftest import make_two_bus

MINIMAL_TWO_BUS = """
{
  "base_mva": 100.0,
  "buses": [
    {"id": 1, "kind": "Slack"},
    {"id": 2, "kind": "PQ", "p_load": 0.5, "q_load": 0.1}
  ],
  "branches": [
    {"id": 1, "from_bus": 1, "to_bus": 2, "r": 0.01, "x": 0.05}
  ],
  "generators": [],
  "plants": [],
  "monitored_buses": [1, 2],
  "monitored_branches": [1]
}
"""


def test_parse_minimal_case():
    case = parse_case(MINIMAL_TWO_BUS)
    assert case.n_buses == 2
    assert case.n_branches == 1
    assert case.bus_by_id[1].kind is BusKind.SLACK
    assert case.bus_by_id[2].p_load == 0.5
    # defaults fill in
    assert case.bus_by_id[1] == Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, v_ang=0.0,
                                    p_load=0.0, q_load=0.0, g_shunt=0.0, b_shunt=0.0,
                                    v_min=0.97, v_max=1.07)
    assert case.branch_by_id[1] == Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.05,
                                          b_charge=0.0, s_max=1.0, in_service=True)
    assert case.branch_by_id[1].in_service is True


def test_parse_syntax_error_reports_position():
    with pytest.raises(CaseSyntaxError) as exc:
        parse_case('{"base_mva": 100.0,\n  "buses": [}')
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["buses"].append({"id": 3, "kind": "Slack"}), "slack"),
    (lambda d: d["buses"][0].update(kind="PQ"), "missing slack"),
    (lambda d: d["branches"][0].update(to_bus=99), "dangling"),
    (lambda d: d["branches"][0].update(x=0.0), "zero reactance"),
    (lambda d: d["branches"][0].update(r=-0.1), "negative resistance"),
    (lambda d: d["buses"][0].update(v_min=1.1, v_max=1.0), "v_min"),
    (lambda d: d.update(monitored_buses=[1, 2, 7]), "monitored bus"),
    (lambda d: d["buses"][0].update(frequency=50), "unknown fields"),
])
def test_parse_semantic_errors(mutate, fragment):
    doc = json.loads(MINIMAL_TWO_BUS)
    mutate(doc)
    with pytest.raises(CaseSemanticError) as exc:
        parse_case(json.dumps(doc))
    assert fragment in str(exc.value)


def _parse_error(doc) -> str:
    with pytest.raises(CaseSemanticError) as exc:
        parse_case(json.dumps(doc))
    return str(exc.value)


def _minimal(**edits):
    doc = json.loads(MINIMAL_TWO_BUS)
    doc.update(edits)
    return doc


def test_reader_messages_at_document_level():
    assert _parse_error([1, 2]) == "case document must be an object"
    assert (_parse_error(_minimal(zone="north", area=3))
            == "unknown top-level keys: ['area', 'zone']")
    doc = _minimal()
    del doc["monitored_branches"], doc["plants"], doc["base_mva"]
    assert (_parse_error(doc)
            == "missing top-level keys: ['base_mva', 'plants', 'monitored_branches']")


@pytest.mark.parametrize("key, record, message", [
    ("buses", [1, "Slack"], "each bus must be an object"),
    ("branches", None, "each branch must be an object"),
    ("plants", "p", "each plant must be an object"),
    ("buses", {"p_load": 0.1}, "bus: missing field 'id'"),
    ("buses", {"id": 3, "v_min": 0.9}, "bus: missing field 'kind'"),
    ("branches", {"id": 2, "from_bus": 1, "x": 0.1},
     "branch: missing field 'to_bus'"),
    ("generators", {"id": 1, "bus": 1, "q_gen": 0.0, "v_set": 1.0},
     "generator: missing field 'p_gen'"),
    ("plants", {"id": 1, "name": "a"}, "plant: missing field 'generators'"),
    ("buses", {"id": 3, "kind": "Swing"}, "bus: 'Swing' is not a valid BusKind"),
    ("buses", {"id": 3, "kind": "PQ", "p_load": None},
     "bus: float() argument must be a string or a real number, not 'NoneType'"),
    ("branches", {"id": 2, "from_bus": 1, "to_bus": 2, "r": 0.0, "x": 0.1,
                  "in_service": 1}, "branch: in_service must be a boolean"),
    ("generators", {"id": 1, "bus": 1, "p_gen": "high", "q_gen": 0.0, "p_min": 0.0,
                    "p_max": 1.0, "q_min": -1.0, "q_max": 1.0, "v_set": 1.0,
                    "plant": 1},
     "generator: could not convert string to float: 'high'"),
    ("plants", {"id": 1, "name": "a", "generators": 5},
     "plant: 'int' object is not iterable"),
])
def test_reader_messages_per_record(key, record, message):
    assert _parse_error(_minimal(**{key: [record]})) == message


def test_infinite_voltage_limit_roundtrips():
    case = make_two_bus()
    case = replace(case, buses=(replace(case.buses[0], v_max=float("inf")),
                                case.buses[1]))
    text = serialize_case(case)
    assert '"v_max": Infinity' in text
    assert parse_case(text) == case


def test_non_ascii_plant_name_roundtrips():
    case = make_two_bus()
    case = replace(case, plants=(replace(case.plants[0], name="Kraftwerk Süd 北"),))
    text = serialize_case(case)
    assert text.isascii()
    assert parse_case(text).plants[0].name == "Kraftwerk Süd 北"
    assert parse_case(text) == case


def test_two_slack_buses_rejected():
    doc = json.loads(MINIMAL_TWO_BUS)
    doc["buses"][1]["kind"] = "Slack"
    with pytest.raises(CaseSemanticError, match="multiple slack"):
        parse_case(json.dumps(doc))


def test_disconnected_bus_rejected():
    doc = json.loads(MINIMAL_TWO_BUS)
    doc["buses"].append({"id": 3, "kind": "PQ"})
    with pytest.raises(CaseSemanticError, match="disconnected"):
        parse_case(json.dumps(doc))


def test_out_of_service_branch_breaks_connectivity():
    doc = json.loads(MINIMAL_TWO_BUS)
    doc["branches"][0]["in_service"] = False
    with pytest.raises(CaseSemanticError, match="disconnected"):
        parse_case(json.dumps(doc))


def test_plant_membership_validated():
    case = make_two_bus()
    with pytest.raises(CaseSemanticError, match="no generators"):
        GridCase(base_mva=case.base_mva, buses=case.buses, branches=case.branches,
                 generators=case.generators,
                 plants=case.plants + (Plant(id=9, name="empty", generators=()),),
                 monitored_buses=case.monitored_buses,
                 monitored_branches=case.monitored_branches)


def test_roundtrip_two_bus(two_bus):
    assert parse_case(serialize_case(two_bus)) == two_bus


def test_roundtrip_single_bus_without_branches():
    case = GridCase(base_mva=50.0,
                    buses=(Bus(id=7, kind=BusKind.SLACK, p_load=0.25),),
                    branches=(), generators=(), plants=(),
                    monitored_buses=(7,), monitored_branches=())
    text = serialize_case(case)
    assert '  "branches": [],' in text.splitlines()
    assert parse_case(text) == case


def test_bundled_cases_listed_and_valid():
    names = bundled_case_names()
    assert "case3" in names and "case14" in names
    for name in names:
        case = bundled_case(name)
        assert case.n_buses >= 3
    assert len(bundled_case("case14").plants) >= 2


def test_every_bundled_case_matches_golden_text():
    # Each shipped file is the canonical serialization; re-serializing the
    # parsed case must reproduce it byte for byte.
    for name in bundled_case_names():
        text = (resources.files("gridsac") / "cases" / f"{name}.json").read_text()
        assert serialize_case(parse_case(text)) == text, name


def test_case_file_has_one_record_per_line(case3):
    lines = serialize_case(case3).splitlines()
    assert lines[:3] == ['{', '  "base_mva": 100.0,', '  "buses": [']
    assert lines[3] == "    " + json.dumps(_case_document(case3)["buses"][0]) + ","
    assert lines[-3:] == ['  "monitored_buses": [1, 2, 3],',
                          '  "monitored_branches": [1, 2, 3]', '}']


@pytest.mark.parametrize("name", bundled_case_names())
def test_serialized_text_loads_to_its_document(name):
    case = bundled_case(name)
    assert json.loads(serialize_case(case)) == _case_document(case)


@pytest.mark.parametrize("name", bundled_case_names())
def test_indented_case_file_still_loads(name):
    # The layout older versions wrote; JSON whitespace is free on read.
    case = bundled_case(name)
    old_layout = json.dumps(json.loads(serialize_case(case)), indent=2)
    assert parse_case(old_layout) == case


def test_torn_case_file_is_a_syntax_error(case14):
    # A file cut at any line boundary before its closing brace (a crash
    # during save_case) fails to load, and the error names a line.
    text = serialize_case(case14)
    closing = text.rindex("}")
    cuts = [0] + [i + 1 for i, ch in enumerate(text[:closing]) if ch == "\n"]
    assert len(cuts) == text.count("\n")
    for cut in cuts:
        with pytest.raises(CaseSyntaxError) as exc:
            parse_case(text[:cut])
        assert exc.value.line is not None and "line" in str(exc.value)


def test_unknown_bundled_case():
    with pytest.raises(KeyError):
        bundled_case("case999")


# --- derived admittance -------------------------------------------------------

def test_admittance_lossless_line():
    g, b = derive_admittance_params(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1))
    assert g == 0.0
    assert b == pytest.approx(-10.0, abs=1e-12)


def test_admittance_direct_formula():
    g, b = derive_admittance_params(Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1))
    assert g == pytest.approx(0.01 / 0.0101, rel=1e-12)
    assert b == pytest.approx(-0.1 / 0.0101, rel=1e-12)


def test_admittance_zero_impedance_rejected():
    with pytest.raises(ValueError, match="zero series impedance"):
        derive_admittance_params(Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.0))


# --- per-unit rebase ------------------------------------------------------------

def test_rebase_same_base_is_identity(case14):
    assert rebase(case14, case14.base_mva) == case14


def test_rebase_roundtrip(case3):
    other = rebase(case3, 37.5)
    assert other.bus_by_id[3].p_load == pytest.approx(0.9 * 100.0 / 37.5)
    back = rebase(other, 100.0)
    for original, returned in zip(case3.buses, back.buses):
        assert returned.p_load == pytest.approx(original.p_load, rel=1e-12)
    for original, returned in zip(case3.branches, back.branches):
        assert returned.x == pytest.approx(original.x, rel=1e-12)


def test_with_plant_setpoints_immutable(case3):
    before = serialize_case(case3)
    derived = with_plant_setpoints(case3, {1: 1.05})
    assert derived.generator_by_id[1].v_set == 1.05
    assert derived.generator_by_id[2].v_set == case3.generator_by_id[2].v_set
    assert serialize_case(case3) == before
    with pytest.raises(KeyError):
        with_plant_setpoints(case3, {42: 1.0})


# --- property: generated cases round-trip and validate --------------------------

finite_load = st.floats(min_value=-2.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False)


@st.composite
def grid_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    bus_ids = list(range(1, n + 1))
    slack = draw(st.sampled_from(bus_ids))
    pv = draw(st.sets(st.sampled_from(bus_ids), max_size=n - 1))
    pv.discard(slack)
    buses = tuple(
        Bus(id=i,
            kind=BusKind.SLACK if i == slack else (BusKind.PV if i in pv else BusKind.PQ),
            p_load=draw(finite_load), q_load=draw(finite_load),
            g_shunt=draw(st.floats(0, 0.5)), b_shunt=draw(finite_load))
        for i in bus_ids
    )
    # spanning tree keeps the case connected, then optional extra edges
    branches = []
    for k, i in enumerate(bus_ids[1:], start=1):
        parent = draw(st.sampled_from(bus_ids[:k]))
        branches.append(Branch(id=k, from_bus=parent, to_bus=i,
                               r=draw(st.floats(0.0, 0.2)),
                               x=draw(st.floats(0.01, 0.5)),
                               b_charge=draw(st.floats(0.0, 0.1)),
                               s_max=draw(st.floats(0.1, 5.0))))
    gens = []
    plants = []
    for k, bus_id in enumerate(sorted(pv | {slack}), start=1):
        gens.append(Generator(id=k, bus=bus_id, p_gen=0.0, q_gen=0.0,
                              p_min=-1.0, p_max=1.0, q_min=-1.0, q_max=1.0,
                              v_set=draw(st.floats(0.95, 1.05)), plant=k))
        plants.append(Plant(id=k, name=f"p{k}", generators=(k,)))
    return GridCase(base_mva=draw(st.floats(1.0, 1000.0)), buses=buses,
                    branches=tuple(branches), generators=tuple(gens),
                    plants=tuple(plants), monitored_buses=tuple(bus_ids),
                    monitored_branches=tuple(b.id for b in branches))


@given(grid_cases())
@settings(max_examples=60, deadline=None)
def test_generated_cases_roundtrip_exactly(case):
    # construction already enforced the invariants; serialization is lossless
    recovered = parse_case(serialize_case(case))
    assert recovered == case
    assert math.isclose(rebase(case, case.base_mva).base_mva, case.base_mva)


@given(grid_cases())
@settings(max_examples=60, deadline=None)
def test_generated_case_text_loads_to_its_document(case):
    assert json.loads(serialize_case(case)) == _case_document(case)


@given(grid_cases(), st.floats(min_value=10.0, max_value=500.0))
@settings(max_examples=30, deadline=None)
def test_rebase_scales_power_quantities(case, new_base):
    scaled = rebase(case, new_base)
    ratio = case.base_mva / new_base
    for b0, b1 in zip(case.buses, scaled.buses):
        assert np.isclose(b1.p_load, b0.p_load * ratio)
    for br0, br1 in zip(case.branches, scaled.branches):
        assert np.isclose(br1.r, br0.r / ratio)


# --- property: with_* derivations validate like construction -------------------

special = st.sampled_from([float("nan"), float("inf"), -float("inf")])
CACHED = ("bus_order", "bus_position", "bus_by_id", "branch_by_id", "generator_by_id",
          "plant_by_id", "plant_order", "generators_at_bus", "slack_bus")


def _assert_same_outcome(derive, build):
    """``derive()`` raises exactly when ``build()`` (full validation through
    the ``GridCase`` constructor) raises, with the same class and message,
    and otherwise returns an equal case with equal cached views."""
    try:
        expected = build()
    except CaseSemanticError as exc:
        with pytest.raises(CaseSemanticError) as got:
            derive()
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    derived = derive()
    assert derived == expected
    for name in CACHED:
        assert getattr(derived, name) == getattr(expected, name)


def _warm(case):
    # Fill the source's caches, so derivations carry what they may carry.
    for name in CACHED:
        getattr(case, name)
    return case


@given(grid_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_with_plant_setpoints_validates_like_construction(case, data):
    case = _warm(case)
    plants = data.draw(st.lists(st.sampled_from(case.plant_order), unique=True))
    setpoints = {pid: data.draw(st.one_of(special, st.floats(0.85, 1.15)))
                 for pid in plants}
    _assert_same_outcome(
        lambda: with_plant_setpoints(case, setpoints),
        lambda: replace(case, generators=tuple(
            replace(g, v_set=setpoints[g.plant]) if g.plant in setpoints else g
            for g in case.generators)))


@given(grid_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_with_loads_validates_like_construction(case, data):
    case = _warm(case)
    ids = [b.id for b in case.buses]
    load = st.one_of(special, finite_load)
    p_load = data.draw(st.dictionaries(st.sampled_from(ids), load))
    q_load = data.draw(st.one_of(st.none(), st.dictionaries(st.sampled_from(ids), load)))
    _assert_same_outcome(
        lambda: with_loads(case, p_load, q_load),
        lambda: replace(case, buses=tuple(
            replace(b, p_load=p_load.get(b.id, b.p_load),
                    q_load=(q_load or {}).get(b.id, b.q_load))
            for b in case.buses)))


@given(grid_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_with_generation_validates_like_construction(case, data):
    case = _warm(case)
    ids = [g.id for g in case.generators]
    p_gen = data.draw(st.dictionaries(st.sampled_from(ids),
                                      st.one_of(special, st.floats(-1.5, 1.5))))
    _assert_same_outcome(
        lambda: with_generation(case, p_gen),
        lambda: replace(case, generators=tuple(
            replace(g, p_gen=p_gen.get(g.id, g.p_gen)) for g in case.generators)))
