"""Case model: parsing, serialization, validation, derived admittances."""

import json
import math
import sys
import threading
from dataclasses import asdict, fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsac import grid_model
from gridsac.grid_model import (V_SET_MAX, V_SET_MIN, Branch, Bus, BusKind,
                                CaseError, CaseSemanticError, CaseSyntaxError, Generator,
                                GridCase, Plant, bundled_case, bundled_case_names,
                                from_json, load_case, parse_case, serialize_case,
                                with_generation, with_loads,
                                with_plant_setpoints)
from gridsac.harness import SnapshotGenSpec, generate_snapshots, snapshot_paths
from gridsac.power_flow import compile_grid

from conftest import make_three_bus, make_two_bus

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

CASE14_TEXT = (resources.files("gridsac") / "cases" / "case14.json").read_text()


@pytest.fixture
def warm_parse_memo():
    """The parse memo after a good case14 load, as in a run that has loaded
    its base case: error tests then show that a warm memo changes no error."""
    parse_case(CASE14_TEXT)


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


def test_parse_syntax_error_reports_position(warm_parse_memo):
    with pytest.raises(CaseSyntaxError) as exc:
        parse_case('{"base_mva": 100.0,\n  "buses": [}')
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["buses"].append({"id": 3, "kind": "Slack"}), "slack"),
    (lambda d: d["buses"][0].update(kind="PQ"), "missing slack"),
    (lambda d: d["branches"][0].update(to_bus=99), "dangling"),
    (lambda d: d["branches"][0].update(x=0.0), "zero reactance"),
    # x != 0, but r^2 + x^2 underflows to 0.
    (lambda d: d["branches"][0].update(r=0.0, x=1e-200), "zero series impedance"),
    (lambda d: d["branches"][0].update(r=-0.1), "negative resistance"),
    (lambda d: d["buses"][0].update(v_min=1.1, v_max=1.0), "v_min"),
    (lambda d: d.update(monitored_buses=[1, 2, 7]), "monitored bus"),
    (lambda d: d.update(monitored_buses=[1, 2, 1]), "monitored_buses lists 1 more than once"),
    (lambda d: d.update(monitored_buses=[2, 2]), "monitored_buses lists 2 more than once"),
    (lambda d: d.update(monitored_branches=[1, 1]),
     "monitored_branches lists 1 more than once"),
    (lambda d: d["buses"][0].update(frequency=50), "unknown Bus keys"),
])
def test_parse_semantic_errors(mutate, fragment, warm_parse_memo):
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


def test_reader_messages_at_document_level(warm_parse_memo):
    assert _parse_error([1, 2]) == "GridCase must be a JSON object"
    assert (_parse_error(_minimal(zone="north", area=3))
            == "unknown GridCase keys: area, zone")
    doc = _minimal()
    del doc["monitored_branches"], doc["plants"], doc["base_mva"]
    assert (_parse_error(doc)
            == "missing GridCase keys: base_mva, plants, monitored_branches")


@pytest.mark.parametrize("key, record, message", [
    ("buses", [1, "Slack"], "Bus must be a JSON object"),
    ("branches", None, "Branch must be a JSON object"),
    ("plants", "p", "Plant must be a JSON object"),
    ("buses", {"p_load": 0.1}, "missing Bus keys: id, kind"),
    ("buses", {"id": 3, "v_min": 0.9}, "missing Bus keys: kind"),
    ("branches", {"id": 2, "from_bus": 1, "x": 0.1},
     "missing Branch keys: to_bus, r"),
    ("generators", {"id": 1, "bus": 1, "q_gen": 0.0, "v_set": 1.0},
     "missing Generator keys: p_gen, p_min, p_max, q_min, q_max, plant"),
    ("plants", {"id": 1, "name": "a"}, "missing Plant keys: generators"),
    ("buses", {"id": 3, "kind": "Swing"},
     'Bus key kind must be one of "Slack", "PV", "PQ", not "Swing"'),
    ("buses", {"id": 3, "kind": "PQ", "p_load": None},
     "Bus key p_load must be a number, not null"),
    ("branches", {"id": 2, "from_bus": 1, "to_bus": 2, "r": 0.0, "x": 0.1,
                  "in_service": 1}, "Branch key in_service must be true or false, not 1"),
    ("generators", {"id": 1, "bus": 1, "p_gen": "high", "q_gen": 0.0, "p_min": 0.0,
                    "p_max": 1.0, "q_min": -1.0, "q_max": 1.0, "v_set": 1.0,
                    "plant": 1},
     'Generator key p_gen must be a number, not "high"'),
    ("plants", {"id": 1, "name": "a", "generators": 5},
     "Plant key generators must be a list, not 5"),
    ("buses", {"id": 3, "kind": "PQ", "zone": 1, "area": 2}, "unknown Bus keys: area, zone"),
    ("plants", {"id": 1, "name": "a", "generators": [1, "2"]},
     'Plant key generators[1] must be an integer, not "2"'),
], ids=["bus-list", "branch-null", "plant-string", "bus-missing-id", "bus-missing-kind",
        "branch-missing-to_bus", "generator-missing-p_gen", "plant-missing-generators",
        "bus-unknown-kind", "bus-null-p_load", "branch-integer-in_service",
        "generator-string-p_gen", "plant-integer-generators", "bus-unknown-keys",
        "plant-string-generator-item"])
def test_reader_messages_per_record(key, record, message, warm_parse_memo):
    assert _parse_error(_minimal(**{key: [record]})) == message


def _case14_with(edit):
    doc = json.loads(serialize_case(bundled_case("case14")))
    edit(doc)
    return json.dumps(doc)


# No value may be coerced (2.7 to bus 2, "1.05" to 1.05, "12" to plants 1
# and 2) or fail outside CaseError (TypeError, OverflowError).
@pytest.mark.parametrize("edit, record, key", [
    (lambda d: d["buses"][1].update(id=2.7), "Bus", "id"),
    (lambda d: d["generators"][1].update(plant=1.9), "Generator", "plant"),
    (lambda d: d.update(monitored_buses=[2.5, 3]), "GridCase", "monitored_buses[0]"),
    (lambda d: d["buses"][1].update(v_mag="1.05"), "Bus", "v_mag"),
    (lambda d: d["buses"][1].update(p_load=True), "Bus", "p_load"),
    (lambda d: d["plants"][0].update(name=5), "Plant", "name"),
    (lambda d: d.update(monitored_buses=5), "GridCase", "monitored_buses"),
    (lambda d: d.update(buses=7), "GridCase", "buses"),
    (lambda d: d["plants"][0].update(generators="12"), "Plant", "generators"),
    (lambda d: d["buses"][1].update(p_load=10 ** 400), "Bus", "p_load"),
    (lambda d: d["generators"][0].update(v_set=None), "Generator", "v_set"),
], ids=["float-bus-id", "float-plant-ref", "float-monitored-bus", "string-v_mag",
        "true-p_load", "integer-plant-name", "integer-monitored-buses",
        "integer-buses", "string-plant-generators", "overflowing-p_load", "null-v_set"])
def test_value_of_the_wrong_json_type_is_refused(edit, record, key, warm_parse_memo):
    with pytest.raises(CaseSemanticError) as exc:
        parse_case(_case14_with(edit))
    assert str(exc.value).startswith(f"{record} key {key} must be ")


def test_integer_beyond_the_digit_limit_is_a_syntax_error(warm_parse_memo):
    # json.loads raises a plain ValueError for it, not a JSONDecodeError.
    text = MINIMAL_TWO_BUS.replace('"p_load": 0.5', '"p_load": ' + "9" * 5000)
    with pytest.raises(CaseSyntaxError, match="digits"):
        parse_case(text)


def test_integers_load_as_floats():
    case = parse_case(_case14_with(lambda d: d["buses"][1].update(p_load=1)))
    assert type(case.buses[1].p_load) is float and case.buses[1].p_load == 1.0


def test_record_keys_are_the_dataclass_fields(case14):
    # serialize_case writes each record as vars(record).
    derived = with_generation(with_loads(with_plant_setpoints(case14, {1: 1.04}), {2: 0.3}),
                              {1: 1.0})
    for case in (case14, derived):
        for record in (*case.buses, *case.branches, *case.generators, *case.plants):
            assert list(vars(record)) == [f.name for f in fields(record)]


def test_records_are_built_in_field_order_from_any_key_order():
    # Keys reversed and the default voltage limits left out: the records still
    # hold their fields in field order, so the text written back is canonical.
    text = (resources.files("gridsac") / "cases" / "case14.json").read_text()
    doc = json.loads(text)
    for key in ("buses", "branches", "generators", "plants"):
        doc[key] = [dict(reversed(record.items())) for record in doc[key]]
    for bus in doc["buses"]:
        assert (bus.pop("v_min"), bus.pop("v_max")) == (0.97, 1.07)
    case = parse_case(json.dumps(dict(reversed(doc.items()))))
    for record in (*case.buses, *case.branches, *case.generators, *case.plants):
        assert list(vars(record)) == [f.name for f in fields(record)]
    assert serialize_case(case) == text


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
    assert lines[3] == "    " + json.dumps(asdict(case3.buses[0])) + ","
    assert lines[-3:] == ['  "monitored_buses": [1, 2, 3],',
                          '  "monitored_branches": [1, 2, 3]', '}']


# --- serializer oracle: the per-record writer serialize_case replaced ----------

RECORD_LISTS = ("buses", "branches", "generators", "plants")


def per_record_text(case):
    """The case-file text as one ``json.dumps`` per record and per inline
    value wrote it; ``serialize_case`` must write the same bytes."""
    lines = []
    for f in fields(GridCase):
        value = getattr(case, f.name)
        if f.name in RECORD_LISTS and value:
            records = ",\n".join("    " + json.dumps(vars(record)) for record in value)
            lines.append(f'  "{f.name}": [\n{records}\n  ]')
        else:
            lines.append(f'  "{f.name}": {json.dumps(value)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def one_plant_of_two_generators(name):
    """Three buses, both generators in one plant named ``name``, so the
    plant's ``generators`` array has two items."""
    case = make_three_bus()
    return replace(case,
                   generators=tuple(replace(g, plant=1) for g in case.generators),
                   plants=(Plant(id=1, name=name, generators=(1, 2)),))


AWKWARD_NAMES = ["a}, {b", 'a",\n"b', 'a}, {b,\n"x\u00e9\\', 'say "hi"', "back\\slash\\",
                 "ctl \x00\x01\x1f\t\r\n\x7f", "Kraftwerk S\u00fcd \u5317 \U0001f50c", "{", "},", ""]


@pytest.mark.parametrize("name", AWKWARD_NAMES)
def test_serializer_matches_the_per_record_writer_on_awkward_plant_names(name):
    case = one_plant_of_two_generators(name)
    text = serialize_case(case)
    assert text == per_record_text(case)
    assert parse_case(text) == case


def test_serializer_matches_the_per_record_writer_on_extreme_floats():
    case = make_three_bus()
    buses = (replace(case.buses[0], v_ang=-0.0, g_shunt=1e-300, v_max=float("inf")),
             replace(case.buses[1], p_load=1e300, q_load=-1e-300, b_shunt=-0.0),
             case.buses[2])
    branches = (replace(case.branches[0], b_charge=1e-300, s_max=1e300),
                *case.branches[1:])
    generators = (replace(case.generators[0], p_gen=-0.0, q_min=-1e300, q_max=1e300),
                  case.generators[1])
    case = replace(case, base_mva=1e300, buses=buses, branches=branches,
                   generators=generators)
    text = serialize_case(case)
    assert text == per_record_text(case)
    for literal in ('"v_ang": -0.0', "1e-300", "1e+300", '"p_gen": -0.0', "Infinity"):
        assert literal in text
    assert parse_case(text) == case


def test_serializer_matches_the_per_record_writer_on_empty_record_lists():
    case = GridCase(base_mva=50.0, buses=(Bus(id=7, kind=BusKind.SLACK),),
                    branches=(), generators=(), plants=(),
                    monitored_buses=(), monitored_branches=())
    assert serialize_case(case) == per_record_text(case)


@pytest.mark.parametrize("name", bundled_case_names())
def test_serializer_matches_the_per_record_writer_on_bundled_cases(name):
    case = bundled_case(name)
    assert serialize_case(case) == per_record_text(case)


def test_serializer_matches_the_per_record_writer_on_generated_snapshots(tmp_path):
    spec = SnapshotGenSpec(base_case_path="src/gridsac/cases/case14.json",
                           output_dir=str(tmp_path), n_snapshots=8,
                           setpoint_jitter=0.2, seed=3)
    for path in snapshot_paths(generate_snapshots(spec)):
        case = load_case(path)
        assert path.read_text() == serialize_case(case) == per_record_text(case)


# --- serialize_case's memo: a field's line is reused while it is the same tuple --

def test_memo_reuses_the_base_lines_for_drawn_candidates(case14):
    rng = np.random.default_rng(5)
    assert serialize_case(case14) == per_record_text(case14)
    for _ in range(50):
        loads = {b.id: b.p_load * rng.uniform(0.5, 1.5) for b in case14.buses}
        setpoints = {pid: rng.uniform(V_SET_MIN, V_SET_MAX) for pid in case14.plant_order}
        case = with_plant_setpoints(with_loads(case14, loads), setpoints)
        assert case.branches is case14.branches and case.plants is case14.plants
        assert serialize_case(case) == per_record_text(case)
    # The shared fields hit their entries, so the entries still hold the base's tuples.
    for name in ("branches", "plants", "monitored_buses", "monitored_branches"):
        assert grid_model._LINE_MEMO[name][0] is getattr(case14, name)


def test_memo_follows_two_bases_serialized_in_turn(case3, case14):
    for case in (case3, case14, case3, case3, case14, case14, case3):
        assert serialize_case(case) == per_record_text(case)


def test_memo_tells_equal_tuples_apart_by_identity():
    case = make_three_bus()
    signed = tuple(replace(br, b_charge=-0.0) for br in case.branches)
    other = replace(case, branches=signed)
    assert signed == case.branches and signed is not case.branches
    for c in (case, other, case):
        assert serialize_case(c) == per_record_text(c)
    assert '"b_charge": -0.0' in serialize_case(other)


def test_memo_does_not_remember_a_list_that_changes_between_calls():
    case = replace(make_three_bus(), monitored_buses=[1, 2, 3])
    assert serialize_case(case) == per_record_text(case)
    case.monitored_buses[:] = [3, 1]
    assert serialize_case(case) == per_record_text(case)
    assert '  "monitored_buses": [3, 1],' in serialize_case(case).splitlines()


# --- parse_case's memo: a field's value is reused while its text is unchanged ---

SHARED_FIELDS = ("branches", "plants", "monitored_buses", "monitored_branches")


def canonical_layout(doc):
    """The JSON document ``doc`` as text in serialize_case's layout, one
    top-level key and one record per line, whatever its values hold."""
    lines = []
    for key, value in doc.items():
        if key in RECORD_LISTS and isinstance(value, list) and value:
            records = ",\n".join("    " + json.dumps(record) for record in value)
            lines.append(f'  "{key}": [\n{records}\n  ]')
        else:
            lines.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def assert_read_as_the_generic_path(case, text):
    assert case == from_json(GridCase, json.loads(text))
    assert serialize_case(case) == text


def test_parse_memo_shares_the_base_fields_with_generated_snapshots(tmp_path):
    spec = SnapshotGenSpec(base_case_path="src/gridsac/cases/case14.json",
                           output_dir=str(tmp_path), n_snapshots=50, seed=9)
    paths = snapshot_paths(generate_snapshots(spec))
    assert len(paths) == 50
    cases = [parse_case(CASE14_TEXT)]
    assert_read_as_the_generic_path(cases[0], CASE14_TEXT)
    for path in paths:
        cases.append(load_case(path))
        assert_read_as_the_generic_path(cases[-1], path.read_text())
    # Every load hit the shared fields' entries, which still hold case14's tuples.
    for name in SHARED_FIELDS:
        assert grid_model._PARSE_MEMO[name][1] is getattr(cases[0], name)
        assert all(getattr(case, name) is getattr(cases[0], name) for case in cases)
    assert cases[1].buses != cases[2].buses


def test_parse_memo_follows_two_cases_read_in_turn():
    texts = {name: (resources.files("gridsac") / "cases" / f"{name}.json").read_text()
             for name in ("case3", "case14")}
    for name in ("case3", "case14", "case3", "case3", "case14", "case14", "case3"):
        assert_read_as_the_generic_path(parse_case(texts[name]), texts[name])


def test_parse_memo_tells_equal_values_apart_by_text():
    case = make_three_bus()
    signed = replace(case, branches=(case.branches[0],
                                     replace(case.branches[1], b_charge=-0.0),
                                     case.branches[2]))
    plain_text, signed_text = serialize_case(case), serialize_case(signed)
    assert signed_text.replace('"b_charge": -0.0', '"b_charge": 0.0') == plain_text
    for text, sign in ((plain_text, 1.0), (signed_text, -1.0), (plain_text, 1.0)):
        loaded = parse_case(text)
        assert math.copysign(1.0, loaded.branches[1].b_charge) == sign
        assert_read_as_the_generic_path(loaded, text)


@pytest.mark.parametrize("indent", [2, None])
def test_parse_memo_is_not_used_for_other_layouts(case3, indent):
    # json.dumps writes no final newline, so neither text is canonical.
    parse_case(CASE14_TEXT)
    entries = dict(grid_model._PARSE_MEMO)
    text = json.dumps(json.loads(serialize_case(case3)), indent=indent)
    assert parse_case(text) == from_json(GridCase, json.loads(text)) == case3
    assert all(grid_model._PARSE_MEMO[name] is entries[name] for name in entries)


def test_parse_memo_under_threads_reading_two_cases():
    # More threads than cores and a short switch interval: a thread that read
    # one entry's text with another's value would load a case that does not
    # write back to its own text.
    texts = [(resources.files("gridsac") / "cases" / f"{name}.json").read_text()
             for name in ("case3", "case14")]
    wrong = []

    def load(offset):
        for k in range(100):
            text = texts[(k + offset) % 2]
            if serialize_case(parse_case(text)) != text:
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _edit_document(edit):
    def edited(text):
        doc = json.loads(text)
        edit(doc)
        return canonical_layout(doc)
    return edited


CANONICAL_ERRORS = {
    "syntax-first-value": lambda t: t.replace('"base_mva": 100.0', '"base_mva": 100.0.0'),
    "syntax-record": lambda t: t.replace('"r": ', '"r" ', 1),
    "syntax-last-value": lambda t: t.replace("]\n}\n", "\n}\n"),
    "digit-limit": lambda t: t.replace('"p_load": 0.0', '"p_load": ' + "9" * 5000, 1),
    "float-bus-id": _edit_document(lambda d: d["buses"][1].update(id=2.7)),
    "overflowing-p_load": _edit_document(lambda d: d["buses"][1].update(p_load=10 ** 400)),
    "integer-buses": _edit_document(lambda d: d.update(buses=7)),
    "string-plant-generators": _edit_document(lambda d: d["plants"][0].update(generators="12")),
    "unknown-record-key": _edit_document(lambda d: d["branches"][0].update(zone=1)),
    "missing-record-key": _edit_document(lambda d: d["generators"][0].pop("q_max")),
    "two-slacks": _edit_document(lambda d: d["buses"][1].update(kind="Slack")),
    "dangling-branch": _edit_document(lambda d: d["branches"][0].update(to_bus=99)),
    "repeated-monitored-bus": _edit_document(lambda d: d["monitored_buses"].append(1)),
    "unknown-case-key": _edit_document(lambda d: d.update(zone="north")),
    "missing-case-key": _edit_document(lambda d: d.pop("plants")),
}


def _error_of(text):
    with pytest.raises(CaseError) as info:
        parse_case(text)
    exc = info.value
    return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@pytest.mark.parametrize("edit", CANONICAL_ERRORS.values(), ids=CANONICAL_ERRORS.keys())
def test_parse_memo_raises_what_the_generic_path_raises(edit, warm_parse_memo, monkeypatch):
    text = edit(CASE14_TEXT)
    got = _error_of(text)
    monkeypatch.setattr(grid_model, "_parse_canonical", lambda text: None)
    assert got == _error_of(text)


@pytest.mark.parametrize("name", bundled_case_names())
def test_serialized_text_loads_to_its_document(name):
    case = bundled_case(name)
    assert json.loads(serialize_case(case)) == json.loads(json.dumps(asdict(case)))


@pytest.mark.parametrize("name", bundled_case_names())
def test_indented_case_file_still_loads(name):
    # The layout older versions wrote; JSON whitespace is free on read.
    case = bundled_case(name)
    old_layout = json.dumps(json.loads(serialize_case(case)), indent=2)
    assert parse_case(old_layout) == case


def test_torn_case_file_is_a_syntax_error(case14, warm_parse_memo):
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


# --- derived admittance: the series admittance compile_grid builds --------------

def test_admittance_lossless_line():
    (y,) = compile_grid(make_two_bus(r=0.0, x=0.1)).y_series
    assert y.real == 0.0
    assert y.imag == pytest.approx(-10.0, abs=1e-12)


def test_admittance_direct_formula():
    (y,) = compile_grid(make_two_bus(r=0.01, x=0.1)).y_series
    assert y.real == pytest.approx(0.01 / 0.0101, rel=1e-12)
    assert y.imag == pytest.approx(-0.1 / 0.0101, rel=1e-12)


def test_admittance_zero_impedance_rejected():
    # A case with such a branch is refused before any grid is compiled; the
    # second impedance is not zero, but r^2 + x^2 underflows to zero.
    with pytest.raises(CaseSemanticError, match="zero reactance"):
        make_two_bus(r=0.0, x=0.0)
    with pytest.raises(CaseSemanticError, match="zero series impedance"):
        make_two_bus(r=0.0, x=1e-200)


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


@given(grid_cases(), st.lists(st.text(max_size=8), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_generated_case_text_matches_the_per_record_writer(case, names):
    plants = tuple(replace(p, name=names[i % len(names)]) for i, p in enumerate(case.plants))
    case = replace(case, plants=plants)
    assert serialize_case(case) == per_record_text(case)


@given(grid_cases())
@settings(max_examples=60, deadline=None)
def test_generated_case_text_loads_to_its_document(case):
    assert json.loads(serialize_case(case)) == json.loads(json.dumps(asdict(case)))


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
