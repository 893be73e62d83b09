"""Instance parsing, defaults, validation, and assignment decoding."""

import json
from dataclasses import replace

import pytest

from cvrptw_gas.instance import (
    DOCUMENT_KEYS,
    InstanceError,
    decode_assignment,
    parse_instance,
    serialize_instance,
    six_customer_example,
    time_sentinel,
)


def test_example_matches_published_tables(example6):
    assert example6.n == 6
    assert example6.c_max == 5
    assert example6.q == (0, 2, 3, 1, 3, 2, 3)
    assert example6.D[0] == (0, 23, 30, 23, 14, 20, 26)
    assert example6.D[6] == (26, 36, 32, 12, 31, 33, 0)
    assert example6.D[0][4] == 14
    assert example6.q[4] == 3


def test_example_distance_matrix_is_directional(example6):
    # The matrix is stored exactly as given, including its one asymmetric pair.
    assert example6.D[2][6] == 37
    assert example6.D[6][2] == 32


def test_time_defaults_to_distance():
    inst = parse_instance(
        json.dumps({"n": 2, "c_max": 3, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 2]})
    )
    assert inst.T == inst.D


def test_missing_windows_default_to_sentinel(example6):
    assert example6.windows_vacuous
    sentinel = time_sentinel(6, example6.max_travel)
    assert all(w == (0, sentinel) for w in example6.windows[1:])
    # sentinel covers any achievable clock value
    assert sentinel >= 6 * example6.max_travel


def test_demand_exceeding_capacity_rejected():
    doc = {"n": 2, "c_max": 5, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [6, 1]}
    with pytest.raises(InstanceError, match="capacity"):
        parse_instance(json.dumps(doc))


def test_empty_window_rejected():
    doc = {
        "n": 1,
        "c_max": 2,
        "distance": [[0, 1], [1, 0]],
        "demands": [1],
        "windows": [[5, 3]],
    }
    with pytest.raises(InstanceError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "bad",
    [
        "not json at all",
        json.dumps([1, 2]),
        json.dumps({"n": 2, "c_max": 3, "demands": [1, 1]}),  # no matrix
        json.dumps({"n": 2, "c_max": 3, "distance": [[0, 1], [1, 0]], "demands": [1, 1]}),  # not square side n+1
        json.dumps({"n": 2, "c_max": 3, "distance": [[0, 1, -2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}),
    ],
)
def test_malformed_documents_rejected(bad):
    with pytest.raises(InstanceError):
        parse_instance(bad)


SQUARE2 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"n": 2, "c_max": 3, "distance": SQUARE2, "demands": 5}, "demands must be an array"),
        ({"n": 2, "c_max": 3, "distance": SQUARE2, "demands": [1, 1], "windows": [3, 4]}, "window must be an array"),
        ({"n": 2, "c_max": 3, "distance": SQUARE2, "demands": [1, 1], "windows": [[0, 9, 1], [0, 9]]}, "pair"),
        ({"n": 2, "c_max": 3, "distance": [[0, 1, 2], 7, [2, 1, 0]], "demands": [1, 1]}, "distance row"),
    ],
)
def test_wrong_shapes_rejected(doc, message):
    with pytest.raises(InstanceError, match=message):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"n": 2, "c_max": 3, "distance": [[0, 1, 4.7], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}, "distance entry"),
        ({"n": 2, "c_max": 3, "distance": SQUARE2, "demands": [True, 1]}, "demand"),
        ({"n": 2, "c_max": 3.0, "distance": SQUARE2, "demands": [1, 1]}, "c_max"),
        ({"n": "2", "c_max": 3, "distance": SQUARE2, "demands": [1, 1]}, "n must be an integer"),
        ({"n": 2, "c_max": 3, "distance": SQUARE2, "demands": [1, 1], "windows": [[0, 9.5], [0, 9]]}, "window bound"),
    ],
)
def test_non_integer_values_rejected_not_truncated(doc, message):
    with pytest.raises(InstanceError, match=message):
        parse_instance(json.dumps(doc))


def test_missing_field_and_empty_instance_rejected():
    with pytest.raises(InstanceError, match="missing required field: demands"):
        parse_instance(json.dumps({"n": 1, "c_max": 3, "distance": [[0, 1], [1, 0]]}))
    with pytest.raises(InstanceError, match="at least one customer"):
        parse_instance(json.dumps({"n": 0, "c_max": 3, "distance": [[0]], "demands": []}))


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"n": 0}, r"^instance needs at least one customer$"),
        ({"q": (0, 1, 2)}, r"^demand vector must have a zero depot entry and one value per customer$"),
        ({"windows": ((0, 10),) * 6}, r"^window vector must have one entry per node$"),
    ],
    ids=["no customers", "demands", "windows"],
)
def test_direct_construction_validated(example6, edit, message):
    """An Instance built directly, bypassing the parser, runs the same checks."""
    with pytest.raises(InstanceError, match=message):
        replace(example6, **edit)


def test_serialize_parse_round_trip(example6, mixed4):
    for inst in (example6, mixed4):
        assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize("key", ["window", "Windows", "capacity", ""])
def test_unknown_key_rejected(key):
    """A misspelt optional field is refused, not dropped: read as a document
    without ``windows``, ``"window"`` would give windows that never bind."""
    doc = {"n": 1, "c_max": 2, "distance": [[0, 1], [1, 0]], "demands": [1], key: [[0, 3]]}
    with pytest.raises(InstanceError) as info:
        parse_instance(json.dumps(doc))
    assert repr(key) in str(info.value)
    assert "n, c_max, distance, time, demands, windows" in str(info.value)


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"n": 2, "n": 3, "c_max": 3, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}', "n"),
        ('{"n": 1, "c_max": 2, "distance": [[0, 1], [1, 0]], "demands": [1], "demands": [2]}', "demands"),
        ('{"n": 1, "c_max": 2, "distance": [[0, 1], [1, 0]], "demands": [1], "window": [], "window": []}', "window"),
    ],
    ids=["n", "demands", "window"],
)
def test_repeated_key_rejected(text, key):
    """json.loads alone keeps a repeated key's last value: the first document
    would read as n = 3."""
    with pytest.raises(InstanceError, match=f"repeated key '{key}'"):
        parse_instance(text)


def test_deep_nesting_rejected():
    depth = 100_000
    with pytest.raises(InstanceError, match="nested too deeply"):
        parse_instance("[" * depth + "]" * depth)


def test_serialized_keys_are_the_document_keys(example6):
    assert tuple(json.loads(serialize_instance(example6))) == DOCUMENT_KEYS


def test_example_passes_validation_again():
    assert six_customer_example() == six_customer_example()


@pytest.mark.parametrize(
    "P,y,routes",
    [
        ([1, 2, 3], [1, 1, 1], ((1,), (2,), (3,))),
        ([1, 2, 3], [0, 0, 1], ((1, 2, 3),)),
        ([3, 1, 2], [0, 1, 1], ((3, 1), (2,))),
    ],
)
def test_decode_assignment(vacuous3, P, y, routes):
    assert decode_assignment(vacuous3, P, y).routes == routes


def test_decode_requires_final_split(vacuous3):
    with pytest.raises(InstanceError):
        decode_assignment(vacuous3, [1, 2, 3], [1, 1, 0])
    with pytest.raises(InstanceError):
        decode_assignment(vacuous3, [1, 2], [1, 1])


def test_decode_concatenation_recovers_tour(vacuous3):
    import itertools

    for P in itertools.permutations([1, 2, 3]):
        for y01 in itertools.product((0, 1), repeat=2):
            routes = decode_assignment(vacuous3, P, (*y01, 1)).routes
            flat = tuple(v for r in routes for v in r)
            assert flat == P
