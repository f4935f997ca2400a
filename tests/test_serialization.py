import enum
import io
import json
import math
import random

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

import dualpart.serialization
import reference as ref
from dualpart.cyclotomic import CycInt, integer, zeta_pow
from dualpart.errors import InputError
from dualpart.group import GroupSpec, generate
from dualpart.partition import Partition, dual_partition, krawtchouk, random_partition
from dualpart.poset import Poset, poset_partition
from dualpart.serialization import (
    code_from_json,
    code_to_json,
    group_from_json,
    group_to_json,
    partition_from_json,
    poset_from_json,
    poset_to_json,
    write_json,
)


# the documents the writer's output is compared against: a partition as its
# blocks, and a cyclotomic value as a bare integer when rational, else its
# order and decimal coefficient strings


def partition_to_json(part):
    return {"blocks": [[list(g) for g in b] for b in part.blocks]}


def cycint_to_json(x):
    n = ref.rational(x.coeffs)
    return n if n is not None else {"order": x.order, "coeffs": [str(c) for c in x.coeffs]}


def cycint_from_json(obj, order=None):
    if type(obj) is int:
        return CycInt(order, (obj,))
    return CycInt(obj["order"], tuple(map(int, obj["coeffs"])))


def test_group_round_trip():
    g = GroupSpec((2, 3))
    assert group_from_json(group_to_json(g)) == g
    assert group_from_json(json.loads(json.dumps(group_to_json(g)))) == g
    with pytest.raises(InputError):
        group_from_json({"orders": "6"})
    with pytest.raises(InputError):
        group_from_json([6])


def test_partition_round_trip():
    g = GroupSpec((6,))
    p = Partition.from_blocks(g, [[(0,)], [(1,), (3,), (5,)], [(2,), (4,)]])
    assert partition_from_json(partition_to_json(p), g) == p
    with pytest.raises(InputError):
        partition_from_json({"blocks": [[[9]]]}, g)


def test_code_round_trip():
    g = GroupSpec((6,))
    c = generate(g, [(3,)])
    back = code_from_json(code_to_json(c), g)
    assert back.elements == c.elements
    full = code_to_json(c, include_elements=True)
    assert full["size"] == 2


def test_json_inputs_check_each_element_range_once(monkeypatch):
    """A JSON partition or code runs ``GroupSpec.validate`` once per element; a
    poset partition, whose elements come from the carrier, runs it not at all."""
    calls = []
    real = GroupSpec.validate
    monkeypatch.setattr(GroupSpec, "validate", lambda grp, g: calls.append(g) or real(grp, g))
    g = GroupSpec((2, 3))
    blocks = [[[0, 0]], [[0, 1], [0, 2]], [[1, 0], [1, 1], [1, 2]]]
    partition_from_json({"blocks": blocks}, g)
    assert calls == [tuple(x) for b in blocks for x in b]
    calls.clear()
    code_from_json({"generators": [[1, 0], [0, 1]]}, g)
    assert calls == [(1, 0), (0, 1)]
    calls.clear()
    poset_partition(Poset.from_covers(2, [(0, 1)]), g)
    assert calls == []


@pytest.mark.parametrize("obj", [
    {"orders": [True, 2]}, {"orders": [2.0]}, {"orders": ["2"]},
])
def test_group_json_takes_only_plain_integers(obj):
    with pytest.raises(InputError, match="'orders' must be a list of integers"):
        group_from_json(obj)


@pytest.mark.parametrize("element", [[True], [1.0], ["1"], [None]])
def test_element_json_takes_only_plain_integers(element):
    g = GroupSpec((2,))
    with pytest.raises(InputError, match="an element must be an integer array"):
        partition_from_json({"blocks": [[[0]], [element]]}, g)
    with pytest.raises(InputError, match="an element must be an integer array"):
        code_from_json({"generators": [element]}, g)


def test_poset_json_takes_only_plain_integers():
    with pytest.raises(InputError, match="'n' must be a positive integer"):
        poset_from_json({"n": True})
    with pytest.raises(InputError, match="each cover must be a pair of integers"):
        poset_from_json({"n": 2, "cover": [[True, 2]]})


def test_poset_round_trip_one_based():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    doc = poset_to_json(p)
    assert doc == {"n": 3, "cover": [[1, 2], [2, 3]]}
    assert poset_from_json(doc) == p
    assert poset_from_json({"n": 2}) == Poset(2, (0, 0))
    with pytest.raises(InputError):
        poset_from_json({"n": 2, "cover": [[0, 1]]})  # 0 is out of range


def test_poset_round_trip_all_small():
    from dualpart.poset import all_posets

    for p in all_posets(3):
        assert poset_from_json(poset_to_json(p)) == p


def test_cycint_json():
    assert cycint_to_json(integer(6, -3)) == -3
    z = zeta_pow(8, 1)
    doc = cycint_to_json(z)
    assert doc["order"] == 8
    assert cycint_from_json(doc) == z
    assert cycint_from_json(5, order=6) == integer(6, 5)


def test_matrix_cells_round_trip():
    fine = Partition.singletons(GroupSpec((12,)))
    k = krawtchouk(fine, fine)
    doc = json.loads(written(k))
    assert [[cycint_from_json(x, order=12).coeffs for x in row] for row in doc["entries"]] \
        == [list(row) for row in ref.entries(k)]


def test_krawtchouk_json_shape():
    g = GroupSpec((6,))
    p = Partition.from_blocks(g, [[(0,)], [(1,), (3,), (5,)], [(2,), (4,)]])
    k = krawtchouk(p, dual_partition(p))
    doc = json.loads(written(k))
    assert doc["entries"] == [[1, 3, 2], [1, 0, -1], [1, -3, 2]]
    assert doc["approx"][2][1] == [-3.0, 0.0]
    assert len(doc["row_blocks"]) == 3 and len(doc["col_blocks"]) == 3
    # irrational entries serialize as order/coeffs objects
    fine = Partition.singletons(g)
    k2 = krawtchouk(fine, fine)
    doc2 = json.loads(written(k2))
    cell = doc2["entries"][1][1]
    assert isinstance(cell, dict) and cycint_from_json(cell) == zeta_pow(6, 1)


# ---------------------------------------------------------------------------
# the stdout writer, against json.dumps(indent=2) as the oracle


def written(doc) -> str:
    out = io.StringIO()
    write_json(doc, out)
    return out.getvalue()


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


class Ratio(float):
    pass


SHARED = [1, [2]]
WRITER_CASES = {
    "empty-list": [],
    "empty-dict": {},
    "empty-list-in-list": [[]],
    "empty-list-beside-one": [[1], []],
    "empties-at-every-depth": [[], [[]], [[[]]], {}, [{}], {"a": {}, "b": []}, [[], {}]],
    "empty-lists-at-one-depth": [[[], []], [[], []]],
    "int-and-bool": [1, True],
    "int-and-float": [1, 2.0],
    "bools": [True, False, True],
    "none": [None, None],
    "floats": [-0.0, 0.0, 1e300, 1e-300, 0.1],
    "non-finite-floats": [math.nan, math.inf, -math.inf, 1.5],
    "non-finite-scalars": {"a": math.nan, "b": math.inf, "c": -math.inf, "d": -0.0},
    "keys-with-percent": [{"100%": 1, "%s": 2}, {"100%": 3, "%s": 4}],
    "records": [{"key": [0, 1], "count": 1}, {"key": [1, 1], "count": 3}],
    "records-of-two-shapes": [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 3}],
    "non-ascii-and-control": ["é", "日本", "\x00\x1f\n\t\"\\", "\U0001f600", "\u2028"],
    "non-ascii-key": {"clé\n": ["ü"]},
    "tuples": (1, (2, 3), [4, (5,)], ()),
    "int-subclass": [Level.LOW, Level.LOW, 2],
    "str-subclass": [Name("a"), "b", {Name("k"): Name("v")}],
    "float-subclass": [Ratio(0.5), Ratio(math.inf)],
    "huge-int": [10**100, -(10**50)],
    "matrix-entries": [[1, {"order": 6, "coeffs": ["1", "-2"]}],
                       [{"order": 6, "coeffs": ["0", "1"]}, -3]],
    "blocks": [[[0, 0]], [[0, 1], [1, 0]], [[1, 1]]],
    "ragged": [[1, 2, 3], [4], [5, 6]],
    "mixed-depths": [[1, [2]], [[3], 4], "x", None],
    "shared-at-two-depths": [SHARED, [SHARED], {"x": SHARED}],
    "scalar-int": 5,
    "scalar-str": "x",
    "scalar-none": None,
    "scalar-false": False,
    "scalar-nan": math.nan,
}


@pytest.mark.parametrize("doc", WRITER_CASES.values(), ids=list(WRITER_CASES))
def test_writer_matches_json_dump(doc):
    assert written(doc) == json.dumps(doc, indent=2)


def test_writer_matches_json_dump_on_deep_nesting():
    doc: list = [1]
    for _ in range(900):
        doc = [doc]
    assert written(doc) == json.dumps(doc, indent=2)


def test_writer_batches_long_lists(monkeypatch):
    monkeypatch.setattr(dualpart.serialization, "_BATCH_TEXT", 40)
    shared = [1, 2]
    rows = [[0], list(range(30)), [], *([[7, 8]] * 20), list(range(50)), shared, [shared]]
    doc = {"rows": rows, "nested": {"deep": [rows, rows]}, "tail": [None] * 100}
    assert written(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [object(), [1, {2, 3}], {"a": [b"x"]}, [1j], {"k": Level}],
                         ids=["object", "set", "bytes", "complex", "class"])
def test_writer_rejects_unsupported_values(doc):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        written(doc)


def test_writer_rejects_unsupported_keys():
    with pytest.raises(TypeError):
        written({"a": {(1, 2): 3}})


_json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-3, 3)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
_json_keys = st.text(max_size=6)
# lists of equal-length rows and records of one key order take the template joins
_rectangles = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), max_size=5))
_records = st.lists(st.fixed_dictionaries({"key": st.lists(st.integers(0, 3), max_size=3),
                                           "count": st.integers(0, 9)}), max_size=4)


def _json_containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(_json_keys, children, max_size=4))


json_trees = st.recursive(_json_scalars | _rectangles | _records, _json_containers,
                          max_leaves=40)


@given(json_trees)
@settings(max_examples=400, deadline=None)
def test_writer_matches_json_dump_on_random_trees(doc):
    assert written(doc) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# partitions printed from their labels, against partition_to_json as the oracle


def as_dicts(doc):
    """The document with each partition replaced by its ``partition_to_json`` dict."""
    if isinstance(doc, Partition):
        return partition_to_json(doc)
    if isinstance(doc, dict):
        return {k: as_dicts(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_dicts(v) for v in doc]
    return doc


PARTITION_CARRIERS = [(6,), (2, 8), (3, 3), (4,) * 3, (2,) * 5]
PARTITION_KINDS = {
    "singletons": Partition.singletons,
    "one-block": Partition.one_block,
    "random": lambda g: random_partition(g, random.Random(g.size)),
}


@pytest.mark.parametrize("orders", PARTITION_CARRIERS, ids=str)
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_writer_prints_partitions_as_their_dicts(orders, kind):
    part = PARTITION_KINDS[kind](GroupSpec(orders))
    docs = {
        "level-0": part,
        "level-1": {"partition": part},
        "level-2": {"a": {"partition": part}},
        "level-3": {"a": {"b": {"partition": part, "n": 1}}},
        "in-a-list": [part, 1, part],
        "in-a-dict-in-a-list": [{"x": part}],
        "in-same-key-dicts": [{"p": part, "n": 0}, {"p": part, "n": 1}],
        "beside-its-dict": {"p": part, "d": partition_to_json(part)},
    }
    for name, doc in docs.items():
        assert written(doc) == json.dumps(as_dicts(doc), indent=2), name


def test_writer_prints_a_partition_of_the_empty_product():
    part = Partition.singletons(GroupSpec(()))
    assert written({"p": [part], "q": part}) == json.dumps(
        {"p": [{"blocks": [[[]]]}], "q": {"blocks": [[[]]]}}, indent=2)


def test_writer_streams_a_partition_a_batch_of_blocks_at_a_time(monkeypatch):
    monkeypatch.setattr(dualpart.serialization, "_BATCH_TEXT", 200)
    part = random_partition(GroupSpec((4,) * 3), random.Random(3))
    expected = json.dumps({"partition": partition_to_json(part)}, indent=2)

    class Sink(io.StringIO):
        longest = 0

        def write(self, text):
            self.longest = max(self.longest, len(text))
            return super().write(text)

    sink = Sink()
    write_json({"partition": part}, sink)
    assert sink.getvalue() == expected
    assert part.num_blocks > 8 and sink.longest < len(expected) // 4
