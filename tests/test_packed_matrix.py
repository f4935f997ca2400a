"""Packed Krawtchouk matrices against the reference's exact block sums.

Every reader of the packed rows must give the reference's entries: the
matrix's ``rows`` themselves, ``integer_entries`` (which raises on an
irrational entry), the transforms' row reader ``_Rows`` (each entry evaluated
at z = 2^b, read back by ``read_coefficients``), and the bytes ``write_json``
prints for the matrix, which must be those of ``json.dumps(indent=2)`` of the
document built from the reference's entries, wherever the matrix sits and
however its rows fall into batches. Both ways to the rows, per character and
one transform per primal block, must give them too.
"""

import itertools
import json
import math
import random
import textwrap

import pytest

import dualpart.cyclotomic
import dualpart.partition
import dualpart.serialization
import reference as ref
from dualpart.cyclotomic import _DIGITS, _digit_reader
from dualpart.enumerator import _evaluation, _norm, _root_order, _Rows
from dualpart.errors import VerificationFailure
from dualpart.group import GroupSpec
from dualpart.partition import (MATRIX_GUARD, Partition, _packed_rows, dual_partition, krawtchouk,
                                random_partition)
from dualpart.serialization import write_json
from test_product_grid import read_coefficients
from test_serialization import written
from test_sweep import SMALL_CARRIERS, hamming, lee


def integers(entries):
    """The entries as ints, or None when one is irrational."""
    out = tuple(tuple(map(ref.rational, row)) for row in entries)
    return None if any(None in row for row in out) else out


def approx_pair(z):
    """The approx of an entry: its complex value, each part rounded to 12 places, -0.0 as 0.0."""
    def clean(v):
        r = round(v, 12)
        return 0.0 if r == 0 else r

    return [clean(z.real), clean(z.imag)]


def document(entries, matrix):
    """The matrix document: a rational entry as its int, else its order and decimal
    coefficient strings, and each entry's approx."""
    e = matrix.order
    return {
        "entries": [[x[0] if ref.rational(x) is not None else
                     {"order": e, "coeffs": list(map(str, x))} for x in row] for row in entries],
        "approx": [[approx_pair(ref.approx(x, e)) for x in row] for row in entries],
        "row_blocks": [[list(g) for g in b] for b in matrix.row_part.blocks],
        "col_blocks": [[list(g) for g in b] for b in matrix.col_part.blocks],
    }


def check_matrix(part, char_part):
    """Compare every reader of krawtchouk(part, char_part) with the reference;
    True when the matrix has an irrational entry."""
    k = krawtchouk(part, char_part)
    entries = ref.krawtchouk(part, char_part)
    assert k.shape == (char_part.num_blocks, part.num_blocks)
    assert ref.entries(k) == entries
    ints = integers(entries)
    if ints is None:
        with pytest.raises(VerificationFailure, match="irrational"):
            k.integer_entries()
    else:
        assert k.integer_entries() == ints
    order = _root_order([k])
    assert (order == 1) is (ints is not None)  # entries are plain ints
    b, _ = _evaluation(order, lambda: _norm(k))
    rows = _Rows(k, b)
    assert [[(l, read_coefficients(x, order, b) if ints is None else x) for l, x in rows[m]]
            for m in range(k.shape[0])] == \
        [[(l, x if ints is None else x[0]) for l, x in enumerate(row) if any(x)]
         for row in entries]
    check_written(k, document(entries, k))
    return ints is None


PLACEMENTS = {  # name: (depth of the matrix, the document holding it, _BATCH_TEXT)
    "document": (0, lambda m: m, 64),
    "one-down": (1, lambda m: {"krawtchouk": m}, None),
    "two-down": (2, lambda m: {"a": {"k": m, "n": 1}, "b": 2}, 64),
    "in-a-list": (2, lambda m: {"k": [m, 1]}, None),
}


def check_written(k, doc):
    """``write_json`` prints ``k``, at every placement, as ``json.dumps`` prints the
    reference's document, with the default batches and with rows spanning many batches.

    That text is dumped once: ``json.dumps`` prints a value at depth d as at depth 0
    with 2 * d more spaces after each newline, as no JSON string holds one.
    """
    text = json.dumps(doc, indent=2)
    for name, (depth, place, batch) in PLACEMENTS.items():
        expected = json.dumps(place("\0"), indent=2).replace(
            '"\\u0000"', text.replace("\n", "\n" + "  " * depth))
        with pytest.MonkeyPatch.context() as patch:
            if batch:
                patch.setattr(dualpart.serialization, "_BATCH_TEXT", batch)
            assert written(place(k)) == expected, name


def shaped_partitions(grp):
    rng = random.Random(grp.size * 31 + len(grp.orders))
    return [random_partition(grp, rng), random_partition(grp, rng, zero_block=True),
            lee(grp), hamming(grp)]


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_packed_matrix_matches_the_cycint_matrix(orders):
    """Random, zero-block, Lee and Hamming partitions, with their duals."""
    for part in shaped_partitions(GroupSpec(orders)):
        check_matrix(part, dual_partition(part))


@pytest.mark.parametrize("order", [5, 12, 105, 210])
def test_irrational_matrices_match_the_cycint_matrix(order):
    grp = GroupSpec((order,))
    irrational = [check_matrix(part, dual_partition(part)) for part in shaped_partitions(grp)]
    assert any(irrational)


def test_small_carriers_hold_both_kinds_of_matrix():
    """Singletons on both sides, and a character side finer than the dual."""
    assert {5, 12} <= {GroupSpec(orders).exponent for orders in SMALL_CARRIERS}
    for orders, irrational in (((5,), True), ((12,), True), ((2, 2, 2), False)):
        singles = Partition.singletons(GroupSpec(orders))
        assert check_matrix(singles, singles) is irrational
        assert check_matrix(hamming(singles.group), singles) is False


def row_kind(row):
    """"rational", "irrational" or "mixed", by the entries of a matrix row."""
    irrational = {ref.rational(x) is None for x in row}
    return "mixed" if len(irrational) == 2 else "irrational" if True in irrational else "rational"


def test_writer_prints_every_kind_of_row():
    """All-rational rows (phi(E) = 1, and the trivial character's row), all-irrational
    rows (no singleton {0} on (5,)) and mixed rows (singletons on (5,) and (12,))."""
    five = GroupSpec((5,))
    pairs = {
        "phi-1": (hamming(GroupSpec((2, 2, 2))), Partition.singletons(GroupSpec((2, 2, 2)))),
        "no-zero-singleton": (Partition.from_blocks(five, [[(0,), (1,)], [(2,)], [(3,)], [(4,)]]),
                              Partition.singletons(five)),
        "singletons-5": (Partition.singletons(five), Partition.singletons(five)),
        "singletons-12": (Partition.singletons(GroupSpec((12,))),) * 2,
    }
    kinds = {name: set(map(row_kind, ref.entries(krawtchouk(*pair))))
             for name, pair in pairs.items()}
    assert kinds == {"phi-1": {"rational"}, "no-zero-singleton": {"rational", "irrational"},
                     "singletons-5": {"rational", "mixed"},
                     "singletons-12": {"rational", "mixed"}}
    for part, char_part in pairs.values():
        check_matrix(part, char_part)


@pytest.mark.parametrize("orders", [(5,), (12,), (2, 2, 2)], ids=str)
def test_writer_streams_a_matrix_a_batch_of_rows_at_a_time(orders, monkeypatch):
    """No write holds much more than ``2 * _BATCH_TEXT`` characters plus one row's text."""
    monkeypatch.setattr(dualpart.serialization, "_BATCH_TEXT", 64)
    singles = Partition.singletons(GroupSpec(orders))
    k = krawtchouk(singles, singles)
    doc = document(ref.krawtchouk(singles, singles), k)
    expected = json.dumps(doc, indent=2)
    # a row of the whole-document matrix is printed at indent 2, four spaces
    longest_row = max(len(textwrap.indent(json.dumps(row, indent=2), "    "))
                      for row in doc["entries"] + doc["approx"])

    class Sink(list):
        def write(self, text):
            self.append(text)

    sink = Sink()
    write_json(k, sink)
    assert "".join(sink) == expected
    assert len(sink) > 2 * len(k.rows)
    assert max(map(len, sink)) <= 2 * 64 + longest_row


# ---------------------------------------------------------------------------
# the two ways to the rows: per character, and one transform per primal block


def character_rows(part, chars):
    """The packed rows of the given characters: their exact block sums, in a row each."""
    return [list(itertools.chain(*ref.signature(part, chi))) for chi in chars]


WAYS = {"transform": 0, "per-character": math.inf}  # transform costs that force each way


def rows_both_ways(part, char_part):
    """The matrix rows with each way forced in turn; both must equal the reference."""
    want = character_rows(part, [block[0] for block in char_part.blocks])
    for way, cost in WAYS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dualpart.partition, "_transform_cost", lambda grp: cost)
            assert [list(row) for row in krawtchouk(part, char_part).rows] == want, way
    return want


def way_taken(part, char_part):
    """The way ``krawtchouk`` built the rows, and the matrix: only the transform
    lowers the plan to the shift ring, which the sweep never does."""
    lowered = []
    real = dualpart.partition._shift_passes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dualpart.partition, "_shift_passes",
                      lambda *args: lowered.append(args) or real(*args))
        k = krawtchouk(part, char_part)
    return "transform" if lowered else "per-character", k


def largest_column_at_zero(part, char_part, rows):
    """The zero character's entry in the largest block's column is that block's size,
    as a rational integer: the column the transform derives from the others."""
    phi = ref.phi(part.group.exponent)
    largest = max(range(part.num_blocks), key=lambda m: len(part.blocks[m]))
    assert char_part.blocks[0][0] == part.group.zero
    entry = rows[0][largest * phi:(largest + 1) * phi]
    assert list(entry) == [len(part.blocks[largest])] + [0] * (phi - 1)


def method_partitions(grp, urns=None):
    """Random, zero-block, one-block and singleton partitions, and the random one's dual.

    With ``urns`` the random partitions put each element in one of that many
    urns, and the dual and singletons, whose matrices are above the matrix
    guard on (256,), are left out.
    """
    rng = random.Random(grp.size * 7 + len(grp.orders))
    if urns:
        some = Partition.from_labels(grp, [rng.randrange(urns) for _ in range(grp.size)])
        zero = Partition.from_labels(grp, [-1] + [rng.randrange(urns) for _ in range(grp.size - 1)])
        return [some, zero, Partition.one_block(grp)]
    some = random_partition(grp, rng)
    return [some, random_partition(grp, rng, zero_block=True), Partition.one_block(grp),
            Partition.singletons(grp), dual_partition(some)]


def check_both_ways(grp, urns=None):
    for part in method_partitions(grp, urns):
        dual = dual_partition(part)
        largest_column_at_zero(part, dual, rows_both_ways(part, dual))


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_both_methods_agree_on_every_small_carrier(orders):
    check_both_ways(GroupSpec(orders))


@pytest.mark.parametrize("orders", [(5,), (12,), (105,), (210,), (256,), (16, 16),
                                    (12, 12, 4), (3,) * 5, ()], ids=str)
def test_both_methods_agree_on_larger_and_irrational_carriers(orders):
    check_both_ways(GroupSpec(orders), urns=6)


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("orders", [(), (2,), (5,), (12,), (8, 4), (3, 3), (105,), (16, 16)],
                         ids=str)
def test_forced_digit_widths_read_the_same_rows(orders, width, monkeypatch):
    """The 32- and 64-bit digit arrays, which no default width of these carriers takes."""
    cases = [(part, [block[0] for block in dual_partition(part).blocks])
             for part in method_partitions(GroupSpec(orders))]
    assert all(_digit_reader(GroupSpec(orders).exponent, max(map(len, part.blocks)), "")[0]
               < width for part, _ in cases)
    monkeypatch.setattr(dualpart.cyclotomic, "_DIGITS", {width: _DIGITS[width]})
    for part, chars in cases:
        want = character_rows(part, chars)
        for way, cost in WAYS.items():
            monkeypatch.setattr(dualpart.partition, "_transform_cost", lambda grp: cost)
            assert [list(row) for row in _packed_rows(part, chars)] == want, way


def test_cost_rule_takes_each_method_where_it_is_cheaper():
    """The transform for 4 urns of (2,)^8 with its dual (233 rows, 3 transforms);
    per-character rows for the 10 x 10 Hamming matrix of (2,)^9 (9 transforms
    of about 5 rows each against 10 rows)."""
    grp = GroupSpec((2,) * 8)
    rng = random.Random(8)
    urns = Partition.from_labels(grp, [rng.randrange(4) for _ in range(grp.size)])
    assert dual_partition(urns).num_blocks == 233
    assert way_taken(urns, dual_partition(urns))[0] == "transform"
    nine = hamming(GroupSpec((2,) * 9))
    assert way_taken(nine, nine)[0] == "per-character"


def test_three_blocks_of_1155_take_the_transform():
    """E = 1155 = 3 * 5 * 7 * 11 has c_E = 9 and phi(E) = 480, and every
    character is alone in the dual. Per character, the 1155 rows took about
    15 s with sparse root-power rows; sampled rows of the transformed matrix
    equal the reference's."""
    grp = GroupSpec((1155,))
    rng = random.Random(0)
    part = Partition.from_labels(grp, [rng.randrange(3) for _ in range(grp.size)])
    dual = dual_partition(part)
    way, k = way_taken(part, dual)
    assert dual.num_blocks == grp.size and way == "transform"
    sample = list(range(0, grp.size, 97))
    assert [list(k.rows[i]) for i in sample] == character_rows(part, [dual.blocks[i][0]
                                                                      for i in sample])
    largest_column_at_zero(part, dual, k.rows)
