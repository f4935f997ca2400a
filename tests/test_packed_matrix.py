"""Packed Krawtchouk matrices against the ``CycInt`` matrix they replaced.

The oracle is the library's former code, kept here. ``signature`` (in
``test_sweep``) built one ``CycInt`` per entry; ``integer_entries`` and
``_sparse_rows`` read those entries one at a time; the matrix document
printed each entry by ``cycint_to_json`` and its approx by
``approx_complex``. Every reader of the packed rows must agree with it: the
``entries`` view, ``integer_entries`` (which raises on an irrational entry),
``_sparse_rows``, and the bytes ``write_json`` prints for the matrix
document (``tests/test_serialization.py`` holds the writer to
``json.dumps(indent=2)``).
"""

import random

import pytest

from dualpart.enumerator import _sparse_rows
from dualpart.errors import VerificationFailure
from dualpart.group import GroupSpec
from dualpart.partition import Partition, dual_partition, krawtchouk, random_partition
from dualpart.serialization import _approx_pair, cycint_to_json, krawtchouk_to_json
from test_serialization import written
from test_sweep import SMALL_CARRIERS, hamming, lee, signature


def oracle_entries(part, char_part):
    return tuple(signature(part, block[0]) for block in char_part.blocks)


def oracle_integer_entries(entries):
    """The former ``integer_entries``, with None in place of its error."""
    out = []
    for row in entries:
        vals = [x.as_rational_integer() for x in row]
        if any(v is None for v in vals):
            return None
        out.append(tuple(vals))
    return tuple(out)


def oracle_sparse_rows(entries):
    ints = [[x.as_rational_integer() for x in row] for row in entries]
    if any(None in row for row in ints):
        return [[(l, x) for l, x in enumerate(row) if not x.is_zero] for row in entries]
    return [[(l, x) for l, x in enumerate(row) if x] for row in ints]


def oracle_document(entries, matrix):
    return {
        "entries": [[cycint_to_json(x) for x in row] for row in entries],
        "approx": [[_approx_pair(x.approx_complex()) for x in row] for row in entries],
        "row_blocks": [[list(g) for g in b] for b in matrix.row_blocks],
        "col_blocks": [[list(g) for g in b] for b in matrix.col_blocks],
    }


def check_matrix(part, char_part):
    """Compare every reader of krawtchouk(part, char_part) with the oracle;
    True when the matrix has an irrational entry."""
    k = krawtchouk(part, char_part)
    entries = oracle_entries(part, char_part)
    assert k.shape == (char_part.num_blocks, part.num_blocks)
    assert k.entries == entries
    ints = oracle_integer_entries(entries)
    if ints is None:
        with pytest.raises(VerificationFailure, match="irrational"):
            k.integer_entries()
    else:
        assert k.integer_entries() == ints
    rows = _sparse_rows(k)
    assert rows == oracle_sparse_rows(entries)
    assert all(type(x) is int for row in rows for _, x in row) is (ints is not None)
    assert written(krawtchouk_to_json(k)) == written(oracle_document(entries, k))
    return ints is None


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
