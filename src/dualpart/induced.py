"""Partitions induced on product carriers: coordinatewise and symmetrized.

A list of partitions, one per factor, induces a product partition on the
concatenated carrier whose blocks are cartesian products of factor blocks.
Symmetrizing a single base partition over n coordinates instead groups tuples
by their composition vector, the per-block coordinate counts. Dualization
commutes with both constructions whenever every factor has the zero element
as a singleton block; the check functions verify that extensionally and
return a witness pair of characters when it fails.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

from .errors import GuardExceeded, InputError, count_text
from .group import ELEMENT_GUARD, GroupSpec, _outer
from .partition import Partition, dual_partition, mismatch_witness


def product_group(groups: Sequence[GroupSpec]) -> GroupSpec:
    """Carrier of the direct product, as concatenated cyclic factors."""
    return GroupSpec(tuple(n for g in groups for n in g.orders))


def power_group(group: GroupSpec, copies: int) -> GroupSpec:
    if copies < 1:
        raise InputError("need at least one copy")
    return GroupSpec(group.orders * copies)


def product_partition(parts: Sequence[Partition],
                      max_size: int = ELEMENT_GUARD) -> Partition:
    """Partition of the product carrier into products of factor blocks.

    A word's label is its factor block indices (b_1, ..., b_k) as one
    mixed-radix number, b_1 most significant. These labels are already
    canonical (``Partition.from_labels``), so they are not numbered again:
    rank order on the product is lexicographic, and the least rank f_i(b) of
    block b in factor i rises with b, as the factor's labels are canonical.
    So the tuple (b_1, ..., b_k) first appears at (f_1(b_1), ..., f_k(b_k)),
    the tuples first appear in their own lexicographic order, and the j-th
    to appear has mixed-radix number j. Every tuple appears.
    """
    if not parts:
        raise InputError("need at least one factor partition")
    big = product_group([p.group for p in parts])
    if big.size > max_size:
        raise GuardExceeded(
            f"product carrier has {count_text(big.size)} elements, "
            f"above the guard of {max_size}"
        )
    weights = [math.prod(p.num_blocks for p in parts[i + 1:]) for i in range(len(parts))]
    columns = [[b * w for b in p.block_of] for p, w in zip(parts, weights)]
    return Partition(big, tuple(reduce(_outer, columns[1:], columns[0])),
                     math.prod(p.num_blocks for p in parts))


def symmetrized_partition(base: Partition, copies: int,
                          max_size: int = ELEMENT_GUARD) -> Partition:
    """Partition of the power carrier by composition vector over base blocks."""
    big = power_group(base.group, copies)
    if big.size > max_size:
        raise GuardExceeded(
            f"power carrier has {count_text(big.size)} elements, "
            f"above the guard of {max_size}"
        )
    # a word's label is the sum of (copies + 1)**b over its coordinate blocks b:
    # its composition vector written in base copies + 1, exact because no count
    # exceeds copies; the power carrier's rank order is the product of the base's
    column = [(copies + 1) ** b for b in base.block_of]
    return Partition.from_labels(big, reduce(_outer, [column] * (copies - 1), column))


def check_product_duality(parts: Sequence[Partition],
                          max_size: int = ELEMENT_GUARD, induced: Partition | None = None):
    """Witness that dualization commutes with the product construction.

    Returns None when the dual of the product equals the product of the duals,
    else a pair of characters that one side separates and the other does not.
    Expected to be None whenever each factor has {0} as a block. ``induced``
    is the product partition when the caller has built it already.
    """
    left = dual_partition(induced or product_partition(parts, max_size), max_size)
    right = product_partition([dual_partition(p, max_size) for p in parts], max_size)
    return mismatch_witness(left, right)


def check_symmetrized_duality(base: Partition, copies: int, max_size: int = ELEMENT_GUARD,
                              induced: Partition | None = None):
    """Witness that dualization commutes with symmetrization; None when it does.
    ``induced`` is the symmetrized partition when the caller has built it already."""
    left = dual_partition(induced or symmetrized_partition(base, copies, max_size), max_size)
    right = symmetrized_partition(dual_partition(base, max_size), copies, max_size)
    return mismatch_witness(left, right)
