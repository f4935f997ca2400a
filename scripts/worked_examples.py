#!/usr/bin/env python3
"""Guided tour: the small worked examples, recomputed from scratch.

Run as `python3 scripts/worked_examples.py`. Everything is exact; the script
prints each object and asserts the expected values along the way.
"""

from dualpart import (
    GroupSpec,
    Partition,
    dual_code,
    dual_partition,
    elements,
    generate,
    hierarchical_krawtchouk,
    is_reflexive,
    join,
    krawtchouk,
    linear_enumerator,
    macwilliams_transform,
    meet,
    poset_krawtchouk_bruteforce,
)
from dualpart.poset import chain


def show_partition(label, part):
    blocks = " | ".join(
        "{" + ",".join(str(g[0]) if len(g) == 1 else str(g) for g in b) + "}"
        for b in part.blocks
    )
    print(f"  {label}: {blocks}")


def show_matrix(label, rows):
    print(f"  {label}:")
    for row in rows:
        print("    [" + "  ".join(f"{x:3d}" for x in row) + "]")


def main():
    print("== dual partitions on the cyclic group of order 6 ==")
    z6 = GroupSpec((6,))
    p = Partition.from_blocks(z6, [[(0,)], [(1,), (3,), (5,)], [(2,), (4,)]])
    show_partition("P", p)
    d = dual_partition(p)
    show_partition("dual", d)
    assert d == Partition.from_blocks(z6, [[(0,)], [(1,), (2,), (4,), (5,)], [(3,)]])
    k = krawtchouk(p, d)
    show_matrix("Krawtchouk (rows = character blocks)", k.integer_entries())
    assert k.integer_entries() == ((1, 3, 2), (1, 0, -1), (1, -3, 2))
    print(f"  reflexive: {is_reflexive(p)}")
    assert is_reflexive(p)

    print("\n== a non-reflexive partition on the same carrier ==")
    q = Partition.from_blocks(z6, [[(0,)], [(1,), (2,)], [(3,), (4,), (5,)]])
    show_partition("Q", q)
    dq = dual_partition(q)
    show_partition("dual", dq)
    ddq = dual_partition(dq)
    show_partition("double dual", ddq)
    assert ddq == Partition.singletons(z6)
    print(f"  reflexive: {is_reflexive(q)} (3 blocks vs {dq.num_blocks} in the dual)")

    print("\n== MacWilliams transform for the code {0, 3} ==")
    char_side = Partition.from_blocks(z6, [[(0,)], [(1,), (2,), (4,), (5,)], [(3,)]])
    primal = dual_partition(char_side)
    c = generate(z6, [(3,)])
    a = linear_enumerator(c, primal)
    km = krawtchouk(char_side, primal)
    b = macwilliams_transform(a, km, c.size)
    show_matrix("transform matrix (rows = primal blocks)", km.integer_entries())
    print(f"  A = {a.counts}, B = {b.counts}")
    perp = dual_code(z6, c)
    direct = linear_enumerator(perp, char_side)
    print(f"  dual code {tuple(x[0] for x in perp.elements)} counted directly: "
          f"{direct.counts}")
    assert b == direct

    print("\n== meet and join leave the self-dual family ==")
    z8 = GroupSpec((8,))
    p1 = Partition.from_blocks(
        z8, [[(0,)], [(1,), (7,)], [(2,), (6,)], [(3,), (5,)], [(4,)]]
    )
    p2 = Partition.from_blocks(
        z8, [[(0,)], [(1,), (3,)], [(2,), (6,)], [(4,)], [(5,), (7,)]]
    )
    assert dual_partition(p1) == p1 and dual_partition(p2) == p2
    m = meet(p1, p2)
    show_partition("meet of two self-dual partitions (order 8)", m)
    show_partition("its dual (finest possible)", dual_partition(m))
    assert dual_partition(m) == Partition.singletons(z8)

    z5 = GroupSpec((5,))
    a5 = Partition.from_blocks(z5, [[(0,)], [(1,), (2,)], [(3,), (4,)]])
    b5 = Partition.from_blocks(z5, [[(0,)], [(1,), (2,), (3,)], [(4,)]])
    j = join(a5, b5)
    show_partition("join of two partitions with singleton duals (order 5)", j)
    assert dual_partition(j) == j

    print("\n== the dual depends on the character identification ==")
    k4 = GroupSpec((2, 2))
    # an automorphism of the carrier, listed at the elements in rank order
    trace = {(0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0)}
    trace_table, plain_table = [trace[x] for x in elements(k4)], elements(k4)

    def dual_under_iso(part, table):
        # the dual pulled back through the table: x joins the dual block of its image
        dual = dual_partition(part)
        return Partition.from_labels(k4, (dual.block_of[k4.rank(t)] for t in table))

    f4 = Partition.from_blocks(k4, [[(0, 0)], [(1, 0)], [(0, 1), (1, 1)]])
    show_partition("P on the four-element carrier", f4)
    d1 = dual_under_iso(f4, trace_table)
    d2 = dual_under_iso(f4, plain_table)
    show_partition("dual under the first table", d1)
    show_partition("dual under the second table", d2)
    assert d1 == f4 and d1 != d2
    assert dual_under_iso(d1, trace_table) == dual_under_iso(d2, plain_table)
    print("  the double duals coincide")

    print("\n== chain-order matrices ==")
    closed = hierarchical_krawtchouk((1, 1), 2)
    show_matrix("closed form, chain of length 2 over order 2", closed)
    assert closed == poset_krawtchouk_bruteforce(chain(2), GroupSpec((2, 2)))
    mixed = hierarchical_krawtchouk((1, 1), (2, 3))
    show_matrix("mixed orders (2, 3) on the chain", mixed)
    assert mixed == poset_krawtchouk_bruteforce(chain(2), GroupSpec((2, 3)))

    print("\nall worked examples verified")


if __name__ == "__main__":
    main()
