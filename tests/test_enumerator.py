"""Distribution transforms against directly enumerated dual codes.

The conventions under test: the transform matrix for a character-side
partition Q and its dual P has one row per P block and one column per Q
block; a code counted under P transforms to its dual counted under Q.
"""

import ast
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import pytest

from dualpart.enumerator import (
    LinearEnumerator,
    SymmetrizedEnumerator,
    linear_enumerator,
    macwilliams_transform,
    product_enumerator,
    product_transform,
    symmetrized_enumerator,
    symmetrized_transform,
)
from dualpart.errors import GuardExceeded, InputError, VerificationFailure
from dualpart.group import GroupSpec, all_subgroups, dual_code, elements, generate
from dualpart.partition import Partition, dual_partition, krawtchouk

Z6 = GroupSpec((6,))


def part(g, *groups):
    return Partition.from_blocks(g, [[(x,) if isinstance(x, int) else x for x in b]
                                     for b in groups])


def test_linear_enumerator_counts():
    p = part(Z6, [0], [1, 2, 4, 5], [3])
    c = generate(Z6, [(3,)])
    assert linear_enumerator(c, p).counts == (1, 0, 1)
    assert sum(linear_enumerator(c, p).counts) == c.size == 2


def test_worked_macwilliams_chain():
    """Order 6, code {0,3}: the full frozen transform chain."""
    q = part(Z6, [0], [1, 2, 4, 5], [3])
    p = dual_partition(q)
    assert p == part(Z6, [0], [1, 3, 5], [2, 4])
    k = krawtchouk(q, p)
    assert k.integer_entries() == ((1, 4, 1), (1, 0, -1), (1, -2, 1))
    c = generate(Z6, [(3,)])
    a = linear_enumerator(c, p)
    assert a.counts == (1, 1, 0)
    b = macwilliams_transform(a, k, c.size)
    assert b.counts == (1, 2, 0)
    perp = dual_code(Z6, c)
    assert linear_enumerator(perp, q) == b


def test_repetition_code_binary():
    g = GroupSpec((2,))
    p = part(g, [0], [1])
    k = krawtchouk(dual_partition(p), p)
    assert k.integer_entries() == ((1, 1), (1, -1))
    big = GroupSpec((2, 2, 2))
    c = generate(big, [(1, 1, 1)])
    counts = product_enumerator(c, [p] * 3)
    assert counts.counts == {(0, 0, 0): 1, (1, 1, 1): 1}
    out = product_transform(counts, [k] * 3, c.size)
    perp = dual_code(big, c)  # even-weight code
    assert out.counts == product_enumerator(perp, [dual_partition(p)] * 3).counts
    sym = symmetrized_transform(symmetrized_enumerator(c, p, 3), k, c.size)
    assert sym.counts == {(3, 0): 1, (1, 2): 3}
    assert sym.counts == symmetrized_enumerator(perp, dual_partition(p), 3).counts


def test_transform_whole_group_and_trivial_code():
    q = part(Z6, [0], [1, 2, 4, 5], [3])
    p = dual_partition(q)
    k = krawtchouk(q, p)
    whole = generate(Z6, [(1,)])
    assert whole.elements == elements(Z6)
    b = macwilliams_transform(linear_enumerator(whole, p), k, whole.size)
    assert b.counts == (1, 0, 0)
    trivial = generate(Z6, [])
    b2 = macwilliams_transform(linear_enumerator(trivial, p), k, trivial.size)
    assert b2.counts == (1, 4, 1)


def test_non_integer_result_rejected():
    # wrong code size makes the division fail
    q = part(Z6, [0], [1, 2, 4, 5], [3])
    p = dual_partition(q)
    k = krawtchouk(q, p)
    a = linear_enumerator(generate(Z6, [(3,)]), p)
    with pytest.raises(VerificationFailure):
        macwilliams_transform(a, k, 4)


def test_row_count_mismatch_rejected():
    q = part(Z6, [0], [1, 2, 4, 5], [3])
    p = dual_partition(q)
    k = krawtchouk(q, p)
    with pytest.raises(InputError):
        macwilliams_transform(LinearEnumerator((1, 1)), k, 2)


SQUARE_BASES = {
    "hamming-3": (GroupSpec((3,)), [[0], [1, 2]]),
    # singleton blocks put zeta_3^k and i^k into the factor matrix
    "singletons-3": (GroupSpec((3,)), [[0], [1], [2]]),
    "singletons-4": (GroupSpec((4,)), [[0], [1], [2], [3]]),
}


@pytest.mark.parametrize("g, blocks", SQUARE_BASES.values(), ids=list(SQUARE_BASES))
def test_oracle_sweep_all_subgroups_of_the_square(g, blocks):
    base = part(g, *blocks)
    dual_base = dual_partition(base)
    k = krawtchouk(dual_base, base)
    big = GroupSpec(g.orders * 2)
    for c in all_subgroups(big):
        perp = dual_code(big, c)
        out = product_transform(product_enumerator(c, [base] * 2), [k] * 2, c.size)
        assert out.counts == product_enumerator(perp, [dual_base] * 2).counts
        sym = symmetrized_transform(symmetrized_enumerator(c, base, 2), k, c.size)
        assert sym.counts == symmetrized_enumerator(perp, dual_base, 2).counts


def test_expansion_guard():
    g = GroupSpec((2,))
    p = part(g, [0], [1])
    k = krawtchouk(dual_partition(p), p)
    copies = 30
    big = GroupSpec((2,) * copies)
    c = generate(big, [tuple([1] * copies)])
    counts = product_enumerator(c, [p] * copies)
    with pytest.raises(GuardExceeded):  # 2^30 output keys > 4096
        product_transform(counts, [k] * copies, c.size)
    # the symmetrized key space is 65 compositions, so 64 copies pass the guard; it
    # runs in a child process under a time and memory limit, as keys that failed to
    # merge would grow as 2^i at step i and stall the suite instead of failing it
    copies = 64
    child = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
        from dualpart.enumerator import symmetrized_enumerator, symmetrized_transform
        from dualpart.group import GroupSpec, generate
        from dualpart.partition import Partition, dual_partition, krawtchouk
        g = GroupSpec((2,))
        p = Partition.from_blocks(g, [[(0,)], [(1,)]])
        k = krawtchouk(dual_partition(p), p)
        big = GroupSpec((2,) * {copies})
        c = generate(big, [tuple([1] * {copies})])
        sym = symmetrized_transform(symmetrized_enumerator(c, p, {copies}), k, c.size)
        print(sorted(sym.counts.items()))
    """)
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    counts = dict(ast.literal_eval(done.stdout))
    assert counts == {(copies - w, w): comb(copies, w) for w in range(0, copies + 1, 2)}


def test_symmetrized_rejects_bad_copy_counts():
    g = GroupSpec((2,))
    p = part(g, [0], [1])
    k = krawtchouk(dual_partition(p), p)
    with pytest.raises(InputError):
        symmetrized_transform(SymmetrizedEnumerator({(2, 0): 1, (0, 3): 1}), k, 2)
    with pytest.raises(InputError):
        symmetrized_transform(SymmetrizedEnumerator({(0, 0): 1}), k, 1)
    # (3, -1) sums to 2 copies; a negative part once expanded it to 3-copy compositions
    g3 = GroupSpec((3,))
    hamming3 = part(g3, [0], [1, 2])
    k3 = krawtchouk(dual_partition(hamming3), hamming3)
    with pytest.raises(InputError, match="negative part"):
        symmetrized_transform(SymmetrizedEnumerator({(3, -1): 1}), k3, 1)
