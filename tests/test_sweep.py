"""The modular signature sweep against the reference's exact block sums.

The library's sweep never builds an exact sum: it works in F_p with a Galois
refinement, and builds exact rows only for matrices. Its first labels come
from one of two paths, the dense F_p sweep or per-axis F_p transforms. The
dual, the matrix rows and the F_p transform are each compared with their
definitions in ``reference``.
"""

import math
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

import dualpart.partition
import reference as ref
from dualpart.cyclotomic import (
    coefficient_bound,
    split_prime,
    unit_generators,
    zeta_coeff_table,
)
from dualpart.group import GroupSpec, elements
from dualpart.partition import (
    Partition,
    _fp_passes,
    _outer,
    _run_passes,
    _shift_passes,
    _transform_cost,
    _transform_plan,
    dual_partition,
    krawtchouk,
    random_partition,
)


def check_against_reference(part):
    dual = dual_partition(part)
    assert dual == ref.dual(part)
    assert ref.entries(krawtchouk(part, dual)) == ref.krawtchouk(part, dual)


def carriers(limit):
    """Every factor list with all orders at least 2 and product at most limit."""
    out = [()]
    for orders in out:
        size = math.prod(orders)
        out.extend(orders + (n,) for n in range(2, limit // size + 1))
    return out


SMALL_CARRIERS = carriers(64)
KINDS = st.sampled_from(["random", "zero-block", "one-block"])


def make_partition(orders, kind, seed):
    g = GroupSpec(orders)
    if kind == "one-block":
        return Partition.one_block(g)
    return random_partition(g, random.Random(seed), zero_block=kind == "zero-block")


@given(st.sampled_from(SMALL_CARRIERS), KINDS, st.integers(0, 10 ** 9))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_dense_oracle(orders, kind, seed):
    check_against_reference(make_partition(orders, kind, seed))


@given(st.sampled_from([(105,), (210,)]), KINDS, st.integers(0, 10 ** 9))
@settings(max_examples=4, deadline=None)
def test_sweep_matches_dense_oracle_where_c_e_is_2(orders, kind, seed):
    check_against_reference(make_partition(orders, kind, seed))


def fast_transform(grp, x, p, w):
    plan, place = _transform_plan(grp)
    values = _run_passes(list(x), *_fp_passes(plan, [pow(w, k, p) for k in range(grp.exponent)], p))
    return [values[i] % p for i in place]


TRANSFORM_CARRIERS = [(8,), (9,), (12,), (30,), (60,), (64,), (210,), (2, 4, 8), (12, 12, 4)]


def test_transform_matches_the_naive_dft():
    for orders in TRANSFORM_CARRIERS:
        grp = GroupSpec(orders)
        e = grp.exponent
        p, w = split_prime(e, 2 * grp.size * coefficient_bound(e))
        rng = random.Random(sum(orders))
        for x in ([rng.randrange(p) for _ in range(grp.size)],
                  [rng.randrange(2) for _ in range(grp.size)],
                  [1] + [0] * (grp.size - 1)):
            assert fast_transform(grp, x, p, w) == ref.fp_fourier(grp, x, p, w), orders


def test_shift_ring_transform_matches_the_direct_sum():
    """The shift lowering run by the executor, against the sum of x(g) * 2^(b * <chi, g>)
    mod 2^n + 1 (even E) or 2^n - 1 (odd E), n = L * b, for every chi."""
    for orders in TRANSFORM_CARRIERS + [(2,) * 5, (3,) * 4, (4,) * 3]:
        grp = GroupSpec(orders)
        e, els = grp.exponent, ref.elements(grp)
        plan, place = _transform_plan(grp)
        rng = random.Random(sum(orders))
        for b in (8, 16):
            n = (e // 2 if e % 2 == 0 else e) * b
            modulus = (1 << n) + 1 if e % 2 == 0 else (1 << n) - 1
            for x in ([rng.randrange(-1 << b - 1, 1 << b - 1) for _ in range(grp.size)],
                      [rng.randrange(2) for _ in range(grp.size)],
                      [1] + [0] * (grp.size - 1)):
                values = _run_passes(list(x), *_shift_passes(plan, e, b))
                direct = [sum(v << b * ref.pairing_exponent(grp, chi, g) for v, g in zip(x, els))
                          % modulus for chi in els]
                assert [values[i] % modulus for i in place] == direct, (orders, b)


def test_outer_loops_over_either_operand():
    for a, b in [([0], [5]), ([1, 2], list(range(10))), (list(range(10)), [3, 4]),
                 ([7, 8, 9], [0, 1, 2])]:
        assert _outer(a, b) == [x + y for x in a for y in b]


def test_outer_concatenates_strings_in_rank_order():
    # the first operand shorter, longer and as long as the second takes each loop
    for a, b in [(["a"], ["0", "1"]), (["x", "y"], list("0123")),
                 (list("abcd"), ["0", "1"]), (["p", "q"], ["0", "1"])]:
        assert _outer(a, b) == [x + y for x in a for y in b]


def hamming(grp):
    return Partition.from_labels(grp, [sum(1 for x in g if x) for g in elements(grp)])


def lee(grp):
    return Partition.from_labels(
        grp, [sum(min(x, n - x) for x, n in zip(g, grp.orders)) for g in elements(grp)])


SHAPED = {
    "hamming": hamming,
    "lee": lee,
    "random": lambda grp: random_partition(grp, random.Random(grp.size)),
    "zero-block": lambda grp: random_partition(grp, random.Random(grp.size), zero_block=True),
    "singletons": Partition.singletons,
    "one-block": Partition.one_block,
}
PATHS = {"transform": 0, "summed": 10 ** 9}  # transform costs that force each way


def test_both_paths_match_the_dense_oracle_on_every_small_carrier():
    """Every block transformed, then every block summed, on all 441 carriers."""
    for orders in SMALL_CARRIERS:
        grp = GroupSpec(orders)
        for kind, make in SHAPED.items():
            part = make(grp)
            want = ref.dual(part)
            for path, cost in PATHS.items():
                with mock.patch.object(dualpart.partition, "_transform_cost",
                                       lambda grp: cost):
                    rows = dualpart.partition._signature_rows(part)
                got = Partition.from_labels(grp, rows.values())
                assert got == want, (orders, kind, path)


def block_ways(part):
    """Sizes of the blocks the sweep transforms, and the pairing rows it sums."""
    transformed, summed = [], []
    real_transform = dualpart.partition._run_passes
    real_rows = dualpart.partition._pairing_exponents

    def transform(x, *lowering):
        transformed.append(sum(x))
        return real_transform(x, *lowering)

    def rows(grp, g):
        summed.append(g)
        return real_rows(grp, g)

    with mock.patch.object(dualpart.partition, "_run_passes", transform), \
            mock.patch.object(dualpart.partition, "_pairing_exponents", rows):
        dual_partition(part)
    return sorted(transformed), len(summed)


def test_each_block_takes_the_cheaper_way():
    # one radix-1021 pass makes about 10^6 Python-level steps, so the
    # 1023-element block of weight 1 is summed, on either factor order
    for orders in ((1021, 4), (4, 1021)):
        assert block_ways(hamming(GroupSpec(orders))) == ([], 1 + 1023)
    # (2,)^12: the blocks of 66 members and more are transformed, the
    # largest (924) is skipped, and only small blocks are summed
    grp = GroupSpec((2,) * 12)
    transformed, summed = block_ways(hamming(grp))
    assert transformed[-8:] == [66, 66, 220, 220, 495, 495, 792, 792]
    assert 1 not in transformed
    assert sum(transformed) + summed == grp.size - 924
    # its twelve radix-2 passes only add, with no twiddle and no mod, so a
    # transform is estimated at 5 rows and the 12-member blocks take it too
    assert _transform_cost(grp) < 6 and transformed[:2] == [12, 12] and summed == 2
    # Lee blocks have at most two members, far below a transform's cost
    assert block_ways(lee(GroupSpec((256,)))) == ([], 256 - 2)
    assert block_ways(Partition.singletons(GroupSpec((4, 4)))) == ([], 0)


def test_every_small_carrier_is_drawn_from():
    assert len(SMALL_CARRIERS) == len(set(SMALL_CARRIERS)) == 441
    assert {(), (64,), (2,) * 6, (4, 4, 4), (3, 7, 3)} <= set(SMALL_CARRIERS)


def test_refinement_splits_a_first_pass_collision():
    """On (8,) with p = 17, one embedding alone merges two characters."""
    g = GroupSpec((8,))
    part = Partition.from_blocks(g, [[(x,) for x in b] for b in ([0, 2, 7], [1, 3, 4, 5, 6])])
    p, w = split_prime(8, 2 * 8 * coefficient_bound(8))
    assert (p, w) == (17, 9)
    first = {}
    for chi in elements(g):
        sums = tuple(sum(pow(w, ref.pairing_exponent(g, chi, x), p) for x in b) % p
                     for b in part.blocks)
        first.setdefault(sums, []).append(chi)
    merged = [b for b in first.values() if len(b) > 1]
    assert len(first) == 7 and len(merged) == 1
    a, b = merged[0]
    assert ref.signature(part, a) != ref.signature(part, b)
    assert dual_partition(part) == Partition.singletons(g)


def test_coefficient_bounds():
    prime_powers = [2 ** k for k in range(1, 13)] + [3 ** k for k in range(1, 8)]
    prime_powers += [5, 25, 125, 625, 7, 49, 343, 11, 121, 13, 169, 4093]
    assert all(coefficient_bound(e) == 1 for e in prime_powers)
    assert [coefficient_bound(e) for e in (105, 210, 1155, 2145)] == [2, 2, 9, 15]


def test_coefficient_bound_reads_the_table_of_the_radical():
    """c_E, read off the table of rad(E), is the largest coefficient of E's own table."""
    for e in [*range(1, 1200), 3465, 4095]:
        assert coefficient_bound(e) == max(max(map(abs, c)) for _, c in zeta_coeff_table(e)), e


def test_zeta_rows_are_the_canonical_powers():
    for e in list(range(1, 41)) + [105]:
        for k, (indices, coeffs) in enumerate(zeta_coeff_table(e)):
            assert list(zip(indices, coeffs)) == ref.powers(e)[k]


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_split_prime_and_root():
    for e, size in [(1, 1), (2, 2), (8, 8), (105, 105), (210, 210), (1155, 1155),
                    (2145, 2145), (4096, 4096), (6, 512)]:
        bound = 2 * size * coefficient_bound(e)
        p, w = split_prime(e, bound)
        assert is_prime(p) and p % e == 1 % e and p > bound
        assert not any(is_prime(q) for q in range(bound + 1, p) if q % e == 1 % e)
        assert pow(w, e, p) == 1
        assert all(pow(w, k, p) != 1 for k in range(1, e))


def test_unit_generators_generate():
    for e in (1, 2, 8, 12, 105, 4096):
        units = {j for j in range(e) if math.gcd(j, e) == 1}
        gens = unit_generators(e)
        reached = {1 % e}
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for j in gens:
                y = x * j % e
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == units


def test_worst_legal_input_fits_in_two_gib():
    """(4096,) at the element guard, in a child process capped at 2 GiB.

    The sweep keeps O(|G|) labels and one block's F_p vector at a time, plus
    the transform's twiddles. A seeded 8-block partition is transformed
    block by block, and the many-block random partition (2309 blocks) sums
    pairing rows until its characters are apart. The Lee partition (2049
    blocks) is self-dual, so its loop never stops early and runs the longest.
    The Hamming partitions of (2, 2048) and (64, 64) transform their large
    blocks with the largest factors.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    child = textwrap.dedent(f"""
        import random, resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        sys.path.insert(0, {str(src)!r})
        from dualpart.group import GroupSpec, elements
        from dualpart.partition import Partition, dual_partition, random_partition
        g = GroupSpec((4096,))
        rng = random.Random(0)
        urns = {{}}
        for x in elements(g):
            urns.setdefault(rng.randrange(8), []).append(x)
        few = Partition.from_blocks(g, urns.values())
        many = random_partition(g, random.Random(0))
        weight = lambda x: sum(1 for c in x if c)
        hamming = [Partition.from_labels(GroupSpec(o), map(weight, elements(GroupSpec(o))))
                   for o in ((2, 2048), (64, 64))]
        lee = Partition.from_labels(g, [min(x, 4096 - x) for x in range(4096)])
        for part in (few, many, *hamming, lee):
            print(part.num_blocks, dual_partition(part).num_blocks)
    """)
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["8", "4096", "2309", "4096", "3", "4", "3", "3",
                                   "2049", "2049"]
