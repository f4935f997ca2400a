"""Self-verification suites: every library identity checked at desk scale.

Each check function runs an exact sweep and returns its row of ``dualpart
check``: a dict of its ``name``, whether it ``passed``, and a ``detail``. A
check's defaults are what ``dualpart check`` runs; the acceptance tests pass
larger sizes. Each random check draws from its own fixed seed, so every run is
reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence

from .cyclotomic import CycInt, euler_phi, integer, one, zero, zeta_pow
from .enumerator import (
    kk_product_check,
    linear_enumerator,
    macwilliams_transform,
    product_enumerator,
    product_transform,
    symmetrized_enumerator,
    symmetrized_transform,
)
from .errors import InputError
from .group import (
    GroupSpec,
    all_subgroups,
    dual_code,
    elements,
    _pairing_exponents,
)
from .induced import (
    check_product_duality,
    check_symmetrized_duality,
    power_group,
    product_partition,
    symmetrized_partition,
)
from .partition import (
    KrawtchoukMatrix,
    Partition,
    dual_partition,
    fourier_transform,
    is_reflexive,
    join,
    krawtchouk,
    meet,
    mismatch_witness,
    negate,
    random_partition,
    random_reflexive_partition,
    refines,
    all_partitions,
)
from .poset import (
    all_posets,
    antichain,
    chain,
    hierarchical_krawtchouk,
    hierarchical_poset,
    poset_duality_check,
    poset_krawtchouk_bruteforce,
    poset_partition,
)


# carriers with at most this many elements, used by the random sweeps
SWEEP_GROUPS: tuple[GroupSpec, ...] = tuple(
    GroupSpec(o)
    for o in [
        (5,), (6,), (8,), (9,), (12,), (15,), (16,),
        (2, 2), (2, 3), (2, 4), (3, 3), (2, 8), (4, 4),
        (2, 2, 2), (2, 2, 3), (2, 2, 2, 2),
    ]
)


# carriers of the code-duality and distribution-transform checks
CODE_GROUPS: tuple[GroupSpec, ...] = (
    GroupSpec((12,)), GroupSpec((2, 4)), GroupSpec((3, 3)), GroupSpec((2, 2, 2)),
)


def all_carriers(max_size: int) -> list[GroupSpec]:
    """Every carrier (ordered factor list, factors >= 2) of at most max_size elements."""
    out: list[GroupSpec] = [GroupSpec(())]

    def rec(prefix: tuple[int, ...], size: int) -> None:
        for n in range(2, max_size // size + 1):
            cur = prefix + (n,)
            out.append(GroupSpec(cur))
            rec(cur, size * n)

    rec((), 1)
    return sorted(out, key=lambda g: (g.size, g.orders))


def _result(name: str, failures: list[str], ran: int) -> dict:
    """A check's row as ``dualpart check`` prints it: its name, whether it passed, a detail."""
    if failures:
        return {"name": name, "passed": False,
                "detail": f"{len(failures)} failure(s), first: {failures[0]}"}
    return {"name": name, "passed": True, "detail": f"{ran} case(s) verified"}


# ---------------------------------------------------------------------------
# cyclotomic arithmetic


def _random_cycint(rng: random.Random, order: int) -> CycInt:
    return CycInt(order, tuple(rng.randint(-4, 4) for _ in range(euler_phi(order))))


# the cyclotomic checks draw root orders from 1 to _MAX_ORDER
_MAX_ORDER = 24


def check_ring_laws() -> dict:
    rng = random.Random(0)
    failures: list[str] = []
    for _ in range(150):
        e = rng.randint(1, _MAX_ORDER)
        a, b, c = (_random_cycint(rng, e) for _ in range(3))
        if (a + b) + c != a + (b + c) or a + b != b + a:
            failures.append(f"additive laws at order {e}")
        if (a * b) * c != a * (b * c) or a * b != b * a:
            failures.append(f"multiplicative laws at order {e}")
        if a * (b + c) != a * b + a * c:
            failures.append(f"distributivity at order {e}")
        if a + (-a) != zero(e) or a * one(e) != a:
            failures.append(f"identities at order {e}")
    return _result("cyclotomic ring laws", failures, 150)


def check_conjugation() -> dict:
    rng = random.Random(1)
    failures: list[str] = []
    for _ in range(100):
        e = rng.randint(1, _MAX_ORDER)
        a, b = (_random_cycint(rng, e) for _ in range(2))
        if a.conjugate().conjugate() != a:
            failures.append(f"involution at order {e}")
        if (a * b).conjugate() != a.conjugate() * b.conjugate():
            failures.append(f"multiplicativity at order {e}")
        k = rng.randrange(e)
        if zeta_pow(e, k).conjugate() != zeta_pow(e, -k):
            failures.append(f"root conjugate at order {e}")
    return _result("conjugation", failures, 100)


def check_root_sums() -> dict:
    failures: list[str] = []
    for e in range(2, _MAX_ORDER + 1):
        total = zero(e)
        for k in range(e):
            total = total + zeta_pow(e, k)
        if total != zero(e):
            failures.append(f"geometric sum at order {e}")
        if zeta_pow(e, 1) * zeta_pow(e, e - 1) != one(e):
            failures.append(f"inverse power at order {e}")
    return _result("full root sums vanish", failures, _MAX_ORDER - 1)


def check_order_changes() -> dict:
    rng = random.Random(2)
    failures: list[str] = []
    for _ in range(80):
        e = rng.randint(1, 12)
        mult = rng.randint(1, 4)
        a, b = (_random_cycint(rng, e) for _ in range(2))
        big = e * mult
        if (a + b).change_order(big) != a.change_order(big) + b.change_order(big):
            failures.append(f"additivity lifting {e}->{big}")
        if (a * b).change_order(big) != a.change_order(big) * b.change_order(big):
            failures.append(f"multiplicativity lifting {e}->{big}")
        k = rng.randrange(e)
        if zeta_pow(e, k).change_order(big) != zeta_pow(big, k * mult):
            failures.append(f"root lifting {e}->{big}")
    return _result("order lifting is a ring map", failures, 80)


# ---------------------------------------------------------------------------
# groups, codes, Fourier


def check_orthogonality(max_size: int = 12) -> dict:
    failures: list[str] = []
    ran = 0
    for grp in all_carriers(max_size):
        e = grp.exponent
        for chi in elements(grp):
            total = zero(e)
            for k in _pairing_exponents(grp, chi):
                total = total + zeta_pow(e, k)
            expected = integer(e, grp.size if chi == grp.zero else 0)
            if total != expected:
                failures.append(f"character sum at {grp.orders}, chi={chi}")
            ran += 1
    return _result("character orthogonality", failures, ran)


def check_bilinearity() -> dict:
    failures: list[str] = []
    ran = 0
    for grp in all_carriers(12):
        e, els = grp.exponent, elements(grp)
        rows = [_pairing_exponents(grp, chi) for chi in els]
        for i, row in enumerate(rows):
            for j, g in enumerate(els):
                for k, h in enumerate(els[:4]):
                    if (row[grp.rank(grp.add(g, h))] - row[j] - row[k]) % e:
                        failures.append(f"bilinearity at {grp.orders}")
                if (row[j] - rows[j][i]) % e:
                    failures.append(f"symmetry at {grp.orders}")
                ran += 1
    return _result("pairing bilinearity and symmetry", failures, ran)


def check_code_duality() -> dict:
    failures: list[str] = []
    ran = 0
    for grp in CODE_GROUPS:
        subs = all_subgroups(grp)
        sub_sets = {c.elements for c in subs}
        for code in subs:
            perp = dual_code(grp, code)
            if code.size * perp.size != grp.size:
                failures.append(f"size product at {grp.orders}, |C|={code.size}")
            if dual_code(grp, perp).elements != code.elements:
                failures.append(f"double dual at {grp.orders}, |C|={code.size}")
            if perp.elements not in sub_sets:
                failures.append(f"dual not in subgroup list at {grp.orders}")
            ran += 1
    return _result("code duality", failures, ran)


def _random_function(grp: GroupSpec, rng: random.Random) -> dict:
    e = grp.exponent
    return {g: _random_cycint(rng, e) for g in elements(grp)}


def check_fourier_identities(max_size: int = 9, functions_per_group: int = 1) -> dict:
    """Inversion and the dual-summation identity for random exact functions."""
    rng = random.Random(3)
    failures: list[str] = []
    ran = 0
    for grp in all_carriers(max_size):
        size = grp.size
        for _ in range(functions_per_group):
            f = _random_function(grp, rng)
            transformed = fourier_transform(grp, f)
            twice = fourier_transform(grp, transformed)
            for g in elements(grp):
                if twice[g] != size * f[grp.neg(g)]:
                    failures.append(f"inversion at {grp.orders}, g={g}")
                    break
            for code in all_subgroups(grp):
                perp = dual_code(grp, code)
                lhs = zero(grp.exponent)
                for chi in perp.elements:
                    lhs = lhs + transformed[chi]
                rhs = zero(grp.exponent)
                for h in code.elements:
                    rhs = rhs + f[h]
                if lhs != perp.size * rhs:
                    failures.append(f"summation identity at {grp.orders}, |C|={code.size}")
                ran += 1
    return _result("transform inversion and summation identity", failures, ran)


# ---------------------------------------------------------------------------
# dual partitions


def _sweep_partitions(n_samples: int, seed: int) -> Iterator[Partition]:
    rng = random.Random(seed)
    for i in range(n_samples):
        yield random_partition(SWEEP_GROUPS[i % len(SWEEP_GROUPS)], rng)


def check_epsilon_singleton() -> dict:
    failures: list[str] = []
    for part in _sweep_partitions(120, 4):
        dual = dual_partition(part)
        if dual.blocks[0] != (part.group.zero,):
            failures.append(f"zero block at {part.group.orders}")
    for grp in SWEEP_GROUPS:
        dual = dual_partition(Partition.one_block(grp))
        want = [(grp.zero,), tuple(g for g in elements(grp) if g != grp.zero)]
        if dual.blocks != tuple(want):
            failures.append(f"single-block dual at {grp.orders}")
    return _result("trivial character is a singleton dual block",
                   failures, 120 + len(SWEEP_GROUPS))


def _order_properties_hold(part: Partition) -> bool:
    """|P*| >= |P|, P** refines P, and P is reflexive exactly when |P*| = |P|."""
    dual = dual_partition(part)
    dd = dual_partition(dual)
    return (dual.num_blocks >= part.num_blocks and refines(dd, part)
            and (dual.num_blocks == part.num_blocks) == (dd == part))


def check_dual_order_properties(n_samples: int = 150) -> dict:
    """Block-count inequality, bidual refinement, and the reflexivity criterion."""
    failures = [f"{part.group.orders}, blocks {part.blocks}"
                for part in _sweep_partitions(n_samples, 5) if not _order_properties_hold(part)]
    return _result("dual block-count and reflexivity criterion", failures, n_samples)


def check_dual_order_properties_exhaustive(max_n: int = 4) -> dict:
    failures: list[str] = []
    ran = 0
    for n in range(2, max_n + 1):
        grp = GroupSpec((n,))
        for part in all_partitions(grp):
            if not _order_properties_hold(part):
                failures.append(f"cyclic order {n}, blocks {part.blocks}")
            ran += 1
    return _result("exhaustive reflexivity criterion on small cyclic carriers",
                   failures, ran)


def check_dual_monotonicity() -> dict:
    rng = random.Random(6)
    failures: list[str] = []
    for i in range(60):
        grp = SWEEP_GROUPS[i % len(SWEEP_GROUPS)]
        coarse = random_partition(grp, rng)
        split: list[list] = []
        for block in coarse.blocks:
            if len(block) > 1 and rng.random() < 0.7:
                cut = rng.randint(1, len(block) - 1)
                shuffled = list(block)
                rng.shuffle(shuffled)
                split.append(shuffled[:cut])
                split.append(shuffled[cut:])
            else:
                split.append(list(block))
        fine = Partition.from_blocks(grp, split)
        if not refines(fine, coarse):
            failures.append("sampler produced a non-refinement")
        if not refines(dual_partition(fine), dual_partition(coarse)):
            failures.append(f"dual not monotone at {grp.orders}")
    return _result("dualization preserves refinement", failures, 60)


def check_negation_rules() -> dict:
    failures: list[str] = []
    for part in _sweep_partitions(60, 7):
        dual = dual_partition(part)
        if negate(dual) != dual:
            failures.append(f"dual not negation-closed at {part.group.orders}")
        if dual_partition(negate(part)) != dual:
            failures.append(f"dual of negation differs at {part.group.orders}")
    return _result("negation stability of duals", failures, 60)


def check_join_duality(n_pairs: int = 30) -> dict:
    """Joins of reflexive partitions stay reflexive and commute with dualization."""
    rng = random.Random(8)
    failures: list[str] = []
    for i in range(n_pairs):
        grp = SWEEP_GROUPS[i % len(SWEEP_GROUPS)]
        a = random_reflexive_partition(grp, rng)
        b = random_reflexive_partition(grp, rng)
        joined = join(a, b)
        if not is_reflexive(joined):
            failures.append(f"join not reflexive at {grp.orders}")
        if dual_partition(joined) != join(dual_partition(a), dual_partition(b)):
            failures.append(f"join duality at {grp.orders}")
    return _result("join duality for reflexive pairs", failures, n_pairs)


def check_lattice_counterexamples() -> dict:
    """The frozen meet and join counterexamples on cyclic carriers of order 8 and 5."""
    failures: list[str] = []

    g8 = GroupSpec((8,))
    p = Partition.from_blocks(g8, [[(0,)], [(1,), (7,)], [(2,), (6,)], [(3,), (5,)], [(4,)]])
    q = Partition.from_blocks(g8, [[(0,)], [(1,), (3,)], [(2,), (6,)], [(4,)], [(5,), (7,)]])
    if dual_partition(p) != p or dual_partition(q) != q:
        failures.append("order-8 inputs are not self-dual")
    both = meet(p, q)
    want_meet = Partition.from_blocks(
        g8, [[(0,)], [(1,)], [(2,), (6,)], [(3,)], [(4,)], [(5,)], [(7,)]]
    )
    if both != want_meet:
        failures.append("order-8 meet differs")
    if dual_partition(both) != Partition.singletons(g8):
        failures.append("order-8 dual of meet should be singletons")
    if meet(dual_partition(p), dual_partition(q)) != both:
        failures.append("order-8 meet of duals should equal the meet")

    g5 = GroupSpec((5,))
    p5 = Partition.from_blocks(g5, [[(0,)], [(1,), (2,)], [(3,), (4,)]])
    q5 = Partition.from_blocks(g5, [[(0,)], [(1,), (2,), (3,)], [(4,)]])
    if dual_partition(p5) != Partition.singletons(g5):
        failures.append("order-5 first dual should be singletons")
    if dual_partition(q5) != Partition.singletons(g5):
        failures.append("order-5 second dual should be singletons")
    joined = join(p5, q5)
    want_join = Partition.from_blocks(g5, [[(0,)], [(1,), (2,), (3,), (4,)]])
    if joined != want_join:
        failures.append("order-5 join differs")
    if dual_partition(joined) != joined:
        failures.append("order-5 join should be self-dual")
    if join(dual_partition(p5), dual_partition(q5)) != Partition.singletons(g5):
        failures.append("order-5 join of duals should be singletons")
    return _result("meet and join counterexamples", failures, 2)


def check_kk_pattern(n_samples: int = 30) -> dict:
    """Entrywise structure of the double Krawtchouk product, plus the reflexive case."""
    rng = random.Random(9)
    failures: list[str] = []
    for i in range(n_samples):
        grp = SWEEP_GROUPS[i % len(SWEEP_GROUPS)]
        part = (
            random_reflexive_partition(grp, rng)
            if i % 2
            else random_partition(grp, rng)
        )
        verdicts = kk_product_check(part)
        if not all(all(row) for row in verdicts):
            failures.append(f"pattern failed at {grp.orders}")
            continue
        # the containment pairing is a permutation when negated blocks are blocks
        if is_reflexive(part) and negate(part) != part:
            failures.append(f"negation pairing not a permutation at {grp.orders}")
    return _result("double Krawtchouk product structure", failures, n_samples)


# ---------------------------------------------------------------------------
# MacWilliams sweeps


def check_macwilliams(partitions_per_group: int = 8) -> dict:
    """Transform equals brute-forced dual distribution for every subgroup."""
    rng = random.Random(10)
    failures: list[str] = []
    ran = 0
    for grp in CODE_GROUPS:
        subs = all_subgroups(grp)
        duals = {code.elements: dual_code(grp, code) for code in subs}
        for _ in range(partitions_per_group):
            char_part = random_partition(grp, rng)
            prim = dual_partition(char_part)
            matrix = krawtchouk(char_part, prim)
            for code in subs:
                counts = linear_enumerator(code, prim)
                out = macwilliams_transform(counts, matrix, code.size)
                direct = linear_enumerator(duals[code.elements], char_part)
                if out != direct:
                    failures.append(
                        f"mismatch at {grp.orders}, |C|={code.size}, "
                        f"blocks={char_part.num_blocks}"
                    )
                if any(c < 0 for c in out):
                    failures.append(f"negative count at {grp.orders}")
                ran += 1
    return _result("distribution transform vs direct dual enumeration", failures, ran)


# ---------------------------------------------------------------------------
# induced partitions


_INDUCED_BASES = (GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,)), GroupSpec((2, 2)))


def _induced_duality_sweep(name: str, n_samples: int, seed: int,
                           witness: Callable[[GroupSpec, random.Random, int], object]
                           ) -> dict:
    """Draw a witness of non-commuting for each base and for 2, then 3 copies in turn."""
    rng = random.Random(seed)
    failures: list[str] = []
    for i in range(n_samples):
        base = _INDUCED_BASES[i % len(_INDUCED_BASES)]
        copies = 2 + (i // len(_INDUCED_BASES)) % 2
        found = witness(base, rng, copies)
        if found is not None:
            failures.append(f"witness {found} at {base.orders}^{copies}")
    return _result(name, failures, n_samples)


def check_product_duality_sweep(n_samples: int = 40) -> dict:
    """Dualization commutes with products of zero-block partitions."""
    return _induced_duality_sweep(
        "product duality with zero blocks", n_samples, 11,
        lambda base, rng, copies: check_product_duality(
            [random_partition(base, rng, zero_block=True) for _ in range(copies)]))


def check_symmetrized_duality_sweep(n_samples: int = 40) -> dict:
    return _induced_duality_sweep(
        "symmetrized duality with zero blocks", n_samples, 12,
        lambda base, rng, copies: check_symmetrized_duality(
            random_partition(base, rng, zero_block=True), copies))


def check_single_block_strictness() -> dict:
    """Without a zero block the commuting fails, in the refinement direction."""
    failures: list[str] = []
    for base in _INDUCED_BASES:
        whole = Partition.one_block(base)
        for copies in (2, 3):
            left = dual_partition(product_partition([whole] * copies))
            right = product_partition([dual_partition(whole)] * copies)
            if mismatch_witness(left, right) is None:
                failures.append(f"product unexpectedly commuted at {base.orders}")
            if not (refines(right, left) and right != left):
                failures.append(f"product refinement not strict at {base.orders}")
            sleft = dual_partition(symmetrized_partition(whole, copies))
            sright = symmetrized_partition(dual_partition(whole), copies)
            if mismatch_witness(sleft, sright) is None:
                failures.append(f"symmetrized unexpectedly commuted at {base.orders}")
            if not (refines(sright, sleft) and sright != sleft):
                failures.append(f"symmetrized refinement not strict at {base.orders}")
    return _result("single-block counterexample is strict", failures, len(_INDUCED_BASES) * 2)


def _product_transform_cases(base: Partition, matrix: KrawtchoukMatrix, copies: int):
    """(code, dual code, product transform matches) for each subgroup of the power carrier;
    ``matrix`` is krawtchouk(dual of base, base)."""
    dual_base = dual_partition(base)
    big = power_group(base.group, copies)
    for code in all_subgroups(big):
        perp = dual_code(big, code)
        prod = product_transform(
            product_enumerator(code, [base] * copies), [matrix] * copies, code.size
        )
        yield code, perp, prod == product_enumerator(perp, [dual_base] * copies)


def check_transform_oracle() -> dict:
    """Product and symmetrized transforms vs dual-code distributions, all subgroups."""
    hamming2 = Partition.from_blocks(GroupSpec((2,)), [[(0,)], [(1,)]])
    hamming3 = Partition.from_blocks(GroupSpec((3,)), [[(0,)], [(1,), (2,)]])
    lee4 = Partition.from_blocks(GroupSpec((4,)), [[(0,)], [(1,), (3,)], [(2,)]])
    failures: list[str] = []
    ran = 0
    for base, copies in [(hamming2, 3), (hamming3, 2), (lee4, 2)]:
        if not is_reflexive(base):
            failures.append(f"base at {base.group.orders} is not reflexive")
            continue
        dual_base = dual_partition(base)
        matrix = krawtchouk(dual_base, base)
        for code, perp, prod_ok in _product_transform_cases(base, matrix, copies):
            if not prod_ok:
                failures.append(f"product transform at {base.group.orders}^{copies}")
            sym = symmetrized_transform(
                symmetrized_enumerator(code, base, copies), matrix, code.size
            )
            sym_direct = symmetrized_enumerator(perp, dual_base, copies)
            if sym != sym_direct:
                failures.append(f"symmetrized transform at {base.group.orders}^{copies}")
            ran += 1
    return _result("induced transforms vs dual distributions", failures, ran)


def check_matrix_code_identity() -> dict:
    """Chain-weight product transform for codes of 2x2 binary matrices, rows as coordinates."""
    row_part = poset_partition(chain(2), GroupSpec((2, 2)))
    matrix = krawtchouk(dual_partition(row_part), row_part)
    cases = list(_product_transform_cases(row_part, matrix, 2))
    failures = [f"|C|={code.size}" for code, _, ok in cases if not ok]
    return _result("matrix-code chain-weight identity", failures, len(cases))


# ---------------------------------------------------------------------------
# posets


def check_poset_duality_theorem(max_n: int = 3) -> dict:
    """Equality of dualized and transposed weight partitions iff hierarchical.

    Coordinate orders are uniform here, so the equal-orders-per-level side
    condition holds automatically and hierarchy alone decides equality.
    """
    failures: list[str] = []
    ran = 0
    for n in range(1, max_n + 1):
        posets = list(all_posets(n))
        for q in (2, 3):
            grp = GroupSpec((q,) * n)
            for p in posets:
                report = poset_duality_check(p, grp)
                if report["equal"] != report["hierarchical"]:
                    failures.append(f"n={n}, q={q}, covers={p.covers()}")
                prim = poset_partition(p, grp)
                if prim.num_blocks != n + 1:
                    failures.append(f"fiber count n={n}, q={q}")
                ran += 1
    return _result("weight-partition duality iff hierarchical", failures, ran)


def check_mixed_order_levels() -> dict:
    """Equal orders inside each level is genuinely required."""
    failures: list[str] = []
    grp23 = GroupSpec((2, 3))
    # two-level chain: one coordinate per level, so mixed orders are fine
    rep = poset_duality_check(chain(2), grp23)
    if not (rep["equal"] and rep["hierarchical"] and rep["levels_equal_order"]):
        failures.append("two-level chain on mixed orders should dualize cleanly")
    # one level of two coordinates with different orders: equality must fail
    rep2 = poset_duality_check(antichain(2), grp23)
    if not rep2["hierarchical"] or rep2["levels_equal_order"]:
        failures.append("antichain on mixed orders misreported")
    if rep2["equal"]:
        failures.append("antichain on mixed orders should not dualize to itself")
    return _result("mixed coordinate orders inside a level break duality", failures, 2)


def check_hierarchical_closed_forms(
    cases: Sequence[tuple[tuple[int, ...], int]] = (
        ((1, 1), 2), ((2,), 2), ((1, 2), 2), ((1, 1, 1), 2), ((3,), 3)),
) -> dict:
    """Closed-form matrices vs brute-force character sums."""
    failures: list[str] = []
    for levels, q in cases:
        n = sum(levels)
        grp = GroupSpec((q,) * n)
        closed = hierarchical_krawtchouk(levels, q)
        brute = poset_krawtchouk_bruteforce(hierarchical_poset(levels), grp)
        if closed != brute:
            failures.append(f"levels={levels}, q={q}")
    return _result("hierarchical closed form vs brute force", failures, len(cases))


def check_rt_chain(max_n: int = 3) -> dict:
    """The chain (Rosenbloom-Tsfasman) poset is hierarchical with one coordinate a
    level: its closed form vs brute-force character sums."""
    cases = [(n, q) for n in range(1, max_n + 1) for q in (2, 3)]
    failures = [f"n={n}, q={q}" for n, q in cases
                if hierarchical_krawtchouk((1,) * n, q)
                != poset_krawtchouk_bruteforce(chain(n), GroupSpec((q,) * n))]
    return _result("chain closed form", failures, len(cases))


# ---------------------------------------------------------------------------
# suite registry


SUITES: dict[str, list[Callable[[], dict]]] = {
    "cyclotomic": [check_ring_laws, check_conjugation, check_root_sums, check_order_changes],
    "group": [check_orthogonality, check_bilinearity, check_code_duality,
              check_fourier_identities],
    "partition": [
        check_epsilon_singleton,
        check_dual_order_properties,
        check_dual_order_properties_exhaustive,
        check_dual_monotonicity,
        check_negation_rules,
        check_join_duality,
        check_lattice_counterexamples,
        check_kk_pattern,
    ],
    "macwilliams": [check_macwilliams],
    "induced": [
        check_product_duality_sweep,
        check_symmetrized_duality_sweep,
        check_single_block_strictness,
        check_transform_oracle,
        check_matrix_code_identity,
    ],
    "poset": [
        check_poset_duality_theorem,
        check_mixed_order_levels,
        check_hierarchical_closed_forms,
        check_rt_chain,
    ],
}


def run_suite(name: str) -> list[dict]:
    """Run one named suite, or all of them."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(fn() for fn in SUITES[key])
        return out
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    return [fn() for fn in SUITES[name]]
