"""Acceptance sweep: every stated criterion, exact equality, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines, or
directly as `python3 tests/test_acceptance.py`. The CLI `check` command runs
each check at its defaults; these calls pass larger sizes to the same checks,
which keep their fixed seeds.
"""

import time

from dualpart.checks import (
    check_dual_order_properties,
    check_dual_order_properties_exhaustive,
    check_fourier_identities,
    check_hierarchical_closed_forms,
    check_join_duality,
    check_kk_pattern,
    check_lattice_counterexamples,
    check_macwilliams,
    check_orthogonality,
    check_poset_duality_theorem,
    check_product_duality_sweep,
    check_rt_chain,
    check_single_block_strictness,
    check_symmetrized_duality_sweep,
    check_transform_oracle,
)
from dualpart.group import GroupSpec, elements
from dualpart.partition import (
    Partition,
    bidual,
    dual_partition,
    is_reflexive,
    krawtchouk,
)


def _finish(num: int, label: str, limit: float, t0: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} criterion {num:2d} [{elapsed:6.2f}s / limit {limit:.0f}s]: {label}")
    assert ok, f"criterion {num}: {detail or label}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def _all_passed(results) -> tuple[bool, str]:
    bad = [r for r in results if not r["passed"]]
    return (not bad, "; ".join(f"{r['name']}: {r['detail']}" for r in bad))


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    g = GroupSpec((6,))
    p = Partition.from_blocks(g, [[(0,)], [(1,), (3,), (5,)], [(2,), (4,)]])
    d = dual_partition(p)
    ok = d == Partition.from_blocks(g, [[(0,)], [(1,), (2,), (4,), (5,)], [(3,)]])
    k = krawtchouk(p, d).integer_entries()
    ok = ok and k == ((1, 3, 2), (1, 0, -1), (1, -3, 2))
    ok = ok and is_reflexive(p)
    _finish(1, "order-6 worked example: dual, matrix, reflexivity", 1.0, t0, ok)


def test_criterion_02_non_reflexive_example():
    t0 = time.perf_counter()
    g = GroupSpec((6,))
    p = Partition.from_blocks(g, [[(0,)], [(1,), (2,)], [(3,), (4,), (5,)]])
    d = dual_partition(p)
    ok = d == Partition.from_blocks(g, [[(0,)], [(1,)], [(2,), (4,)], [(3,)], [(5,)]])
    ok = ok and bidual(p) == Partition.singletons(g)
    ok = ok and not is_reflexive(p)
    _finish(2, "order-6 non-reflexive example: five-block dual, singleton bidual",
            1.0, t0, ok)


def test_criterion_03_lattice_counterexamples_and_join_duality():
    t0 = time.perf_counter()
    results = [check_lattice_counterexamples(), check_join_duality(n_pairs=200)]
    ok, detail = _all_passed(results)
    _finish(3, "meet/join counterexamples; join duality on 200 reflexive pairs",
            30.0, t0, ok, detail)


def test_criterion_04_reflexivity_criterion():
    t0 = time.perf_counter()
    results = [
        check_dual_order_properties_exhaustive(max_n=5),
        check_dual_order_properties(n_samples=1000),
    ]
    ok, detail = _all_passed(results)
    _finish(4, "block-count inequality, bidual refinement, reflexivity criterion",
            120.0, t0, ok, detail)


def test_criterion_05_macwilliams_sweep():
    t0 = time.perf_counter()
    results = [check_macwilliams(partitions_per_group=100)]
    ok, detail = _all_passed(results)
    _finish(5, "distribution transform vs dual enumeration, all subgroups, 100 "
            "partitions per carrier", 300.0, t0, ok, detail)


def test_criterion_06_kk_structure():
    t0 = time.perf_counter()
    results = [check_kk_pattern(n_samples=200)]
    ok, detail = _all_passed(results)
    _finish(6, "double Krawtchouk product pattern on 200 partitions", 60.0, t0,
            ok, detail)


def test_criterion_07_induced_duality():
    t0 = time.perf_counter()
    results = [
        check_product_duality_sweep(n_samples=200),
        check_symmetrized_duality_sweep(n_samples=200),
        check_single_block_strictness(),
        check_transform_oracle(),
    ]
    ok, detail = _all_passed(results)
    _finish(7, "product/symmetrized duality, strict counterexample, transform "
            "oracle", 300.0, t0, ok, detail)


def test_criterion_08_character_identification():
    t0 = time.perf_counter()
    g = GroupSpec((2, 2))
    trace = {(0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0)}
    trace_table, plain_table = [trace[x] for x in elements(g)], elements(g)

    def dual_under_iso(part, table):
        # the dual pulled back through the table: x joins the dual block of its image
        dual = dual_partition(part)
        return Partition.from_labels(g, (dual.block_of[g.rank(t)] for t in table))

    p = Partition.from_blocks(g, [[(0, 0)], [(1, 0)], [(0, 1), (1, 1)]])
    d1 = dual_under_iso(p, trace_table)
    d2 = dual_under_iso(p, plain_table)
    ok = d1 == p
    ok = ok and d2 == Partition.from_blocks(g, [[(0, 0)], [(1, 0), (1, 1)], [(0, 1)]])
    ok = ok and dual_under_iso(d1, trace_table) == dual_under_iso(d2, plain_table)
    _finish(8, "four-element field carrier: dual depends on the identification, "
            "double dual does not", 1.0, t0, ok)


def test_criterion_09_poset_sweep():
    t0 = time.perf_counter()
    results = [
        check_poset_duality_theorem(max_n=4),
        check_hierarchical_closed_forms([
            ((1, 3), 2), ((1, 3), 3), ((2, 2), 2), ((2, 2), 3),
            ((1, 1, 1), 2), ((1, 1, 1), 3), ((3,), 2), ((3,), 3),
        ]),
        check_rt_chain(max_n=4),
    ]
    ok, detail = _all_passed(results)
    _finish(9, "all labeled posets n <= 4: duality iff hierarchical; closed forms "
            "vs brute force", 300.0, t0, ok, detail)


def test_criterion_10_fourier_infrastructure():
    t0 = time.perf_counter()
    results = [
        check_orthogonality(max_size=16),
        check_fourier_identities(max_size=16, functions_per_group=2),
    ]
    ok, detail = _all_passed(results)
    _finish(10, "orthogonality, inversion, summation identity on every carrier "
            "up to 16", 60.0, t0, ok, detail)


if __name__ == "__main__":
    import sys

    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"  -> {exc}")
    sys.exit(1 if failed else 0)
