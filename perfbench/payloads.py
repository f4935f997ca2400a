"""Seeded job lists for the benchmark workloads.

Every payload is built here with the standard library's ``random.Random``
seeded from the command line, never with the library's own samplers, so a
change to ``dualpart`` cannot change the inputs it is measured on. The
structure of a workload (which subcommand on which carrier with which kind of
partition) is a fixed template list; the seed draws the random content of
each template (urn assignments, code generators, poset relations, level
sizes). Runs on different seeds therefore do comparable work.

A job is a plain dict:

- ``id``: stable name, unique within the workload;
- ``argv``: the argument list handed to ``dualpart.cli.main``;
- ``expect``: facts the output checks rely on, computed here independently
  of the library (carrier size, code size).
"""

from __future__ import annotations

import itertools
import json
import math
import random

WORKLOADS = ("sweep", "transform", "cli-cold")
DEFAULT_SEED = 0

Orders = tuple[int, ...]


# ---------------------------------------------------------------------------
# carriers, partitions, codes and posets, all in plain Python


def carrier(orders: Orders) -> list[tuple[int, ...]]:
    """Elements of the product of cyclic groups, in lexicographic order."""
    return list(itertools.product(*(range(n) for n in orders)))


def _fibers(orders: Orders, key) -> list[list[list[int]]]:
    out: dict[object, list[list[int]]] = {}
    for g in carrier(orders):
        out.setdefault(key(g), []).append(list(g))
    return list(out.values())


def hamming_blocks(orders: Orders) -> list[list[list[int]]]:
    """Fibers of the number of nonzero coordinates."""
    return _fibers(orders, lambda g: sum(1 for x in g if x))


def lee_blocks(orders: Orders) -> list[list[list[int]]]:
    """Fibers of the Lee weight, the sum of min(x, n - x) over coordinates."""
    return _fibers(orders, lambda g: sum(min(x, n - x) for x, n in zip(g, orders)))


def support_blocks(orders: Orders) -> list[list[list[int]]]:
    """Fibers of the support set; refines the dual of the Hamming partition."""
    return _fibers(orders, lambda g: tuple(i for i, x in enumerate(g) if x))


def urn_blocks(orders: Orders, urns: int, rng: random.Random,
               zero_block: bool = False) -> list[list[list[int]]]:
    """Random urn assignment into at most ``urns`` blocks, empties dropped.

    With ``zero_block`` the zero element is kept as a singleton block and
    only the other elements are assigned.
    """
    els = carrier(orders)
    if zero_block:
        els = els[1:]
    blocks: dict[int, list[list[int]]] = {}
    for g in els:
        blocks.setdefault(rng.randrange(urns), []).append(list(g))
    out = [blocks[k] for k in sorted(blocks)]
    if zero_block:
        out.append([[0] * len(orders)])
    return out


def closure(orders: Orders, gens: list[list[int]]) -> set[tuple[int, ...]]:
    """Additive span of the generators."""
    zero = (0,) * len(orders)
    span = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = tuple((x + y) % n for x, y, n in zip(a, b, orders))
                if c not in span:
                    span.add(c)
                    nxt.append(c)
        frontier = nxt
    return span


def _element_order(g: list[int], orders: Orders) -> int:
    return math.lcm(*(n // math.gcd(n, x) for x, n in zip(g, orders)))


def code_generators(orders: Orders, count: int, rng: random.Random,
                    order: int | None = None) -> tuple[list[list[int]], int]:
    """``count`` independent random generators, each of element order ``order``.

    ``order`` defaults to the exponent. Independence (code size equal to
    order ** count) keeps the code size, and so the work, the same across
    seeds. Returns the generators and the code size.
    """
    order = order or math.lcm(*orders)
    target = order ** count
    for _ in range(1000):
        gens = []
        while len(gens) < count:
            g = [rng.randrange(n) for n in orders]
            if _element_order(g, orders) == order:
                gens.append(g)
        size = len(closure(orders, gens))
        if size == target:
            return gens, size
    raise ValueError(f"no {count} independent generators found on {orders}")


def random_poset_covers(n: int, rng: random.Random, density: float = 0.3) -> list[list[int]]:
    """Relations of a random order on n coordinates (1-based pairs a < b).

    Edges go upward along a random linear extension, so they never form a
    cycle; the library takes the transitive closure.
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [
        [perm[i], perm[j]]
        for i in range(n) for j in range(i + 1, n)
        if rng.random() < density
    ]


def hierarchical_covers(n: int, levels: int, rng: random.Random) -> list[list[int]]:
    """Random level sizes and a random coordinate labelling, fully ordered between levels."""
    cuts = sorted(rng.sample(range(1, n), levels - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    coords = list(range(1, n + 1))
    rng.shuffle(coords)
    groups, pos = [], 0
    for s in sizes:
        groups.append(coords[pos:pos + s])
        pos += s
    return [[a, b] for lo, hi in zip(groups, groups[1:]) for a in lo for b in hi]


# ---------------------------------------------------------------------------
# job builders


def _group(orders: Orders) -> str:
    return json.dumps({"orders": list(orders)})


def _blocks(blocks: list) -> str:
    return json.dumps({"blocks": blocks})


def _partition(kind: str, orders: Orders, rng: random.Random) -> list:
    if kind == "hamming":
        return hamming_blocks(orders)
    if kind == "lee":
        return lee_blocks(orders)
    if kind.startswith("urn"):
        return urn_blocks(orders, int(kind[3:]), rng)
    if kind.startswith("zero"):
        return urn_blocks(orders, int(kind[4:]), rng, zero_block=True)
    raise ValueError(f"unknown partition kind {kind!r}")


def _name(orders: Orders) -> str:
    if len(set(orders)) == 1 and len(orders) > 2:
        return f"{orders[0]}^{len(orders)}"
    return "x".join(str(n) for n in orders)


def partition_job(cmd: str, orders: Orders, kind: str, rng: random.Random) -> dict:
    """dual, bidual or reflexive on a seeded partition."""
    return {
        "argv": [cmd, "--group", _group(orders), "--partition",
                 _blocks(_partition(kind, orders, rng))],
        "expect": {"size": math.prod(orders)},
        "tag": f"{cmd}-{_name(orders)}-{kind}",
    }


def krawtchouk_job(orders: Orders, kind: str, char: str | None, rng: random.Random) -> dict:
    """krawtchouk, with the character side given explicitly when ``char`` is set.

    A given character partition must refine the dual. The Hamming partition
    is its own dual on equal orders, and the support partition refines the
    Hamming dual on any carrier.
    """
    argv = ["krawtchouk", "--group", _group(orders), "--partition",
            _blocks(_partition(kind, orders, rng))]
    if char == "hamming":
        argv += ["--char-partition", _blocks(hamming_blocks(orders))]
    elif char == "support":
        argv += ["--char-partition", _blocks(support_blocks(orders))]
    return {
        "argv": argv,
        "expect": {"size": math.prod(orders)},
        "tag": f"krawtchouk-{_name(orders)}-{kind}" + (f"-char-{char}" if char else ""),
    }


def macwilliams_job(orders: Orders, kind: str, gens: int, order: int,
                    rng: random.Random) -> dict:
    """macwilliams with a code of ``gens`` independent generators of one element order."""
    part = _partition(kind, orders, rng)
    generators, size = code_generators(orders, gens, rng, order)
    return {
        "argv": ["macwilliams", "--group", _group(orders), "--partition", _blocks(part),
                 "--code", json.dumps({"generators": generators})],
        "expect": {"size": math.prod(orders), "code_size": size},
        "tag": f"macwilliams-{_name(orders)}-{kind}-k{gens}",
    }


def poset_job(cmd: str, orders: Orders, shape: str, rng: random.Random) -> dict:
    """poset-check on a random order, or any poset command on a hierarchical one.

    poset-krawtchouk is only defined when the transposed order refines the
    dual, which holds for hierarchical orders whose levels share one
    coordinate order; the carriers used here have equal orders throughout.
    """
    n = len(orders)
    if shape == "random":
        covers = random_poset_covers(n, rng)
    else:
        covers = hierarchical_covers(n, int(shape[4:]), rng)
    return {
        "argv": [cmd, "--group", _group(orders), "--poset",
                 json.dumps({"n": n, "cover": covers})],
        "expect": {"size": math.prod(orders)},
        "tag": f"{cmd}-{_name(orders)}-{shape}",
    }


def induced_job(cmd: str, base: Orders, kind: str, copies: int, gens: int,
                check: bool, rng: random.Random) -> dict:
    """product or symmetrize on ``copies`` copies of a base, optionally with a code."""
    argv = [cmd, "--group", _group(base), "--partition", _blocks(_partition(kind, base, rng)),
            "--copies", str(copies)]
    big = base * copies
    expect: dict = {"size": math.prod(big)}
    if gens:
        generators, size = code_generators(big, gens, rng)
        argv += ["--code", json.dumps({"generators": generators})]
        expect["code_size"] = size
    if check:
        argv.append("--check")
    tag = f"{cmd}-{_name(base)}x{copies}-{kind}" + (f"-k{gens}" if gens else "")
    return {"argv": argv, "expect": expect, "tag": tag + ("-check" if check else "")}


def subgroups_job(orders: Orders, include: bool) -> dict:
    argv = ["subgroups", "--group", _group(orders)]
    if include:
        argv.append("--include-elements")
    return {"argv": argv, "expect": {"size": math.prod(orders)},
            "tag": f"subgroups-{_name(orders)}" + ("-elements" if include else "")}


def check_job(suite: str) -> dict:
    return {"argv": ["check", "--suite", suite], "expect": {}, "tag": f"check-{suite}"}


# ---------------------------------------------------------------------------
# workloads

MANY_FACTORS = [(2,) * 8, (2,) * 9, (3,) * 5, (3,) * 6]
MIXED = [(16, 16), (8, 8, 8), (4, 4, 4, 4), (12, 12, 4)]


def _sweep(rng: random.Random) -> list[dict]:
    # the largest sweep rows first, on a fresh heap, so they set the memory peak
    jobs = [partition_job("bidual", (256,), "lee", rng)]
    # high phi(E): few characters, long coefficient vectors
    jobs += [partition_job("dual", (128,), k, rng) for k in ("hamming", "urn6", "zero4")]
    jobs += [partition_job("bidual", (128,), "urn4", rng),
             partition_job("reflexive", (128,), "zero6", rng)]
    jobs += [partition_job("dual", (210,), k, rng) for k in ("hamming", "urn6")]
    jobs += [partition_job("reflexive", (210,), "urn5", rng),
             macwilliams_job((210,), "hamming", 1, 14, rng)]
    # ten jobs of about 1 s or more: two rounds give 20 samples above p90, so
    # p90 falls inside this group of long, least noisy jobs, not on its edge
    jobs += [partition_job("dual", (256,), k, rng) for k in ("hamming", "zero3")]
    jobs += [partition_job("reflexive", (256,), "lee", rng),
             krawtchouk_job((256,), "hamming", None, rng),
             krawtchouk_job((256,), "zero4", None, rng),
             macwilliams_job((256,), "hamming", 1, 16, rng),
             macwilliams_job((256,), "hamming", 1, 8, rng),
             macwilliams_job((256,), "zero3", 1, 16, rng)]
    jobs += [partition_job("dual", (512,), "hamming", rng),
             krawtchouk_job((512,), "hamming", "hamming", rng)]
    # many factors: many characters, short vectors
    for orders in MANY_FACTORS:
        jobs += [poset_job("poset-krawtchouk", orders, "hier2", rng)]
    for orders in MANY_FACTORS[:3]:
        jobs += [partition_job("dual", orders, "hamming", rng),
                 poset_job("poset-check", orders, "random", rng)]
    jobs += [partition_job("reflexive", orders, "zero4", rng) for orders in MANY_FACTORS[::2]]
    jobs += [partition_job("dual", (2,) * 8, "urn6", rng),
             partition_job("bidual", (3,) * 5, "lee", rng),
             macwilliams_job((2,) * 8, "hamming", 3, 2, rng),
             macwilliams_job((3,) * 5, "zero5", 2, 3, rng),
             krawtchouk_job((2,) * 8, "urn4", None, rng),
             krawtchouk_job((2,) * 9, "hamming", "hamming", rng),
             krawtchouk_job((3,) * 6, "hamming", "hamming", rng),
             poset_job("poset-krawtchouk", (2,) * 9, "hier3", rng)]
    # mixed orders
    for orders in MIXED:
        jobs += [partition_job("dual", orders, "lee", rng),
                 krawtchouk_job(orders, "hamming", "support", rng)]
    jobs += [partition_job("bidual", orders, "zero4", rng) for orders in MIXED[::2]]
    jobs += [partition_job("dual", (16, 16), "urn6", rng),
             partition_job("reflexive", (4, 4, 4, 4), "urn4", rng),
             macwilliams_job((16, 16), "hamming", 1, 16, rng),
             macwilliams_job((4, 4, 4, 4), "lee", 2, 4, rng),
             poset_job("poset-check", (8, 8, 8), "random", rng),
             poset_job("poset-krawtchouk", (4, 4, 4, 4), "hier2", rng),
             poset_job("poset-check", (16, 16), "hier2", rng)]
    # one small job for each remaining layer, so every traced span is exercised
    jobs += [induced_job("product", (3,), "hamming", 3, 1, True, rng),
             induced_job("symmetrize", (4,), "lee", 2, 1, True, rng),
             subgroups_job((2, 4), False),
             check_job("cyclotomic")]
    return jobs


def _transform(rng: random.Random) -> list[dict]:
    jobs = []
    plan = [
        # base, kinds, (copies, generators) pairs
        ((2,), ("hamming",), [(8, 2), (8, 4), (8, 6), (9, 3), (9, 5), (10, 2), (10, 4),
                              (10, 5), (10, 6), (11, 2), (11, 4), (11, 5)]),
        ((3,), ("hamming", "lee"), [(5, 2), (5, 4), (6, 3), (6, 5), (6, 6)]),
        ((4,), ("hamming", "lee"), [(4, 2), (4, 4), (5, 3), (5, 5), (6, 2), (6, 4), (6, 5)]),
    ]
    for base, kinds, sizes in plan:
        for kind in kinds:
            for copies, gens in sizes:
                for cmd in ("product", "symmetrize"):
                    jobs.append(induced_job(cmd, base, kind, copies, gens, False, rng))
    jobs += [induced_job("product", (2,), "hamming", 8, 3, True, rng),
             induced_job("symmetrize", (3,), "lee", 5, 2, True, rng),
             induced_job("product", (4,), "lee", 4, 2, True, rng),
             induced_job("symmetrize", (4,), "hamming", 5, 3, True, rng)]
    # one small job for each remaining layer, so every traced span is exercised
    jobs += [macwilliams_job((2, 4), "hamming", 1, 4, rng),
             poset_job("poset-krawtchouk", (2, 2, 2), "hier2", rng),
             subgroups_job((2, 4), False),
             check_job("cyclotomic")]
    return jobs


def _cli_cold(rng: random.Random) -> list[dict]:
    jobs = []
    small = [(16,), (24,), (2, 8), (3, 9), (4, 4), (2,) * 5, (6, 6), (2, 2, 12)]
    for orders in small:
        jobs += [partition_job("dual", orders, "urn4", rng),
                 partition_job("bidual", orders, "zero3", rng),
                 partition_job("reflexive", orders, "lee", rng),
                 krawtchouk_job(orders, "hamming", None, rng)]
    jobs += [macwilliams_job(o, k, 1, order, rng) for o, k, order in
             [((16,), "lee", 4), ((2, 8), "hamming", 8), ((4, 4), "zero3", 4), ((6, 6), "urn4", 6)]]
    jobs += [induced_job(cmd, base, kind, copies, gens, check, rng)
             for cmd, base, kind, copies, gens, check in [
                 ("product", (2,), "hamming", 5, 2, False),
                 ("product", (3,), "lee", 3, 0, True),
                 ("product", (4,), "hamming", 3, 1, False),
                 ("symmetrize", (2,), "hamming", 6, 2, False),
                 ("symmetrize", (3,), "hamming", 3, 0, True),
                 ("symmetrize", (4,), "lee", 3, 1, False)]]
    for orders in [(2,) * 4, (3,) * 3, (2,) * 6, (4, 4, 4)]:
        jobs += [poset_job("poset-partition", orders, "random", rng),
                 poset_job("poset-check", orders, "random", rng),
                 poset_job("poset-krawtchouk", orders, "hier2", rng)]
    jobs += [subgroups_job(o, inc) for o, inc in
             [((32,), False), ((2, 8), True), ((2, 2, 4), False), ((3, 9), False), ((2,) * 5, False)]]
    jobs += [check_job(s) for s in ("cyclotomic", "poset", "group")]
    return jobs


_BUILDERS = {"sweep": _sweep, "transform": _transform, "cli-cold": _cli_cold}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one round of a workload, fully determined by the seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = f"{i:03d}-{job.pop('tag')}"
    return jobs


def dumps(jobs: list[dict]) -> str:
    """Canonical text of a job list; equal seeds give equal bytes."""
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")) + "\n"
