"""Time ``dual_partition``, the Krawtchouk matrix, the product transform, the
subgroup enumeration, the printing of induced partitions and the poset weight
partition on fixed carriers, each case in its own capped child processes.

    python3 scripts/sweep_cases.py [--src DIR] [--timeout S] [--limit-gib G] [--case NAME ...]

Every field of seconds is the least of repeated runs, which stops once the
runs took 0.5 s in all, or after 20 runs; each field's run count is
reported beside it (``runs`` for the sweep, ``<field>_runs`` for the rest).
Every sweep case (``CASES``) builds its partition in a fresh ``python3``
child under an address-space limit (``RLIMIT_AS``) and a timeout, and times
``dual_partition``, each run on a fresh copy of the partition made from its
labels, untimed, with its ``blocks`` read before the clock starts. Then it
times ``krawtchouk(part, dual)`` on the last copy, with the dual's
``blocks`` read first, and its document written by ``write_json`` to
``os.devnull``; the document is then written once more into a sha256,
untimed, so runs over two source trees can be checked to print the same
matrix. A partition is Hamming, Lee, random (``random_partition``) or
``k urns``, each element in one of k urns drawn with ``random.Random(0)``:
few blocks and many rows. Every transform case (``TRANSFORM_CASES``) builds
a base partition, a code on a power of its carrier, the code's dual and the
factor matrix, then times what ``dualpart product --code`` and
``symmetrize --code`` spend in the layer: ``product_enumerator`` of the code
and of its dual, ``product_transform``, and ``symmetrized_enumerator`` of
both. Separately it times ``symmetrized_transform`` of the code's
composition counts (``symmetrized_seconds``), and the code layer
(``code_seconds``): ``generate`` of the code and ``dual_code`` of it. The
child checks that each transform equals the dual's enumerator, and that
|C| * |C-perp| = |G|.
Every subgroup case (``SUBGROUP_CASES``) times ``all_subgroups`` of its
carrier and counts the subgroups. Every print case (``PRINT_CASES``) builds
the document of ``dualpart product`` or ``symmetrize`` with the CLI's own
handler and times ``write_json`` of it to ``os.devnull``; it reports the
document's size and the sha256 of its text, so runs over two source trees
can be checked to print the same bytes. Every poset case (``POSET_CASES``)
draws a random order (density 0.3) or builds a hierarchical one, and times
``poset_partition`` and ``poset_duality_check``; it reports the sha256 of the
partition's labels and of the report's fields. Every case runs in ``CHILDREN``
child processes, and each of its timings is the median over them, with the
runs of the child that gave it; its other fields are the first child's. One
process can sit in a slow mode for all its runs, which its least of repeats
cannot remove. One JSON document goes to stdout:
``{python, limit_gib, timeout_s, cases: [{name, seconds, runs, peak_rss_mb,
blocks, dual_blocks, krawtchouk_seconds, krawtchouk_runs,
krawtchouk_peak_rss_mb, krawtchouk_bytes, krawtchouk_sha256, status}],
transform_cases: [{name, transform_seconds, transform_runs,
symmetrized_seconds, symmetrized_runs, code_seconds, code_runs, code_size, keys,
status}], subgroup_cases: [{name, subgroup_seconds, subgroup_runs,
subgroups, status}], print_cases: [{name, print_seconds, print_runs, bytes,
sha256, status}], poset_cases: [{name, partition_seconds, partition_runs,
check_seconds, check_runs, blocks, labels_sha256, report_sha256, status}]}``.
``peak_rss_mb`` is read
before the matrix is built; the ``krawtchouk_`` fields are null where the
matrix exceeds the matrix guard. ``status`` is ``ok``, ``oom`` (the child
ran out of address space), ``timeout`` or ``error``; a case that did not
finish has null numbers. ``--src`` picks the source tree to import, so two
checkouts can be measured with the same script. Carriers above the element
guard pass their size as ``max_size``.

To compare two trees, alternate whole runs of the script over them an even
number of times and swap which tree runs first in each alternation (A B,
then B A: ABBA). Within one alternation the tree run second reads slower on
the same code, so an odd number of alternations, or the same tree always
first, biases the medians against one tree.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

CASES = {
    "(2,)^12 hamming": ((2,) * 12, "hamming"),
    "(4,)^6 hamming": ((4,) * 6, "hamming"),
    "(64,64) hamming": ((64, 64), "hamming"),
    "(8,8,8,8) hamming": ((8,) * 4, "hamming"),
    "(3,)^7 hamming": ((3,) * 7, "hamming"),
    "(4096,) hamming": ((4096,), "hamming"),
    "(2,2048) hamming": ((2, 2048), "hamming"),
    "(256,) lee": ((256,), "lee"),
    "(4096,) lee": ((4096,), "lee"),
    "(1021,4) hamming": ((1021, 4), "hamming"),
    "(2,)^10 random": ((2,) * 10, "random"),
    "(256,) random": ((256,), "random"),
    "(210,) random": ((210,), "random"),
    "(1024,) random": ((1024,), "random"),
    "(4096,) random": ((4096,), "random"),
    "(2,2048) random": ((2, 2048), "random"),
    "(4,)^8 hamming": ((4,) * 8, "hamming"),
    "(2,)^16 hamming": ((2,) * 16, "hamming"),
    # few blocks, many rows: each element in one of k urns, the matrix with the dual
    "(256,) 5 urns": ((256,), "urns5"),
    "(210,) 6 urns": ((210,), "urns6"),
    "(16,16) 6 urns": ((16, 16), "urns6"),
    "(3,)^5 6 urns": ((3,) * 5, "urns6"),
    "(1155,) 3 urns": ((1155,), "urns3"),
}

# base orders, base partition, copies, and the code: that many random generators,
# each outside the code the earlier ones generate, or the generators themselves
TRANSFORM_CASES = {
    "(2,)^12 hamming, 64 words": ((2,), "hamming", 12, 6),
    "(2,)^11 hamming k2": ((2,), "hamming", 11, 2),
    "(4,)^6 lee k5": ((4,), "lee", 6, 5),
    "(4,)^6 singletons": ((4,), "singletons", 6, 2),
    "(5,)^5 singletons": ((5,), "singletons", 5, 2),
    "(8,)^4 singletons": ((8,), "singletons", 4, 2),
    "(7,)^5 lee, 49 words": ((7,), "lee", 5, [(1, 2, 3, 4, 5), (0, 1, 1, 2, 6)]),
    "(12,)^3 singletons, 12 words": ((12,), "singletons", 3, [(1, 1, 1)]),
    "(32,)^2 random reflexive, 8 words": ((32,), "random", 2, [(4, 12)]),
    "(64,)^2 singletons": ((64,), "singletons", 2, 1),
}

# carriers at the subgroup guard, 64 elements, and one below it
SUBGROUP_CASES = {
    "(2,)^5 subgroups": (2,) * 5,
    "(2,)^6 subgroups": (2,) * 6,
    "(4,2,2,2,2) subgroups": (4, 2, 2, 2, 2),
    "(2,2,4,4) subgroups": (2, 2, 4, 4),
}

# command, base orders, base blocks and copies of an induced-partition document
PRINT_CASES = {
    "(4,)^6 lee product": ("product", [4], [[[0]], [[1], [3]], [[2]]], 6),
    "(4,)^6 lee symmetrize": ("symmetrize", [4], [[[0]], [[1], [3]], [[2]]], 6),
    "(2,)^11 hamming product": ("product", [2], [[[0]], [[1]]], 11),
}

# carrier and the poset: "random" (relations upward along a random linear
# extension, each with chance 0.3, as the benchmark draws them) or hierarchical levels
POSET_CASES = {
    "(3,)^6 random poset": ((3,) * 6, "random"),
    "(4,)^5 random poset": ((4,) * 5, "random"),
    "(2,)^9 random poset": ((2,) * 9, "random"),
    "(2,)^12 random poset": ((2,) * 12, "random"),
    "(2,)^9 hierarchical poset": ((2,) * 9, (3, 3, 3)),
}

CHILDREN = 3  # child processes per case

LEAST = """
import time


def least(timed):
    \"\"\"The least of repeated timed() calls, each returning its own seconds, until
    they took 0.5 s in all or 20 ran; and how many ran.\"\"\"
    times = []
    while len(times) < 20 and sum(times) < 0.5:
        times.append(timed())
    return min(times), len(times)
"""

PRINT_CHILD = """
import hashlib, io, json, os, resource, sys
limit = {limit}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {src!r})
from dualpart.cli import build_parser
from dualpart.serialization import write_json
args = build_parser().parse_args({argv!r})
doc, _ = args.handler(args)


def timed():
    with open(os.devnull, "w") as sink:
        start = time.perf_counter()
        write_json(doc, sink)
        return time.perf_counter() - start


seconds, runs = least(timed)
text = io.StringIO()
write_json(doc, text)
print(json.dumps({{"print_seconds": round(seconds, 5), "print_runs": runs,
                  "bytes": len(text.getvalue()),
                  "sha256": hashlib.sha256(text.getvalue().encode()).hexdigest()}}))
"""

POSET_CHILD = """
import hashlib, json, random, resource, sys
limit = {limit}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {src!r})
from dualpart.group import GroupSpec
from dualpart.poset import Poset, hierarchical_poset, poset_duality_check, poset_partition
orders, shape = {orders!r}, {shape!r}
g, n = GroupSpec(orders), len(orders)
if shape == "random":
    rng = random.Random(0)
    perm = list(range(n))
    rng.shuffle(perm)
    p = Poset.from_covers(n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < 0.3])
else:
    p = hierarchical_poset(shape)
last = []


def partition_timed():
    start = time.perf_counter()
    last[:] = [poset_partition(p, g, max_size=g.size)]
    return time.perf_counter() - start


def check_timed():
    start = time.perf_counter()
    last[:] = [poset_duality_check(p, g, max_size=g.size)]
    return time.perf_counter() - start


pseconds, pruns = least(partition_timed)
part = last[0]
cseconds, cruns = least(check_timed)
r = last[0]
fields = [r.equal, r.dual_refines_transposed, r.transposed_refines_dual,
          None if r.shape is None else list(r.shape.levels), r.levels_equal_order]
print(json.dumps({{"partition_seconds": round(pseconds, 6), "partition_runs": pruns,
                  "check_seconds": round(cseconds, 5), "check_runs": cruns,
                  "blocks": part.num_blocks,
                  "labels_sha256": hashlib.sha256(repr(part.block_of).encode()).hexdigest(),
                  "report_sha256": hashlib.sha256(json.dumps(fields).encode()).hexdigest()}}))
"""

SUBGROUP_CHILD = """
import json, resource, sys
limit = {limit}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {src!r})
from dualpart.group import GroupSpec, all_subgroups
g = GroupSpec({orders!r})
counts = []


def timed():
    start = time.perf_counter()
    subs = all_subgroups(g)
    seconds = time.perf_counter() - start
    counts.append(len(subs))
    return seconds


seconds, runs = least(timed)
print(json.dumps({{"subgroup_seconds": round(seconds, 5), "subgroup_runs": runs,
                  "subgroups": counts[-1]}}))
"""

TRANSFORM_CHILD = """
import json, random, resource, sys
limit = {limit}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {src!r})
from dualpart.enumerator import (product_enumerator, product_transform, symmetrized_enumerator,
                                 symmetrized_transform)
from dualpart.group import GroupSpec, dual_code, elements, generate
from dualpart.induced import power_group
from dualpart.partition import Partition, dual_partition, krawtchouk, random_reflexive_partition
orders, kind, copies, gens = {orders!r}, {kind!r}, {copies!r}, {gens!r}
g = GroupSpec(orders)
if kind == "hamming":
    base = Partition.from_labels(g, map(lambda x: sum(1 for c in x if c), elements(g, g.size)))
elif kind == "lee":
    base = Partition.from_labels(g, map(lambda x: sum(min(c, n - c) for c, n in zip(x, orders)),
                                        elements(g, g.size)))
elif kind == "singletons":
    base = Partition.singletons(g)
else:
    base = random_reflexive_partition(g, random.Random(0))
big = power_group(g, copies)
if isinstance(gens, int):
    rng, picked = random.Random(0), []
    while len(picked) < gens:
        x = rng.choice(elements(big))
        if x not in generate(big, picked).elements:
            picked.append(x)
    gens = picked
code = generate(big, gens)
dual_base = dual_partition(base)
matrix = krawtchouk(dual_base, base)
perp = dual_code(big, code, max_size=big.size)
keys = []


def timed():
    start = time.perf_counter()
    out = product_transform(product_enumerator(code, [base] * copies), [matrix] * copies,
                            code.size)
    direct = product_enumerator(perp, [dual_base] * copies)
    symmetrized_enumerator(code, base, copies)
    symmetrized_enumerator(perp, dual_base, copies)
    seconds = time.perf_counter() - start
    assert out.counts == direct.counts
    keys.append(len(out.counts))
    return seconds


compositions = symmetrized_enumerator(code, base, copies)
dual_compositions = symmetrized_enumerator(perp, dual_base, copies)


def symmetrized_timed():
    start = time.perf_counter()
    out = symmetrized_transform(compositions, matrix, code.size)
    seconds = time.perf_counter() - start
    assert out.counts == dual_compositions.counts
    return seconds


def code_timed():
    start = time.perf_counter()
    c = generate(big, gens)
    c_perp = dual_code(big, c, max_size=big.size)
    seconds = time.perf_counter() - start
    assert c.size * c_perp.size == big.size
    return seconds


seconds, runs = least(timed)
sseconds, sruns = least(symmetrized_timed)
cseconds, cruns = least(code_timed)
print(json.dumps({{"transform_seconds": round(seconds, 5), "transform_runs": runs,
                  "symmetrized_seconds": round(sseconds, 6), "symmetrized_runs": sruns,
                  "code_seconds": round(cseconds, 6), "code_runs": cruns,
                  "code_size": code.size, "keys": keys[-1]}}))
"""

CHILD = """
import hashlib, json, os, random, resource, sys
limit = {limit}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {src!r})
from dualpart.errors import GuardExceeded
from dualpart.group import GroupSpec, elements
from dualpart.partition import Partition, dual_partition, krawtchouk, random_partition
from dualpart.serialization import write_json
orders, kind = {orders!r}, {kind!r}
g = GroupSpec(orders)
if kind == "hamming":
    part = Partition.from_labels(g, map(lambda x: sum(1 for c in x if c), elements(g, g.size)))
elif kind == "lee":
    part = Partition.from_labels(g, map(lambda x: sum(min(c, n - c) for c, n in zip(x, orders)),
                                        elements(g, g.size)))
elif kind.startswith("urns"):
    rng = random.Random(0)
    part = Partition.from_labels(g, [rng.randrange(int(kind[4:])) for _ in range(g.size)])
else:
    part = random_partition(g, random.Random(0), max_size=g.size)
last = []


def timed():
    fresh = Partition.from_labels(g, part.block_of)
    fresh.blocks  # built before the clock starts, so only the sweep is timed
    start = time.perf_counter()
    dual_partition(fresh, max_size=g.size)
    seconds = time.perf_counter() - start
    last[:] = [fresh]
    return seconds


seconds, runs = least(timed)
part = last[0]  # the last copy keeps its dual for the matrix
dual = dual_partition(part, max_size=g.size)
dual.blocks  # the matrix's row representatives, read before its clock starts
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
kseconds = kruns = krss = kbytes = ksha = None


class Digest:
    def __init__(self):
        self.hash, self.size = hashlib.sha256(), 0

    def write(self, text):
        self.hash.update(text.encode())
        self.size += len(text)


def ktimed():
    last.clear()  # one matrix at a time, so the peak is that of one build
    with open(os.devnull, "w") as sink:
        start = time.perf_counter()
        last[:] = [krawtchouk(part, dual, max_size=g.size)]
        write_json(last[0], sink)
        return time.perf_counter() - start


try:
    kseconds, kruns = least(ktimed)
    kseconds = round(kseconds, 5)
    krss = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    digest = Digest()
    write_json(last[0], digest)
    kbytes, ksha = digest.size, digest.hash.hexdigest()
except GuardExceeded:
    pass
print(json.dumps({{"seconds": round(seconds, 5), "runs": runs,
                  "peak_rss_mb": round(rss, 1),
                  "blocks": part.num_blocks, "dual_blocks": dual.num_blocks,
                  "krawtchouk_seconds": kseconds, "krawtchouk_runs": kruns,
                  "krawtchouk_peak_rss_mb": krss,
                  "krawtchouk_bytes": kbytes, "krawtchouk_sha256": ksha}}))
"""


def median_child(rows: list[dict], fields: tuple[str, ...]) -> dict:
    """The first row, with each field's seconds and runs taken from the child whose
    seconds are the median (the upper one for an even count). The field "" is the
    sweep's own ``seconds`` and ``runs``; a field null in the first row stays null."""
    out = dict(rows[0])
    for f in fields:
        seconds, runs = (f + "_seconds", f + "_runs") if f else ("seconds", "runs")
        if out[seconds] is not None:
            mid = sorted(rows, key=lambda r: r[seconds])[len(rows) // 2]
            out[seconds], out[runs] = mid[seconds], mid[runs]
    return out


def run_case(name: str, src: str, limit_gib: float, timeout: float) -> dict:
    """The case's row from ``CHILDREN`` child processes: the first failed one, or
    each timing from its median child (``median_child``)."""
    limit = int(limit_gib * (1 << 30))
    if name in TRANSFORM_CASES:
        orders, kind, copies, gens = TRANSFORM_CASES[name]
        code = TRANSFORM_CHILD.format(limit=limit, src=src, orders=orders, kind=kind,
                                      copies=copies, gens=gens)
        row = {"name": name, "transform_seconds": None, "transform_runs": None,
               "symmetrized_seconds": None, "symmetrized_runs": None, "code_seconds": None,
               "code_runs": None, "code_size": None, "keys": None}
        fields = ("transform", "symmetrized", "code")
    elif name in PRINT_CASES:
        cmd, orders, blocks, copies = PRINT_CASES[name]
        argv = [cmd, "--group", json.dumps({"orders": orders}),
                "--partition", json.dumps({"blocks": blocks}), "--copies", str(copies)]
        code = PRINT_CHILD.format(limit=limit, src=src, argv=argv)
        row = {"name": name, "print_seconds": None, "print_runs": None, "bytes": None,
               "sha256": None}
        fields = ("print",)
    elif name in POSET_CASES:
        orders, shape = POSET_CASES[name]
        code = POSET_CHILD.format(limit=limit, src=src, orders=orders, shape=shape)
        row = {"name": name, "partition_seconds": None, "partition_runs": None,
               "check_seconds": None, "check_runs": None, "blocks": None,
               "labels_sha256": None, "report_sha256": None}
        fields = ("partition", "check")
    elif name in SUBGROUP_CASES:
        code = SUBGROUP_CHILD.format(limit=limit, src=src, orders=SUBGROUP_CASES[name])
        row = {"name": name, "subgroup_seconds": None, "subgroup_runs": None,
               "subgroups": None}
        fields = ("subgroup",)
    else:
        orders, kind = CASES[name]
        code = CHILD.format(limit=limit, src=src, orders=orders, kind=kind)
        row = {"name": name, "seconds": None, "runs": None, "peak_rss_mb": None, "blocks": None,
               "dual_blocks": None, "krawtchouk_seconds": None, "krawtchouk_runs": None,
               "krawtchouk_peak_rss_mb": None, "krawtchouk_bytes": None,
               "krawtchouk_sha256": None}
        fields = ("", "krawtchouk")
    rows = [run_child(row, code, timeout) for _ in range(CHILDREN)]
    bad = [r for r in rows if r["status"] != "ok"]
    return bad[0] if bad else median_child(rows, fields)


def run_child(row: dict, code: str, timeout: float) -> dict:
    """``row`` filled in from one child process running ``code``, with its status."""
    try:
        done = subprocess.run([sys.executable, "-c", LEAST + code], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**row, "status": "timeout"}
    if done.returncode == 0:
        return {**row, **json.loads(done.stdout), "status": "ok"}
    return {**row, "status": "oom" if "MemoryError" in done.stderr else "error"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--limit-gib", type=float, default=2.0)
    parser.add_argument("--case", action="append",
                        choices=sorted([*CASES, *TRANSFORM_CASES, *SUBGROUP_CASES,
                                        *PRINT_CASES, *POSET_CASES]))
    args = parser.parse_args(argv)
    names = args.case or [*CASES, *TRANSFORM_CASES, *SUBGROUP_CASES, *PRINT_CASES,
                          *POSET_CASES]
    src = str(Path(args.src).resolve())
    doc = {
        "python": platform.python_version(),
        "limit_gib": args.limit_gib,
        "timeout_s": args.timeout,
        "cases": [run_case(n, src, args.limit_gib, args.timeout)
                  for n in names if n in CASES],
        "transform_cases": [run_case(n, src, args.limit_gib, args.timeout)
                            for n in names if n in TRANSFORM_CASES],
        "subgroup_cases": [run_case(n, src, args.limit_gib, args.timeout)
                           for n in names if n in SUBGROUP_CASES],
        "print_cases": [run_case(n, src, args.limit_gib, args.timeout)
                        for n in names if n in PRINT_CASES],
        "poset_cases": [run_case(n, src, args.limit_gib, args.timeout)
                        for n in names if n in POSET_CASES],
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
