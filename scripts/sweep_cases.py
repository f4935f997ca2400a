"""Time ``dual_partition`` and the Krawtchouk matrix on fixed carriers, each case in
its own capped process.

    python3 scripts/sweep_cases.py [--src DIR] [--timeout S] [--limit-gib G] [--case NAME ...]

Every case builds its partition, then times one ``dual_partition`` call in
a fresh ``python3`` child under an address-space limit (``RLIMIT_AS``) and a
timeout, and then one ``krawtchouk(part, dual)`` with its document written
by ``write_json`` to ``os.devnull``. One JSON document goes to stdout:
``{python, limit_gib, timeout_s, cases: [{name, seconds, peak_rss_mb,
blocks, dual_blocks, krawtchouk_seconds, krawtchouk_peak_rss_mb,
status}]}``. ``peak_rss_mb`` is read before the matrix is built; the
``krawtchouk_`` fields are null where the matrix exceeds the matrix guard.
``status`` is ``ok``, ``oom`` (the child ran out of address space),
``timeout`` or ``error``; a case that did not finish has null numbers.
``--src`` picks the source tree to import, so two checkouts can be measured
with the same script. Carriers above the element guard pass their size as
``max_size``.
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
}

CHILD = """
import json, os, random, resource, sys, time
limit = {limit}
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, {src!r})
from dualpart.errors import GuardExceeded
from dualpart.group import GroupSpec
from dualpart.partition import Partition, dual_partition, krawtchouk, random_partition
from dualpart.serialization import krawtchouk_to_json, write_json
orders, kind = {orders!r}, {kind!r}
g = GroupSpec(orders)
if kind == "hamming":
    part = Partition.from_weight(g, lambda x: sum(1 for c in x if c), max_size=g.size)
elif kind == "lee":
    part = Partition.from_weight(g, lambda x: sum(min(c, n - c) for c, n in zip(x, orders)),
                                 max_size=g.size)
else:
    part = random_partition(g, random.Random(0), max_size=g.size)
start = time.perf_counter()
dual = dual_partition(part, max_size=g.size)
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
kseconds = krss = None
start = time.perf_counter()
try:
    with open(os.devnull, "w") as sink:
        write_json(krawtchouk_to_json(krawtchouk(part, dual, max_size=g.size)), sink)
    kseconds = round(time.perf_counter() - start, 4)
    krss = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
except GuardExceeded:
    pass
print(json.dumps({{"seconds": round(seconds, 4), "peak_rss_mb": round(rss, 1),
                  "blocks": part.num_blocks, "dual_blocks": dual.num_blocks,
                  "krawtchouk_seconds": kseconds, "krawtchouk_peak_rss_mb": krss}}))
"""


def run_case(name: str, src: str, limit_gib: float, timeout: float) -> dict:
    orders, kind = CASES[name]
    code = CHILD.format(limit=int(limit_gib * (1 << 30)), src=src, orders=orders, kind=kind)
    row = {"name": name, "seconds": None, "peak_rss_mb": None, "blocks": None,
           "dual_blocks": None, "krawtchouk_seconds": None, "krawtchouk_peak_rss_mb": None}
    try:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=timeout)
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
    parser.add_argument("--case", action="append", choices=sorted(CASES))
    args = parser.parse_args(argv)
    names = args.case or list(CASES)
    doc = {
        "python": platform.python_version(),
        "limit_gib": args.limit_gib,
        "timeout_s": args.timeout,
        "cases": [run_case(n, str(Path(args.src).resolve()), args.limit_gib, args.timeout)
                  for n in names],
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
