"""Output checks made from outside the library, and stdout digests.

Nothing here imports ``dualpart``. Each check reads the job's stdout as
JSON and tests it against facts the payload generator computed on its own
(carrier size, code size) and against identities every correct answer
satisfies: partitions cover the carrier exactly once, the reflexivity flag
matches the block counts, transformed distributions sum to |G|/|C|, and
every ``verified`` field is true.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _verified_fields(obj) -> list:
    if isinstance(obj, dict):
        out = [v for k, v in obj.items() if k == "verified"]
        for v in obj.values():
            out += _verified_fields(v)
        return out
    if isinstance(obj, list):
        return [x for v in obj for x in _verified_fields(v)]
    return []


def _covers(blocks: list, orders: list[int], what: str) -> None:
    """The blocks hold every element of the carrier exactly once."""
    size = 1
    for n in orders:
        size *= n
    seen = set()
    for block in blocks:
        _require(len(block) > 0, f"{what}: empty block")
        for g in block:
            _require(len(g) == len(orders) and all(0 <= x < n for x, n in zip(g, orders)),
                     f"{what}: element {g} is not in the carrier")
            seen.add(tuple(g))
    count = sum(len(b) for b in blocks)
    _require(count == size and len(seen) == size,
             f"{what}: {count} entries for {len(seen)} distinct of {size} elements")


def _canon(blocks: list) -> list:
    return sorted(sorted(map(tuple, b)) for b in blocks)


def _shape(matrix: dict, rows: int, cols: int, what: str) -> None:
    entries = matrix["entries"]
    _require(len(entries) == rows and all(len(r) == cols for r in entries),
             f"{what}: matrix is not {rows} x {cols}")


def check_document(job: dict, doc: dict) -> None:
    """Raise CheckFailed unless the parsed output is right for the job."""
    cmd = job["argv"][0]
    expect = job["expect"]
    _require(doc.get("command") == cmd, f"command is {doc.get('command')!r}, not {cmd!r}")
    _require(all(v is True for v in _verified_fields(doc)), "a verified field is not true")
    orders = doc.get("group", {}).get("orders")
    if "size" in expect and orders is not None:
        size = 1
        for n in orders:
            size *= n
        _require(size == expect["size"], f"carrier has {size} elements, expected {expect['size']}")
    if cmd in ("dual", "bidual", "reflexive", "krawtchouk", "macwilliams"):
        key = "char_partition" if cmd == "macwilliams" else "partition"
        _covers(doc[key]["blocks"], orders, key)
    if cmd == "dual":
        part, dual = doc["partition"]["blocks"], doc["dual"]["blocks"]
        _covers(dual, orders, "dual")
        _require(doc["reflexive"] == (len(dual) == len(part)), "reflexive flag disagrees")
        _shape(doc["krawtchouk"], len(dual), len(part), "krawtchouk")
    elif cmd == "bidual":
        _covers(doc["dual"]["blocks"], orders, "dual")
        _covers(doc["bidual"]["blocks"], orders, "bidual")
        same = _canon(doc["bidual"]["blocks"]) == _canon(doc["partition"]["blocks"])
        _require(doc["reflexive"] == same, "reflexive flag disagrees with the bidual")
    elif cmd == "reflexive":
        _covers(doc["bidual"]["blocks"], orders, "bidual")
        _require(doc["partition_blocks"] == len(doc["partition"]["blocks"]),
                 "partition block count disagrees")
        _require(doc["reflexive"] == (doc["partition_blocks"] == doc["dual_blocks"]),
                 "reflexive flag disagrees with the block counts")
    elif cmd == "krawtchouk":
        _covers(doc["char_partition"]["blocks"], orders, "char_partition")
        _shape(doc["krawtchouk"], len(doc["char_partition"]["blocks"]),
               len(doc["partition"]["blocks"]), "krawtchouk")
    elif cmd == "macwilliams":
        quotient = expect["size"] // expect["code_size"]
        _require(doc["code"]["size"] == expect["code_size"], "code size differs")
        _require(sum(doc["a"]) == expect["code_size"], "primal distribution does not sum to |C|")
        _require(sum(doc["b"]) == quotient, "transform does not sum to |G|/|C|")
        _require(doc["dual_code"]["size"] == quotient, "dual code size is not |G|/|C|")
    elif cmd in ("product", "symmetrize"):
        _covers(doc["partition"]["blocks"], doc["group"]["orders"], "induced partition")
        if "code_size" in expect:
            quotient = expect["size"] // expect["code_size"]
            _require(doc["code_size"] == expect["code_size"], "code size differs")
            _require(sum(r["count"] for r in doc["enumerator"]) == expect["code_size"],
                     "enumerator does not sum to |C|")
            _require(sum(r["count"] for r in doc["transform"]) == quotient,
                     "transform does not sum to |G|/|C|")
        if "--check" in job["argv"]:
            _require(isinstance(doc["duality"]["commutes"], bool), "duality report missing")
    elif cmd == "poset-partition":
        _covers(doc["partition"]["blocks"], orders, "partition")
        _covers(doc["by_weight"], orders, "by_weight")
    elif cmd == "poset-krawtchouk":
        n = doc["poset"]["n"]
        matrix = doc["matrix"]
        _require(len(matrix) == n + 1 and all(len(r) == n + 1 for r in matrix),
                 "matrix is not indexed by weights 0..n")
        _require(doc["closed_form_matches"] is not False, "closed form disagrees")
    elif cmd == "poset-check":
        for key in ("equal", "dual_refines_transposed", "transposed_refines_dual"):
            _require(isinstance(doc[key], bool), f"{key} missing")
    elif cmd == "subgroups":
        size = expect["size"]
        _require(doc["count"] == len(doc["subgroups"]) >= 2, "subgroup count disagrees")
        _require(all(size % row["size"] == 0 for row in doc["subgroups"]),
                 "a subgroup size does not divide |G|")
    elif cmd == "check":
        _require(doc["failed"] == 0 and all(r["passed"] for r in doc["results"]),
                 "a built-in check failed")


def check_output(job: dict, rc: int, stdout: bytes) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        check_document(job, doc)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload: str, jobs_text: str) -> dict[str, str]:
    """Stored digests for the default seed; fails if the job list changed since."""
    with open(golden_path(workload), encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["jobs_sha256"] != digest(jobs_text.encode()):
        raise CheckFailed(f"golden digests for {workload} were made from another job list")
    return golden["stdout_sha256"]


def write_golden(workload: str, jobs_text: str, digests: dict[str, str]) -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"jobs_sha256": digest(jobs_text.encode()),
                   "stdout_sha256": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
