"""Batch command line: JSON in, one JSON document out.

Every subcommand reads its payloads from flag values (inline JSON, ``@file``,
or ``-`` for stdin), runs the corresponding library operation, and prints a
single JSON document to stdout. ``--pretty`` adds aligned tables on stderr.
Output is deterministic: identical invocations produce identical bytes.

Exit codes: 0 success, 1 invalid input, 2 guard exceeded, 3 verification
failure (a checked identity did not hold exactly), 141 stdout closed by its
reader before the document was written (128 + SIGPIPE, as shells report it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Any

from .checks import SUITES, run_suite
from .enumerator import (
    linear_enumerator,
    macwilliams_transform,
    product_enumerator,
    product_transform,
    symmetrized_enumerator,
    symmetrized_transform,
)
from .errors import GuardExceeded, InputError, VerificationFailure, count_text
from .group import ELEMENT_GUARD, SUBGROUP_GUARD, all_subgroups, dual_code, elements
from .induced import (
    check_product_duality,
    check_symmetrized_duality,
    product_partition,
    symmetrized_partition,
)
from .partition import (MATRIX_GUARD, KrawtchoukMatrix, Partition, _matrix_guard, dual_partition,
                        krawtchouk)
from .poset import (
    hierarchical_krawtchouk,
    is_hierarchical,
    level_orders,
    poset_duality_check,
    poset_krawtchouk_bruteforce,
    poset_partition,
    poset_weight,
)
from .serialization import (
    code_from_json,
    code_to_json,
    element_to_json,
    group_from_json,
    group_to_json,
    partition_from_json,
    poset_from_json,
    poset_to_json,
    product_enumerator_to_json,
    write_json,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # guard-exceeded code; route everything through InputError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _load_json(text: str) -> Any:
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {text[1:]}: {exc}") from exc
    try:
        return json.loads(text)
    # ValueError also covers an int past Python's 4300-digit conversion limit, and
    # RecursionError an array or object nested past the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _group(args: argparse.Namespace):
    return group_from_json(_load_json(args.group))


def _partition_args(args: argparse.Namespace):
    """The carrier, the --partition on it, and the element guard, which refuses an
    oversized carrier before the payload is read."""
    grp, ms = _group(args), _element_guard(args)
    elements(grp, ms)
    return grp, partition_from_json(_load_json(args.partition), grp), ms


def _element_guard(args: argparse.Namespace) -> int:
    return args.max_group or ELEMENT_GUARD


def _guard(text: str) -> int:
    """A guard flag's value: an int of at least 1, else a usage error (exit 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"a guard must be at least 1, not {value}")
    return value


def _poset(args: argparse.Namespace, grp):
    # building the order costs about n^2 steps on n-bit masks, so a poset that cannot fit the
    # carrier, or a carrier above the element guard, is rejected before it is built
    obj = _load_json(args.poset)
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n != len(grp.orders):
        raise InputError(
            f"carrier must have one cyclic factor per coordinate: "
            f"{len(grp.orders)} factors, poset n = {n}"
        )
    elements(grp, _element_guard(args))
    return poset_from_json(obj)


# ---------------------------------------------------------------------------
# handlers; each returns (document, exit_code), with partitions and matrices as
# Partition and KrawtchoukMatrix values, which write_json prints as their documents


def _cmd_dual(args) -> tuple[dict, int]:
    grp, part, ms = _partition_args(args)
    _matrix_guard(part.num_blocks, part, args.max_matrix, "at least ")
    dual = dual_partition(part, ms)
    matrix = krawtchouk(part, dual, max_size=ms, max_entries=args.max_matrix)
    return {
        "command": "dual",
        "group": group_to_json(grp),
        "partition": part,
        "dual": dual,
        "reflexive": dual.num_blocks == part.num_blocks,
        "krawtchouk": matrix,
    }, 0


def _cmd_bidual(args) -> tuple[dict, int]:
    grp, part, ms = _partition_args(args)
    dual = dual_partition(part, ms)
    dd = dual_partition(dual, ms)
    return {
        "command": "bidual",
        "group": group_to_json(grp),
        "partition": part,
        "dual": dual,
        "bidual": dd,
        "reflexive": dd == part,
    }, 0


def _cmd_reflexive(args) -> tuple[dict, int]:
    grp, part, ms = _partition_args(args)
    dual = dual_partition(part, ms)
    dd = dual_partition(dual, ms)
    return {
        "command": "reflexive",
        "group": group_to_json(grp),
        "partition": part,
        "reflexive": dual.num_blocks == part.num_blocks,
        "partition_blocks": part.num_blocks,
        "dual_blocks": dual.num_blocks,
        "bidual": dd,
    }, 0


def _cmd_krawtchouk(args) -> tuple[dict, int]:
    grp, part, ms = _partition_args(args)
    if args.char_partition:
        char_part = partition_from_json(_load_json(args.char_partition), grp)
    else:
        _matrix_guard(part.num_blocks, part, args.max_matrix, "at least ")
        char_part = dual_partition(part, ms)
    matrix = krawtchouk(part, char_part, max_size=ms, max_entries=args.max_matrix)
    return {
        "command": "krawtchouk",
        "group": group_to_json(grp),
        "partition": part,
        "char_partition": char_part,
        "krawtchouk": matrix,
    }, 0


def _cmd_macwilliams(args) -> tuple[dict, int]:
    grp, char_part, ms = _partition_args(args)
    code = code_from_json(_load_json(args.code), grp)
    _matrix_guard(char_part.num_blocks, char_part, args.max_matrix, "at least ")
    prim = dual_partition(char_part, ms)
    matrix = krawtchouk(char_part, prim, max_size=ms, max_entries=args.max_matrix)
    counts = linear_enumerator(code, prim)
    out = macwilliams_transform(counts, matrix, code.size)
    perp = dual_code(grp, code, ms)
    direct = linear_enumerator(perp, char_part)
    if out != direct:
        raise VerificationFailure("transformed distribution differs from the dual code's")
    return {
        "command": "macwilliams",
        "group": group_to_json(grp),
        "char_partition": char_part,
        "primal_partition": prim,
        "code": code_to_json(code, include_elements=True),
        "a": list(counts),
        "krawtchouk": matrix,
        "b": list(out),
        "dual_code": code_to_json(perp, include_elements=True),
        "verified": True,
    }, 0


def _copies_guard(grp, copies: int, ms: int) -> None:
    """Reject a power carrier above the guard before any per-copy list is built;
    the multiply loop stops once past the guard, so a huge --copies is cheap."""
    size = 1
    for done in range(1, min(copies, ms) + 1):
        size *= grp.size
        if size > ms:
            raise GuardExceeded(f"{done} copies of the carrier have {count_text(size)} "
                                f"elements, above the guard of {ms}")
    if copies > ms:  # only a one-element carrier gets here; its powers never grow
        raise GuardExceeded(f"{copies} copies, above the guard of {ms}")


def _cmd_induced(args) -> tuple[dict, int]:
    """product and symmetrize: the induced partition, its duality check, a code transform."""
    grp, base, ms = _partition_args(args)
    copies = args.copies
    if copies < 1:
        raise InputError("--copies must be at least 1")
    _copies_guard(grp, copies, ms)
    product = args.cmd == "product"
    if product:
        induced = product_partition([base] * copies, ms)
    else:
        induced = symmetrized_partition(base, copies, ms)
    doc = {
        "command": args.cmd,
        "base_group": group_to_json(grp),
        "base_partition": base,
        "copies": copies,
        "group": group_to_json(induced.group),
        "partition": induced,
    }
    if args.check:
        if product:
            witness = check_product_duality([base] * copies, ms, induced)
        else:
            witness = check_symmetrized_duality(base, copies, ms, induced)
        doc["duality"] = {
            "commutes": witness is None,
            "witness": None if witness is None else [element_to_json(x) for x in witness],
        }
    if args.code:
        code = code_from_json(_load_json(args.code), induced.group)
        dual_base = dual_partition(base, ms)
        if dual_base.num_blocks != base.num_blocks:
            raise InputError("the base partition must be reflexive to transform a code")
        matrix = krawtchouk(dual_base, base, max_size=ms)
        perp = dual_code(induced.group, code, ms)
        if product:
            counts = product_enumerator(code, [base] * copies)
            out = product_transform(counts, [matrix] * copies, code.size, ms)
            direct = product_enumerator(perp, [dual_base] * copies)
        else:
            counts = symmetrized_enumerator(code, base, copies)
            out = symmetrized_transform(counts, matrix, code.size, ms)
            direct = symmetrized_enumerator(perp, dual_base, copies)
        if out != direct:
            raise VerificationFailure("transformed distribution differs from the dual code's")
        doc["code"] = code_to_json(code, include_elements=False)
        doc["code_size"] = code.size
        doc["enumerator"] = product_enumerator_to_json(counts)
        doc["factor_krawtchouk"] = matrix
        doc["transform"] = product_enumerator_to_json(out)
        doc["verified"] = True
    return doc, 0


def _cmd_poset_partition(args) -> tuple[dict, int]:
    grp = _group(args)
    p = _poset(args, grp)
    ms = _element_guard(args)
    part = poset_partition(p, grp, ms)
    by_weight: dict[int, list] = {}
    for block in part.blocks:
        w = poset_weight(p, grp, block[0])
        by_weight[w] = [element_to_json(g) for g in block]
    return {
        "command": "poset-partition",
        "group": group_to_json(grp),
        "poset": poset_to_json(p),
        "partition": part,
        "by_weight": [by_weight[w] for w in sorted(by_weight)],
    }, 0


def _cmd_poset_krawtchouk(args) -> tuple[dict, int]:
    grp = _group(args)
    p = _poset(args, grp)
    brute = poset_krawtchouk_bruteforce(p, grp, _element_guard(args))
    doc: dict[str, Any] = {
        "command": "poset-krawtchouk",
        "group": group_to_json(grp),
        "poset": poset_to_json(p),
        "matrix": [list(row) for row in brute],
        "closed_form": None,
        "closed_form_matches": None,
    }
    shape = is_hierarchical(p)
    qs = None if shape is None else level_orders(shape, grp)
    if qs is not None:
        closed = hierarchical_krawtchouk(shape[0], qs)
        doc["closed_form"] = [list(row) for row in closed]
        doc["closed_form_matches"] = closed == brute
        if closed != brute:
            raise VerificationFailure("closed-form matrix differs from brute force")
    return doc, 0


def _cmd_poset_check(args) -> tuple[dict, int]:
    grp = _group(args)
    p = _poset(args, grp)
    ms = _element_guard(args)
    return {
        "command": "poset-check",
        "group": group_to_json(grp),
        "poset": poset_to_json(p),
        **poset_duality_check(p, grp, ms),
    }, 0


def _cmd_subgroups(args) -> tuple[dict, int]:
    grp = _group(args)
    subs = all_subgroups(grp, args.max_group or SUBGROUP_GUARD)
    rows = []
    for code in subs:
        perp = dual_code(grp, code, _element_guard(args))
        row = code_to_json(code, include_elements=args.include_elements)
        row["size"] = code.size
        row["dual_generators"] = [element_to_json(g) for g in perp.generators]
        rows.append(row)
    return {
        "command": "subgroups",
        "group": group_to_json(grp),
        "count": len(subs),
        "subgroups": rows,
    }, 0


def _cmd_check(args) -> tuple[dict, int]:
    results = run_suite(args.suite)
    failed = sum(1 for r in results if not r["passed"])
    doc = {"command": "check", "suite": args.suite, "results": results, "failed": failed}
    return doc, (3 if failed else 0)


# ---------------------------------------------------------------------------
# pretty tables


def _fmt_element(g: tuple) -> str:
    if len(g) == 1:
        return str(g[0])
    return "(" + ",".join(str(x) for x in g) + ")"


def _fmt_blocks(blocks: tuple) -> str:
    return " | ".join("{" + ",".join(map(_fmt_element, b)) + "}" for b in blocks)


def _fmt_matrix(rows: list) -> list[str]:
    cells = [[str(x) if x is not None else "~" for x in row] for row in rows]
    if not cells:
        return []
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    return [
        "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]" for row in cells
    ]


def _pretty(doc: dict, out) -> None:
    for key in ("partition", "base_partition", "dual", "bidual", "char_partition",
                "primal_partition"):
        if isinstance(doc.get(key), Partition):
            print(f"{key:<18} {_fmt_blocks(doc[key].blocks)}", file=out)
    for key in ("krawtchouk", "factor_krawtchouk"):
        if isinstance(doc.get(key), KrawtchoukMatrix):
            print(f"{key}:", file=out)
            k = doc[key]
            phi = len(k.rows[0]) // k.shape[1]  # an irrational entry (None) prints as ~
            cells = [[None if any(r[j + 1:j + phi]) else r[j] for j in range(0, len(r), phi)]
                     for r in k.rows]
            for line in _fmt_matrix(cells):
                print("  " + line, file=out)
    for key in ("matrix", "closed_form"):
        if isinstance(doc.get(key), list):
            print(f"{key}:", file=out)
            for line in _fmt_matrix(doc[key]):
                print("  " + line, file=out)
    for key in ("reflexive", "equal", "hierarchical", "verified", "failed"):
        if key in doc:
            print(f"{key:<18} {doc[key]}", file=out)
    if "a" in doc and "b" in doc:
        print(f"{'a':<18} {doc['a']}", file=out)
        print(f"{'b':<18} {doc['b']}", file=out)
    for row in doc.get("results", []):
        mark = "PASS" if row["passed"] else "FAIL"
        print(f"{mark} {row['name']} ({row['detail']})", file=out)


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by later ones."""
    parser = _Parser(prog="dualpart", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, partition=False, poset=False, matrix=False):
        p.add_argument("--group", required=True,
                       help="carrier JSON, e.g. '{\"orders\":[6]}'")
        if partition:
            p.add_argument("--partition", required=True,
                           help="partition JSON: {\"blocks\":[[[0]],[[1],[2]]]}")
        if poset:
            p.add_argument("--poset", required=True,
                           help="poset JSON: {\"n\":2, \"cover\":[[1,2]]} (1-based)")
        p.add_argument("--max-group", type=_guard, default=None,
                       help="override the element/subgroup enumeration guards")
        if matrix:
            p.add_argument("--max-matrix", type=_guard, default=MATRIX_GUARD,
                           help="override the guard on Krawtchouk matrix coefficients "
                                "(rows x columns x phi(E))")
        p.add_argument("--pretty", action="store_true",
                       help="also print aligned tables on stderr")

    p = sub.add_parser("dual", help="dual partition, Krawtchouk matrix, reflexivity")
    common(p, partition=True, matrix=True)
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("bidual", help="dual applied twice")
    common(p, partition=True)
    p.set_defaults(handler=_cmd_bidual)

    p = sub.add_parser("reflexive", help="reflexivity test with bidual witness")
    common(p, partition=True)
    p.set_defaults(handler=_cmd_reflexive)

    p = sub.add_parser("krawtchouk", help="block-sum matrix of a partition pair")
    common(p, partition=True, matrix=True)
    p.add_argument("--char-partition", default=None,
                   help="character-side partition JSON (default: the dual)")
    p.set_defaults(handler=_cmd_krawtchouk)

    p = sub.add_parser("macwilliams",
                       help="distribution transform of a code, verified against its dual")
    common(p, partition=True, matrix=True)
    p.add_argument("--code", required=True,
                   help="code JSON: {\"generators\":[[3]]}")
    p.set_defaults(handler=_cmd_macwilliams)

    for name, kind in (("product", "product"), ("symmetrize", "symmetrized")):
        p = sub.add_parser(name, help=f"{kind} partition on n copies of a carrier")
        common(p, partition=True)
        p.add_argument("--copies", type=int, required=True)
        p.add_argument("--check", action="store_true",
                       help="report whether dualization commutes with the construction")
        p.add_argument("--code", default=None,
                       help="optional code JSON on the induced carrier; runs the transform")
        p.set_defaults(handler=_cmd_induced)

    p = sub.add_parser("poset-partition", help="weight-fiber partition of a poset order")
    common(p, poset=True)
    p.set_defaults(handler=_cmd_poset_partition)

    p = sub.add_parser("poset-krawtchouk",
                       help="weight-order matrix, with closed form when hierarchical")
    common(p, poset=True)
    p.set_defaults(handler=_cmd_poset_krawtchouk)

    p = sub.add_parser("poset-check",
                       help="compare the dualized weight partition with the transposed order's")
    common(p, poset=True)
    p.set_defaults(handler=_cmd_poset_check)

    p = sub.add_parser("subgroups", help="enumerate subgroups with dual generators")
    common(p)
    p.add_argument("--include-elements", action="store_true")
    p.set_defaults(handler=_cmd_subgroups)

    p = sub.add_parser("check", help="run the built-in verification suites")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    try:
        write_json(doc, sys.stdout)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the rest, and the flush at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if args.pretty:
        _pretty(doc, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
