"""JSON encoding and decoding for every value the CLI speaks.

Formats, all deterministic:

- group:      {"orders": [6]}
- element:    [0, 3]            (plain integer array)
- code:       {"generators": [[2]]}         (elements recomputed on load)
- partition:  {"blocks": [[[0]], [[1], [3], [5]], [[2], [4]]]}
- poset:      {"n": 4, "cover": [[1, 2], [1, 3]]}   (1-based cover pairs)
- cyclotomic: a bare integer when rational, else
              {"order": 6, "coeffs": ["1", "-2"]}   (decimal strings)
- matrix:     {"entries": [[...]], "approx": [[[re, im], ...]], plus the
              row/col block labels}

Coefficients serialize as decimal strings so arbitrarily large exact values
survive readers that parse JSON numbers as doubles.
"""

from __future__ import annotations

from typing import Any

from .cyclotomic import CycInt
from .enumerator import LinearEnumerator, ProductEnumerator, SymmetrizedEnumerator
from .errors import InputError
from .group import Code, Element, GroupSpec, generate
from .partition import KrawtchoukMatrix, Partition
from .poset import Poset


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def group_to_json(group: GroupSpec) -> dict:
    return {"orders": list(group.orders)}


def group_from_json(obj: Any) -> GroupSpec:
    _require(isinstance(obj, dict) and "orders" in obj, "group JSON needs an 'orders' list")
    orders = obj["orders"]
    _require(isinstance(orders, list) and all(isinstance(n, int) for n in orders),
             "'orders' must be a list of integers")
    return GroupSpec(tuple(orders))


def element_to_json(g: Element) -> list[int]:
    return list(g)


def element_from_json(obj: Any, group: GroupSpec) -> Element:
    _require(isinstance(obj, list) and all(isinstance(x, int) for x in obj),
             "an element must be an integer array")
    return group.validate(tuple(obj))


def code_to_json(code: Code, include_elements: bool = False) -> dict:
    out: dict[str, Any] = {"generators": [element_to_json(g) for g in code.generators]}
    if include_elements:
        out["elements"] = [element_to_json(g) for g in code.elements]
        out["size"] = code.size
    return out


def code_from_json(obj: Any, group: GroupSpec) -> Code:
    _require(isinstance(obj, dict) and "generators" in obj,
             "code JSON needs a 'generators' list")
    gens = [element_from_json(g, group) for g in obj["generators"]]
    return generate(group, gens)


def partition_to_json(part: Partition) -> dict:
    return {"blocks": [[element_to_json(g) for g in b] for b in part.blocks]}


def partition_from_json(obj: Any, group: GroupSpec) -> Partition:
    _require(isinstance(obj, dict) and "blocks" in obj,
             "partition JSON needs a 'blocks' list")
    blocks = obj["blocks"]
    _require(isinstance(blocks, list) and all(isinstance(b, list) for b in blocks),
             "'blocks' must be a list of element lists")
    return Partition.from_blocks(
        group, [[element_from_json(g, group) for g in b] for b in blocks]
    )


def poset_to_json(p: Poset) -> dict:
    return {"n": p.n, "cover": [[a + 1, b + 1] for a, b in sorted(p.covers())]}


def poset_from_json(obj: Any) -> Poset:
    _require(isinstance(obj, dict) and "n" in obj, "poset JSON needs 'n'")
    n = obj["n"]
    _require(isinstance(n, int) and n >= 1, "'n' must be a positive integer")
    raw = obj.get("cover", [])
    _require(isinstance(raw, list), "'cover' must be a list of pairs")
    covers = []
    for pair in raw:
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, int) for x in pair),
            "each cover must be a pair of integers",
        )
        _require(1 <= pair[0] <= n and 1 <= pair[1] <= n,
                 f"cover {pair} out of range (coordinates are 1-based)")
        covers.append((pair[0] - 1, pair[1] - 1))
    return Poset.from_covers(n, covers)


def cycint_to_json(x: CycInt) -> Any:
    n = x.as_rational_integer()
    if n is not None:
        return n
    return {"order": x.order, "coeffs": [str(c) for c in x.coeffs]}


def cycint_from_json(obj: Any, order: int | None = None) -> CycInt:
    if isinstance(obj, int):
        _require(order is not None, "a bare integer needs an ambient root order")
        return CycInt(order, (obj,))
    _require(isinstance(obj, dict) and "order" in obj and "coeffs" in obj,
             "cyclotomic JSON needs 'order' and 'coeffs'")
    try:
        coeffs = tuple(int(c) for c in obj["coeffs"])
    except (TypeError, ValueError) as exc:
        raise InputError("coeffs must be decimal strings or integers") from exc
    return CycInt(int(obj["order"]), coeffs)


def _approx_pair(z: complex) -> list[float]:
    def clean(v: float) -> float:
        r = round(v, 12)
        return 0.0 if r == 0 else r

    return [clean(z.real), clean(z.imag)]


def krawtchouk_to_json(k: KrawtchoukMatrix) -> dict:
    return {
        "entries": [[cycint_to_json(x) for x in row] for row in k.entries],
        "approx": [[_approx_pair(x.approx_complex()) for x in row] for row in k.entries],
        "row_blocks": [[element_to_json(g) for g in b] for b in k.row_blocks],
        "col_blocks": [[element_to_json(g) for g in b] for b in k.col_blocks],
    }


def linear_enumerator_to_json(e: LinearEnumerator) -> list[int]:
    return list(e.counts)


def product_enumerator_to_json(e: ProductEnumerator | SymmetrizedEnumerator) -> list[dict]:
    """Sorted key/count records; symmetrized enumerators use the same form."""
    return [{"key": list(k), "count": e.counts[k]} for k in sorted(e.counts)]
