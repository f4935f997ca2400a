"""JSON encoding and decoding for every value the CLI speaks, and the writer of its stdout.

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

``write_json`` prints a CLI document (str keys, JSON's scalar and container
types, ``Partition`` and ``KrawtchoukMatrix`` values) with exactly the bytes
of ``json.dump(doc, stream, indent=2)``, a partition or matrix standing for
its document. It builds the text with joins over whole lists instead of the
pure-Python encoder that ``indent`` selects; a partition's text from its
labels, each carrier element's text composed once from per-coordinate digit
strings; and a matrix's from its packed rows, one text per row, each
coefficient's text made once. Input is still parsed with ``json.loads``.
"""

from __future__ import annotations

import io
from functools import reduce
from itertools import chain, compress, islice, repeat
from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import mul
from types import GeneratorType
from typing import Any, TextIO

from .cyclotomic import _float_root_powers, euler_phi
from .errors import InputError
from .group import Code, Element, GroupSpec, _outer, generate
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
    _require(isinstance(orders, list) and all(type(n) is int for n in orders),
             "'orders' must be a list of integers")
    return GroupSpec(tuple(orders))


def element_to_json(g: Element) -> list[int]:
    return list(g)


def element_from_json(obj: Any) -> Element:
    """The element's tuple; its range is checked where a carrier takes it."""
    _require(isinstance(obj, list) and all(type(x) is int for x in obj),
             "an element must be an integer array")
    return tuple(obj)


def code_to_json(code: Code, include_elements: bool = False) -> dict:
    out: dict[str, Any] = {"generators": [element_to_json(g) for g in code.generators]}
    if include_elements:
        out["elements"] = [element_to_json(g) for g in code.elements]
        out["size"] = code.size
    return out


def code_from_json(obj: Any, group: GroupSpec) -> Code:
    _require(isinstance(obj, dict) and isinstance(obj.get("generators"), list),
             "code JSON needs a 'generators' list")
    return generate(group, [element_from_json(g) for g in obj["generators"]])


def partition_from_json(obj: Any, group: GroupSpec) -> Partition:
    _require(isinstance(obj, dict) and "blocks" in obj,
             "partition JSON needs a 'blocks' list")
    blocks = obj["blocks"]
    _require(isinstance(blocks, list) and all(isinstance(b, list) for b in blocks),
             "'blocks' must be a list of element lists")
    return Partition.from_blocks(group, [[element_from_json(g) for g in b] for b in blocks])


def poset_to_json(p: Poset) -> dict:
    return {"n": p.n, "cover": [[a + 1, b + 1] for a, b in sorted(p.covers())]}


def poset_from_json(obj: Any) -> Poset:
    _require(isinstance(obj, dict) and "n" in obj, "poset JSON needs 'n'")
    n = obj["n"]
    _require(type(n) is int and n >= 1, "'n' must be a positive integer")
    raw = obj.get("cover", [])
    _require(isinstance(raw, list), "'cover' must be a list of pairs")
    covers = []
    for pair in raw:
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(type(x) is int for x in pair),
            "each cover must be a pair of integers",
        )
        _require(1 <= pair[0] <= n and 1 <= pair[1] <= n,
                 f"cover {pair} out of range (coordinates are 1-based)")
        covers.append((pair[0] - 1, pair[1] - 1))
    return Poset.from_covers(n, covers)


def product_enumerator_to_json(counts: dict[tuple[int, ...], int]) -> list[dict]:
    """Sorted key/count records; symmetrized enumerators use the same form."""
    return [{"key": list(k), "count": counts[k]} for k in sorted(counts)]


# ---------------------------------------------------------------------------
# the stdout writer


def write_json(doc: Any, stream: TextIO) -> None:
    """Write a CLI document to ``stream`` as ``json.dump(doc, stream, indent=2)`` would.

    A CLI document holds dicts with str keys, lists, strs, ints, finite floats,
    bools, ``None``, partitions and Krawtchouk matrices; every layout rule of
    ``json.encoder`` is kept for it:

    - separators ``(",", ": ")``: each item of a nonempty list or dict sits
      on its own line, indented two spaces per level, and the closing
      bracket goes back to the parent's indent;
    - empty containers print as ``[]`` and ``{}``; tuples print as lists;
    - strings, and dict keys in their order, are escaped by
      ``json.encoder.encode_basestring_ascii`` (``ensure_ascii``), which
      raises ``TypeError`` for a key that is no str;
    - exact ints and floats print by ``int.__repr__`` and ``float.__repr__``;
      every other value that is no container (``None``, bools, NaN and the
      infinities under ``allow_nan``, subclasses of str, int and float)
      prints as ``json.JSONEncoder().encode`` prints it, which also raises
      ``TypeError`` for a type JSON lacks;
    - nothing looks for a container inside itself, which no CLI document holds;
    - a ``Partition`` prints as the partition format above, its canonical
      ``blocks`` in order;
    - a ``KrawtchoukMatrix`` prints as a dict of its ``entries`` (each in
      the cyclotomic format above), their ``approx`` pairs (the real and
      imaginary parts of sum_i c_i * z**i, z = exp(2 pi i / order), each
      rounded to 12 places), and the blocks of its ``row_part`` and
      ``col_part`` as ``row_blocks`` and ``col_blocks``.

    The text is built one depth at a time, not one node at a time. The
    values at one depth are split by type: exact ints and finite floats are
    formatted as they are, strings are escaped in one ``map``, and the
    children of all lists (or the values of all dicts with one key order)
    are encoded together, one depth down. Their texts are joined into runs
    of the sizes of their parents, by one ``%`` template per run length.
    The runs are produced lazily. Dicts are written an entry at a time down
    to the first list, and that list a batch of items at a time, so the
    text held at once stays within ``_BATCH_TEXT`` characters and one item's.

    A partition is printed from its labels (``_block_texts``), a batch of
    blocks at a time, and a matrix from its packed rows (``_matrix_fields``),
    a batch of rows at a time, and its block lists from the labels of its
    two partitions, where the CLI puts them: as the document or a
    dict's value down to the first list. One inside a list is one item of a
    batch, so its text is built whole, by the same steps.
    """
    _write(doc, 0, stream)


_BATCH_TEXT = 1 << 15
"""Characters of list items that one batch of a written list aims at; 32 KiB batches
wrote a 2.4 MB matrix document 6-10% faster than 1 MiB ones (``BENCH_18.json``)."""

_scalar_text = JSONEncoder().encode
"""The JSON text of a value that is no container; it is the same at every indent."""


def _write(value: Any, level: int, stream: TextIO) -> None:
    """Write ``value`` at indent ``level``, a dict entry or a batch of list items at a time."""
    inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(value, Partition):
        stream.write("{" + inner + '"blocks": ')
        _write_batched(_block_texts(value, level + 2), level + 1, stream)
        stream.write(close + "}")
    elif isinstance(value, KrawtchoukMatrix):
        _write(_matrix_fields(value, level), level, stream)
    elif isinstance(value, GeneratorType):  # the item texts of a list, from _matrix_fields
        _write_batched(value, level, stream)
    elif not (isinstance(value, (dict, list, tuple)) and value):
        stream.write(str(next(iter(_texts([value], level)))))
    elif isinstance(value, dict):
        opener = "{" + inner
        for key, item in value.items():
            stream.write(f"{opener}{_quote(key)}: ")
            _write(item, level + 1, stream)
            opener = "," + inner
        stream.write(close + "}")
    else:
        _write_batched(map(str, _texts(value, level + 1)), level, stream)


def _write_batched(texts, level: int, stream: TextIO) -> None:
    """Write a list at indent ``level`` from its items' texts, nonempty and made lazily,
    a batch at a time: each batch ends with the text that brings it to ``_BATCH_TEXT``."""
    inner = "\n" + "  " * (level + 1)
    sep, batch, size = "," + inner, [], 0
    stream.write("[" + inner)
    for text in texts:
        if size >= _BATCH_TEXT:
            stream.write(sep.join(batch) + sep)
            batch, size = [], 0
        batch.append(text)
        size += len(text)
    stream.write(sep.join(batch) + "\n" + "  " * level + "]")


def _block_texts(part: Partition, level: int):
    """The texts of the blocks of ``part`` printed at indent ``level``, made lazily.

    The text of every carrier element is composed once, in rank order: each
    coordinate contributes its digit strings, led by the opening bracket or
    a separator and the last one closed by the bracket, and ``_outer`` sums
    the columns as it sums pairing exponents. A canonical partition lists
    each block's members in rank order, so appending each text to the block
    ``block_of`` names gives the blocks' members in their printed order.
    """
    inner, member = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    orders = part.group.orders
    heads = ["[" + member] + ["," + member] * (len(orders) - 1)
    tails = [""] * (len(orders) - 1) + [inner + "]"]
    cols = [[f"{head}{x}{tail}" for x in range(n)] for n, head, tail in zip(orders, heads, tails)]
    texts = reduce(_outer, cols[1:], cols[0]) if cols else ["[]"]
    members: list[list[str]] = [[] for _ in range(part.num_blocks)]
    for i, text in zip(part.block_of, texts):
        members[i].append(text)
    head, sep, tail = "[" + inner, "," + inner, "\n" + "  " * level + "]"
    return (f"{head}{sep.join(m)}{tail}" for m in members)


def _matrix_fields(k: KrawtchoukMatrix, level: int) -> dict:
    """The document of ``k`` at indent ``level``: its two row lists as lazy row
    texts, and its two block lists as the lazy block texts of its partitions
    (``_block_texts``), printed from their labels.

    A cell is the slice ``row[j:j + phi]``. A rational one (no coefficient
    past the first) prints its value v, with the approx [float(v), 0.0]. An
    irrational one joins its quoted coefficients and sums c * z**i,
    z = exp(2 pi i / order), over its nonzero c in index order from 0j. The
    terms of the zero c are +-0, so skipping them can change only the sign
    of a zero part; adding 0.0 to the rounded parts turns -0.0 into 0.0 and
    keeps every other float. Each value's texts are made once.
    """
    ind = ["\n" + "  " * i for i in range(level, level + 6)]
    e, phi = k.order, euler_phi(k.order)
    values = set().union(*k.rows)
    nums, quoted = {v: str(v) for v in values}, {v: f'"{v}"' for v in values}
    pair = "[" + ind[4] + "%r," + ind[4] + "%r" + ind[3] + "]"
    pairs = {v: pair % (float(v), 0.0) for v in values}
    head = "{" + ind[4] + f'"order": {e},' + ind[4] + '"coeffs": [' + ind[5]
    sep, tail, powers = "," + ind[5], ind[4] + "]" + ind[3] + "}", _float_root_powers(e)
    starts = range(0, k.shape[1] * phi, phi)

    def approx_texts(row):
        for j in starts:
            c = row[j:j + phi]
            if any(c[1:]):
                z = sum(map(mul, compress(c, c), compress(powers, c)), 0j)
                yield pair % (round(z.real, 12) + 0.0, round(z.imag, 12) + 0.0)
            else:
                yield pairs[c[0]]

    if phi == 1:
        entries = (map(nums.__getitem__, row) for row in k.rows)
        approx = (map(pairs.__getitem__, row) for row in k.rows)
    else:
        entries = ((head + sep.join(map(quoted.__getitem__, row[j:j + phi])) + tail
                    if any(row[j + 1:j + phi]) else nums[row[j]] for j in starts)
                   for row in k.rows)
        approx = map(approx_texts, k.rows)
    row_head, row_sep, row_tail = "[" + ind[3], "," + ind[3], ind[2] + "]"
    return {"entries": (row_head + row_sep.join(row) + row_tail for row in entries),
            "approx": (row_head + row_sep.join(row) + row_tail for row in approx),
            "row_blocks": _block_texts(k.row_part, level + 2),
            "col_blocks": _block_texts(k.col_part, level + 2)}


def _texts(items, level: int):
    """Texts of ``items``, each printed at indent ``level``, in order. A text is a
    ``str``, or an exact int or finite float, whose ``str`` is its JSON text;
    formatting those late, in a template, saves a string each."""
    kinds = set(map(type, items))
    if len(kinds) != 1:  # encode each type together, then restore the order
        texts = {kind: iter(_texts([x for x in items if type(x) is kind], level))
                 for kind in kinds}
        return map(next, map(texts.__getitem__, map(type, items)))
    kind = kinds.pop()
    if issubclass(kind, (Partition, KrawtchoukMatrix)):
        return [_written(p, level) for p in items]
    if kind is int or kind is float and all(map(isfinite, items)):
        return items
    if kind is str:
        return map(_quote, items)
    if issubclass(kind, (list, tuple)):
        sizes = list(map(len, items))
        return _grouped(_texts(list(chain.from_iterable(items)), level + 1), sizes, level)
    if issubclass(kind, dict):
        if len(set(map(tuple, items))) > 1:  # one template per key order
            return [next(_texts([d], level)) for d in items]
        if not items[0]:
            return iter(["{}"] * len(items))
        columns = [_texts(column, level + 1) for column in zip(*map(dict.values, items))]
        inner = "\n" + "  " * (level + 1)
        template = ("{" + inner
                    + ("," + inner).join(_quote(k).replace("%", "%%") + ": %s" for k in items[0])
                    + "\n" + "  " * level + "}")
        return map(template.__mod__, zip(*columns))
    return map(_scalar_text, items)


def _written(value: Any, level: int) -> str:
    """The text of ``value`` printed at indent ``level``, as ``_write`` writes it."""
    out = io.StringIO()
    _write(value, level, out)
    return out.getvalue()


def _grouped(texts, sizes: list[int], level: int):
    """Join consecutive runs of ``texts`` into lists of the given sizes at indent ``level``."""
    inner = "\n" + "  " * (level + 1)
    head, sep, tail = "[" + inner, "," + inner, "\n" + "  " * level + "]"
    width = sizes[0]
    if width and sizes.count(width) == len(sizes):
        template = head + sep.join(["%s"] * width) + tail
        return map(template.__mod__, zip(*[iter(texts)] * width))
    runs = map(sep.join, map(islice, repeat(map(str, texts)), sizes))
    # a run is empty only for an empty list: no item's text is empty
    return (f"{head}{run}{tail}" if run else "[]" for run in runs)
