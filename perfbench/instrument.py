"""Install spans and counters around the public functions of ``dualpart``.

Everything here runs in the benchmark's child process, after ``dualpart.cli``
is imported; the library itself is not changed. Several modules import
library functions by name (``from .partition import dual_partition``), so a
wrapper must replace the name in every ``dualpart`` module that holds the
original object, or calls through those names go unseen.

Counters that are computed rather than timed:

- ``partition.sweeps`` and friends count calls of the signature sweep
  ``partition._signature_rows``: characters swept (rows returned), the
  coefficient additions they cost (|G| * characters * phi(E)), and sweeps
  of a partition whose requested characters were all swept before in the
  same job;
- ``cyclotomic.mul.calls`` and ``cyclotomic.add.calls`` count ``CycInt``
  multiplies and adds, ``cyclotomic.mul.coeff_products`` adds phi(E)**2 per
  multiply, and ``enumerator.transform_muls`` counts the multiplies made
  inside the three transform spans;
- ``cyclotomic.cache_entries`` and ``cyclotomic.zeta_table_ints`` read the
  module's lru caches when the run ends.

A hook whose target no longer exists is skipped and named in ``missing``.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from spans import Tracer

# (module, attribute, span name, options); attribute "Class.method" wraps a
# method or classmethod on the class
SPANS = [
    ("partition", "dual_partition", "partition.dual_partition", {"calls": True}),
    ("partition", "krawtchouk", "partition.krawtchouk", {"calls": True}),
    ("partition", "Partition.from_blocks", "partition.from_blocks", {}),
    ("group", "dual_code", "group.dual_code", {"calls": True}),
    ("group", "all_subgroups", "group.all_subgroups", {}),
    ("induced", "product_partition", "induced.product_partition", {}),
    ("induced", "symmetrized_partition", "induced.symmetrized_partition", {}),
    ("induced", "check_product_duality", "induced.check_duality", {}),
    ("induced", "check_symmetrized_duality", "induced.check_duality", {}),
    ("enumerator", "linear_enumerator", "enumerator.enumerate", {}),
    ("enumerator", "product_enumerator", "enumerator.enumerate", {}),
    ("enumerator", "symmetrized_enumerator", "enumerator.enumerate", {}),
    ("enumerator", "product_transform", "enumerator.product_transform", {"transform": True}),
    ("enumerator", "symmetrized_transform", "enumerator.symmetrized_transform",
     {"transform": True}),
    ("enumerator", "macwilliams_transform", "enumerator.macwilliams_transform",
     {"transform": True}),
    ("poset", "poset_partition", "poset.poset_partition", {}),
    ("poset", "poset_duality_check", "poset.poset_duality_check", {}),
    ("poset", "poset_krawtchouk_bruteforce", "poset.poset_krawtchouk_bruteforce", {}),
    ("poset", "hierarchical_krawtchouk", "poset.closed_form", {}),
    ("checks", "run_suite", "checks.run_suite", {}),
]


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dualpart" or name.startswith("dualpart."))]


def rebind(original, replacement) -> None:
    """Point every dualpart module-level name bound to ``original`` at ``replacement``."""
    for mod in _library_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


class Instrumentation:
    """The hooks of one traced process and the state behind its counters."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self.swept: dict = {}
        self.zeta_orders: dict[int, None] = {}
        self.zeta_table = None
        self.caches: list = []

    def begin_job(self, job_id: str) -> None:
        self.tracer.job = job_id
        self.swept = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _library_modules()}
        for mod_name, attr, span, opts in SPANS:
            mod = mods.get(mod_name)
            if mod is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if "." in attr:
                self._wrap_method(mod, attr, span, opts)
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            rebind(fn, self.tracer.wrap(span, fn, **opts))
        ser = mods.get("serialization")
        if ser is None:
            self.missing.append("serialization")
        else:
            for attr, fn in list(vars(ser).items()):
                if callable(fn) and getattr(fn, "__module__", None) == ser.__name__:
                    if attr.endswith("_to_json"):
                        rebind(fn, self.tracer.wrap("serialization.to_json", fn))
                    elif attr.endswith("_from_json"):
                        rebind(fn, self.tracer.wrap("serialization.from_json", fn))
        self._hook_sweep(mods.get("partition"))
        self._hook_cyclotomic(mods.get("cyclotomic"))

    def _wrap_method(self, mod, attr: str, span: str, opts: dict) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            self.missing.append(f"{mod.__name__}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.tracer.wrap(span, raw.__func__, **opts)))
        else:
            setattr(cls, meth, self.tracer.wrap(span, raw, **opts))

    def _hook_sweep(self, partition) -> None:
        sweep = getattr(partition, "_signature_rows", None)
        if sweep is None:
            self.missing.append("partition._signature_rows")
            return
        counters = self.tracer.counters

        def counted_sweep(part, *args, **kwargs):
            rows = sweep(part, *args, **kwargs)
            chars = len(rows)
            grp = part.group
            counters["partition.sweeps"] += 1
            counters["partition.sweep_chars"] += chars
            counters["partition.sweep_coeff_adds"] += grp.size * chars * totient(grp.exponent)
            seen = self.swept.setdefault(part, set())
            if seen.issuperset(rows):
                counters["partition.sweep_redundant"] += 1
            seen.update(rows)
            return rows

        rebind(sweep, counted_sweep)

    def _hook_cyclotomic(self, cyclotomic) -> None:
        cycint = getattr(cyclotomic, "CycInt", None)
        if cycint is None:
            self.missing.append("cyclotomic.CycInt")
            return
        counters, tracer = self.tracer.counters, self.tracer
        mul, add = cycint.__mul__, cycint.__add__

        def counted_mul(a, b):
            counters["cyclotomic.mul.calls"] += 1
            phi = totient(a.order)
            counters["cyclotomic.mul.coeff_products"] += phi * phi
            if tracer.in_transform:
                counters["enumerator.transform_muls"] += 1
            return mul(a, b)

        def counted_add(a, b):
            counters["cyclotomic.add.calls"] += 1
            return add(a, b)

        for name, orig, new in (("__mul__", mul, counted_mul), ("__rmul__", mul, counted_mul),
                                ("__add__", add, counted_add), ("__radd__", add, counted_add)):
            if vars(cycint).get(name) is orig:
                setattr(cycint, name, new)
        self.caches = [fn for fn in vars(cyclotomic).values() if hasattr(fn, "cache_info")]
        table = getattr(cyclotomic, "zeta_coeff_table", None)
        if table is None or not hasattr(table, "cache_info"):
            self.missing.append("cyclotomic.zeta_coeff_table")
            return
        self.zeta_table = table
        recent = self.zeta_orders

        def recorded_table(order):
            recent.pop(order, None)
            recent[order] = None
            return table(order)

        rebind(table, recorded_table)

    # -- results ----------------------------------------------------------

    def cache_state(self) -> dict[str, int]:
        """Entries held by the cyclotomic lru caches, and the ints in cached zeta tables.

        The zeta tables still cached are the most recently used ones, as many
        as the cache reports holding.
        """
        entries = sum(fn.cache_info().currsize for fn in self.caches)
        ints = 0
        if self.zeta_table is not None:
            held = self.zeta_table.cache_info().currsize
            for order in list(self.zeta_orders)[-held:] if held else []:
                ints += order * totient(order)
        return {"cyclotomic.cache_entries": entries, "cyclotomic.zeta_table_ints": ints}

    def report(self) -> dict:
        return {
            "spans": self.tracer.spans,
            "counters": dict(self.tracer.counters),
            "caches": self.cache_state(),
            "missing": self.missing,
        }
