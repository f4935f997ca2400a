"""The library names that the benchmark's hooks wrap still resolve in ``dualpart``.

``perfbench/instrument.py`` skips a hook whose target is gone and only names
it in its report, so a rename would silently zero a benchmark metric. Its
``SPANS`` table is read as a literal, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def spans_table():
    tree = ast.parse(INSTRUMENT.read_text())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]]
    return ast.literal_eval(table)


# the sweep counters, the CycInt operation counters and the zeta table record
# are hooked by name outside SPANS
HOOKED = sorted({(module, attr) for module, attr, _, _ in spans_table()} | {
    ("partition", "_signature_rows"),
    ("cyclotomic", "CycInt"),
    ("cyclotomic", "CycInt.__mul__"),
    ("cyclotomic", "CycInt.__add__"),
    ("cyclotomic", "zeta_coeff_table"),
})


def test_spans_table_names_the_traced_layers():
    assert {"group.all_subgroups", "partition.dual_partition", "checks.run_suite"} <= {
        span for _, _, span, _ in spans_table()}


@pytest.mark.parametrize("module, attr", HOOKED, ids=".".join)
def test_hooked_name_resolves(module, attr):
    target = importlib.import_module(f"dualpart.{module}")
    for name in attr.split("."):
        # a class attribute must be the class's own, as the hook replaces it there
        target = vars(target)[name]
    assert callable(target.__func__ if isinstance(target, classmethod) else target)


def test_zeta_table_keeps_its_cache():
    from dualpart.cyclotomic import zeta_coeff_table

    assert hasattr(zeta_coeff_table, "cache_info")
