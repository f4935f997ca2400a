"""Smoke runs of the scripts under scripts/."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_script_runs():
    assert "all worked examples verified" in run_script("worked_examples.py")


def test_poset_refinement_sweep_counts_the_labeled_posets():
    out = run_script("poset_refinement_sweep.py")
    # 1, 3, 19, 219 labeled posets on 1..4 points (OEIS A001035)
    for n, count in ((1, 1), (2, 3), (3, 19), (4, 219)):
        for q in (2, 3):
            assert f"n={n} q={q}: {count} labeled posets;" in out


def sweep_cases(monkeypatch, capsys, *args):
    """The document of ``scripts/sweep_cases.py``, its ``main`` run in this process
    with each case in one child process."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import sweep_cases

    monkeypatch.setattr(sweep_cases, "CHILDREN", 1)
    assert sweep_cases.main(list(args)) == 0
    return json.loads(capsys.readouterr().out)


def least_of_repeats(seconds, runs):
    """Whether a field was timed as the least of 1 to 20 runs that stopped once they
    took 0.5 s: all runs but the last, each at least the least, took under 0.5 s."""
    return seconds > 0 and 1 <= runs <= 20 and (runs - 1) * seconds < 0.5


def test_sweep_cases_script_reports_each_case(monkeypatch, capsys):
    doc = sweep_cases(monkeypatch, capsys, "--case", "(256,) lee",
                      "--case", "(12,)^3 singletons, 12 words",
                      "--case", "(7,)^5 lee, 49 words",
                      "--case", "(64,64) hamming",
                      "--case", "(2,)^12 hamming, 64 words",
                      "--case", "(2,)^5 subgroups", "--timeout", "60")
    assert doc["limit_gib"] == 2.0
    assert [(c["name"], c["status"], c["blocks"], c["dual_blocks"]) for c in doc["cases"]] == [
        ("(256,) lee", "ok", 129, 129), ("(64,64) hamming", "ok", 3, 3)]
    assert all(c["seconds"] > 0 and c["peak_rss_mb"] > 0 for c in doc["cases"])
    # the least of repeated sweeps: a millisecond case runs more than once
    assert all(1 < c["runs"] <= 20 for c in doc["cases"])
    assert all(least_of_repeats(c["seconds"], c["runs"]) for c in doc["cases"])
    assert all(c["krawtchouk_seconds"] > 0 and c["krawtchouk_peak_rss_mb"] >= c["peak_rss_mb"]
               for c in doc["cases"])
    assert all(least_of_repeats(c["krawtchouk_seconds"], c["krawtchouk_runs"])
               for c in doc["cases"])
    # the child checks each transform against the dual code's enumerator; the
    # (7,)^5 Lee case is irrational and past the element guard, its grid inside it
    assert [(c["name"], c["status"], c["code_size"], c["keys"]) for c in doc["transform_cases"]] == [
        ("(12,)^3 singletons, 12 words", "ok", 12, 144), ("(7,)^5 lee, 49 words", "ok", 49, 148),
        ("(2,)^12 hamming, 64 words", "ok", 64, 64)]
    assert all(least_of_repeats(c["transform_seconds"], c["transform_runs"])
               for c in doc["transform_cases"])
    # a millisecond case runs more than once
    assert doc["transform_cases"][0]["transform_runs"] > 1
    # symmetrized_transform, timed apart and checked against the dual's compositions;
    # the (12,)^3 singletons matrix is irrational
    assert all(least_of_repeats(c["symmetrized_seconds"], c["symmetrized_runs"])
               for c in doc["transform_cases"])
    assert all(c["symmetrized_runs"] > 1 for c in doc["transform_cases"])
    # generate and dual_code of the code, the child checking |C| * |C-perp| = |G|
    assert all(least_of_repeats(c["code_seconds"], c["code_runs"]) and c["code_runs"] > 1
               for c in doc["transform_cases"])
    # sum over k of [5 choose k]_2 subspaces of (Z/2)^5
    (sub,) = doc["subgroup_cases"]
    assert (sub["name"], sub["status"], sub["subgroups"]) == ("(2,)^5 subgroups", "ok", 374)
    assert least_of_repeats(sub["subgroup_seconds"], sub["subgroup_runs"])
    assert sub["subgroup_runs"] > 1


def test_median_child_takes_each_timing_from_its_median_child(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from sweep_cases import median_child

    rows = [{"name": "x", "a_seconds": s, "a_runs": r, "b_seconds": t, "b_runs": q}
            for s, r, t, q in [(3.0, 1, 0.5, 7), (1.0, 2, 0.2, 8), (2.0, 3, 0.9, 9)]]
    assert median_child(rows, ("a", "b")) == {"name": "x", "a_seconds": 2.0, "a_runs": 3,
                                              "b_seconds": 0.5, "b_runs": 7}


def test_a_sweep_case_takes_each_timing_from_its_median_child(monkeypatch):
    """A sweep case runs in CHILDREN children, as every other kind does."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import sweep_cases

    children = iter([(3.0, 1, 0.5, 7), (1.0, 2, 0.2, 8), (2.0, 3, 0.9, 9)])

    def child(row, code, timeout):
        s, r, k, q = next(children)
        return {**row, "seconds": s, "runs": r, "krawtchouk_seconds": k, "krawtchouk_runs": q,
                "peak_rss_mb": s, "status": "ok"}

    monkeypatch.setattr(sweep_cases, "run_child", child)
    monkeypatch.setattr(sweep_cases, "CHILDREN", 3)
    case = sweep_cases.run_case("(64,64) hamming", str(ROOT / "src"), 2.0, 60.0)
    assert (case["seconds"], case["runs"], case["krawtchouk_seconds"],
            case["krawtchouk_runs"], case["peak_rss_mb"]) == (2.0, 3, 0.5, 7, 3.0)
    assert next(children, None) is None


def test_sweep_cases_script_skips_a_matrix_over_the_guard(monkeypatch, capsys):
    doc = sweep_cases(monkeypatch, capsys, "--case", "(4096,) random", "--timeout", "60")
    (case,) = doc["cases"]
    assert case["status"] == "ok" and (case["blocks"], case["dual_blocks"]) == (2309, 4096)
    assert case["krawtchouk_seconds"] is None and case["krawtchouk_peak_rss_mb"] is None
    assert case["krawtchouk_runs"] is None


def test_sweep_cases_script_prints_the_cli_document(monkeypatch, capsys):
    doc = sweep_cases(monkeypatch, capsys, "--case", "(4,)^6 lee symmetrize", "--timeout", "60")
    (case,) = doc["print_cases"]
    assert (case["name"], case["status"]) == ("(4,)^6 lee symmetrize", "ok")
    assert least_of_repeats(case["print_seconds"], case["print_runs"])
    assert case["print_runs"] > 1
    from dualpart.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["symmetrize", "--group", '{"orders": [4]}', "--partition",
                     '{"blocks": [[[0]], [[1], [3]], [[2]]]}', "--copies", "6"]) == 0
    text = out.getvalue().removesuffix("\n")
    assert case["bytes"] == len(text)
    assert case["sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_sweep_cases_script_times_the_few_block_matrices(monkeypatch, capsys):
    """The five urn cases: few blocks, every character apart, and the matrix
    document's sha256 equal to that of the library's own matrix."""
    import random

    from dualpart.group import GroupSpec
    from dualpart.partition import Partition, dual_partition, krawtchouk
    from dualpart.serialization import write_json

    cases = {"(256,) 5 urns": ((256,), 5), "(210,) 6 urns": ((210,), 6),
             "(16,16) 6 urns": ((16, 16), 6), "(3,)^5 6 urns": ((3,) * 5, 6),
             "(1155,) 3 urns": ((1155,), 3)}
    args = [arg for name in cases for arg in ("--case", name)]
    doc = sweep_cases(monkeypatch, capsys, *args, "--timeout", "60")
    assert [c["name"] for c in doc["cases"]] == list(cases)
    for case in doc["cases"]:
        orders, urns = cases[case["name"]]
        grp = GroupSpec(orders)
        assert case["status"] == "ok"
        assert least_of_repeats(case["krawtchouk_seconds"], case["krawtchouk_runs"])
        assert (case["blocks"], case["dual_blocks"]) == (urns, grp.size)
        if grp.size <= 256:
            rng = random.Random(0)
            part = Partition.from_labels(grp, [rng.randrange(urns) for _ in range(grp.size)])
            out = io.StringIO()
            write_json(krawtchouk(part, dual_partition(part)), out)
            assert case["krawtchouk_bytes"] == len(out.getvalue())
            assert case["krawtchouk_sha256"] == hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_sweep_cases_script_times_the_poset_weights(monkeypatch, capsys):
    """A random and a hierarchical order: both timings the least of repeats,
    and the label and report digests equal to the library's own."""
    import random

    from dualpart.group import GroupSpec
    from dualpart.poset import Poset, hierarchical_poset, poset_duality_check, poset_partition

    doc = sweep_cases(monkeypatch, capsys, "--case", "(3,)^6 random poset",
                      "--case", "(2,)^9 hierarchical poset", "--timeout", "60")
    rng = random.Random(0)
    perm = list(range(6))
    rng.shuffle(perm)
    posets = {
        "(3,)^6 random poset": (Poset.from_covers(6, [
            (perm[i], perm[j]) for i in range(6) for j in range(i + 1, 6)
            if rng.random() < 0.3]), GroupSpec((3,) * 6)),
        "(2,)^9 hierarchical poset": (hierarchical_poset((3, 3, 3)), GroupSpec((2,) * 9)),
    }
    assert [c["name"] for c in doc["poset_cases"]] == list(posets)
    for case in doc["poset_cases"]:
        p, grp = posets[case["name"]]
        assert case["status"] == "ok"
        assert least_of_repeats(case["partition_seconds"], case["partition_runs"])
        assert least_of_repeats(case["check_seconds"], case["check_runs"])
        assert case["partition_runs"] > 1 and case["check_runs"] > 1
        part = poset_partition(p, grp)
        assert case["blocks"] == part.num_blocks == p.n + 1
        assert case["labels_sha256"] == hashlib.sha256(repr(part.block_of).encode()).hexdigest()
        r = poset_duality_check(p, grp)
        fields = [r.equal, r.dual_refines_transposed, r.transposed_refines_dual,
                  None if r.shape is None else list(r.shape.levels), r.levels_equal_order]
        assert case["report_sha256"] == hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    assert doc["cases"] == doc["transform_cases"] == doc["subgroup_cases"] == []
