"""End-to-end runs of every subcommand through main()."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dualpart.checks
import dualpart.cli
import dualpart.cyclotomic
import dualpart.induced
import dualpart.partition
import dualpart.poset
import reference as ref
from dualpart.cli import main
from dualpart.errors import GuardExceeded, InputError
from dualpart.group import GroupSpec
from dualpart.partition import (MATRIX_GUARD, Partition, dual_partition, krawtchouk,
                                random_partition)
from dualpart.serialization import group_from_json, partition_from_json, poset_from_json, write_json
from test_serialization import partition_to_json

Z6_PARTITION = '{"blocks":[[[0]],[[1],[3],[5]],[[2],[4]]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_dual_worked_example(capsys):
    code, doc = run(capsys, "dual", "--group", '{"orders":[6]}',
                    "--partition", Z6_PARTITION)
    assert code == 0
    assert doc["dual"]["blocks"] == [[[0]], [[1], [2], [4], [5]], [[3]]]
    assert doc["reflexive"] is True
    assert doc["krawtchouk"]["entries"] == [[1, 3, 2], [1, 0, -1], [1, -3, 2]]
    # output round-trips through the parsers
    g = group_from_json(doc["group"])
    assert partition_from_json(doc["dual"], g).num_blocks == 3


def test_bidual_and_reflexive(capsys):
    part = '{"blocks":[[[0]],[[1],[2]],[[3],[4],[5]]]}'
    code, doc = run(capsys, "bidual", "--group", '{"orders":[6]}', "--partition", part)
    assert code == 0
    assert doc["reflexive"] is False
    assert len(doc["bidual"]["blocks"]) == 6
    code, doc = run(capsys, "reflexive", "--group", '{"orders":[6]}', "--partition", part)
    assert code == 0
    assert doc["reflexive"] is False
    assert doc["partition_blocks"] == 3 and doc["dual_blocks"] == 5


def test_byte_identical_reruns(capsys):
    argv = ["dual", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_krawtchouk_default_char_partition(capsys):
    code, doc = run(capsys, "krawtchouk", "--group", '{"orders":[6]}',
                    "--partition", Z6_PARTITION)
    assert code == 0
    assert doc["char_partition"]["blocks"] == [[[0]], [[1], [2], [4], [5]], [[3]]]
    assert doc["krawtchouk"]["entries"] == [[1, 3, 2], [1, 0, -1], [1, -3, 2]]


def test_macwilliams_command(capsys):
    code, doc = run(
        capsys, "macwilliams", "--group", '{"orders":[6]}',
        "--partition", '{"blocks":[[[0]],[[1],[2],[4],[5]],[[3]]]}',
        "--code", '{"generators":[[3]]}',
    )
    assert code == 0
    assert doc["a"] == [1, 1, 0]
    assert doc["b"] == [1, 2, 0]
    assert doc["krawtchouk"]["entries"] == [[1, 4, 1], [1, 0, -1], [1, -2, 1]]
    assert doc["verified"] is True
    assert doc["dual_code"]["elements"] == [[0], [2], [4]]


def test_product_command_with_code(capsys):
    code, doc = run(
        capsys, "product", "--group", '{"orders":[2]}',
        "--partition", '{"blocks":[[[0]],[[1]]]}', "--copies", "3",
        "--check", "--code", '{"generators":[[1,1,1]]}',
    )
    assert code == 0
    assert doc["group"]["orders"] == [2, 2, 2]
    assert doc["duality"]["commutes"] is True
    assert doc["verified"] is True
    assert {tuple(e["key"]): e["count"] for e in doc["enumerator"]} == {
        (0, 0, 0): 1, (1, 1, 1): 1,
    }


@pytest.mark.parametrize("cmd", ["product", "symmetrize"])
def test_induced_partition_is_printed_from_its_labels(cmd):
    """The induced partition of ``product`` and ``symmetrize --code`` is printed
    without its member tuples ever being built."""
    args = dualpart.cli.build_parser().parse_args([
        cmd, "--group", '{"orders":[4]}', "--partition", '{"blocks":[[[0]],[[1],[3]],[[2]]]}',
        "--copies", "3", "--code", '{"generators":[[1,2,1]]}'])
    doc, _ = args.handler(args)
    write_json(doc, io.StringIO())
    assert "blocks" not in vars(doc["partition"])


@pytest.mark.parametrize("cmd, builder", [("product", "product_partition"),
                                          ("symmetrize", "symmetrized_partition")])
def test_check_reuses_the_induced_partition(cmd, builder, monkeypatch, capsys):
    """``--check`` sweeps the document's induced partition: one build for it and
    one for the construction applied to the base's dual."""
    calls = []
    real = getattr(dualpart.induced, builder)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (dualpart.cli, dualpart.induced):
        monkeypatch.setattr(module, builder, counted)
    code, doc = run(capsys, cmd, "--group", '{"orders":[3]}',
                    "--partition", '{"blocks":[[[0]],[[1],[2]]]}', "--copies", "5", "--check")
    assert code == 0 and doc["duality"]["commutes"] is True
    assert len(calls) == 2


def test_symmetrize_command(capsys):
    code, doc = run(
        capsys, "symmetrize", "--group", '{"orders":[2]}',
        "--partition", '{"blocks":[[[0]],[[1]]]}', "--copies", "3",
        "--check", "--code", '{"generators":[[1,1,1]]}',
    )
    assert code == 0
    assert doc["duality"]["commutes"] is True
    assert {tuple(e["key"]): e["count"] for e in doc["transform"]} == {
        (3, 0): 1, (1, 2): 3,
    }


def test_symmetrize_single_block_counterexample(capsys):
    code, doc = run(
        capsys, "symmetrize", "--group", '{"orders":[3]}',
        "--partition", '{"blocks":[[[0],[1],[2]]]}', "--copies", "2", "--check",
    )
    assert code == 0
    assert doc["duality"]["commutes"] is False
    assert doc["duality"]["witness"] is not None


def test_poset_commands(capsys):
    poset = '{"n":3,"cover":[[1,2],[2,3]]}'
    code, doc = run(capsys, "poset-partition", "--group", '{"orders":[2,2,2]}',
                    "--poset", poset)
    assert code == 0
    assert [len(b) for b in doc["by_weight"]] == [1, 1, 2, 4]
    assert poset_from_json(doc["poset"]).n == 3

    code, doc = run(capsys, "poset-krawtchouk", "--group", '{"orders":[2,2,2]}',
                    "--poset", poset)
    assert code == 0
    assert doc["matrix"] == [
        [1, 1, 2, 4], [1, 1, 2, -4], [1, 1, -2, 0], [1, -1, 0, 0],
    ]
    assert doc["closed_form_matches"] is True

    code, doc = run(capsys, "poset-check", "--group", '{"orders":[2,2,2]}',
                    "--poset", poset)
    assert code == 0
    assert doc["equal"] is True and doc["hierarchical"] is True
    assert doc["levels"] == [1, 1, 1]


def test_poset_check_non_hierarchical(capsys):
    poset = '{"n":4,"cover":[[1,3],[2,3],[2,4]]}'
    code, doc = run(capsys, "poset-check", "--group", '{"orders":[2,2,2,2]}',
                    "--poset", poset)
    assert code == 0
    assert doc["hierarchical"] is False and doc["equal"] is False


def test_subgroups_command(capsys):
    code, doc = run(capsys, "subgroups", "--group", '{"orders":[2,2]}',
                    "--include-elements")
    assert code == 0
    assert doc["count"] == 5
    sizes = sorted(row["size"] for row in doc["subgroups"])
    assert sizes == [1, 2, 2, 2, 4]
    for row in doc["subgroups"]:
        assert "dual_generators" in row


def test_check_command(capsys):
    code, doc = run(capsys, "check", "--suite", "cyclotomic")
    assert code == 0
    assert doc["failed"] == 0
    assert all(r["passed"] for r in doc["results"])


def test_a_failing_check_exits_3_and_reports_its_first_failure(capsys, monkeypatch):
    def broken():
        return dualpart.checks._result("broken identity", ["order 5", "order 7"], 2)

    cyclotomic = dualpart.checks.SUITES["cyclotomic"]
    monkeypatch.setitem(dualpart.checks.SUITES, "cyclotomic", [broken, *cyclotomic[1:]])
    code, doc = run(capsys, "check", "--suite", "cyclotomic")
    assert code == 3
    assert doc["failed"] == 1
    assert doc["results"][0] == {"name": "broken identity", "passed": False,
                                 "detail": "2 failure(s), first: order 5"}
    assert [r["passed"] for r in doc["results"][1:]] == [True] * (len(cyclotomic) - 1)


def test_an_unknown_suite_is_an_input_error_that_names_every_suite():
    with pytest.raises(InputError) as err:
        dualpart.checks.run_suite("nope")
    assert "'nope'" in str(err.value)
    assert all(name in str(err.value) for name in ["all", *dualpart.checks.SUITES])


def test_exit_code_input_error(capsys):
    code = main(["dual", "--group", "not json", "--partition", Z6_PARTITION])
    assert code == 1
    assert "error" in capsys.readouterr().err
    code = main(["dual", "--group", '{"orders":[6]}',
                 "--partition", '{"blocks":[[[0]]]}'])
    assert code == 1
    # unknown subcommand goes through the same path, not argparse's exit(2)
    code = main(["frobnicate"])
    assert code == 1


Z2x3 = '{"orders":[2,3]}'
Z2x3_BLOCKS = ['[[0,0],[0,1],[0,2]]', '[[1,0],[1,1],[1,2]]']


def partition_text(*blocks):
    return '{"blocks":[' + ",".join(blocks) + "]}"


@pytest.mark.parametrize("partition, message", [
    (partition_text(Z2x3_BLOCKS[0], "[[1,0],[1,1],[1,3]]"),
     "element (1, 3) out of range for orders (2, 3): coordinate 1 is 3, order 3"),
    (partition_text(Z2x3_BLOCKS[0], "[[1,0],[1,1],[1]]"),
     "element (1,) has 1 coordinates, but the carrier has 2 factors, orders (2, 3)"),
    (partition_text(Z2x3_BLOCKS[0], "[]", Z2x3_BLOCKS[1]), "blocks must be nonempty"),
    (partition_text("[[0,0],[0,1],[0,2],[0,1]]", Z2x3_BLOCKS[1]),
     "duplicate element inside a block"),
    (partition_text(Z2x3_BLOCKS[0], "[[1,0],[1,1],[1,2],[0,1]]"), "blocks overlap"),
    (partition_text(Z2x3_BLOCKS[0], "[[1,0],[1,1]]"), "blocks do not cover the carrier"),
], ids=["range", "length", "empty", "duplicate", "overlap", "cover"])
def test_single_fault_partitions_keep_their_messages(partition, message, capsys):
    assert main(["bidual", "--group", Z2x3, "--partition", partition]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


HAMMING4 = '{"blocks":[[[0]],[[1],[2],[3]]]}'
NON_INTEGERS = {
    "float-order": (["bidual", "--group", '{"orders":[2.0]}', "--partition", HAMMING4],
                    "'orders' must be a list of integers"),
    "string-order": (["bidual", "--group", '{"orders":["4"]}', "--partition", HAMMING4],
                     "'orders' must be a list of integers"),
    "bool-order": (["bidual", "--group", '{"orders":[true,4]}', "--partition", HAMMING4],
                   "'orders' must be a list of integers"),
    "float-element": (["bidual", "--group", '{"orders":[4]}',
                       "--partition", '{"blocks":[[[0]],[[1.0],[2],[3]]]}'],
                      "an element must be an integer array"),
    "bool-element": (["bidual", "--group", '{"orders":[4]}',
                      "--partition", '{"blocks":[[[0]],[[true],[2],[3]]]}'],
                     "an element must be an integer array"),
    "bool-generator": (["macwilliams", "--group", '{"orders":[4]}', "--partition", HAMMING4,
                        "--code", '{"generators":[[true]]}'],
                       "an element must be an integer array"),
    "string-generator": (["macwilliams", "--group", '{"orders":[4]}', "--partition", HAMMING4,
                          "--code", '{"generators":[["2"]]}'],
                         "an element must be an integer array"),
    "bool-n": (["poset-partition", "--group", '{"orders":[2,2]}', "--poset", '{"n":true}'],
               "'n' must be a positive integer"),
    "float-n": (["poset-partition", "--group", '{"orders":[2,2]}', "--poset", '{"n":2.0}'],
                "'n' must be a positive integer"),
    "bool-cover": (["poset-partition", "--group", '{"orders":[2,2]}',
                    "--poset", '{"n":2,"cover":[[true,2]]}'],
                   "each cover must be a pair of integers"),
}


@pytest.mark.parametrize("argv, message", NON_INTEGERS.values(), ids=list(NON_INTEGERS))
def test_non_integers_in_integer_slots_exit_1_with_one_line(argv, message, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("generators", ["5", "null"])
def test_code_generators_that_are_no_list_exit_1(generators, capsys):
    argv = ["macwilliams", "--group", '{"orders":[4]}', "--partition", HAMMING4,
            "--code", '{"generators": %s}' % generators]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: code JSON needs a 'generators' list\n"


def test_a_json_file_that_is_no_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"orders": [6], "name": "\u00e9"}'.encode("latin-1"))
    assert main(["dual", "--group", f"@{path}", "--partition", Z6_PARTITION]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


def test_json_nested_past_the_recursion_limit_exits_1(capsys):
    deep = "[" * 200000 + "]" * 200000
    assert main(["dual", "--group", deep, "--partition", Z6_PARTITION]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_exit_code_guard(capsys):
    code = main(["subgroups", "--group", '{"orders":[64,64]}'])
    assert code == 2
    assert "guard" in capsys.readouterr().err


def test_exit_code_verification(capsys):
    code = main([
        "krawtchouk", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION,
        "--char-partition", '{"blocks":[[[0],[1]],[[2],[3],[4],[5]]]}',
    ])
    assert code == 3
    assert "verification" in capsys.readouterr().err


def test_guard_override(capsys):
    code, doc = run(capsys, "subgroups", "--group", '{"orders":[100]}',
                    "--max-group", "100")
    assert code == 0
    assert doc["count"] == 9


def test_subgroups_passes_the_group_guard_to_dual_code(capsys, monkeypatch):
    seen = []
    real = dualpart.cli.dual_code

    def recording(group, code, max_size=None):
        seen.append(max_size)
        return real(group, code, max_size)

    monkeypatch.setattr(dualpart.cli, "dual_code", recording)
    code, doc = run(capsys, "subgroups", "--group", '{"orders":[2,2]}', "--max-group", "100")
    assert code == 0
    assert seen == [100] * doc["count"]


@pytest.mark.parametrize("cmd", ["poset-partition", "poset-krawtchouk", "poset-check"])
def test_poset_factor_count_checked_before_the_order_is_built(cmd, capsys, monkeypatch):
    def refuse(cls, n, covers):
        raise AssertionError("the order was built")

    monkeypatch.setattr(dualpart.poset.Poset, "from_covers", classmethod(refuse))
    chain = json.dumps({"n": 400, "cover": [[i, i + 1] for i in range(1, 400)]})
    code = main([cmd, "--group", '{"orders":[2]}', "--poset", chain])
    assert code == 1
    assert "one cyclic factor per coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["poset-partition", "poset-check", "poset-krawtchouk"])
def test_poset_carrier_guard_checked_before_the_order_is_built(cmd, capsys, monkeypatch):
    def refuse(cls, n, covers):
        raise AssertionError("the order was built")

    monkeypatch.setattr(dualpart.poset.Poset, "from_covers", classmethod(refuse))
    chain = json.dumps({"n": 400, "cover": [[i, i + 1] for i in range(1, 400)]})
    code = main([cmd, "--group", json.dumps({"orders": [2] * 400}), "--poset", chain])
    assert code == 2
    assert f"carrier has {2 ** 400} elements, above the guard of 4096" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["dual"], ["bidual"], ["reflexive"], ["krawtchouk"],
                                   ["macwilliams", "--code", '{"generators":[]}'],
                                   ["product", "--copies", "2"],
                                   ["symmetrize", "--copies", "0"]], ids=lambda e: e[0])
def test_partition_carrier_guard_checked_before_the_payload_is_read(extra, capsys,
                                                                    monkeypatch):
    def refuse(obj, group):
        raise AssertionError("the partition was parsed")

    monkeypatch.setattr(dualpart.cli, "partition_from_json", refuse)
    code = main([extra[0], "--group", '{"orders":[4097]}', "--partition", "@/nonexistent",
                 *extra[1:]])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "guard exceeded: carrier has 4097 elements, above the guard of 4096\n"


@pytest.mark.parametrize("cmd", ["product", "symmetrize"])
def test_induced_transform_of_a_thirteen_block_base(cmd, capsys):
    singletons = json.dumps({"blocks": [[[x]] for x in range(13)]})
    code, doc = run(capsys, cmd, "--group", '{"orders":[13]}', "--partition", singletons,
                    "--copies", "2", "--code", '{"generators":[[1,2]]}')
    assert code == 0
    assert doc["verified"] is True


def test_file_and_stdin_payloads(tmp_path, capsys, monkeypatch):
    fp = tmp_path / "part.json"
    fp.write_text(Z6_PARTITION)
    code, doc = run(capsys, "dual", "--group", '{"orders":[6]}',
                    "--partition", f"@{fp}")
    assert code == 0
    assert doc["reflexive"] is True

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO('{"orders":[6]}'))
    code, doc = run(capsys, "dual", "--group", "-", "--partition", Z6_PARTITION)
    assert code == 0
    assert doc["group"]["orders"] == [6]


def _blocks_json(blocks):
    return json.dumps({"blocks": [[list(g) for g in b] for b in blocks]})


def test_krawtchouk_rejects_char_partition_on_large_carrier(capsys):
    """(2,)^9 Hamming with one weight-1 character moved into the weight-2 block."""
    weight = {}
    for x in range(2 ** 9):
        g = tuple((x >> (8 - i)) & 1 for i in range(9))
        weight.setdefault(sum(g), []).append(g)
    moved = (1,) + (0,) * 8
    char_blocks = {w: list(b) for w, b in weight.items()}
    char_blocks[1].remove(moved)
    char_blocks[2].append(moved)
    code = main([
        "krawtchouk", "--group", json.dumps({"orders": [2] * 9}),
        "--partition", _blocks_json(weight.values()),
        "--char-partition", _blocks_json(char_blocks.values()),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"holds {(0,) * 7 + (1, 1)} and {moved}" in captured.err
    assert "primal block 1" in captured.err


LEE8 = '{"blocks":[[[0]],[[1],[7]],[[2],[6]],[[3],[5]],[[4]]]}'
Z6_DUAL = '{"blocks":[[[0]],[[1],[2],[4],[5]],[[3]]]}'
HAMMING2 = '{"blocks":[[[0]],[[1]]]}'


SWEEP_CASES = {
    "dual": ["dual", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION],
    "bidual-self-dual": ["bidual", "--group", '{"orders":[8]}', "--partition", LEE8],
    "reflexive-self-dual": ["reflexive", "--group", '{"orders":[8]}', "--partition", LEE8],
    "krawtchouk": ["krawtchouk", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION],
    "krawtchouk-char-partition": [
        "krawtchouk", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION,
        "--char-partition", Z6_DUAL],
    "macwilliams": ["macwilliams", "--group", '{"orders":[6]}', "--partition", Z6_DUAL,
                    "--code", '{"generators":[[3]]}'],
    "poset-krawtchouk": ["poset-krawtchouk", "--group", '{"orders":[2,2,2]}',
                         "--poset", '{"n":3,"cover":[[1,2],[2,3]]}'],
}
for _cmd in ("product", "symmetrize"):
    # a self-dual base, and a reflexive base whose dual differs from it
    SWEEP_CASES[f"{_cmd}-self-dual"] = [
        _cmd, "--group", '{"orders":[2]}', "--partition", HAMMING2, "--copies", "3",
        "--check", "--code", '{"generators":[[1,1,1]]}']
    SWEEP_CASES[f"{_cmd}-reflexive"] = [
        _cmd, "--group", '{"orders":[6]}', "--partition", Z6_PARTITION, "--copies", "2",
        "--check", "--code", '{"generators":[[3,3]]}']


@pytest.mark.parametrize("argv", SWEEP_CASES.values(), ids=list(SWEEP_CASES))
def test_one_sweep_per_partition(argv, capsys, monkeypatch):
    swept = []
    real = dualpart.partition._signature_rows

    def recording(part, *args, **kwargs):
        swept.append(part)
        return real(part, *args, **kwargs)

    monkeypatch.setattr(dualpart.partition, "_signature_rows", recording)
    assert main(argv) == 0
    capsys.readouterr()
    assert swept
    assert len(swept) == len(set(swept)), "a partition was swept twice"


# Huge but well-formed inputs. Each case runs in a child under a 1 GiB
# address-space limit, so a regression ends in a MemoryError instead of
# taking the machine's memory. The child prints how long main() took.
_TIMED_MAIN = (
    "import sys, time\n"
    "from dualpart.cli import main\n"
    "start = time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
    "sys.exit(code)\n"
)


def _cli_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_limited(argv, gib=1, stdout=subprocess.PIPE):
    def limit():
        cap = int(gib * (1 << 30))
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-c", _TIMED_MAIN, *argv], env=_cli_env(),
                          preexec_fn=limit, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=60)


TWENTY_THOUSAND_FACTORS = json.dumps({"orders": [2] * 20000})
HUGE_INPUTS = {
    "five-thousand-digit-order": (
        ["dual", "--group", '{"orders":[1' + "0" * 5000 + "]}", "--partition", HAMMING2],
        1, "error: invalid JSON"),
    "subgroups-of-twenty-thousand-factors": (
        ["subgroups", "--group", TWENTY_THOUSAND_FACTORS],
        2, "got at least 2^20000"),
}
for _cmd in ("product", "symmetrize"):
    for _copies in ("1000000", "200000000"):
        HUGE_INPUTS[f"{_cmd}-{_copies}-copies"] = (
            [_cmd, "--group", '{"orders":[2]}', "--partition", HAMMING2, "--copies", _copies],
            2, "13 copies of the carrier have 8192 elements, above the guard of 4096")
HUGE_INPUTS["dual-on-twenty-thousand-factors"] = (  # the guard runs before the payload is read
    ["dual", "--group", TWENTY_THOUSAND_FACTORS, "--partition", HAMMING2],
    2, "carrier has at least 2^20000 elements, above the guard of 4096")
HUGE_INPUTS["symmetrize-one-element-carrier"] = (
    ["symmetrize", "--group", '{"orders":[]}', "--partition", '{"blocks":[[[]]]}',
     "--copies", "200000000"],
    2, "200000000 copies, above the guard of 4096")


@pytest.mark.parametrize("argv,exit_code,message", HUGE_INPUTS.values(), ids=list(HUGE_INPUTS))
def test_huge_inputs_fail_with_one_line_and_no_traceback(argv, exit_code, message):
    proc = _run_limited(argv)
    assert proc.returncode == exit_code, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and message in proc.stderr
    assert len(proc.stderr.encode()) < 300
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("order", [512, 1024])
def test_matrix_guard_stops_a_huge_krawtchouk_matrix(order, tmp_path):
    """Random partitions of (512,) and (1024,) have 276 and 571 blocks, so their
    matrices ask for at least 276^2 x 256 and 571^2 x 512 exact coefficients
    (the dual has at least as many blocks); under 2 GiB they must exit 2
    quickly, before the sweep, not end in MemoryError."""
    part = random_partition(GroupSpec((order,)), random.Random(0))
    payload = tmp_path / "partition.json"
    payload.write_text(json.dumps(partition_to_json(part)))
    proc = _run_limited(["krawtchouk", "--group", json.dumps({"orders": [order]}),
                         "--partition", f"@{payload}"], gib=2)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    cols, phi = part.num_blocks, order // 2
    assert f"at least {cols} x {cols} entries of {phi} coefficients, {cols * cols * phi} in all" \
        in proc.stderr
    assert "--max-matrix" in proc.stderr
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("cmd", ["dual", "krawtchouk", "macwilliams"])
def test_max_matrix_overrides_the_matrix_guard(cmd, capsys):
    # 3 x 3 entries of phi(6) = 2 coefficients
    argv = [cmd, "--group", '{"orders":[6]}', "--partition", Z6_PARTITION]
    if cmd == "macwilliams":
        argv += ["--code", '{"generators":[[3]]}']
    assert main(argv + ["--max-matrix", "17"]) == 2
    err = capsys.readouterr().err
    assert "3 x 3 entries of 2 coefficients, 18 in all, above the matrix guard of 17" in err
    assert main(argv + ["--max-matrix", "18"]) == 0


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("cmd, flag", [("dual", "--max-group"), ("dual", "--max-matrix"),
                                       ("subgroups", "--max-group"),
                                       ("krawtchouk", "--max-group"),
                                       ("krawtchouk", "--max-matrix")])
def test_guard_flags_below_one_are_usage_errors(cmd, flag, value, capsys):
    argv = [cmd, "--group", '{"orders":[6]}']
    if cmd != "subgroups":
        argv += ["--partition", Z6_PARTITION]
    assert main(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: a guard must be at least 1, not {value}" in captured.err


def test_matrix_guard_is_checked_before_any_row_is_built(monkeypatch, capsys):
    """Also before the sweep: ``krawtchouk`` of Lee on (4096,) against the singletons
    exits 2 with the partition never swept."""
    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(dualpart.partition, "_packed_rows", refuse)
    part = Partition.singletons(GroupSpec((8,)))
    with pytest.raises(GuardExceeded, match="8 x 8 entries of 4 coefficients, 256 in all"):
        krawtchouk(part, dual_partition(part), max_entries=255)
    monkeypatch.setattr(dualpart.partition, "_signature_rows", refuse)
    lee = {"blocks": [[[x]] + [[4096 - x]] * (0 < x < 2048) for x in range(2049)]}
    singles = {"blocks": [[[x]] for x in range(4096)]}
    assert main(["krawtchouk", "--group", '{"orders":[4096]}', "--partition", json.dumps(lee),
                 "--char-partition", json.dumps(singles)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("4096 x 2049 entries of 2048 coefficients, 17188257792 in all, "
            "above the matrix guard of 5000000") in captured.err


@pytest.mark.parametrize("cmd", ["dual", "macwilliams", "krawtchouk"])
def test_dual_and_macwilliams_check_the_matrix_guard_before_the_sweep(cmd, monkeypatch, capsys):
    """Lee on (4095,) has 2048 blocks, and the dual has at least as many, so the
    matrix holds at least 2048 x 2048 entries of phi(4095) = 1728 coefficients.
    ``krawtchouk`` with no character partition takes the dual as its rows, so it
    refuses before the sweep too."""
    def refuse(*args, **kwargs):
        raise AssertionError("the partition was swept")

    monkeypatch.setattr(dualpart.partition, "_signature_rows", refuse)
    lee = {"blocks": [[[x]] + [[4095 - x]] * (0 < x < 4095 - x) for x in range(2048)]}
    argv = [cmd, "--group", '{"orders":[4095]}', "--partition", json.dumps(lee)]
    if cmd == "macwilliams":
        argv += ["--code", '{"generators":[[1365]]}']
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("the Krawtchouk matrix needs at least 2048 x 2048 entries of 1728 coefficients, "
            "7247757312 in all, above the matrix guard of 5000000 (--max-matrix)") in captured.err


def test_a_digit_wider_than_64_bits_is_a_guard_error(monkeypatch, capsys):
    """With c_E = 2^63, singletons on (4,) need 2^b >= 2 * 2^63 + 1 + 1."""
    monkeypatch.setattr(dualpart.cyclotomic, "coefficient_bound", lambda e: 1 << 63)
    singles = '{"blocks":[[[0]],[[1]],[[2]],[[3]]]}'
    assert main(["krawtchouk", "--group", '{"orders":[4]}', "--partition", singles]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"guard exceeded: the Krawtchouk rows need digits of 2^b >= 2R + A + 1 = "
            f"{(1 << 64) + 2}, above the widest digit of 2^64") in captured.err


def test_packed_matrix_is_printed_in_half_a_gib(tmp_path):
    """A 2048 x 1210 matrix of (2,)^11, 2,478,080 coefficients, half the
    matrix guard, printed to a file under a 512 MiB address-space limit. It
    peaked at 21.8 MiB of RSS on Python 3.11, rows of b-bit digits; with a
    ``CycInt`` per entry the run ran out of memory under this limit (the
    4096 x 1220 matrix at the guard peaked at 1.3 GiB)."""
    part = random_partition(GroupSpec((2,) * 11), random.Random(17))
    assert part.num_blocks == 1210
    payload, out = tmp_path / "partition.json", tmp_path / "matrix.json"
    payload.write_text(json.dumps(partition_to_json(part)))
    with out.open("w") as stdout:
        proc = _run_limited(["krawtchouk", "--group", json.dumps({"orders": [2] * 11}),
                             "--partition", f"@{payload}"], gib=0.5, stdout=stdout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with out.open() as text:
        assert text.read(64).startswith('{\n  "command": "krawtchouk"')
    assert out.stat().st_size > 150_000_000
    out.unlink()


def test_matrix_guard_admits_the_256_element_random_matrix():
    part = random_partition(GroupSpec((256,)), random.Random(0))
    rows, cols = dual_partition(part).num_blocks, part.num_blocks
    assert 4_000_000 < rows * cols * 128 <= MATRIX_GUARD


def test_copies_guard_allows_the_largest_power_under_the_guard(capsys):
    code, doc = run(capsys, "product", "--group", '{"orders":[2]}', "--partition", HAMMING2,
                    "--copies", "12")
    assert code == 0 and doc["group"]["orders"] == [2] * 12
    code = main(["product", "--group", '{"orders":[2]}', "--partition", HAMMING2,
                 "--copies", "12", "--max-group", "2048"])
    assert code == 2
    assert "12 copies of the carrier have 4096 elements" in capsys.readouterr().err


# One small run of every subcommand. Its stdout must be laid out exactly as
# json.dumps(indent=2) lays out the same document.
Z5_SINGLETONS = '{"blocks":[[[0]],[[1]],[[2]],[[3]],[[4]]]}'
CHAIN3 = '{"n":3,"cover":[[1,2],[2,3]]}'
LAYOUT_CASES = {
    "dual": ["dual", "--group", '{"orders":[5]}', "--partition", Z5_SINGLETONS],
    "bidual": ["bidual", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION],
    "reflexive": ["reflexive", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION],
    "krawtchouk": ["krawtchouk", "--group", '{"orders":[2,3]}', "--partition",
                   '{"blocks":[[[0,0]],[[0,1],[0,2]],[[1,0]],[[1,1],[1,2]]]}'],
    "macwilliams": ["macwilliams", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION,
                    "--code", '{"generators":[[3]]}'],
    "product": ["product", "--group", '{"orders":[3]}', "--partition",
                '{"blocks":[[[0]],[[1]],[[2]]]}', "--copies", "2", "--check",
                "--code", '{"generators":[[1,2]]}'],
    "symmetrize": ["symmetrize", "--group", '{"orders":[2]}', "--partition", HAMMING2,
                   "--copies", "3", "--check", "--code", '{"generators":[[1,1,1]]}'],
    "poset-partition": ["poset-partition", "--group", '{"orders":[2,2,2]}', "--poset", CHAIN3],
    "poset-krawtchouk": ["poset-krawtchouk", "--group", '{"orders":[2,2,2]}', "--poset", CHAIN3],
    "poset-check": ["poset-check", "--group", '{"orders":[2,2,2]}', "--poset", CHAIN3],
    "subgroups": ["subgroups", "--group", '{"orders":[2,4]}', "--include-elements"],
    "check": ["check", "--suite", "cyclotomic"],
}


def test_layout_cases_cover_every_subcommand():
    commands = dualpart.cli.build_parser()._subparsers._group_actions[0].choices
    assert set(LAYOUT_CASES) == set(commands)


@pytest.mark.parametrize("argv", LAYOUT_CASES.values(), ids=list(LAYOUT_CASES))
def test_stdout_is_laid_out_as_json_dump_indent_2(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_second_pass_in_one_process_writes_the_same_bytes(capsys):
    """The parser is built once per process; reusing it changes no output."""
    passes = []
    for _ in range(2):
        outs = []
        for argv in LAYOUT_CASES.values():
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        passes.append(outs)
    assert passes[0] == passes[1]
    assert dualpart.cli.build_parser() is dualpart.cli.build_parser()


@pytest.mark.parametrize("argv, table", [
    (["dual", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION], [
        "partition          {0} | {1,3,5} | {2,4}",
        "dual               {0} | {1,2,4,5} | {3}",
        "krawtchouk:",
        "  [ 1   3   2 ]",
        "  [ 1   0  -1 ]",
        "  [ 1  -3   2 ]",
        "reflexive          True",
    ]),
    (["dual", "--group", '{"orders":[5]}',
      "--partition", '{"blocks":[[[0]],[[1]],[[2]],[[3]],[[4]]]}'], [
        "partition          {0} | {1} | {2} | {3} | {4}",
        "dual               {0} | {1} | {2} | {3} | {4}",
        "krawtchouk:",
        "  [ 1  1  1  1  1 ]",
        "  [ 1  ~  ~  ~  ~ ]",
        "  [ 1  ~  ~  ~  ~ ]",
        "  [ 1  ~  ~  ~  ~ ]",
        "  [ 1  ~  ~  ~  ~ ]",
        "reflexive          True",
    ]),
    (["product", "--group", '{"orders":[2]}', "--partition", '{"blocks":[[[0]],[[1]]]}',
      "--copies", "3", "--check", "--code", '{"generators":[[1,1,1]]}'], [
        "partition          {(0,0,0)} | {(0,0,1)} | {(0,1,0)} | {(0,1,1)} | {(1,0,0)} | "
        "{(1,0,1)} | {(1,1,0)} | {(1,1,1)}",
        "base_partition     {0} | {1}",
        "factor_krawtchouk:",
        "  [ 1   1 ]",
        "  [ 1  -1 ]",
        "verified           True",
    ]),
    (["product", "--group", '{"orders":[5]}', "--partition", '{"blocks":[[[0]],[[1],[4]],[[2],[3]]]}',
      "--copies", "2", "--code", '{"generators":[[1,2]]}'], [
        "partition          {(0,0)} | {(0,1),(0,4)} | {(0,2),(0,3)} | {(1,0),(4,0)} | "
        "{(1,1),(1,4),(4,1),(4,4)} | {(1,2),(1,3),(4,2),(4,3)} | {(2,0),(3,0)} | "
        "{(2,1),(2,4),(3,1),(3,4)} | {(2,2),(2,3),(3,2),(3,3)}",
        "base_partition     {0} | {1,4} | {2,3}",
        "factor_krawtchouk:",
        "  [ 1  2  2 ]",
        "  [ 1  ~  ~ ]",
        "  [ 1  ~  ~ ]",
        "verified           True",
    ]),
    (["macwilliams", "--group", '{"orders":[4]}', "--partition", '{"blocks":[[[0]],[[1],[3]],[[2]]]}',
      "--code", '{"generators":[[1]]}'], [
        "char_partition     {0} | {1,3} | {2}",
        "primal_partition   {0} | {1,3} | {2}",
        "krawtchouk:",
        "  [ 1   2   1 ]",
        "  [ 1   0  -1 ]",
        "  [ 1  -2   1 ]",
        "verified           True",
        "a                  [1, 2, 1]",
        "b                  [1, 0, 0]",
    ]),
    (["poset-check", "--group", '{"orders":[2,3]}', "--poset", '{"n":2,"cover":[]}'], [
        "equal              False",
        "hierarchical       True",
    ]),
    (["check", "--suite", "cyclotomic"], [
        "failed             0",
        "PASS cyclotomic ring laws (150 case(s) verified)",
        "PASS conjugation (100 case(s) verified)",
        "PASS full root sums vanish (23 case(s) verified)",
        "PASS order lifting is a ring map (80 case(s) verified)",
    ]),
], ids=["dual", "dual-irrational", "product-code", "product-code-irrational", "macwilliams-lee",
        "poset-check", "check"])
def test_pretty_adds_tables_on_stderr_only(argv, table, capsys):
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--pretty"]) == 0
    pretty = capsys.readouterr()
    assert pretty.out == plain.out
    assert plain.err == ""
    assert pretty.err.splitlines() == table


def test_check_suite_all_prints_the_golden_bytes():
    """``check --suite all`` stdout, byte for byte, against the committed copy."""
    golden = Path(__file__).resolve().parent / "golden" / "check_suite_all.json"
    proc = subprocess.run([sys.executable, "-m", "dualpart.cli", "check", "--suite", "all"],
                          env=_cli_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == golden.read_bytes()


HAMMING_2 = partition_text("[[0]]", "[[1]]")
ONE_BLOCK_3 = partition_text("[[0],[1],[2]]")
CHAIN_3 = '{"n":3,"cover":[[1,2],[2,3]]}'
GOLDEN_RUNS = {
    "dual-6": ["dual", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION],
    "dual-5-irrational": ["dual", "--group", '{"orders":[5]}',
                          "--partition", partition_text("[[0]]", "[[1],[4]]", "[[2],[3]]")],
    "dual-12-irrational": ["dual", "--group", '{"orders":[12]}', "--partition", partition_text(
        "[[0]]", "[[1]]", "[[2],[3],[4]]", "[[5],[6],[7],[8],[9],[10],[11]]")],
    "dual-2x2": ["dual", "--group", '{"orders":[2,2]}',
                 "--partition", partition_text("[[0,0]]", "[[0,1],[1,0]]", "[[1,1]]")],
    "bidual-6": ["bidual", "--group", '{"orders":[6]}',
                 "--partition", partition_text("[[0]]", "[[1],[2]]", "[[3],[4],[5]]")],
    "bidual-2x3": ["bidual", "--group", Z2x3, "--partition", partition_text(*Z2x3_BLOCKS)],
    "reflexive-6": ["reflexive", "--group", '{"orders":[6]}',
                    "--partition", partition_text("[[0]]", "[[1],[2]]", "[[3],[4],[5]]")],
    "reflexive-4-lee": ["reflexive", "--group", '{"orders":[4]}',
                        "--partition", partition_text("[[0]]", "[[1],[3]]", "[[2]]")],
    "krawtchouk-6": ["krawtchouk", "--group", '{"orders":[6]}', "--partition", Z6_PARTITION],
    "krawtchouk-5-char": ["krawtchouk", "--group", '{"orders":[5]}',
                          "--partition", partition_text("[[0]]", "[[1],[2],[3],[4]]"),
                          "--char-partition", partition_text("[[0]]", "[[1]]", "[[2],[3],[4]]")],
    "macwilliams-6": ["macwilliams", "--group", '{"orders":[6]}',
                      "--partition", partition_text("[[0]]", "[[1],[2],[4],[5]]", "[[3]]"),
                      "--code", '{"generators":[[3]]}'],
    "macwilliams-2x2x2": ["macwilliams", "--group", '{"orders":[2,2,2]}', "--partition",
                          partition_text("[[0,0,0]]", "[[0,0,1],[0,1,0],[1,0,0]]",
                                         "[[0,1,1],[1,0,1],[1,1,0]]", "[[1,1,1]]"),
                          "--code", '{"generators":[[1,1,0],[0,1,1]]}'],
    "product-2-code": ["product", "--group", '{"orders":[2]}', "--partition", HAMMING_2,
                       "--copies", "3", "--check", "--code", '{"generators":[[1,1,1]]}'],
    "product-3-witness": ["product", "--group", '{"orders":[3]}', "--partition", ONE_BLOCK_3,
                          "--copies", "2", "--check"],
    "product-4-lee-code": ["product", "--group", '{"orders":[4]}',
                           "--partition", partition_text("[[0]]", "[[1],[3]]", "[[2]]"),
                           "--copies", "2", "--code", '{"generators":[[1,2]]}'],
    "symmetrize-2-code": ["symmetrize", "--group", '{"orders":[2]}', "--partition", HAMMING_2,
                          "--copies", "3", "--check", "--code", '{"generators":[[1,1,1]]}'],
    "symmetrize-3-witness": ["symmetrize", "--group", '{"orders":[3]}',
                             "--partition", ONE_BLOCK_3, "--copies", "2", "--check"],
    "symmetrize-3-code": ["symmetrize", "--group", '{"orders":[3]}',
                          "--partition", partition_text("[[0]]", "[[1],[2]]"), "--copies", "3",
                          "--code", '{"generators":[[1,2,0],[0,1,1]]}'],
    "poset-partition-chain": ["poset-partition", "--group", '{"orders":[2,2,2]}',
                              "--poset", CHAIN_3],
    "poset-krawtchouk-chain": ["poset-krawtchouk", "--group", '{"orders":[2,3,2]}',
                               "--poset", CHAIN_3],
    "poset-krawtchouk-antichain": ["poset-krawtchouk", "--group", '{"orders":[3,3]}',
                                   "--poset", '{"n":2,"cover":[]}'],
    "poset-check-chain": ["poset-check", "--group", '{"orders":[2,2,2]}', "--poset", CHAIN_3],
    "poset-check-zigzag": ["poset-check", "--group", '{"orders":[2,2,2,2]}',
                           "--poset", '{"n":4,"cover":[[1,3],[2,3],[2,4]]}'],
    "subgroups-2x2-elements": ["subgroups", "--group", '{"orders":[2,2]}',
                               "--include-elements"],
    "subgroups-12": ["subgroups", "--group", '{"orders":[12]}'],
    "check-cyclotomic": ["check", "--suite", "cyclotomic"],
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_cli_stdout_matches_the_golden_digests(name, capsys):
    """Small runs of all 12 subcommands, each one's stdout against its committed sha256.

    ``tests/golden/cli_stdout.json`` maps each name of ``GOLDEN_RUNS`` to that digest."""
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "cli_stdout.json")
                        .read_text())
    assert list(golden) == list(GOLDEN_RUNS)
    assert main(GOLDEN_RUNS[name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == golden[name]


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "after-one-line"])
def test_closed_stdout_exits_141_without_a_traceback(read_first, tmp_path):
    """A reader that closes the pipe early, as ``| head`` does: before reading
    anything, or after the first line of a document far larger than a pipe holds."""
    partition = tmp_path / "singletons.json"
    partition.write_text(json.dumps(
        {"blocks": [[list(g)] for g in itertools.product(range(2), repeat=6)]}))
    argv = [sys.executable, "-m", "dualpart.cli", "dual", "--group", json.dumps(
        {"orders": [2] * 6}), "--partition", f"@{partition}"]
    read, write = os.pipe()
    if not read_first:
        os.close(read)
    proc = subprocess.Popen(argv, env=_cli_env(), stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    if read_first:
        with os.fdopen(read, "rb") as reader:
            assert reader.readline() == b"{\n"
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """``import dualpart.cli`` in a fresh interpreter: ``dataclasses`` would load
    ``inspect``, ``dis``, ``ast`` and ``tokenize`` into every cold start."""
    probe = "import sys, dualpart.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=_cli_env(), capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


PAYLOADS = {"dual": ["--partition"], "bidual": ["--partition"], "reflexive": ["--partition"],
            "krawtchouk": ["--partition"], "macwilliams": ["--partition", "--code"],
            "product": ["--partition", "--code"], "symmetrize": ["--partition", "--code"],
            "poset-partition": ["--poset"], "poset-krawtchouk": ["--poset"],
            "poset-check": ["--poset"], "subgroups": []}
"""The flags besides ``--group`` of the 11 subcommands that take payloads."""
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=4),
                 st.lists(st.integers(-1, 5), max_size=3))


@st.composite
def cli_runs(draw):
    """A subcommand and its payloads on a carrier of at most 16 elements: singletons or
    blocks from random labels, codes from random generators, orders from random covers,
    each payload at times replaced by junk, left unparsable or left out."""
    cmd = draw(st.sampled_from(list(PAYLOADS)))
    orders = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)
                  .filter(lambda o: math.prod(o) <= 16))
    els = ref.elements(GroupSpec(tuple(orders)))
    labels = draw(st.just(range(len(els))) | st.lists(st.integers(0, 3), min_size=len(els),
                                                       max_size=len(els)))
    blocks = [[list(g) for g, at in zip(els, labels) if at == label] for label in set(labels)]
    copies = draw(st.sampled_from([1, 1, 2, 2, 3, 0]))
    words = els if cmd == "macwilliams" else ref.elements(GroupSpec(tuple(orders) * copies))
    pairs = st.tuples(st.integers(1, len(orders)), st.integers(1, len(orders)))
    payloads = {"--group": {"orders": orders}, "--partition": {"blocks": blocks},
                "--code": {"generators": draw(st.lists(st.sampled_from(words), max_size=2))},
                "--poset": {"n": len(orders), "cover": draw(st.lists(pairs, max_size=3))}}
    argv = [cmd]
    for flag in ["--group", *PAYLOADS[cmd]]:
        how = draw(st.sampled_from(["valid"] * 12 + ["junk", "unparsable", "missing"]))
        if how != "missing":
            text = json.dumps(draw(JUNK) if how == "junk" else payloads[flag])
            argv += [flag, text[:-1] if how == "unparsable" else text]
    if cmd in ("product", "symmetrize"):
        argv += ["--copies", str(copies)] + draw(st.sampled_from([[], ["--check"]]))
    return argv + draw(st.sampled_from([[], [], ["--max-group", "8"]]))


@given(cli_runs())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_random_payloads_exit_cleanly_and_dual_matches_the_reference(argv):
    """Every run exits 0 to 3, raising nothing; a run that exits 0 prints one JSON
    document, and a dual printed has the blocks of the reference's dual."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        return
    doc = json.loads(out.getvalue())
    if argv[0] == "dual":
        grp = group_from_json(doc["group"])
        want = ref.dual(partition_from_json(doc["partition"], grp))
        assert doc["dual"]["blocks"] == [[list(g) for g in b] for b in want.blocks]
