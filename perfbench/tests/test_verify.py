import contextlib
import io
import json

import pytest

import payloads
import run
import verify
from dualpart import cli


def _stdout(job):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(job["argv"]) == 0
    return buf.getvalue().encode()


def _job(workload, prefix):
    return next(j for j in payloads.make_jobs(workload, payloads.DEFAULT_SEED)
                if j["id"].split("-", 1)[1].startswith(prefix))


def _mutate(doc, cmd):
    if cmd == "dual":
        doc["dual"]["blocks"][0].pop()
    elif cmd == "reflexive":
        doc["reflexive"] = not doc["reflexive"]
    elif cmd == "macwilliams":
        doc["b"][0] += 1
    elif cmd == "product":
        doc["transform"][0]["count"] += 1
    elif cmd == "check":
        doc["results"][0]["passed"] = False
    return doc


@pytest.mark.parametrize("prefix", ["dual-16", "reflexive-16", "macwilliams-16",
                                    "product-2x5", "check-cyclotomic"])
def test_correct_output_passes_and_mutations_fail(prefix):
    job = _job("cli-cold", prefix)
    out = _stdout(job)
    assert verify.check_output(job, 0, out) is None
    bad = json.dumps(_mutate(json.loads(out), job["argv"][0])).encode()
    assert verify.check_output(job, 0, bad) is not None
    assert verify.check_output(job, 0, out[:-10]) is not None
    assert verify.check_output(job, 1, out) == "exit code 1"


def test_false_verified_field_fails():
    job = _job("cli-cold", "macwilliams-16")
    doc = json.loads(_stdout(job))
    doc["verified"] = False
    assert "verified" in verify.check_output(job, 0, json.dumps(doc).encode())


def test_session_counts_a_changed_byte_as_failure():
    session = run.Session(run.parse_args(["--workload", "cli-cold"]))
    job = session.jobs[0]
    out = _stdout(job)
    ok = {"status": "ok", "rc": 0, "out": out, "err": ""}
    assert session._check(job, ok)
    # same document, different bytes: passes the checks but not the golden digest
    respaced = json.dumps(json.loads(out)).encode()
    assert verify.check_output(job, 0, respaced) is None
    assert not session._check(job, {**ok, "out": respaced})
    assert session.attempted == 2 and len(session.failures) == 1
    assert "golden" in session.failures[0]
