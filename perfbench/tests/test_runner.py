import os

import payloads
import run
import runner

ROOT = run.ROOT


def _job(prefix):
    return next(j for j in payloads.make_jobs("sweep", 0)
                if j["id"].split("-", 1)[1].startswith(prefix))


def test_hung_job_is_killed_and_counted(tmp_path):
    job = _job("bidual-256")
    child = runner.WarmChild(ROOT, False, 1024, str(tmp_path / "log"))
    res = child.run(job, timeout=0.2)
    assert res["status"] == "timeout"
    assert not child.alive
    child.finish()
    session = run.Session(run.parse_args(["--workload", "sweep", "--seed", "5"]))
    assert not session._check(job, res)
    assert session.failures and "timeout" in session.failures[0]


def test_job_over_the_memory_limit_fails_as_oom(tmp_path):
    job = _job("bidual-256")
    child = runner.WarmChild(ROOT, False, 35, str(tmp_path / "log"))
    res = child.run(job, timeout=60)
    assert res["status"] == "oom"
    assert not child.alive
    child.finish()
    cold = runner.run_cold(ROOT, job, False, str(tmp_path / "meta"), 35, timeout=60)
    assert cold["status"] == "oom"


def test_warm_child_serves_jobs_and_reports_trace(tmp_path):
    jobs = payloads.make_jobs("transform", 0)[:2]
    child = runner.WarmChild(ROOT, True, 1024, str(tmp_path / "log"))
    results = [child.run(job, timeout=60) for job in jobs]
    report = child.finish()
    assert [r["status"] for r in results] == ["ok", "ok"]
    assert {s[4] for s in report["spans"]} == {j["id"] for j in jobs}
    # cli calls these through names it imported, so they show only if rebound there
    names = {s[0] for s in report["spans"]}
    assert {"partition.dual_partition", "enumerator.product_transform",
            "serialization.to_json", "partition.from_blocks"} <= names
    assert report["counters"]["cyclotomic.mul.calls"] > 0
    assert report["missing"] == []
    assert child.proc.returncode == 0


def test_missing_program_is_a_startup_error(tmp_path):
    os.makedirs(tmp_path / "src")
    try:
        runner.probe(str(tmp_path), 1024, timeout=30)
    except runner.StartupError:
        return
    raise AssertionError("probe succeeded without dualpart sources")
