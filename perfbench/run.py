"""Closed-loop benchmark of the dualpart command line.

    python3 perfbench/run.py --workload sweep|transform|cli-cold \\
        [--seed N] [--seconds S] [--trace 0|1]

One client, one job in flight, no threads. Jobs come from ``payloads.py``
(seeded stdlib ``random``) and go through ``dualpart.cli.main(argv)`` in a
child process: a long-lived one for ``sweep`` and ``transform``, a fresh one
per job for ``cli-cold``. Every output is checked from outside the library
(``verify.py``); at the default seed its sha256 must also match the digest in
``golden/<workload>.json``. Any failure counts against ``correct``.

With ``--trace 0`` the job list is run in whole rounds, and the end-to-end
metrics are printed one per line with their unit, then as one JSON object on
the last line. ``--seconds`` sets the number of rounds: it is divided by the
round's nominal length, the time one round took at the commit that added the
benchmark, and is at least two. Both sides of a comparison therefore run the
same jobs the same number of times, and the tail percentile is taken over the
same number of samples. With ``--trace 1`` one round runs untraced and then one traced,
each in fresh children, and the per-layer metrics are printed instead; the
counts repeat exactly for a given seed. Spans are written to
``.perfbench_out/`` in the checkout.

``--write-golden`` runs one round at the default seed and stores its stdout
digests; use it only when the job generator changes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import statistics

import payloads
import runner
import stats
import verify
from spans import self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

PROBES_PER_ROUND = 8
MIN_ROUNDS = 2
# seconds one round took at the commit that added the benchmark (2-core x86 VM, Python 3.11)
NOMINAL_ROUND_S = {"sweep": 16.0, "transform": 10.0, "cli-cold": 10.0}
JOB_TIMEOUT_S = 60.0  # a job still running after this counts as hung and its child is killed
MEM_LIMIT_MB = 1024  # address-space limit of every child; the largest job peaks near 75 MiB
DEADLINE_S = 150.0  # stop starting jobs after this long, to exit well within 180 s

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

SELF_TIMES = [
    "partition.dual_partition", "partition.krawtchouk", "partition.from_blocks",
    "group.dual_code", "group.all_subgroups",
    "induced.product_partition", "induced.symmetrized_partition", "induced.check_duality",
    "enumerator.enumerate", "enumerator.product_transform",
    "enumerator.symmetrized_transform", "enumerator.macwilliams_transform",
    "poset.poset_partition", "poset.poset_duality_check",
    "poset.poset_krawtchouk_bruteforce", "poset.closed_form",
    "serialization.from_json", "serialization.to_json", "cli.main", "checks.run_suite",
]
COUNTS = [
    "partition.dual_partition.calls", "partition.krawtchouk.calls", "group.dual_code.calls",
    "partition.sweeps", "partition.sweep_redundant", "partition.sweep_chars",
    "partition.sweep_coeff_adds", "cyclotomic.mul.calls", "cyclotomic.add.calls",
    "cyclotomic.mul.coeff_products", "enumerator.transform_muls",
]
CACHES = ["cyclotomic.cache_entries", "cyclotomic.zeta_table_ints"]


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({name: "count" for name in COUNTS + CACHES})
    units.update({"partition.sweeps_per_job": "count/job", "cli.stdout_bytes": "bytes",
                  "trace.overhead_ratio": "ratio"})
    return units


class Session:
    """Runs jobs of one workload, checks every output and keeps the results."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.cold = args.workload == "cli-cold"
        self.jobs = payloads.make_jobs(args.workload, args.seed)
        self.golden = None
        if args.seed == payloads.DEFAULT_SEED and not args.write_golden:
            self.golden = verify.load_golden(args.workload, payloads.dumps(self.jobs))
        self.attempted = 0
        self.setup: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.deadline = time.monotonic() + DEADLINE_S
        os.makedirs(OUT_DIR, exist_ok=True)

    def _check(self, job: dict, res: dict) -> bool:
        reason = None
        if res["status"] != "ok":
            reason = f"status {res['status']} (rc {res['rc']}): {res['err'][-300:]}"
        else:
            reason = verify.check_output(job, res["rc"], res["out"])
        if reason is None:
            sha = verify.digest(res["out"])
            self.digests[job["id"]] = sha
            if self.golden is not None and self.golden.get(job["id"]) != sha:
                reason = "stdout digest differs from the golden file"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{job['id']}: {reason}")
        return reason is None

    def run_round(self, traced: bool, probes: bool = False) -> dict:
        """One pass over the job list; returns latencies, busy wall and trace reports.

        With ``probes``, set-up probes are spread over the round, between jobs
        and outside the timed wall, so their median samples the whole run.
        """
        out = {"ms": [], "wall": 0.0, "reports": [], "stdout_bytes": 0}
        child = None
        meta = os.path.join(OUT_DIR, "cold-trace.json")
        probe_every = max(1, len(self.jobs) // PROBES_PER_ROUND)
        try:
            for i, job in enumerate(self.jobs):
                if probes and i % probe_every == 0:
                    self.setup.append(runner.probe(ROOT, MEM_LIMIT_MB, JOB_TIMEOUT_S))
                left = self.deadline - time.monotonic()
                if left <= 0:
                    break
                timeout = min(JOB_TIMEOUT_S, left)
                start = time.perf_counter()
                if self.cold:
                    res = runner.run_cold(ROOT, job, traced, meta, MEM_LIMIT_MB, timeout)
                else:
                    if child is None or not child.alive:
                        child = runner.WarmChild(ROOT, traced, MEM_LIMIT_MB,
                                                 os.path.join(OUT_DIR, "child.log"))
                        start = time.perf_counter()
                    res = child.run(job, timeout)
                out["wall"] += time.perf_counter() - start
                if self._check(job, res):
                    out["ms"].append(res["ms"])
                out["stdout_bytes"] += len(res["out"])
                if traced and self.cold and os.path.exists(meta):
                    with open(meta, encoding="utf-8") as fh:
                        out["reports"].append(json.load(fh))
                    os.remove(meta)
        finally:
            if child is not None:
                report = child.finish()
                if traced and report:
                    out["reports"].append(report)
        return out


def end_to_end(session: Session) -> dict[str, float]:
    args = session.args
    rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    latencies: list[float] = []
    wall = 0.0
    for _ in range(rounds):
        res = session.run_round(traced=False, probes=True)
        latencies += res["ms"]
        wall += res["wall"]
    if not latencies:
        raise runner.StartupError("no job completed")
    tail, pct, beyond = stats.tail(latencies)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of "
          f"{len(session.jobs)} jobs, {wall:.3f} s busy")
    notes = {"job_tail_ms": f"(p{pct}, {beyond} of {len(latencies)} samples beyond)",
             "setup_s": f"(median of {len(session.setup)} spawns)"}
    metrics = {
        "jobs_per_s": len(latencies) / wall,
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": tail,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(session.setup),
    }
    for name, value in metrics.items():
        print(f"{name:<12} {value:12.6f} {END_TO_END[name]:<4} {notes.get(name, '')}".rstrip())
    failed = len(session.failures)
    print(f"{'fail_rate':<12} {failed / session.attempted:12.6f} -    "
          f"({failed} of {session.attempted} jobs)")
    return metrics


def per_layer(session: Session) -> dict[str, float]:
    base = session.run_round(traced=False)
    traced = session.run_round(traced=True)
    times: dict[str, float] = {}
    counters: dict[str, int] = {}
    caches = {name: 0 for name in CACHES}
    missing: set[str] = set()
    spans_path = os.path.join(OUT_DIR, f"spans-{session.args.workload}-{session.args.seed}.tsv")
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("process\tname\tstart\tend\tparent\tjob\n")
        for proc, report in enumerate(traced["reports"]):
            for span in report["spans"]:
                fh.write("\t".join(map(str, [proc, *span])) + "\n")
            for name, (_count, total) in self_times(report["spans"]).items():
                times[name] = times.get(name, 0.0) + total
            for name, value in report["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in report["caches"].items():
                caches[name] = max(caches[name], value)
            missing.update(report["missing"])
    if missing:
        print("hooks not installed (their metrics read 0): " + ", ".join(sorted(missing)),
              file=sys.stderr)
    metrics: dict[str, float] = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = times.get(name, 0.0)
    for name in COUNTS:
        metrics[name] = counters.get(name, 0)
    metrics.update(caches)
    metrics["partition.sweeps_per_job"] = counters.get("partition.sweeps", 0) / len(session.jobs)
    metrics["cli.stdout_bytes"] = traced["stdout_bytes"]
    metrics["trace.overhead_ratio"] = sum(traced["ms"]) / sum(base["ms"])
    units = per_layer_units()
    print(f"workload {session.args.workload}, seed {session.args.seed}: one round of "
          f"{len(session.jobs)} jobs untraced and one traced; spans in {spans_path}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>18.6f} {units[name]}")
    return metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=payloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=payloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="run one round at the default seed and store its stdout digests")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dualpart", "cli.py")):
        print(f"error: no dualpart sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        session = Session(args)
        if args.write_golden:
            if args.seed != payloads.DEFAULT_SEED:
                print("error: golden digests are kept for the default seed only", file=sys.stderr)
                return 2
            session.run_round(traced=False)
            if session.failures:
                print("\n".join(session.failures), file=sys.stderr)
                return 1
            verify.write_golden(args.workload, payloads.dumps(session.jobs), session.digests)
            print(f"wrote {verify.golden_path(args.workload)}")
            return 0
        metrics = per_layer(session) if args.trace else end_to_end(session)
    except (runner.StartupError, verify.CheckFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in session.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    units = per_layer_units() if args.trace else END_TO_END
    failed = len(session.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
