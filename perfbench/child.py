"""Child process of the benchmark: imports ``dualpart.cli`` and runs jobs.

Modes (the first argument), each given the checkout root second:

- ``probe ROOT``: import ``dualpart.cli``, print ``time.monotonic()`` and exit;
  the parent subtracts its spawn time to get the set-up time.
- ``warm ROOT TRACE``: serve jobs from stdin, one at a time. A request is
  one JSON line ``{"id": ..., "argv": [...]}``; the reply is one JSON header
  line ``{"id", "status", "rc", "ms", "out_len", "err"}`` followed by
  ``out_len`` bytes of the job's stdout. ``{"op": "finish"}`` ends the loop;
  a traced child then replies with its spans and counters on one line.
- ``cold ROOT TRACE META -- ARGV...``: run one job in a fresh process, as a
  shell user would, copy its output to the real stdout and exit with its
  code, or with 99 on ``MemoryError`` and 98 on any other exception. A
  traced child writes its spans and counters to the file META.

``ms`` runs from the call of ``main(argv)`` until its JSON is in the capture
buffer. Status is ``ok`` (exit code 0), ``exit`` (nonzero code), ``error``
(an exception escaped ``main``) or ``oom`` (``MemoryError``; the warm child
then exits and the parent starts a fresh one).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

OOM_EXIT = 99
ERROR_EXIT = 98


def import_cli(root: str):
    """Import ``dualpart.cli`` from the checkout's ``src`` and nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import dualpart.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"dualpart.cli was imported from {cli.__file__}, not {src}")
    return cli


def tracing(enabled: bool):
    """(instrumentation, main) with spans installed when enabled."""
    import dualpart.cli as cli

    if not enabled:
        return None, cli.main
    from instrument import Instrumentation
    from spans import Tracer

    inst = Instrumentation(Tracer())
    inst.install()
    return inst, inst.tracer.wrap("cli.main", cli.main)


def run_job(main, argv: list[str]) -> tuple[str, int, float, str, str]:
    """(status, rc, ms, stdout, stderr tail) of one call of main."""
    out, err = io.StringIO(), io.StringIO()
    rc = -1
    status = "ok"
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except MemoryError:
        status = "oom"
    except Exception:  # a defect in the library: report it as a failed job
        status = "error"
        err.write(traceback.format_exc())
    ms = (time.perf_counter() - start) * 1000
    if status == "ok" and rc != 0:
        status = "exit"
    return status, rc, ms, out.getvalue(), err.getvalue()[-2000:]


def warm(root: str, traced: bool) -> int:
    import_cli(root)
    inst, main = tracing(traced)
    channel = sys.stdout.buffer
    channel.write(b'{"ready": true}\n')
    channel.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("op") == "finish":
            report = inst.report() if inst else {}
            channel.write(json.dumps({"op": "finish", "trace": report}).encode() + b"\n")
            channel.flush()
            return 0
        if inst:
            inst.begin_job(req["id"])
        status, rc, ms, out, err = run_job(main, req["argv"])
        body = out.encode()
        head = {"id": req["id"], "status": status, "rc": rc, "ms": ms,
                "out_len": len(body), "err": err}
        channel.write(json.dumps(head).encode() + b"\n" + body)
        channel.flush()
        if status == "oom":
            return 1
    return 0


def cold(root: str, traced: bool, meta: str, argv: list[str]) -> int:
    import_cli(root)
    inst, main = tracing(traced)
    if inst:
        inst.begin_job("cold")
    status, rc, _ms, out, err = run_job(main, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.stderr.write(err)
    if inst:
        with open(meta, "w", encoding="utf-8") as fh:
            json.dump(inst.report(), fh)
    return {"oom": OOM_EXIT, "error": ERROR_EXIT}.get(status, rc)


def main(args: list[str]) -> int:
    mode, root = args[0], args[1]
    if mode == "probe":
        import_cli(root)
        print(repr(time.monotonic()), flush=True)
        return 0
    traced = args[2] == "1"
    if mode == "warm":
        return warm(root, traced)
    if mode == "cold":
        return cold(root, traced, args[3], args[5:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
