"""Child processes: set-up probes, a warm job server, and one-shot cold jobs.

Every child gets an address-space limit (``RLIMIT_AS``, set between fork
and exec, so it binds only that child) and every wait a timeout. A child
that runs out of memory, hangs or dies becomes one failed job with status
``oom``, ``timeout`` or ``killed``; the caller goes on with a fresh child.
"""

from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OOM_EXIT, ERROR_EXIT = 99, 98  # as in child.py


class StartupError(RuntimeError):
    """The program could not be started at all."""


def _limits(mem_mb: int):
    def apply() -> None:
        limit = mem_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], mem_mb: int, **kw) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, CHILD, *args], preexec_fn=_limits(mem_mb),
                            env=_env(), **kw)


def probe(root: str, mem_mb: int, timeout: float) -> float:
    """Seconds from spawning a child until its ``import dualpart.cli`` returned."""
    start = time.monotonic()
    proc = _spawn(["probe", root], mem_mb, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise StartupError("set-up probe timed out")
    if proc.returncode != 0:
        raise StartupError(f"cannot import dualpart.cli: {err.decode(errors='replace')[-500:]}")
    return float(out) - start


def _status_of_exit(rc: int) -> str:
    if rc == 0:
        return "ok"
    if rc == OOM_EXIT:
        return "oom"
    if rc == ERROR_EXIT:
        return "error"
    return "killed" if rc < 0 else "exit"


def run_cold(root: str, job: dict, traced: bool, meta: str, mem_mb: int,
             timeout: float) -> dict:
    """One job in a fresh process, timed from spawn to exit."""
    args = ["cold", root, "1" if traced else "0", meta, "--", *job["argv"]]
    start = time.perf_counter()
    proc = _spawn(args, mem_mb, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
        status = _status_of_exit(proc.returncode)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        status = "timeout"
    ms = (time.perf_counter() - start) * 1000
    return {"id": job["id"], "status": status, "rc": proc.returncode, "ms": ms,
            "out": out, "err": err.decode(errors="replace")[-2000:]}


class _Pipe:
    """Buffered reads from a child's stdout with a deadline."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.buf = bytearray()

    def _fill(self, deadline: float) -> bool:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([self.fd], [], [], left)[0]:
            raise TimeoutError
        chunk = os.read(self.fd, 1 << 20)
        self.buf += chunk
        return bool(chunk)

    def readline(self, deadline: float) -> bytes | None:
        while b"\n" not in self.buf:
            if not self._fill(deadline):
                return None
        line, _, rest = bytes(self.buf).partition(b"\n")
        self.buf = bytearray(rest)
        return line

    def read(self, n: int, deadline: float) -> bytes | None:
        while len(self.buf) < n:
            if not self._fill(deadline):
                return None
        out = bytes(self.buf[:n])
        del self.buf[:n]
        return out


class WarmChild:
    """One long-lived child serving jobs in a closed loop, one in flight."""

    def __init__(self, root: str, traced: bool, mem_mb: int, log_path: str) -> None:
        self.log = open(log_path, "ab")
        self.proc = _spawn(["warm", root, "1" if traced else "0"], mem_mb,
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log)
        self.pipe = _Pipe(self.proc.stdout.fileno())
        try:
            ready = self.pipe.readline(time.monotonic() + 60)
        except TimeoutError:
            ready = None
        if ready is None:
            self.close()
            raise StartupError("the job server did not start; see its log")

    def run(self, job: dict, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        start = time.perf_counter()
        result = {"id": job["id"], "rc": None, "out": b"", "err": ""}
        try:
            self.proc.stdin.write(json.dumps({"id": job["id"], "argv": job["argv"]}).encode() + b"\n")
            self.proc.stdin.flush()
            line = self.pipe.readline(deadline)
            head = json.loads(line) if line is not None else None
            body = self.pipe.read(head["out_len"], deadline) if head else None
        except TimeoutError:
            self.close(kill=True)
            return {**result, "status": "timeout", "ms": (time.perf_counter() - start) * 1000}
        except BrokenPipeError:
            head = body = None
        if head is None or body is None:
            self.close()
            rc = self.proc.returncode
            status = "killed" if rc is not None and rc < 0 else "crashed"
            return {**result, "status": status, "rc": rc,
                    "ms": (time.perf_counter() - start) * 1000}
        if head["status"] == "oom":
            self.close()
        return {**result, "status": head["status"], "rc": head["rc"], "ms": head["ms"],
                "out": body, "err": head["err"]}

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def finish(self, timeout: float = 60.0) -> dict:
        """End the child and return its trace report (empty when untraced)."""
        report: dict = {}
        if self.proc.stdin.closed:
            return report
        try:
            self.proc.stdin.write(b'{"op": "finish"}\n')
            self.proc.stdin.flush()
            line = self.pipe.readline(time.monotonic() + timeout)
            if line is not None:
                report = json.loads(line)["trace"]
        except (TimeoutError, BrokenPipeError):
            pass
        self.close()
        return report

    def close(self, kill: bool = False) -> None:
        """Stop the child (at once when ``kill``, else by closing its input) and reap it."""
        if not kill and self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        self.proc.wait()
        self.log.close()
