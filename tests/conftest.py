"""A wall-clock bound on every test, and a memory bound on the test process.

A fault that sends a loop without end (a closure that never closes, keys that
never merge) would stall the suite instead of failing it. Each test arms a
``SIGALRM`` timer, and a test still running when it fires fails by name.
The signal is handled between bytecodes, so a single long C call (one huge int
product) runs to its end first.

A fault that makes keys or words without end exhausts memory instead, and the
timer does not stop it. So the test process runs under a soft ``RLIMIT_AS`` of
``MEMORY_BYTES``: an allocation past it raises ``MemoryError`` inside the test
that made it, which fails by name, and the run goes on to its summary. The
error's traceback holds the frames whose locals filled the memory, so their
locals are cleared before pytest reports it; otherwise the report itself runs
out of memory. The hard limit is left as it is, so a test may still run a
child under a limit of its own, as ``test_expansion_guard`` does; a child that
sets none inherits this one.
"""

import resource
import signal
import traceback

import pytest

TEST_SECONDS = 120
"""Wall-clock seconds a test may run: over 10 times the slowest test of the suite,
which took 7.4 s in a ``--durations`` run on a 2-vCPU VM."""

MEMORY_BYTES = 3 << 30
"""Address space the test process may map: about 3 times the largest ``VmPeak`` of
the process over a whole run, 1,068,924 kB on Python 3.11 on a 2-vCPU VM."""

_soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
if _soft == resource.RLIM_INFINITY or _soft > MEMORY_BYTES:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, _hard))


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    try:
        return (yield)
    except MemoryError as exc:
        traceback.clear_frames(exc.__traceback__)
        raise


@pytest.fixture(autouse=True)
def wall_clock_bound(request):
    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past the {TEST_SECONDS} s bound",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
