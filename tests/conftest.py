"""A wall-clock bound on every test.

A fault that sends a loop without end (a closure that never closes, keys that
never merge) would stall the suite instead of failing it. Each test arms a
``SIGALRM`` timer, and a test still running when it fires fails by name.
The signal is handled between bytecodes, so a single long C call (one huge int
product) runs to its end first. A test that may exhaust memory instead runs its
work in a child process under ``RLIMIT_AS``, as ``test_expansion_guard`` does.
"""

import signal

import pytest

TEST_SECONDS = 120
"""Wall-clock seconds a test may run: over 10 times the slowest test of the suite,
which took 7.4 s in a ``--durations`` run on a 2-vCPU VM."""


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
