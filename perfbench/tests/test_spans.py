from spans import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, "j"],
        ["b", 1.0, 4.0, 0, "j"],
        ["c", 2.0, 3.0, 1, "j"],
        ["d", 5.0, 9.0, 0, "j"],
        ["c", 6.0, 8.5, 3, "j"],
        ["a", 20.0, 21.0, -1, "k"],
    ]
    got = self_times(spans)
    assert got == {"a": (2, 3.0 + 1.0), "b": (1, 2.0), "c": (2, 1.0 + 2.5), "d": (1, 1.5)}
    total = sum(t for _n, t in got.values())
    assert total == (10.0 - 0.0) + (21.0 - 20.0)  # self times add up to the root spans


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_builds_the_tree_and_merges_same_name_nesting():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda x: x, calls=True)

    def inner_fn(n):
        return leaf(n) if n == 0 else inner(n - 1)

    inner = tracer.wrap("inner", inner_fn)
    outer = tracer.wrap("outer", lambda: inner(2))
    tracer.job = "j1"
    assert outer() == 0
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "leaf"]  # recursive inner calls share one span
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[4] == "j1" for s in tracer.spans)
    assert tracer.counters["leaf.calls"] == 1
    times = self_times(tracer.spans)
    assert times["leaf"] == (1, 1.0)
    assert times["inner"] == (1, 3.0 - 1.0)
    assert times["outer"] == (1, 5.0 - 3.0)
    assert tracer.stack == []
