"""Determinism tests for named RNG streams."""

from repro.core.rng import RngStreams


def test_same_seed_same_stream_sequence():
    a = RngStreams(42).stream("plan")
    b = RngStreams(42).stream("plan")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RngStreams(42)
    plan = [streams.stream("plan").random() for _ in range(5)]
    fresh = RngStreams(42)
    # Drawing from another stream first must not disturb "plan".
    fresh.stream("noise").random()
    plan_again = [fresh.stream("plan").random() for _ in range(5)]
    assert plan == plan_again


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random()
    b = RngStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RngStreams(7)
    assert streams.stream("s") is streams.stream("s")


def test_fork_is_deterministic():
    a = RngStreams(42).fork("rep:1").stream("noise").random()
    b = RngStreams(42).fork("rep:1").stream("noise").random()
    assert a == b


def test_fork_differs_from_parent():
    parent = RngStreams(42)
    child = parent.fork("rep:1")
    assert parent.stream("noise").random() != child.stream("noise").random()


def test_fork_names_differ():
    base = RngStreams(42)
    assert (
        base.fork("rep:1").stream("x").random()
        != base.fork("rep:2").stream("x").random()
    )
