"""The slow-tick watchdog: EWMA gating, flag contents, logging."""

import logging

import pytest

from repro.obs import SlowTickWatchdog


def feed_steady(dog, n, total=0.010, start=1):
    for i in range(start, start + n):
        assert dog.observe(i, total, {"decision": total}) is False


def test_factor_must_exceed_one():
    with pytest.raises(ValueError):
        SlowTickWatchdog(1.0)
    with pytest.raises(ValueError):
        SlowTickWatchdog(0.5)


def test_quiet_on_steady_ticks():
    dog = SlowTickWatchdog(3.0)
    feed_steady(dog, 20)
    assert dog.flagged == []
    assert dog.ewma == pytest.approx(0.010)


def test_fires_on_stall_with_breakdown(caplog):
    dog = SlowTickWatchdog(3.0)
    feed_steady(dog, 5)
    breakdown = {"decision": 0.002, "mechanics": 0.095, "aoe": 0.003}
    with caplog.at_level(logging.WARNING, logger="repro.obs.watchdog"):
        assert dog.observe(6, 0.100, breakdown) is True
    (flag,) = dog.flagged
    assert flag["tick"] == 6
    assert flag["total"] == pytest.approx(0.100)
    assert flag["breakdown"] == breakdown
    # the WARNING names the worst stage first
    (record,) = caplog.records
    assert "slow tick 6" in record.getMessage()
    assert record.getMessage().index("mechanics") < record.getMessage().index(
        "decision"
    )


def test_stall_does_not_teach_the_ewma():
    dog = SlowTickWatchdog(3.0)
    feed_steady(dog, 5)
    before = dog.ewma
    dog.observe(6, 1.0, {"mechanics": 1.0})  # a one-second stall
    assert dog.ewma == before  # not fed the flagged total
    # the very next equally-slow tick still flags
    assert dog.observe(7, 1.0, {"mechanics": 1.0}) is True


def test_warmup_ticks_never_flag():
    dog = SlowTickWatchdog(2.0, warmup=3)
    assert dog.observe(1, 0.001, {}) is False  # seeds the EWMA
    # 100x slower than the EWMA but still inside warmup
    assert dog.observe(2, 0.100, {}) is False
    assert dog.observe(3, 0.100, {}) is False
    # past warmup the same ratio flags
    assert dog.observe(4, 10 * dog.ewma, {}) is True


def test_warning_carries_gc_seconds_when_measured(caplog):
    dog = SlowTickWatchdog(3.0)
    feed_steady(dog, 5)
    with caplog.at_level(logging.WARNING, logger="repro.obs.watchdog"):
        dog.observe(6, 0.100, {"decision": 0.1}, gc_seconds=0.0425)
        dog.observe(7, 0.100, {"decision": 0.1})
    measured, unmeasured = (r.getMessage() for r in caplog.records)
    assert "decision=100.00ms; gc=42.50ms" in measured
    assert "gc=" not in unmeasured
    assert [f["gc_seconds"] for f in dog.flagged] == [0.0425, None]
