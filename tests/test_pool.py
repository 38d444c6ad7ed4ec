"""The supervised worker pool: results outlive their worker, a dead
worker's task is retried once then written off, overstayers are
terminated, and closing leaves no process behind."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import telemetry
from repro.guard import pool as pool_module
from repro.guard.pool import Pool


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.disable()
    telemetry.get_registry().reset()
    telemetry.enable()
    yield
    telemetry.disable()
    telemetry.get_registry().reset()


def _send_then_die(n):
    # Returning hands the result to the worker loop, which sends it at
    # once; the SIGKILL lands right after.
    threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return 2 * n


def _die(_):
    os._exit(3)


def _die_first(marker):
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(3)
    return "survived"


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _events(pool, count, max_wait=30.0):
    events = []
    deadline = time.monotonic() + max_wait
    while len(events) < count and time.monotonic() < deadline:
        events.extend(pool.poll(timeout=0.1))
    return events


def test_result_sent_just_before_sigkill_is_delivered():
    pool = Pool(_send_then_die, 1)
    try:
        pool.dispatch(21)
        time.sleep(1.0)  # by now the result is on the pipe and the worker dead
        assert _events(pool, 1) == [("done", 21, 42, None)]
        # The replacement worker serves the next task.
        pool.dispatch(5)
        assert _events(pool, 1) == [("done", 5, 10, None)]
    finally:
        assert pool.close() == 0
    assert multiprocessing.active_children() == []
    assert "pool.task_retried" not in telemetry.snapshot()


def test_dead_worker_task_is_retried_once_then_written_off():
    pool = Pool(_die, 2)
    try:
        pool.dispatch("doomed")
        assert _events(pool, 1) == [("crashed", "doomed", None, "worker_crashed")]
        assert pool.in_flight_count == 0
        assert pool.idle_count == 2  # both deaths were replaced
    finally:
        assert pool.close() == 0
    assert multiprocessing.active_children() == []
    snap = telemetry.snapshot()
    assert snap["pool.worker_lost{reason=worker_crashed}"] == 2
    assert snap["pool.task_retried"] == 1


def test_task_whose_worker_died_once_succeeds_on_retry(tmp_path):
    marker = str(tmp_path / "died-once")
    pool = Pool(_die_first, 1)
    try:
        pool.dispatch(marker)
        assert _events(pool, 1) == [("done", marker, "survived", None)]
    finally:
        assert pool.close() == 0
    assert multiprocessing.active_children() == []


def test_overstaying_worker_is_terminated(monkeypatch):
    monkeypatch.setattr(pool_module, "TIMEOUT_GRACE", 0.2)
    pool = Pool(_sleep, 1)
    try:
        pool.dispatch(60, timeout=0.1)
        started = time.monotonic()
        assert _events(pool, 1) == [("crashed", 60, None, "deadline")]
        assert time.monotonic() - started < 10
        pool.dispatch(0)
        assert _events(pool, 1) == [("done", 0, 0, None)]
    finally:
        assert pool.close() == 0
    assert multiprocessing.active_children() == []
    assert telemetry.snapshot()["pool.worker_lost{reason=deadline}"] == 1


def test_close_terminates_busy_workers_at_once():
    pool = Pool(_sleep, 2)
    pool.dispatch(60)
    pool.dispatch(60)
    pool.dispatch(60)  # queued: no idle worker
    started = time.monotonic()
    assert pool.close() == 3
    assert time.monotonic() - started < 10
    assert multiprocessing.active_children() == []
