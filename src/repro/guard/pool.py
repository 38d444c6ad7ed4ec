"""One supervised process pool for every real-process fan-out.

The portfolio's ``--jobs`` race, ``staub serve --workers`` and
``run_all --jobs`` all run their tasks through :class:`Pool`:

- each worker owns a private duplex pipe: it reads one task, runs the
  pool's function on it, and sends the result back before it reads the
  next. A worker that dies can break only its own channel. (A queue
  shared by all workers is left unusable when one of its writers is
  killed while holding the queue's cross-process lock.)
- the parent waits on the busy workers' pipes and every worker's
  process sentinel, so it sees a result or a death as soon as either
  happens;
- a dead worker is reaped only after any result already on its pipe has
  been read, then replaced. The task it held is retried once after
  :data:`CRASH_RETRY_BACKOFF`, then written off;
- a task dispatched with a wall ``timeout`` is cancelled cooperatively
  by the task itself; a worker still holding it :data:`TIMEOUT_GRACE`
  seconds later is terminated and the task written off with reason
  ``deadline`` (a retry would only overstay again);
- :meth:`Pool.close` terminates busy workers at once, sends idle ones a
  pill, and joins them all, killing any that ignore the terminate: the
  pool never leaks a process.

An injected :class:`~repro.guard.chaos.ChaosCrash` escaping the task
function exits the worker hard, like a real segfault, so chaos runs take
the same reap path as real deaths. Any other exception escaping the task
function also kills the worker and takes that path.
"""

import os
import time

from repro import telemetry
from repro.guard import chaos

__all__ = [
    "CRASH_RETRIES",
    "CRASH_RETRY_BACKOFF",
    "Pool",
    "TIMEOUT_GRACE",
    "terminate_processes",
]

#: How many times a task whose worker died is retried before it is
#: written off.
CRASH_RETRIES = 1

#: Wall seconds a task whose worker died waits before it is retried.
CRASH_RETRY_BACKOFF = 0.05

#: Extra wall seconds past a task's ``timeout`` before the parent
#: terminates the worker holding it.
TIMEOUT_GRACE = 5.0


def terminate_processes(processes, join_timeout=5.0):
    """Terminate, join, and as a last resort kill every process given.

    After this returns, none of the given processes is running (``kill``
    is the escalation when ``terminate`` is ignored).
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
        process.join(timeout=join_timeout)
        if process.is_alive():  # terminate was ignored: last resort
            process.kill()
            process.join(timeout=join_timeout)


def _work(function, connection):
    """A worker's loop: one task in, its result out, until the pill.

    Each task arrives with its attempt number, which the active chaos
    plan folds into its draws: a retried task draws fresh faults.
    """
    while True:
        try:
            message = connection.recv()
        except EOFError:
            return  # the parent is gone
        if message is None:
            return
        attempt, task = message
        plan = chaos.active()
        if plan is not None:
            plan.attempt = attempt
        try:
            result = function(task)
        except chaos.ChaosCrash:
            os._exit(70)  # an injected crash dies like a real one: no result
        connection.send(result)


class _Job:
    """A dispatched task with its overstay limit and crash history."""

    __slots__ = ("task", "timeout", "crashes", "ready_at")

    def __init__(self, task, timeout):
        self.task = task
        self.timeout = timeout
        self.crashes = 0
        self.ready_at = 0.0  # monotonic time before which it may not start


class _Worker:
    __slots__ = ("process", "connection", "job", "started")

    def __init__(self, process, connection):
        self.process = process
        self.connection = connection
        self.job = None  # the _Job it is running, None when idle
        self.started = 0.0

    def kill_at(self):
        """When the parent terminates this worker for overstaying, or None."""
        if self.job is None or self.job.timeout is None:
            return None
        return self.started + self.job.timeout + TIMEOUT_GRACE


class Pool:
    """Persistent worker processes that run ``function`` on tasks.

    Args:
        function: called in a worker with one task; its return value is
            the task's result. Tasks and results cross a pipe, so both
            must be picklable (and so must ``function`` where processes
            are spawned rather than forked).
        workers: how many worker processes to run; all start here.

    :meth:`poll` returns events ``("done", task, result, None)`` and
    ``("crashed", task, None, reason)``, where ``reason`` is
    ``worker_crashed`` (its worker died on the first try and on the
    retry) or ``deadline`` (it overstayed its timeout). Every dispatched
    task yields exactly one event, unless the pool is closed first.
    """

    def __init__(self, function, workers):
        # Imported here: the portfolio scheduler imports this module for
        # CRASH_RETRIES, and most processes never start a worker.
        import multiprocessing

        if workers < 1:
            raise ValueError("a pool needs at least one worker")
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._function = function
        self._workers = []
        self._queue = []  # _Jobs awaiting a worker, retries first
        for _ in range(workers):
            self._spawn()

    def _spawn(self):
        ours, theirs = self._context.Pipe()
        process = self._context.Process(
            target=_work, args=(self._function, theirs), daemon=True
        )
        process.start()
        theirs.close()  # the worker holds the only copy: its death is EOF
        self._workers.append(_Worker(process, ours))

    @property
    def idle_count(self):
        """Workers free for a new task (queued tasks claim theirs first)."""
        idle = sum(1 for worker in self._workers if worker.job is None)
        return max(0, idle - len(self._queue))

    @property
    def in_flight_count(self):
        """Dispatched tasks that have not yet yielded their event."""
        busy = sum(1 for worker in self._workers if worker.job is not None)
        return busy + len(self._queue)

    def dispatch(self, task, timeout=None):
        """Queue a task; it starts at once if a worker is idle.

        ``timeout`` is the task's own wall deadline in seconds; the
        worker is terminated if it still holds the task
        :data:`TIMEOUT_GRACE` seconds after that.
        """
        self._queue.append(_Job(task, timeout))
        self._start_ready()

    def poll(self, timeout=0.0):
        """Wait up to ``timeout`` seconds for a busy worker to finish or
        die (None: until one does) and return this round's events."""
        from multiprocessing.connection import wait

        self._start_ready()
        wake = self._next_wake()
        if wake is not None:
            delay = max(0.0, wake - time.monotonic())
            timeout = delay if timeout is None else min(timeout, delay)
        elif timeout is None and not self.in_flight_count:
            timeout = 0.0  # nothing can happen
        handles = [worker.process.sentinel for worker in self._workers]
        handles += [w.connection for w in self._workers if w.job is not None]
        wait(handles, timeout)
        events = []
        now = time.monotonic()
        for worker in list(self._workers):
            # Liveness first: whatever a dead worker sent is on its pipe.
            alive = worker.process.is_alive()
            if worker.job is not None and worker.connection.poll():
                events.extend(self._receive(worker))
            kill_at = worker.kill_at()
            if not alive:
                events.extend(self._replace(worker, "worker_crashed"))
            elif kill_at is not None and now > kill_at:
                terminate_processes([worker.process])
                events.extend(self._replace(worker, "deadline"))
        self._start_ready()
        return events

    def close(self):
        """Stop every worker; returns how many dispatched tasks were
        abandoned (running or queued)."""
        abandoned = self.in_flight_count
        for worker in self._workers:
            if worker.job is not None:
                worker.process.terminate()
                continue
            try:
                worker.connection.send(None)
            except OSError:
                pass  # already dead: joined below
        for worker in self._workers:
            worker.process.join(timeout=2.0)
        terminate_processes(worker.process for worker in self._workers)
        for worker in self._workers:
            worker.connection.close()
        self._workers = []
        self._queue = []
        return abandoned

    # -- internals -----------------------------------------------------------

    def _start_ready(self):
        """Hand each queued task whose backoff is over to an idle worker."""
        now = time.monotonic()
        idle = [worker for worker in self._workers if worker.job is None]
        for job in [job for job in self._queue if job.ready_at <= now]:
            if not idle:
                return
            worker = idle.pop(0)
            self._queue.remove(job)
            worker.job, worker.started = job, now
            try:
                worker.connection.send((job.crashes, job.task))
            except OSError:
                pass  # died while idle: the next poll reaps it with the job

    def _next_wake(self):
        """When a queued retry may start or a busy worker overstays."""
        now = time.monotonic()
        times = [job.ready_at for job in self._queue if job.ready_at > now]
        times += [worker.kill_at() for worker in self._workers]
        return min((t for t in times if t is not None), default=None)

    @staticmethod
    def _receive(worker):
        try:
            result = worker.connection.recv()
        except (EOFError, OSError):
            return []  # died before or while sending: reaped as a crash
        job, worker.job = worker.job, None
        return [("done", job.task, result, None)]

    def _replace(self, worker, reason):
        """Reap a dead worker, start its replacement, settle its task."""
        worker.process.join()
        worker.connection.close()
        self._workers.remove(worker)
        self._spawn()
        telemetry.counter_add("pool.worker_lost", reason=reason)
        job = worker.job
        if job is None:
            return []
        if reason == "worker_crashed" and job.crashes < CRASH_RETRIES:
            job.crashes += 1
            job.ready_at = time.monotonic() + CRASH_RETRY_BACKOFF
            self._queue.insert(0, job)
            telemetry.counter_add("pool.task_retried")
            return []
        return [("crashed", job.task, None, reason)]
