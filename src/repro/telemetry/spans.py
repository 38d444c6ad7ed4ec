"""Span tracing on the deterministic virtual clock.

A span covers one pipeline stage (``infer``, ``transform``,
``bounded-solve``, ``verify``, ...). Spans nest: the tracer keeps a
stack, and a span's virtual duration is everything charged to the clock
while it was open -- its own :meth:`Span.add_work` charges plus those of
any children. Because the clock only advances through explicit work
charges (unified work units, see :mod:`repro.solver.costs`), traces are
byte-identical across machines and runs. No span reads a wall clock;
wall time is measured by ``perfbench/``.

Export is JSON Lines: one object per *closed* span, written in close
order (children before parents, like any post-order trace format).
"""

import json


class Span:
    """One open (then closed) region of the trace.

    Attributes:
        name: stage name; the profile report aggregates by it.
        attrs: free-form labels (engine, case, width, ...).
        depth: nesting depth at open time (0 = root).
        t_start / t_end: virtual-clock timestamps.
        work: virtual duration (``t_end - t_start`` once closed).
    """

    __slots__ = (
        "name",
        "attrs",
        "depth",
        "t_start",
        "t_end",
        "_tracer",
    )

    def __init__(self, tracer, name, attrs, depth, t_start):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = depth
        self.t_start = t_start
        self.t_end = None

    @property
    def work(self):
        end = self.t_end if self.t_end is not None else self._tracer.vclock
        return end - self.t_start

    def add_work(self, units):
        """Charge ``units`` of virtual work to this span (and ancestors)."""
        self._tracer.advance(units)

    def settle(self, total):
        """Top the span up so its duration equals ``total``.

        Children may already have charged part of the total to the clock;
        this charges only the remainder, so a stage whose cost is known
        in aggregate (``t_post``) never double-counts its sub-spans.
        """
        remainder = total - self.work
        if remainder > 0:
            self._tracer.advance(remainder)

    def set_attr(self, key, value):
        self.attrs[key] = value

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer.close(self, error=exc_type is not None)
        return False

    def to_dict(self):
        record = {
            "name": self.name,
            "depth": self.depth,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "work": self.work,
        }
        if self.attrs:
            record["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return record

    def __repr__(self):
        state = "open" if self.t_end is None else "closed"
        return f"Span({self.name!r}, {state}, work={self.work})"


class _NullSpan:
    """The do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()
    name = None
    attrs = {}
    work = 0

    def add_work(self, units):
        pass

    def settle(self, total):
        pass

    def set_attr(self, key, value):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """A stack of spans over one shared virtual clock.

    Args:
        sink: optional callable receiving each closed span's dict (e.g.
            a :class:`JsonlWriter`).
    """

    def __init__(self, sink=None):
        self.sink = sink
        self.vclock = 0
        self._stack = []

    @property
    def depth(self):
        return len(self._stack)

    @property
    def current(self):
        return self._stack[-1] if self._stack else None

    def advance(self, units):
        """Advance the virtual clock (charges every open span)."""
        self.vclock += units

    def span(self, name, **attrs):
        """Open a nested span; use as a context manager."""
        opened = Span(self, name, dict(attrs), len(self._stack), self.vclock)
        self._stack.append(opened)
        return opened

    def close(self, span, error=False):
        """Close ``span`` (and any forgotten children above it)."""
        while self._stack:
            top = self._stack.pop()
            self._finish(top, error=error and top is span)
            if top is span:
                return
        raise RuntimeError(f"closing span {span.name!r} that is not open")

    def _finish(self, span, error):
        span.t_end = self.vclock
        if error:
            span.attrs["error"] = True
        if self.sink is not None:
            self.sink(span.to_dict())


class JsonlWriter:
    """Append closed spans to a JSON Lines file.

    Write failures (disk errors, injected ``telemetry.flush`` faults)
    drop the record and bump :attr:`dropped`; observability loss must
    never fail a solve.
    """

    def __init__(self, path):
        self.path = path
        self.dropped = 0
        self._handle = open(path, "w", encoding="utf-8")

    def __call__(self, record):
        # Imported lazily: chaos imports repro.telemetry at module load.
        from repro.guard import chaos

        try:
            if chaos.inject("telemetry.flush") is not None:
                self.dropped += 1
                return
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            self.dropped += 1

    def flush(self):
        self._handle.flush()

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
