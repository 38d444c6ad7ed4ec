"""Named counters, gauges, and histograms with label support.

The registry is the numeric half of the observability layer: engines
record what they did (``solver.propagations{engine=sat}``), the
evaluation harness records what it ran, and exporters snapshot the whole
registry into a deterministic, sorted mapping.

Everything here runs on deterministic inputs (the virtual clock, work
counters), so two runs of the same seeded workload produce byte-identical
snapshots -- the property the determinism tests pin down.
"""


def format_metric(name, labels):
    """Canonical ``name{k=v,...}`` rendering with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A value that can go up or down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def snapshot(self):
        return self.value


class Histogram:
    """Summary statistics over observed values.

    Stores count/sum/min/max rather than buckets: enough for the
    per-stage breakdowns the experiments need, with no binning choices
    that could differ between runs.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """A namespace of metrics keyed by (name, labels).

    Asking for a metric creates it on first use; asking again with the
    same name and labels returns the same object, so hot paths can hold a
    reference instead of re-resolving.
    """

    def __init__(self):
        self._metrics = {}

    def _get(self, factory, name, labels):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {format_metric(name, labels)} already registered "
                f"as {type(metric).__name__}, not {factory.__name__}"
            )
        return metric

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, **labels):
        return self._get(Histogram, name, labels)

    def __len__(self):
        return len(self._metrics)

    def reset(self):
        """Drop every metric (test isolation)."""
        self._metrics.clear()

    def snapshot(self):
        """Deterministic ``{rendered-name: value}`` mapping, sorted."""
        out = {}
        for (name, labels) in sorted(self._metrics):
            metric = self._metrics[(name, labels)]
            out[format_metric(name, dict(labels))] = metric.snapshot()
        return out


#: The process-global default registry every hook records into.
_default_registry = MetricsRegistry()


def get_registry():
    """The process-global default registry."""
    return _default_registry


def set_registry(registry):
    """Swap the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
