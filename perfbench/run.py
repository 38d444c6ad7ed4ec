"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nia-portfolio --seed 2024 --seconds 20 --trace 0

A run measures exactly one *pass*: the seed's whole input list, sent
once from fresh state. Each workload is sized so that a pass takes about
``--seconds`` on the development host; the pass is never cut short or
repeated to fit, because a second pass in one process runs warm and
faster than the first, and a pass cut short would change the inputs.

Every time is in reference seconds (see ``hostspeed.py``): wall seconds
with the shared host's speed drift divided out by a probe loop timed
between requests. The summary on standard error gives the wall seconds
too, and the latency percentiles, which are not metrics: on the
single-client workloads they rest on a few dozen requests and move more
between seeds than any bound allows.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a short warm-up pass it discards, an untraced pass, then
wraps each layer's public functions from outside (see ``tracing.py``)
and runs a traced pass; it reports the per-layer metrics, checks that
both passes gave the same verdicts and that every call the layer table
predicts (or rules out) happened, and writes the spans to
``perfbench/out/``.

The last line of standard output is the result object; a human summary
goes to standard error. The exit code is 0 whenever a result was printed,
including ``"correct": false``.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 9

#: Requests of the discarded warm-up pass of a traced run.
WARM_UP_REQUESTS = 10


def _log(message):
    print(message, file=sys.stderr, flush=True)


def _percentile(values, fraction, steps=4000):
    """Harrell-Davis estimate of the ``fraction`` quantile.

    A Beta-weighted mean of all order statistics: with a few dozen
    requests per run it moves far less from run to run than the single
    order statistic a nearest-rank percentile picks.
    """
    ordered = sorted(values)
    count = len(ordered)
    a, b = fraction * (count + 1), (1 - fraction) * (count + 1)
    # The Beta(a, b) density at the midpoints of `steps` equal cells of
    # [0, 1]; order statistic i weighs the cells in [i/count, (i+1)/count).
    density = [
        ((step + 0.5) / steps) ** (a - 1) * (1 - (step + 0.5) / steps) ** (b - 1)
        for step in range(steps)
    ]
    weighted = sum(
        value * sum(density[index * steps // count:(index + 1) * steps // count])
        for index, value in enumerate(ordered)
    )
    return weighted / sum(density)


def _source_digest():
    """Fingerprint of the program and benchmark sources in this checkout."""
    sha = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in sorted(os.walk(top)):
            subdirs[:] = sorted(d for d in subdirs if d not in ("__pycache__", "out"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    sha.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as handle:
                        sha.update(handle.read())
    return sha.hexdigest()[:16]


def _check_fingerprint(workload, seed, fingerprint):
    """Compare with an earlier run of the same code and seed, if any.

    Returns a failure message, or None. The first run of a seed records
    the fingerprint; later runs in the same checkout must match it.
    """
    directory = os.path.join(OUT, "fingerprints")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{_source_digest()}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            earlier = json.load(handle)
        if earlier != fingerprint:
            return f"run differs from an earlier run of this seed: {earlier} vs {fingerprint}"
        return None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fingerprint, handle, sort_keys=True)
    return None


def _peak_rss_mb(workload):
    """Peak RSS of this process plus what each pool worker grew beyond
    its size at the fork (MB)."""
    import workloads

    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid, peak in workloads.children_kb("VmHWM").items():
        kilobytes += peak - workload.forked_rss_kb.get(pid, 0)
    return kilobytes / 1024


def _time_setups(workload, seed):
    """Median reference seconds from interpreter start to first request
    ready, and the samples in wall seconds. The speed of every vCPU is
    probed before the first set-up and after each: a set-up process
    and the pool it forks may run on any of them."""
    import hostspeed

    clock = hostspeed.HostClock(os.sched_getaffinity(0))
    intervals = []
    command = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    clock.probe()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as child:
            ready = child.stdout.readline()
            intervals.append((start, time.perf_counter()))
            child.stdout.read()
            code = child.wait(timeout=60)
        if ready.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        clock.probe()
    setup_s = statistics.median(clock.reference(*interval) for interval in intervals)
    return setup_s, [end - start for start, end in intervals]


def _probe_setup(args):
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT)
    print("ready", flush=True)
    workload.close()


def _score(workload, record):
    """(attempted, failed, decided share, failure list) of one pass."""
    decided, failures = workload.check(record)
    return len(decided), len(failures), sum(decided) / len(decided), failures


def _fingerprint(workload, record, decided_share):
    import workloads

    return {
        "inputs": workloads.digest(workload.texts),
        "verdicts": workloads.digest(repr(v) for v in workload.verdicts(record)),
        "decided_share": decided_share,
        "hits": record.hits,
        "sent": workloads.digest(record.sent) if record.sent is not None else None,
    }


def _end_to_end(args, workload):
    setup_s, samples = _time_setups(args.workload, args.seed)
    _log(f"setup samples (wall s): {', '.join(f'{s:.3f}' for s in samples)}; "
         f"median {setup_s:.3f} reference s")
    record = workload.run_pass()
    peak = _peak_rss_mb(workload)
    attempted, failed, decided_share, failures = _score(workload, record)
    problem = _check_fingerprint(args.workload, args.seed,
                                 _fingerprint(workload, record, decided_share))
    if problem:
        failures.append(problem)
    requests = len(record.outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (requests / record.elapsed, "1/s"),
        "decided_share": (decided_share, "share"),
        "peak_rss_mb": (peak, "MB"),
    }
    _log(f"{args.workload} seed {args.seed}: {requests} requests in "
         f"{record.wall:.2f} wall s = {record.elapsed:.2f} reference s "
         f"(sized for about {args.seconds:g} s), {record.hits} cache hits; "
         f"latency p50 {_percentile(record.latencies, 0.5):.3f} s, "
         f"p90 {_percentile(record.latencies, 0.9):.3f} s (reference)")
    return metrics, attempted, failed, failures


def _traced(args, workload):
    """Per-layer metrics from a traced pass, against an untraced one.

    A warm-up pass over the first ``WARM_UP_REQUESTS`` requests is
    discarded so that both compared passes run warm: a later pass in the
    same process is faster than the first, and the lazy set-up that makes
    it so happens on the first requests. Times are reference seconds, so
    the overhead is not the host's drift between the two passes.
    """
    import tracing

    workload.run_pass(limit=WARM_UP_REQUESTS)
    untraced = workload.run_pass()
    recorder = tracing.Recorder()
    problems = tracing.install(recorder)
    traced = workload.run_pass(recorder)
    attempted, failed, _, failures = _score(workload, untraced)
    more_attempted, more_failed, _, more_failures = _score(workload, traced)
    attempted += more_attempted
    failed += more_failed
    failures.extend(more_failures)
    failures.extend(problems)
    if workload.verdicts(traced) != workload.verdicts(untraced):
        failures.append("traced verdicts differ from untraced ones")

    requests = len(traced.outcomes)
    wall = traced.wall
    service_view = None
    if args.workload == "serve-mixed":
        payloads = [payload for _, payload in traced.outcomes if payload is not None]
        service_view = (
            sum(1 for p in payloads if not p.get("cached")),
            sum(p.get("work") or 0 for p in payloads if not p.get("cached")),
            sum(1 for p in payloads if "reason" in p),
        )
    values = tracing.layer_metrics(recorder, requests, wall, workload.workers,
                                   service_view)
    # Spans are timed in wall seconds; read them in reference seconds.
    factor = traced.elapsed / traced.wall
    for name, unit, _ in tracing.PER_LAYER:
        if unit in ("s", "s/req"):
            values[name] *= factor
    values["trace.overhead_share"] = 1.0 - untraced.elapsed / traced.elapsed
    solves = service_view[0] if service_view else recorder.counts["solver.solve"]
    failures.extend(tracing.check_predictions(recorder, args.workload, solves))
    shares = tracing.layer_shares(recorder, wall)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    recorder.dump(path, {"workload": args.workload, "seed": args.seed,
                         "requests": requests, "wall_s": wall,
                         "reference_s": traced.elapsed,
                         "untraced_wall_s": untraced.wall,
                         "untraced_reference_s": untraced.elapsed,
                         "metrics": values, "self_time_shares": shares})
    _log(f"spans written to {os.path.relpath(path, ROOT)}")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        _log(f"  {layer:40s} {share:7.1%}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.PER_LAYER}
    return metrics, attempted, failed, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.probe_setup:
        return _probe_setup(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT)
    try:
        if args.trace:
            metrics, attempted, failed, failures = _traced(args, workload)
        else:
            metrics, attempted, failed, failures = _end_to_end(args, workload)
    finally:
        workload.close()
    for failure in failures[:20]:
        _log(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
