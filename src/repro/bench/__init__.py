"""Deterministic benchmark harness (``staub bench``).

The bench layer is the measurement discipline every perf PR is gated
on. It runs named suites through the real solver stack and writes a
versioned ``BENCH_<suite>.json`` artifact whose one measured section,
**deterministic**, holds verdicts, unified work units, per-stage span
aggregates, and solver counters. It is byte-identical across machines
and runs; CI diffs it exactly against a checked-in baseline. Wall time
is not recorded here: ``perfbench/`` measures it, and
``scripts/ab.py`` compares it against a git revision.

See :mod:`repro.bench.suites` for the suite catalogue,
:mod:`repro.bench.harness` for the runner, and
:mod:`repro.bench.compare` for baseline comparison / regression gating.
"""

from repro.bench.compare import compare_payloads, render_comparison
from repro.bench.harness import BENCH_FORMAT, default_artifact_name, run_suite, write_artifact
from repro.bench.suites import available_suites, get_suite

__all__ = [
    "BENCH_FORMAT",
    "available_suites",
    "compare_payloads",
    "default_artifact_name",
    "get_suite",
    "render_comparison",
    "run_suite",
    "write_artifact",
]
