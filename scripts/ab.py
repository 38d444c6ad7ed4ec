#!/usr/bin/env python
"""Interleaved A/B runs of the repo benchmark: this checkout against REV.

Usage, from the root of a checkout::

    python3 scripts/ab.py REV --workload nia-portfolio --pairs 10 [--seed 2024]

Extracts ``REV`` with ``git archive`` into a scratch tree (no network
needed), then runs ``python3 perfbench/run.py --workload W --seed S
--trace 0`` alternately in that tree ("base") and in this checkout
("change"), working-tree edits included. Pair ``k`` runs the base first
when ``k`` is even and the change first when it is odd, so a slow drift
of the host's speed lands on both sides alike.

For every end-to-end metric of ``BENCHMARK.json``, and for the wall
seconds of the measured pass, it prints each side's median and
quartiles, the ratio of the medians (change / base), how many pairs the
change won, whether the ratio stays within the metric's bound, and
whether the change's median beats the base's by more than the base's
interquartile range. The exit code is 1 when a run failed or a ratio
breaks its bound, else 0.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Not a BENCHMARK.json metric: wall seconds of the measured pass, read
#: from run.py's summary line.
PASS_WALL = {"name": "pass_wall_s", "unit": "s", "better": "lower", "bound": None}

_WALL_LINE = re.compile(r"requests in ([0-9.]+) wall s")


def quartiles(values):
    """``(q1, median, q3)`` by linear interpolation between order
    statistics (``statistics.quantiles(..., method="inclusive")``)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(spec, change, base):
    """True when ``change`` is strictly better than ``base`` for ``spec``."""
    return change > base if spec["better"] == "higher" else change < base


def summarize(spec, pairs):
    """One metric's summary over ``(base, change)`` value pairs."""
    base = quartiles([b for b, _ in pairs])
    change = quartiles([c for _, c in pairs])
    ratio = change[1] / base[1] if base[1] else float("inf")
    bound = spec["bound"]
    if bound is None:
        within = None
    elif spec["better"] == "higher":
        within = ratio >= 1 - bound
    else:
        within = ratio <= 1 + bound
    return {
        "name": spec["name"],
        "better": spec["better"],
        "base": base,
        "change": change,
        "ratio": ratio,
        "won": sum(better(spec, c, b) for b, c in pairs),
        "pairs": len(pairs),
        "bound": bound,
        "within_bound": within,
        "beats_spread": better(spec, change[1], base[1])
        and abs(change[1] - base[1]) > base[2] - base[0],
    }


def render(rows):
    """The summary table, one line per metric."""
    lines = [
        f"{'metric':16s} {'better':6s} {'base median [q1, q3]':28s} "
        f"{'change median [q1, q3]':28s} {'ratio':>7s} {'won':>6s} "
        f"{'bound':>5s} {'within':>6s} {'beats IQR':>9s}"
    ]

    def cell(triple):
        q1, median, q3 = triple
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    def flag(value):
        return "-" if value is None else ("yes" if value else "no")

    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:g}"
        lines.append(
            f"{row['name']:16s} {row['better']:6s} {cell(row['base']):28s} "
            f"{cell(row['change']):28s} {row['ratio']:7.3f} "
            f"{row['won']:>3d}/{row['pairs']:<2d} {bound:>5s} "
            f"{flag(row['within_bound']):>6s} {flag(row['beats_spread']):>9s}"
        )
    return "\n".join(lines)


def _extract(rev, tree):
    """Unpack ``git archive REV`` into ``tree``; returns REV's short hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")
    return sha


def _run(tree, workload, seed):
    """One untraced perfbench pass in ``tree``: ``(result, pass wall s)``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    wall = _WALL_LINE.search(done.stderr)
    if done.returncode != 0 or not lines or wall is None:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench run failed in {tree} (exit {done.returncode})")
    return json.loads(lines[-1]), float(wall.group(1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"] + [PASS_WALL]

    base_tree = tempfile.mkdtemp(prefix="ab-")
    try:
        sha = _extract(args.rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        runs = {"base": [], "change": []}
        for k in range(args.pairs):
            for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                result, wall = _run(trees[side], args.workload, args.seed)
                values = {n: m["value"] for n, m in result["metrics"].items()}
                values["pass_wall_s"] = wall
                runs[side].append((result, values))
                print(f"pair {k + 1}/{args.pairs} {side:6s} correct={result['correct']} "
                      f"failed={result['failed']} "
                      + " ".join(f"{n}={v:.4g}" for n, v in values.items()),
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    rows = [
        summarize(spec, [(b[spec["name"]], c[spec["name"]])
                         for (_, b), (_, c) in zip(runs["base"], runs["change"])])
        for spec in specs
    ]
    results = [result for side in runs.values() for result, _ in side]
    bad = sum(1 for r in results if not r["correct"] or r["failed"])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: "
          f"base {sha} vs change (this checkout)")
    print(render(rows))
    print(f"runs correct with 0 failed operations: {len(results) - bad}/{len(results)}")
    return 1 if bad or any(row["within_bound"] is False for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
