"""Compare a bench artifact against a baseline (``staub bench --compare``).

The **deterministic** sections are diffed *exactly*. Any difference --
a changed verdict, a work total that moved, a counter that appeared or
vanished -- is a finding. This is the regression gate CI enforces: a
perf PR that changes deterministic work must regenerate the checked-in
baseline deliberately, making every cost change visible in review.
"""


def _walk_diff(current, baseline, path, findings, limit=200):
    """Structural diff; appends ``(path, kind, detail)`` findings."""
    if len(findings) >= limit:
        return
    if type(current) is not type(baseline):
        findings.append((path, "type", f"{_show(baseline)} -> {_show(current)}"))
        return
    if isinstance(current, dict):
        for key in sorted(set(baseline) | set(current)):
            child = f"{path}.{key}" if path else str(key)
            if key not in current:
                findings.append((child, "removed", _show(baseline[key])))
            elif key not in baseline:
                findings.append((child, "added", _show(current[key])))
            else:
                _walk_diff(current[key], baseline[key], child, findings, limit)
        return
    if isinstance(current, list):
        if len(current) != len(baseline):
            findings.append(
                (path, "length", f"{len(baseline)} -> {len(current)}")
            )
            return
        for index, (cur, base) in enumerate(zip(current, baseline)):
            _walk_diff(cur, base, f"{path}[{index}]", findings, limit)
        return
    if current != baseline:
        findings.append((path, "changed", f"{_show(baseline)} -> {_show(current)}"))


def _show(value):
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def compare_payloads(current, baseline):
    """Compare two bench payloads.

    Args:
        current: the fresh run's payload dict.
        baseline: the baseline payload dict.

    Returns:
        A list of human-readable regressions; empty means the gate passes.
    """
    if current.get("format") != baseline.get("format"):
        return [
            "artifact format mismatch: baseline "
            f"{baseline.get('format')!r}, current {current.get('format')!r}"
        ]
    if current.get("suite") != baseline.get("suite"):
        return [
            f"suite mismatch: baseline {baseline.get('suite')!r}, "
            f"current {current.get('suite')!r}"
        ]

    findings = []
    _walk_diff(
        current.get("deterministic", {}),
        baseline.get("deterministic", {}),
        "",
        findings,
    )
    return [
        f"deterministic: {path}: {kind}: {detail}" for path, kind, detail in findings
    ]


def render_comparison(regressions):
    """Human-readable comparison report."""
    if not regressions:
        return "deterministic sections identical"
    lines = [f"REGRESSIONS ({len(regressions)}):"]
    lines.extend(f"  {entry}" for entry in regressions)
    return "\n".join(lines)
