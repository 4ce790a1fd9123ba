"""Perf-regression gate over ``BENCH_analysis.json`` / ``BENCH_serve.json``.

Compares a freshly measured performance JSON against the committed
baseline of the same shape and fails (exit 1) when

* any tracked kernel — a synthetic scaling size, a sync-placement
  analyze+place run, or an application's shared O0–O4 sweep — got more
  than ``--threshold`` times slower, or
* any compiler pass's *share* of the cold O0–O4 sweep grew beyond
  ``--share-factor`` times its committed share (the per-pass budget:
  a pass that was 10% of the sweep may not silently become 25%).

Entries faster than ``--min-seconds`` in the *baseline* are ignored,
as are baseline shares below ``--min-share``: at sub-millisecond /
sub-percent scales CI timer noise swamps any real signal.

Both schema 1 (string-keyed ``synthetic`` dict) and schema 2 (list of
``{"size": int, ...}`` records plus ``sync_placement`` and
``pipeline.pass_shares``) baselines are understood, so the gate keeps
working across the schema bump.

The committed ``BENCH_analysis.json`` at the repo root *is* the
baseline.  The CI ``perf-gate`` job measures a trimmed ladder into a
separate file so the baseline stays untouched (``make perf-gate``)::

    make perf-scale   # REPRO_PERF_SIZES=8,...,128 -> BENCH_scale.json
    python benchmarks/check_regression.py \
        --baseline BENCH_analysis.json --fresh BENCH_scale.json

Ladder sizes the fresh payload does not declare (its ``sizes`` list)
are skipped, not treated as missing.  Refreshing the baseline after an
intentional perf change: ``make perf`` (full ladder to 512) and commit
the rewritten ``BENCH_analysis.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, Tuple


def _synthetic_entries(payload: dict) -> Iterator[Tuple[int, dict]]:
    """Yields (size, record) from either schema."""
    section = payload.get("synthetic", {})
    if isinstance(section, dict):  # schema 1: {"8": {...}, ...}
        for size, entry in section.items():
            yield int(size), entry
    else:  # schema 2: [{"size": 8, ...}, ...]
        for entry in section:
            yield int(entry["size"]), entry


def tracked_kernels(payload: dict) -> Iterator[Tuple[str, float]]:
    """Yields (kernel name, seconds) for every gated measurement."""
    for size, entry in sorted(_synthetic_entries(payload)):
        yield f"synthetic/{size}", float(entry["seconds"])
    for entry in payload.get("sync_placement", []):
        yield (
            f"sync_placement/{int(entry['size'])}",
            float(entry["total_seconds"]),
        )
    for app, entry in sorted(payload.get("apps", {}).items()):
        yield f"apps/{app}", float(entry["seconds"])
    for model, entry in sorted(payload.get("simulation", {}).items()):
        yield f"simulation/{model}", float(entry["seconds"])
    # BENCH_serve.json: wall seconds per phase of the daemon load
    # bench, plus each phase's p99 latency where it records one (the
    # degraded phase's p99 budget rides this).
    for phase, entry in sorted(payload.get("serve", {}).items()):
        yield f"serve/{phase}", float(entry["seconds"])
        if "p99_seconds" in entry:
            yield f"serve/{phase}/p99", float(entry["p99_seconds"])


def pass_shares(payload: dict) -> Dict[str, float]:
    """Per-pass cold-sweep shares (empty for schema-1 payloads)."""
    pipeline = payload.get("pipeline", {})
    return {
        name: float(value)
        for name, value in pipeline.get("pass_shares", {}).items()
    }


def compare(
    baseline: dict,
    fresh: dict,
    threshold: float,
    min_seconds: float,
) -> Tuple[list, list]:
    """Returns (report rows, regression rows)."""
    base: Dict[str, float] = dict(tracked_kernels(baseline))
    new: Dict[str, float] = dict(tracked_kernels(fresh))
    # Schema 2 changed what the apps metric *means* (analyze-only ->
    # full shared O0-O4 sweep), so across a schema bump those entries
    # cannot be compared; they are reported but not gated.
    schema_changed = baseline.get("schema", 1) != fresh.get("schema", 1)
    # CI trims the synthetic ladder (REPRO_PERF_SIZES); a size the
    # fresh payload declares out of scope is skipped, not "missing".
    fresh_sizes = {int(s) for s in fresh.get("sizes", [])}
    rows, regressions = [], []
    for kernel in sorted(base):
        if schema_changed and kernel.startswith("apps/"):
            rows.append(
                (kernel, base[kernel], new.get(kernel),
                 "skipped (schema change)")
            )
            continue
        if kernel not in new and fresh_sizes and "/" in kernel:
            prefix, _, suffix = kernel.rpartition("/")
            if (
                prefix in ("synthetic", "sync_placement")
                and suffix.isdigit()
                and int(suffix) not in fresh_sizes
            ):
                rows.append(
                    (kernel, base[kernel], None,
                     "skipped (size not in fresh ladder)")
                )
                continue
        if kernel not in new:
            rows.append((kernel, base[kernel], None, "missing"))
            regressions.append((kernel, base[kernel], None, "missing"))
            continue
        before, after = base[kernel], new[kernel]
        if before < min_seconds:
            rows.append((kernel, before, after, "ignored (noise floor)"))
            continue
        ratio = after / before if before else float("inf")
        verdict = f"{ratio:.2f}x"
        row = (kernel, before, after, verdict)
        rows.append(row)
        if ratio > threshold:
            regressions.append(row)
    for kernel in sorted(set(new) - set(base)):
        rows.append((kernel, None, new[kernel], "new (ungated)"))
    return rows, regressions


def compare_shares(
    baseline: dict,
    fresh: dict,
    share_factor: float,
    min_share: float,
) -> Tuple[list, list]:
    """Per-pass budget check; returns (report rows, violation rows).

    A pass's budget is ``share_factor`` times its committed share of
    the cold sweep.  Shares below ``min_share`` in the baseline are
    reported but not gated (timer noise).  Passes new in the fresh
    payload are ungated — they have no committed budget yet.
    """
    base = pass_shares(baseline)
    new = pass_shares(fresh)
    rows, violations = [], []
    for name in sorted(base):
        before = base[name]
        after = new.get(name)
        if after is None:
            rows.append((name, before, None, "missing"))
            continue
        if before < min_share:
            rows.append((name, before, after, "ignored (below min share)"))
            continue
        budget = before * share_factor
        verdict = f"{after / before:.2f}x share" if before else "inf"
        row = (name, before, after, verdict)
        rows.append(row)
        if after > budget:
            violations.append(row)
    for name in sorted(set(new) - set(base)):
        rows.append((name, None, new[name], "new (ungated)"))
    return rows, violations


def write_summary(
    path: str,
    rows: list,
    share_rows: list,
    regressions: list,
    share_violations: list,
    threshold: float,
    share_factor: float,
) -> None:
    """Appends the comparison as GitHub-flavored markdown tables.

    CI points this at ``$GITHUB_STEP_SUMMARY`` so the BENCH diff shows
    up on the workflow run page instead of living only in job logs.
    """
    def ms(value) -> str:
        return "—" if value is None else f"{value * 1e3:.2f} ms"

    def pct(value) -> str:
        return "—" if value is None else f"{value:.2%}"

    lines = ["## Perf gate: BENCH diff vs committed baseline", ""]
    if regressions or share_violations:
        lines.append(
            f"**FAIL** — {len(regressions)} kernel(s) beyond "
            f"{threshold}x, {len(share_violations)} pass share(s) "
            f"beyond {share_factor}x."
        )
    else:
        lines.append(
            f"**OK** — no kernel slower than {threshold}x baseline, "
            f"no pass beyond {share_factor}x its sweep share."
        )
    lines += [
        "",
        "| kernel | baseline | fresh | verdict |",
        "| --- | ---: | ---: | --- |",
    ]
    for kernel, before, after, verdict in rows:
        lines.append(
            f"| `{kernel}` | {ms(before)} | {ms(after)} | {verdict} |"
        )
    if share_rows:
        lines += [
            "",
            "### Per-pass share of the cold O0–O4 sweep",
            "",
            "| pass | baseline | fresh | verdict |",
            "| --- | ---: | ---: | --- |",
        ]
        for name, before, after, verdict in share_rows:
            lines.append(
                f"| `{name}` | {pct(before)} | {pct(after)} "
                f"| {verdict} |"
            )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when analysis kernels regress vs baseline"
    )
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="maximum allowed slowdown factor (default 2.0)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.005,
        help="ignore baseline entries below this (timer noise floor)",
    )
    parser.add_argument(
        "--share-factor", type=float, default=2.0,
        help="per-pass budget: max allowed growth of a pass's share of "
             "the cold sweep (default 2.0x the committed share)",
    )
    parser.add_argument(
        "--min-share", type=float, default=0.02,
        help="ignore baseline pass shares below this fraction",
    )
    parser.add_argument(
        "--summary", metavar="PATH", default=None,
        help="also append the diff as markdown tables to PATH "
             "(CI passes $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.fresh, encoding="utf-8") as handle:
        fresh = json.load(handle)

    rows, regressions = compare(
        baseline, fresh, args.threshold, args.min_seconds
    )
    width = max(len(row[0]) for row in rows) if rows else 10
    for kernel, before, after, verdict in rows:
        fmt = lambda value: "-" if value is None else f"{value * 1e3:9.2f}ms"
        print(f"  {kernel:<{width}}  {fmt(before)} -> {fmt(after)}  "
              f"{verdict}")

    share_rows, share_violations = compare_shares(
        baseline, fresh, args.share_factor, args.min_share
    )
    if share_rows:
        print("\nper-pass share of cold O0-O4 sweep:")
        width = max(len(row[0]) for row in share_rows)
        for name, before, after, verdict in share_rows:
            fmt = lambda value: "   -  " if value is None else f"{value:6.2%}"
            print(f"  {name:<{width}}  {fmt(before)} -> {fmt(after)}  "
                  f"{verdict}")

    if args.summary:
        write_summary(
            args.summary, rows, share_rows, regressions,
            share_violations, args.threshold, args.share_factor,
        )

    failed = False
    if regressions:
        failed = True
        print(
            f"\nFAIL: {len(regressions)} kernel(s) regressed beyond "
            f"{args.threshold}x (noise floor {args.min_seconds * 1e3:g}ms):"
        )
        for kernel, _before, _after, verdict in regressions:
            print(f"  {kernel}: {verdict}")
    if share_violations:
        failed = True
        print(
            f"\nFAIL: {len(share_violations)} pass(es) exceeded "
            f"{args.share_factor}x their committed sweep share:"
        )
        for name, before, after, _verdict in share_violations:
            print(f"  {name}: {before:.2%} -> {after:.2%}")
    if failed:
        return 1
    print(
        f"\nOK: no kernel slower than {args.threshold}x baseline, "
        f"no pass beyond {args.share_factor}x its sweep share"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
