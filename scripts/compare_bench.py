#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json against the last committed baseline run.

Guards the perf-trajectory gate (ROADMAP.md): a PR that regresses the pinned
metrics of a committed benchmark run fails CI instead of silently landing.

Three check classes, strictest first:

  1. exact counters   — per-benchmark google-benchmark counters that are
                        deterministic (proposal counts): must match the
                        baseline exactly. Machine-independent.
  2. ratio contracts  — WITHIN-file time ratios between a benchmark pair
                        (e.g. the implicit and explicit queue engine at the
                        same n), compared across files with a tolerance.
                        Ratios transfer between machines, so this is the
                        cross-runner regression signal: if the generator
                        used to cost 1.3x the tables and a change makes it
                        costlier, the gate trips.
  3. absolute timing  — per-benchmark real_time vs the baseline, tolerance-
                        gated. Only meaningful when baseline and fresh run
                        came from the same machine; off by default, enabled
                        with --check-absolute (scripts/reproduce.sh runs).

Usage:
  compare_bench.py --baseline bench/baselines/BENCH_E21.json \
      --fresh BENCH_e21.json \
      --ratio bm_implicit_queue bm_explicit_queue \
      [--tolerance 0.10] [--exact-counter proposals] [--check-absolute]

Exit status: 0 = no regression, 1 = regression found, 2 = usage/data error.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """(name -> benchmark row, pref backend); aggregate rows skipped.

    The preference backend ("explicit" tables vs "implicit" generator) is
    stamped into the JSON context by bench_common.hpp. Files predating the
    stamp default to "explicit" — every benchmark then ran on tables.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"compare_bench: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in data.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        rows[row["name"]] = row
    if not rows:
        print(f"compare_bench: {path} contains no benchmark rows",
              file=sys.stderr)
        sys.exit(2)
    backend = data.get("context", {}).get("kstable.pref_backend", "explicit")
    return rows, backend


def check_exact_counters(base, fresh, counters, failures):
    checked = 0
    for name, brow in sorted(base.items()):
        frow = fresh.get(name)
        if frow is None:
            continue  # coverage differences are reported by check_coverage
        for counter in counters:
            if counter not in brow:
                continue
            checked += 1
            bval, fval = brow[counter], frow.get(counter)
            if fval != bval:
                failures.append(
                    f"{name}: counter '{counter}' changed "
                    f"{bval} -> {fval} (deterministic metric; any drift "
                    f"is a semantic change, not noise)")
    return checked


def real_time_of(row, name, path):
    """Validated real_time: present and positive, or a data error (exit 2).

    A truncated or hand-edited JSON used to surface as KeyError /
    ZeroDivisionError — a traceback and exit 1, indistinguishable from a real
    regression in CI. Bad data is a usage error, not a perf signal.
    """
    value = row.get("real_time")
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value <= 0.0:
        print(f"compare_bench: {path}: benchmark '{name}' has invalid "
              f"real_time {value!r} (expected a positive number) — "
              f"truncated or corrupt benchmark output?", file=sys.stderr)
        sys.exit(2)
    return value


def ratio_for(rows, path, numerator, denominator):
    """suffix -> time ratio for every '<numerator>/<suffix>' pair present."""
    out = {}
    prefix_n = numerator + "/"
    for name, row in rows.items():
        if not name.startswith(prefix_n):
            continue
        suffix = name[len(prefix_n):]
        denom_name = f"{denominator}/{suffix}"
        denom = rows.get(denom_name)
        if denom is None:
            continue
        out[suffix] = (real_time_of(row, name, path) /
                       real_time_of(denom, denom_name, path))
    return out


def check_ratio(base, base_path, fresh, fresh_path, numerator, denominator,
                tolerance, failures):
    base_ratios = ratio_for(base, base_path, numerator, denominator)
    fresh_ratios = ratio_for(fresh, fresh_path, numerator, denominator)
    checked = 0
    for suffix, base_ratio in sorted(base_ratios.items()):
        fresh_ratio = fresh_ratios.get(suffix)
        if fresh_ratio is None:
            continue
        checked += 1
        if fresh_ratio > base_ratio * (1.0 + tolerance):
            failures.append(
                f"{numerator}/{suffix} vs {denominator}/{suffix}: time ratio "
                f"regressed {base_ratio:.3f} -> {fresh_ratio:.3f} "
                f"(>{tolerance:.0%} above the committed baseline)")
    if checked == 0:
        failures.append(
            f"ratio contract {numerator}/{denominator}: no comparable rows "
            f"in both runs (benchmark renamed or sweep range changed?)")
    return checked


def check_absolute(base, base_path, fresh, fresh_path, tolerance, failures):
    checked = 0
    for name, brow in sorted(base.items()):
        frow = fresh.get(name)
        if frow is None:
            continue
        checked += 1
        base_time = real_time_of(brow, name, base_path)
        fresh_time = real_time_of(frow, name, fresh_path)
        if fresh_time > base_time * (1.0 + tolerance):
            failures.append(
                f"{name}: real_time regressed {base_time:.1f} -> "
                f"{fresh_time:.1f} {brow.get('time_unit', 'ns')} "
                f"(>{tolerance:.0%})")
    return checked


def check_coverage(base, fresh, failures):
    missing = sorted(set(base) - set(fresh))
    if missing:
        failures.append(
            "fresh run is missing baseline benchmarks (silent coverage "
            "loss): " + ", ".join(missing[:8]) +
            ("..." if len(missing) > 8 else ""))
    # Fresh-only names are a failure too: a benchmark added without updating
    # the committed baseline runs in CI but is never gated — exactly the
    # silent pass this script exists to prevent.
    extra = sorted(set(fresh) - set(base))
    if extra:
        failures.append(
            "fresh run has benchmarks absent from the baseline (update the "
            "committed baseline so they are gated): " + ", ".join(extra[:8]) +
            ("..." if len(extra) > 8 else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative regression (default 0.10)")
    parser.add_argument("--ratio", nargs=2, action="append", default=[],
                        metavar=("NUMERATOR", "DENOMINATOR"),
                        help="benchmark-name pair whose within-run time "
                             "ratio is pinned (repeatable)")
    parser.add_argument("--exact-counter", action="append", default=None,
                        metavar="NAME",
                        help="per-benchmark counter that must match exactly "
                             "(default: proposals)")
    parser.add_argument("--check-absolute", action="store_true",
                        help="also gate absolute real_time (same-machine "
                             "baselines only)")
    args = parser.parse_args()
    counters = args.exact_counter or ["proposals"]

    base, base_backend = load_benchmarks(args.baseline)
    fresh, fresh_backend = load_benchmarks(args.fresh)
    if base_backend != fresh_backend:
        # Data error, not a regression: an explicit-tables baseline says
        # nothing about implicit-generator solves (and vice versa), so a
        # comparison across backends would gate noise.
        print(f"compare_bench: preference backend mismatch: baseline "
              f"{args.baseline} is '{base_backend}' but fresh {args.fresh} "
              f"is '{fresh_backend}' — these runs are not comparable",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    check_coverage(base, fresh, failures)
    n_counters = check_exact_counters(base, fresh, counters, failures)
    n_ratios = 0
    for numerator, denominator in args.ratio:
        n_ratios += check_ratio(base, args.baseline, fresh, args.fresh,
                                numerator, denominator, args.tolerance,
                                failures)
    n_abs = 0
    if args.check_absolute:
        n_abs = check_absolute(base, args.baseline, fresh, args.fresh,
                               args.tolerance, failures)

    print(f"compare_bench: {args.fresh} vs {args.baseline}: "
          f"{n_counters} exact-counter, {n_ratios} ratio, "
          f"{n_abs} absolute checks")
    if failures:
        for failure in failures:
            print(f"  REGRESSION: {failure}")
        return 1
    print("  no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
