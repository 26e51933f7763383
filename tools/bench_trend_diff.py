#!/usr/bin/env python3
"""Diff two BENCH_kernels.json ledgers and fail on a throughput regression.

Usage:
    bench_trend_diff.py --current kernel-results/BENCH_kernels.json \
                        --previous previous/BENCH_kernels.json \
                        [--max-regression 0.25]

The bench-kernels CI job downloads the previous run's `kernel-results`
artifact and feeds both ledgers here. The gate:

  * `gemm_speedup_vs_scalar` must not drop by more than --max-regression
    (fractional, default 0.25 = 25%), and
  * no kernel's throughput — matched by (name, backend), intersection of
    the two ledgers — may drop by more than the same fraction.

The avx2 rows pair only when both ledgers name the same `gemm_tile`: the
avx2 backend runs the zmm 8x32 GEMM tile on an AVX-512 host and the ymm 6x16
tile elsewhere, so a run on a host without AVX-512 after one with it would
read as a GEMM regression. Otherwise they are left out with a logged SKIP
(and so is `gemm_speedup_vs_scalar`, which is an avx2 number on x86), as
when no rows pair at all.

Either way a per-kernel diff table goes to the job log, so the trend is
visible on green runs too. A missing/unreadable previous ledger is a SKIP
(exit 0): the first run after artifact expiry has nothing to diff against,
which is not a regression. Schema drift in the previous ledger (an older
schema_version, missing keys) also degrades to SKIP rather than blocking
the PR that evolves the schema.
"""

import argparse
import json
import sys


def load_ledger(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        return None, f"unreadable ({err})"
    if doc.get("kind") != "bench_kernels":
        return None, f"not a kernel ledger (kind={doc.get('kind')!r})"
    if "kernels" not in doc:
        return None, "no kernels array"
    return doc, None


def throughput_by_key(doc):
    return {
        (r["name"], r["backend"]): r["throughput"]
        for r in doc["kernels"]
        if r.get("throughput", 0) > 0
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True)
    parser.add_argument("--previous", required=True)
    parser.add_argument("--max-regression", type=float, default=0.25)
    args = parser.parse_args()

    current, err = load_ledger(args.current)
    if current is None:
        # The current ledger must exist and parse — that IS a failure.
        print(f"FAIL: current ledger {args.current}: {err}")
        return 1
    previous, err = load_ledger(args.previous)
    if previous is None:
        print(f"SKIP: previous ledger {args.previous}: {err} — "
              "nothing to diff against")
        return 0

    floor = 1.0 - args.max_regression
    failures = []

    cur = throughput_by_key(current)
    prev = throughput_by_key(previous)
    tile_cur = current.get("gemm_tile")
    tile_prev = previous.get("gemm_tile")
    same_tile = tile_cur == tile_prev
    if not same_tile:
        print(f"SKIP: gemm_tile {tile_prev!r} -> {tile_cur!r} — avx2 rows "
              "and gemm_speedup_vs_scalar not paired")
        cur = {key: v for key, v in cur.items() if key[1] != "avx2"}
    shared = sorted(set(cur) & set(prev))
    if not shared:
        print("SKIP: no (kernel, backend) pairs shared between ledgers")
        return 0

    print(f"kernel throughput trend vs previous run "
          f"(floor {floor:.2f}x, {len(shared)} shared pairs):")
    print(f"{'kernel':<14} {'backend':<8} {'previous':>14} {'current':>14} "
          f"{'ratio':>7}")
    for key in shared:
        ratio = cur[key] / prev[key]
        flag = ""
        if ratio < floor:
            flag = "  <-- REGRESSION"
            failures.append(
                f"{key[0]}/{key[1]} throughput fell to {ratio:.2f}x "
                f"of previous ({prev[key]:.3e} -> {cur[key]:.3e})")
        print(f"{key[0]:<14} {key[1]:<8} {prev[key]:>14.3e} "
              f"{cur[key]:>14.3e} {ratio:>6.2f}x{flag}")

    speed_cur = current.get("gemm_speedup_vs_scalar")
    speed_prev = previous.get("gemm_speedup_vs_scalar")
    if (same_tile and speed_cur is not None and speed_prev is not None
            and speed_prev > 0):
        ratio = speed_cur / speed_prev
        print(f"gemm_speedup_vs_scalar: {speed_prev:.2f}x -> "
              f"{speed_cur:.2f}x ({ratio:.2f}x of previous)")
        if ratio < floor:
            failures.append(
                f"gemm_speedup_vs_scalar fell to {ratio:.2f}x of previous "
                f"({speed_prev:.2f} -> {speed_cur:.2f})")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"{args.max_regression:.0%}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("ok: no kernel regressed beyond the "
          f"{args.max_regression:.0%} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
