#!/usr/bin/env python3
"""End-to-end demo: synthesize a 9-station dataset, then run the whole
pipeline (ingest -> trend -> forecast -> evaluate) and print the headline
results.

Usage: python scripts/run_pipeline.py [output_dir] [--seed N] [--n-days N] [--input CSV]

--input CSV skips the synthesis and runs the four stages on an existing
readings file (any file `aircast ingest --input` takes). Running it on the
same file from two checkouts gives two output directories that `diff -r`
compares.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from aircast.cli import main as aircast


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="demo_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-days", type=int, default=540)
    parser.add_argument("--input", help="readings CSV to ingest instead of a simulated one")
    args = parser.parse_args(argv)
    out = Path(args.out)

    stages = [] if args.input else [
        ["simulate", "--out", str(out), "--seed", str(args.seed), "--n-days", str(args.n_days)],
    ]
    stages += [
        ["ingest", "--out", str(out), "--input", args.input or str(out / "simulated_readings.csv")],
        ["trend", "--out", str(out)],
        ["forecast", "--out", str(out), "--seed", str(args.seed), "--horizon", "14"],
        ["evaluate", "--out", str(out), "--seed", str(args.seed)],
    ]
    t0 = time.time()
    for stage in stages:
        print(f"$ aircast {' '.join(stage)}")
        rc = aircast(stage)
        if rc != 0:
            print(f"stage failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"\npipeline finished in {time.time() - t0:.1f}s\n")

    summary = json.loads((out / "trend" / "summary.json").read_text())
    print("stations ranked by median hourly PM2.5:")
    for entry in summary["station_ranking_by_median_hourly"]:
        print(f"  {entry['station']:22s} {entry['median_hourly']:7.2f} µg/m³")

    print("\nrolling one-step comparison (RMSE | MAE):")
    print((out / "evaluation" / "comparison.csv").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
