"""Run a workload over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median — the steadiness test a benchmark result must pass.  Both
the raw and the host-normalized value of every timing metric are shown,
which is how the per-metric choice in ``design.json`` (``normalized``) is
made.  Run from the repository root::

    python3 perfbench/spread.py --workload serve --seeds 1-5 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def seeds_of(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--log", type=Path, help="append each result line here")
    args = parser.parse_args()
    rows = []
    for seed in seeds_of(args.seeds):
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", args.seconds, "--trace", args.trace,
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        rows.append((seed, result, report))
        if args.log is not None:
            with args.log.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"seed": seed, "result": result, "report": report}) + "\n")
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} host={report.get('host_factor', {}).get('median', 0):.2f}",
            flush=True,
        )
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'raw spr':>8s} {'norm spr':>8s}")
    for name in names:
        values = [row[1]["metrics"][name]["value"] for row in rows]
        raw = [row[2].get("raw", {}).get(name) for row in rows]
        normalized = [row[2].get("normalized", {}).get(name) for row in rows]
        extra = ""
        if None not in raw and None not in normalized:
            extra = f" {spread(raw):8.3f} {spread(normalized):8.3f}"
        print(f"{name:34s} {statistics.median(values):12.4f} {spread(values):8.3f}{extra}")
    return 0 if all(row[1]["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
