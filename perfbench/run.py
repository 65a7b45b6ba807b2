"""Benchmark entry point: run one workload in a fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: ``compile``, ``serve`` and ``cold_answer`` (see
``perfbench/design.json`` for why each exists and which layer metrics
should move which end-to-end metric).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the traced variant and prints the per-layer
metrics.  The last line of standard output is the JSON result.

The workload runs in a child interpreter whose ``PYTHONHASHSEED`` is set
from ``--seed``, because the hash seed changes how much work saturation
does; the same seed therefore repeats the same work.  The program is
imported from ``src/`` of the checkout; without it the run fails with a
nonzero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile", "serve", "cold_answer")
#: a run must end well inside three minutes
CHILD_TIMEOUT_SECONDS = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"error: workload exceeded {CHILD_TIMEOUT_SECONDS}s", file=sys.stderr)
        return 3
    except BaseException:
        child.kill()
        child.wait()
        raise
    if child.returncode != 0:
        sys.stderr.write(output)
        print(f"error: workload exited with code {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 4
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
