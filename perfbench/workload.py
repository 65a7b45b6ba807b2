"""Child process of ``run.py``: run one workload and print its result.

Not meant to be started by hand (``run.py`` sets ``PYTHONHASHSEED`` and
``PYTHONPATH`` for it), but it works when those are set::

    PYTHONHASHSEED=1 PYTHONPATH=src python3 perfbench/workload.py --workload compile
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, parse_args  # noqa: E402


def main() -> int:
    args = parse_args()
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported repro from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"wl_{args.workload}")
    result = module.run(args.seed, args.seconds, bool(args.trace))
    result.emit(bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
