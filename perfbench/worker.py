"""The measured process: one fresh interpreter per set-up probe or run.

    python3 perfbench/worker.py --mode setup  --workload W --seed N
    python3 perfbench/worker.py --mode timed  --workload W --seed N --seconds S [--calls K]
    python3 perfbench/worker.py --mode traced --workload W --seed N --seconds S [--calls K] [--spans FILE]

Only modules that the interpreter has loaded at start-up are imported
before the clock starts, so the import of `catledger` and `catledger.cli`
is timed in full.  The rest is in `measure.py`.
"""

import importlib
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    catledger = importlib.import_module("catledger")
    importlib.import_module("catledger.cli")
    imported_s = time.perf_counter() - start
    if not os.path.abspath(catledger.__file__).startswith(SRC + os.sep):
        print(f"catledger was imported from {catledger.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import measure

    return measure.main(imported_s, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
