"""Run one stereomatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_64x128 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports the library from ``src/``,
pins BLAS to one thread before numpy is loaded, and prints, in order:
``# name = value unit`` lines, one ``{"info": ...}`` line (environment,
determinism digests, sample counts), and, last, the result object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones, and
writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("train_64x128", "infer_256x512")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stereomatch").is_dir():
        print(f"run.py: no stereomatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:         # before numpy is first imported
        os.environ[var] = "1"
    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness   # imports numpy and stereomatch
    import_s = time.perf_counter() - started

    if args.trace:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        result = harness.traced(args.workload, args.seed, args.seconds,
                                spans_path=out / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
    else:
        result = harness.untraced(args.workload, args.seed, args.seconds, import_s)
    result["info"]["environment"] = harness.environment(args.seed)
    for line in harness.summary_lines(result):
        print(line)
    print(json.dumps({"info": result.pop("info")}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
