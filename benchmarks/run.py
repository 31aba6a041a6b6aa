"""Benchmark of rml_lab: training runs and checkpoint evaluation.

Run from the root of the repository:

    python3 benchmarks/run.py --workload rml-cnn --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Without ``--workload`` every workload runs, each in a fresh process, and a
table of their metrics goes to standard error. See README.md.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

_T0 = perf_counter()

# one BLAS/OpenMP thread, fixed before numpy loads: on a 2-core machine the
# default pool trained about 7% slower (README.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("rml-cnn", "rml-hetero", "ckpt-eval")


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_one(args) -> int:
    if not (ROOT / "src" / "rml_lab" / "__init__.py").is_file():
        print(f"error: no rml_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (imports numpy and rml_lab)

    import_s = perf_counter() - _T0
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           ROOT, import_s)
    for err in result.pop("errors"):
        print(f"check failed: {err}", file=sys.stderr)
    for metric, slowdown in result.pop("slowdowns").items():
        print(f"{metric} divided by the host slowdown {slowdown:.4f}", file=sys.stderr)
    tail = result.pop("eval_tail_ms")
    if tail is not None:
        print(f"eval_tail_ms {tail:.4f} ms over {result['attempted']} evaluations",
              file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = proc.returncode or 1
            continue
        res = results[name] = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
    if status == 0:
        print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
