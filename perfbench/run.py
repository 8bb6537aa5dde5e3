"""fer-forge benchmark.

    python3 perfbench/run.py --workload train_cnn|infer_detect|ingest_tree \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop: one caller in one process, BLAS threads
set to the number of usable cores (to one for infer_detect).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs the
workload with spans recorded around calls into the program and prints the
per-layer metrics and the tracing overhead. Every workload reports the
same metrics (``E2E`` and ``PER_LAYER`` below, listed in BENCHMARK.json);
what op1, op2 and op3 are in each workload is in README.md. The last line
of standard output is the result as JSON; the full record (machine,
samples, digests, checks, computed counts, finer per-module details) and
the spans are written under ``perfbench/out/``.
"""

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("train_cnn", "infer_detect", "ingest_tree")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# infer_detect is a latency workload with one caller. With two BLAS threads
# on two shared cores, batch-1 predict p50 went from 23 ms to 144 ms while
# another process ran, and p90 doubled in runs on a busy host; with one
# thread it stayed within 5%. The other workloads use every usable core
# (train_cnn drops to one for its short ffnn steps, see train_cnn.py).
MAX_BLAS_THREADS = {"infer_detect": 1}

E2E = {"setup_s": "s", "peak_rss_mb": "MB", "op1_ms": "ms", "op2_ms": "ms",
       "op3_p50_ms": "ms", "op3_p90_ms": "ms"}
PER_LAYER = {
    "op1.traced_ms": "ms", "op2.traced_ms": "ms", "op3.traced_ms": "ms",
    **{f"share.{m}": "%" for m in
       ("layers", "optim", "models", "train", "data", "tree", "facedetect")},
    "layers.cache_mb": "MB", "tensor.conv_gflop_per_s": "GFLOP/s",
    "tensor.conv_peak_frac": "ratio", "data.dataset_mb": "MB",
    "tree.nodes": "count", "tree.depth": "count",
    "facedetect.windows": "count", "facedetect.hits": "count",
    "facedetect.detections": "count", "facedetect.hit_frac": "ratio",
    "trace.overhead_pct": "%", "machine.sgemm_gflops": "GFLOP/s",
}
# Counts and sizes of a module a workload does not run read 0 there
# (no tree is fit in train_cnn); times are never filled in this way.
ZERO_WHEN_UNUSED = {
    "train_cnn": ("tree.nodes", "tree.depth", "facedetect.windows", "facedetect.hits",
                  "facedetect.detections", "facedetect.hit_frac"),
    "infer_detect": ("tree.nodes", "tree.depth"),
    "ingest_tree": ("layers.cache_mb", "tensor.conv_gflop_per_s", "tensor.conv_peak_frac",
                    "facedetect.windows", "facedetect.hits", "facedetect.detections",
                    "facedetect.hit_frac"),
}


def cap_blas_threads(workload: str):
    """Set each BLAS thread variable for ``workload``; must run before numpy loads."""
    limit = MAX_BLAS_THREADS.get(workload, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(limit)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fer_forge" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'fer_forge'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    cap_blas_threads(args.workload)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))

    import common
    import machine

    workload = importlib.import_module(args.workload)
    OUT.mkdir(exist_ok=True)
    out_prefix = str(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans_path = Path(out_prefix + "-spans.jsonl")
    if spans_path.exists():
        spans_path.unlink()

    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = common.Run(args.seed, args.seconds, bool(args.trace), tmp, out_prefix)
        host = machine.record()
        workload.main(run, host["sgemm_gflops"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        run.layer_metric("machine.sgemm_gflops", host["sgemm_gflops"], "GFLOP/s")
        for name in ZERO_WHEN_UNUSED[args.workload]:
            run.layer_metric(name, 0.0, PER_LAYER[name])

    metrics = run.layer if args.trace else run.e2e
    expected = PER_LAYER if args.trace else E2E
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        print(f"perfbench: {args.workload} reported {sorted(got.items())}, "
              f"expected {sorted(expected.items())}", file=sys.stderr)
        return 3
    counts = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": host, **counts, "end_to_end": run.e2e,
              "per_layer": run.layer, **run.record}
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in sorted({**run.record["detail"], **metrics}.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in run.record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({**counts, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
