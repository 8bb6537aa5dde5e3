"""Run state shared by the workloads: metrics, checks and small statistics helpers.

Every workload reports the same end-to-end metrics, over its own three
operations: ``op1_ms`` and ``op2_ms`` are the medians of its two long
operations, ``op3_p50_ms`` and ``op3_p90_ms`` the median and 90th
percentile of its short one, which runs at least ``MIN_OP3_CALLS`` times
so that at least ten samples lie beyond the p90. Per-workload names for
these numbers (``train.proposed_cnn.img_per_s`` and so on) go into the
run record as details.
"""

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
MB = float(1 << 20)
MIN_OP3_CALLS = 100
# Modules whose spans the tracer records; ``share.<module>`` is each one's
# share of the traced program time. ``tensor`` runs under ``layers``.
MODULES = ("layers", "optim", "models", "train", "data", "tree", "facedetect")


class Run:
    """One benchmark run: its settings, metrics, checks and detail record."""

    def __init__(self, seed: int, seconds: float, trace: bool, tmp: str, out_prefix: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp  # scratch directory for generated input files
        self.out_prefix = out_prefix  # path prefix of this run's output files
        self.e2e: dict[str, dict] = {}
        self.layer: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.record: dict = {"failures": [], "digests": {}, "computed": {}, "detail": {}}

    def e2e_metric(self, name: str, value: float, unit: str):
        self.e2e[name] = {"value": float(value), "unit": unit}

    def layer_metric(self, name: str, value: float, unit: str):
        self.layer[name] = {"value": float(value), "unit": unit}

    def detail(self, name: str, value: float, unit: str):
        """A finer metric kept in the run record and printed, not in the result line."""
        self.record["detail"][name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, what: str):
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.record["failures"].append(what)

    def digest(self, name: str, value):
        self.record["digests"][name] = value

    def op_metrics(self, op1_s, op2_s, op3_s):
        """The end-to-end op metrics from per-call seconds of the three operations."""
        self.check(len(op3_s) >= MIN_OP3_CALLS,
                   f"op3 ran {len(op3_s)} times, fewer than {MIN_OP3_CALLS}")
        self.e2e_metric("op1_ms", 1000.0 * median(op1_s), "ms")
        self.e2e_metric("op2_ms", 1000.0 * median(op2_s), "ms")
        self.e2e_metric("op3_p50_ms", 1000.0 * median(op3_s), "ms")
        self.e2e_metric("op3_p90_ms", 1000.0 * percentile(op3_s, 90), "ms")
        self.record["samples_s"] = {"op1": list(op1_s), "op2": list(op2_s), "op3": list(op3_s)}

    def traced_op_metrics(self, untraced: tuple, traced: tuple, tracers):
        """Per-layer metrics every workload has: op times with tracing on, the
        tracing overhead on the sum of the op medians, and module shares."""
        for i, samples in enumerate(traced, start=1):
            self.layer_metric(f"op{i}.traced_ms", 1000.0 * median(samples), "ms")
        base = sum(median(s) for s in untraced)
        with_trace = sum(median(s) for s in traced)
        self.layer_metric("trace.overhead_pct", 100.0 * (with_trace / base - 1.0), "%")
        totals = dict.fromkeys(MODULES, 0.0)
        for tracer in tracers:
            for name, seconds in tracer.self_times().items():
                totals[name.split(".", 1)[0]] += seconds
        program = sum(totals.values())
        for module, seconds in totals.items():
            self.layer_metric(f"share.{module}", 100.0 * seconds / program, "%")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def cache_bytes(obj) -> int:
    """Bytes of the arrays a layer cache references."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(cache_bytes(o) for o in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(cache_bytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


def conv_counts(net, batch: int) -> dict[str, float]:
    """Computed from the shape trace: conv GFLOP per training step and im2col MB.

    A training step runs three GEMMs per conv layer (forward, kernel
    gradient, input gradient), each of 2*Ci*kh*kw flops per output element;
    a forward pass runs the first of them. The retained patch matrix holds
    Ci*kh*kw float32 per output position.
    """
    flops = 0.0
    cache = 0.0
    trace = net.shape_trace()
    for layer, out_shape in zip(net.layers, trace[1:]):
        if layer.kind != "conv2d":
            continue
        patch = layer.params[0].size // layer.filters  # Ci*kh*kw, whatever the layout
        outputs = math.prod(out_shape)
        flops += 3 * 2.0 * batch * outputs * patch
        cache += 4.0 * batch * (outputs // layer.filters) * patch
    return {"gflop_per_step": flops / 1e9, "gflop_forward": flops / 3e9, "cache_mb": cache / MB}


def setup_seconds(workload: str, args: list[str], reps: int = 7) -> tuple[float, list[float]]:
    """Median set-up time over ``reps`` fresh processes (see setup_probe.py)."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, *args],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["seconds"])
    return median(times), times
