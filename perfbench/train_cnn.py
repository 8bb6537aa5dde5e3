"""train_cnn: the paper's training cost.

``train.train`` with adam (lr 1e-4, decay 1e-6) at batch 128 on seeded
FER-shaped data, for proposed_cnn, then simple_cnn, then ffnn. The data
set is exactly one batch, so every epoch is one training step and its
``EpochLog.seconds`` is that step's time. Each network trains after a
warm-up batch of 16 images on a throwaway copy. op1 is a proposed_cnn
step, op2 a simple_cnn step and op3 an ffnn step, the short one that runs
at least a hundred times. The proposed_cnn model is saved once, right
after it trains, so its retained layer caches are freed before the next
network trains.
"""

import math
import os

import numpy as np

from fer_forge import data as D
from fer_forge import models as M
from fer_forge import optim as O
from fer_forge import train as T

import common
import inputs
import machine
from tracer import Tracer

BATCH = 128
WARMUP_IMAGES = 16
# ffnn steps take ~50 ms; with two BLAS threads on two shared cores their
# p50 spread 21% and their p90 35% over five runs, so ffnn runs on one.
BLAS_THREADS = {"ffnn": 1}
ARCHS = (
    ("proposed_cnn", M.build_proposed_cnn),
    ("simple_cnn", M.build_simple_cnn),
    ("ffnn", M.build_feedforward),
)


def measured_steps(seconds: float) -> dict[str, int]:
    """Training steps after the warm-up, so that a run takes about ``seconds``."""
    return {
        "proposed_cnn": max(4, round(seconds / 7.5)),
        "simple_cnn": max(3, round(seconds / 10)),
        "ffnn": max(common.MIN_OP3_CALLS, round(seconds * 10 / 3)),
    }


def batch_dataset(seed: int) -> D.LabeledDataset:
    rng = np.random.default_rng([seed, 1])
    pixels, labels = inputs.fer_pixels(rng, BATCH)
    return D.LabeledDataset.from_records(
        D.FerRecord(int(y), p.reshape(-1), "Training") for p, y in zip(pixels, labels)
    )


def config(seed: int, batch: int, epochs: int) -> T.TrainConfig:
    return T.TrainConfig(
        O.OptimizerConfig("adam", learning_rate=1e-4, decay=1e-6),
        batch_size=batch, max_epochs=epochs, early_stop_window=epochs, seed=seed,
    )


def train_arch(run, name, build, dataset, steps, tracer=None):
    T.train(build(seed=run.seed), dataset.subset(range(WARMUP_IMAGES)),
            config(run.seed, WARMUP_IMAGES, 1))
    net = build(seed=run.seed)
    cfg = config(run.seed, BATCH, steps)
    if tracer is not None:
        tracer.trace_layers(net, name)
        tracer.patch(net, "loss_and_grad", tracer.wrap("models.loss_and_grad", net.loss_and_grad))
        tracer.patch(O.Optimizer, "step", tracer.wrap("optim.step", O.Optimizer.step))
        tracer.patch(T, "batches", tracer.wrap_generator("data.batches", T.batches))
        tracer.patch_function(T, "train", "train.train")
    try:
        _, logs, _ = T.train(net, dataset, cfg)
    except T.TrainingDivergedError as exc:
        run.check(False, f"{name}: {exc}")
        logs = []
    finally:
        if tracer is not None:
            tracer.uninstall()
    losses = [log.loss for log in logs]
    for i, loss in enumerate(losses):
        run.check(math.isfinite(loss), f"{name} step {i}: non-finite loss {loss}")
    return net, logs, losses


def train_all(run, dataset, tracing: bool) -> dict:
    """Train the three networks; with ``tracing`` also keep one tracer per network."""
    steps = measured_steps(run.seconds)
    results = {}
    for name, build in ARCHS:
        tracer = Tracer() if tracing else None
        threads = machine.blas_threads()
        machine.set_blas_threads(BLAS_THREADS.get(name, threads))
        try:
            net, logs, losses = train_arch(run, name, build, dataset, steps[name], tracer)
        finally:
            machine.set_blas_threads(threads)
        step_s = [log.seconds for log in logs]
        results[name] = {"losses": losses, "step_s": step_s, "tracer": tracer,
                         "counts": common.conv_counts(net, BATCH)}
        if tracer is not None:
            caches: dict[str, int] = {}
            for layer in net.layers:
                caches[layer.kind] = caches.get(layer.kind, 0) + common.cache_bytes(layer._cache)
            results[name]["cache_bytes"] = caches
        if name == "proposed_cnn":
            path = os.path.join(run.tmp, "proposed_cnn.femo")
            if tracer is not None:
                tracer.patch_function(M, "save_model", "models.save_model")
            try:
                M.save_model(net, path)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            reloaded = M.load_model(path)
            run.check(all(np.array_equal(a, b) for a, b in
                          zip(net.parameters(), reloaded.parameters())),
                      "proposed_cnn: saved model does not reload bit-identically")
            del reloaded
        del net
    return results


OPS = ("proposed_cnn", "simple_cnn", "ffnn")  # op1, op2, op3


def layer_metrics(run, results: dict, sgemm_gflops: float):
    """Per-step self times by layer kind, optimizer, loss and loop, as details;
    the proposed_cnn conv rate and retained caches as per-layer metrics."""
    batches_s = 0.0
    total_steps = 0
    for name, res in results.items():
        tr: Tracer = res["tracer"]
        k = len(tr.spans("optim.step"))
        if k < 1:
            continue
        loop = tr.spans("train.train")[0]
        selfs = tr.self_times(tr.starts[loop], tr.ends[loop])
        per_step_ms = {n: 1000.0 * s / k for n, s in selfs.items()}

        kinds: dict[tuple[str, str], float] = {}
        for span, ms in per_step_ms.items():
            if span.startswith("layers."):
                _, _, kind, ordinal, direction = span.split(".")
                kinds[(kind, direction)] = kinds.get((kind, direction), 0.0) + ms
                if name == "proposed_cnn" and kind == "conv2d":
                    run.detail(f"layers.{name}.conv2d.{ordinal}.{direction}_ms", ms, "ms")
        for (kind, direction), ms in kinds.items():
            run.detail(f"layers.{name}.{kind}.{direction}_ms", ms, "ms")
        for kind, nbytes in res["cache_bytes"].items():
            if nbytes:
                run.detail(f"layers.{name}.{kind}.cache_mb", nbytes / common.MB, "MB")

        run.detail(f"optim.{name}.step_ms", per_step_ms["optim.step"], "ms")
        run.detail(f"models.{name}.loss_self_ms", per_step_ms["models.loss_and_grad"], "ms")
        run.detail(f"train.{name}.loop_self_ms", per_step_ms["train.train"], "ms")
        batches_s += selfs["data.batches"]
        total_steps += k

        counts = res["counts"]
        conv_ms = kinds.get(("conv2d", "fwd"), 0.0) + kinds.get(("conv2d", "bwd"), 0.0)
        if counts["gflop_per_step"] > 0:
            rate = counts["gflop_per_step"] / (conv_ms / 1000.0)
            run.detail(f"tensor.{name}.conv.gflop_per_step", counts["gflop_per_step"], "GFLOP")
            run.detail(f"tensor.{name}.conv.cache_mb", counts["cache_mb"], "MB")
            run.detail(f"tensor.{name}.conv.gflop_per_s", rate, "GFLOP/s")
            if name == "proposed_cnn":
                run.layer_metric("tensor.conv_gflop_per_s", rate, "GFLOP/s")
                run.layer_metric("tensor.conv_peak_frac", rate / sgemm_gflops, "ratio")

        if name == "proposed_cnn":
            run.layer_metric("layers.cache_mb", sum(res["cache_bytes"].values()) / common.MB, "MB")
            # Self times partition the traced window, so they add up to the
            # step times train.train logged by construction. The named spans,
            # leaving out the train loop's own time, must cover them within 5%.
            families = ("layers.", "optim.", "models.", "train.", "data.")
            summed = sum(s for n, s in selfs.items() if n.startswith(families))
            named = summed - selfs["train.train"]
            logged = sum(res["step_s"])
            run.record["proposed_cnn_self_sum_over_step_time"] = summed / logged
            run.record["proposed_cnn_named_over_step_time"] = named / logged
            run.check(abs(named / logged - 1.0) <= 0.05,
                      f"proposed_cnn named spans cover {named:.3f} s, steps logged {logged:.3f} s")
    if total_steps:
        run.detail("data.batches.ms", 1000.0 * batches_s / total_steps, "ms")
    run.detail("models.save_model.ms",
               1000.0 * results["proposed_cnn"]["tracer"].durations("models.save_model")[0], "ms")


def main(run, sgemm_gflops: float):
    dataset = batch_dataset(run.seed)
    setup, probes = common.setup_seconds("train_cnn", [str(run.seed)])
    run.record["setup_probes_s"] = probes
    run.record["peak_rss_mb_before_workload"] = common.peak_rss_mb()

    untraced = train_all(run, dataset, tracing=False)
    run.e2e_metric("setup_s", setup, "s")
    run.e2e_metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    run.op_metrics(*(untraced[name]["step_s"] for name in OPS))
    for name, res in untraced.items():
        run.detail(f"train.{name}.img_per_s", BATCH / common.median(res["step_s"]), "img/s")
        run.record["computed"][f"tensor.{name}.conv"] = res["counts"]
    run.record["losses"] = {name: res["losses"] for name, res in untraced.items()}
    run.digest("losses", common.sha(repr(run.record["losses"])))

    if not run.trace:
        return
    traced = train_all(run, dataset, tracing=True)
    for name, res in traced.items():
        run.check(res["losses"] == untraced[name]["losses"],
                  f"{name}: traced losses differ from untraced losses")
        res["tracer"].dump(run.out_prefix + "-spans.jsonl", name)
    layer_metrics(run, traced, sgemm_gflops)
    run.layer_metric("data.dataset_mb", sum(a.nbytes for a in (
        dataset.images, dataset.labels, dataset.onehots)) / common.MB, "MB")
    run.traced_op_metrics(tuple(untraced[n]["step_s"] for n in OPS),
                          tuple(traced[n]["step_s"] for n in OPS),
                          [traced[n]["tracer"] for n in OPS])
