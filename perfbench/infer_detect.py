"""infer_detect: what ``eval`` and ``detect --model-file`` do.

Loads a seeded proposed_cnn ``.femo``, then repeats a cycle: read one
seeded 320x240 PGM frame, run ``facedetect.detect`` with the CLI defaults
(scale factor 1.1, 3 neighbours) and a seeded two-stage cascade, classify
crops one at a time with ``Network.predict``, and run ``train.evaluate``
over a seeded test set at its default batch of 64. Crops are the
detections plus seeded boxes, so there are enough batch-1 samples for a
p90. op1 is ``detect`` on one frame, grouping included; op2 is one
``evaluate`` of the test set; op3 is one batch-1 ``predict``.
"""

import math
import os
import time

import numpy as np

from fer_forge import data as D
from fer_forge import facedetect as fd
from fer_forge import models as M
from fer_forge import train as T

import common
import inputs
from tracer import Tracer

EVAL_IMAGES = 128
EVAL_BATCH = 64  # train.evaluate's default
SCALE_FACTOR = 1.1
MIN_NEIGHBORS = 3
MIN_IOU = 0.5
CHECK_IMAGES = 8
PREDICT_TOLERANCE = 1e-5


def cycles(seconds: float) -> int:
    """Evaluate-detect-predict cycles per run, so that a run takes about ``seconds``."""
    return max(2, round(seconds / 9))


def crops_per_cycle(seconds: float) -> int:
    return math.ceil(max(100, 4 * seconds) / cycles(seconds))


def make_inputs(run) -> dict:
    """One frame and its seeded crop boxes per cycle, the model and the test set."""
    rng = np.random.default_rng([run.seed, 2])
    model_path = os.path.join(run.tmp, "proposed_cnn.femo")
    M.save_model(M.build_proposed_cnn(seed=run.seed), model_path)
    pixels, labels = inputs.fer_pixels(rng, EVAL_IMAGES)
    test = D.LabeledDataset.from_records(
        D.FerRecord(int(y), p.reshape(-1), "PublicTest") for p, y in zip(pixels, labels))
    cascade_path = os.path.join(run.tmp, "cascade.json")
    inputs.write_cascade(cascade_path, inputs.cascade_doc(rng))
    frames = []
    for i in range(cycles(run.seconds)):
        image, planted = inputs.frame(rng)
        path = os.path.join(run.tmp, f"frame{i}.pgm")
        fd.write_pnm(path, image)
        frames.append((path, planted, inputs.crop_boxes(rng, crops_per_cycle(run.seconds))))
    return {"model": model_path, "cascade": cascade_path, "test": test, "frames": frames}


def window_count(cascade, width: int, height: int) -> int:
    """Windows ``detect`` evaluates on a frame, from its scale loop."""
    total, scale = 0, 1.0
    while True:
        win_w = int(round(cascade.window_w * scale))
        win_h = int(round(cascade.window_h * scale))
        if win_w > width or win_h > height:
            return total
        step = max(1, int(round(scale)))
        total += len(range(0, height - win_h + 1, step)) * len(range(0, width - win_w + 1, step))
        scale *= SCALE_FACTOR


def install(tracer: Tracer, net):
    tracer.trace_layers(net, "net")
    tracer.patch(net, "predict", tracer.wrap("models.predict", net.predict))
    tracer.patch_function(T, "evaluate", "train.evaluate")
    for name in ("read_pnm", "detect", "integral_image", "preprocess_face"):
        tracer.patch_function(fd, name, f"facedetect.{name}")

    def count_hits(args, result):
        tracer.count("facedetect.hits", len(args[0]))
        tracer.count("facedetect.detections", len(result))

    tracer.patch_function(fd, "group_hits", "facedetect.group_hits", count_hits)


def measure(run, inp: dict, tracer: Tracer | None) -> dict:
    """Load, then cycles of detect one frame, predict half its crops,
    evaluate and predict the other half.

    Each phase runs in every cycle, so its samples spread over the run;
    the crops are split because host speed shifts for seconds at a time.
    """
    if tracer is not None:
        tracer.patch_function(M, "load_model", "models.load_model")
    net = M.load_model(inp["model"])
    cascade = fd.load_cascade(inp["cascade"])
    test = inp["test"]
    if tracer is not None:
        tracer.uninstall()
    T.evaluate(net, test.subset(range(EVAL_BATCH)))  # warm-ups, untraced
    net.predict(test.images[0])
    if tracer is not None:
        install(tracer, net)

    eval_s, detect_s, predict_s = [], [], []
    label_digests, frame_digests, best_ious = set(), [], []

    def predict_crops(crops):
        for crop in crops:
            t0 = time.perf_counter()
            probs = net.predict(crop)
            predict_s.append(time.perf_counter() - t0)
            run.check(bool(np.isfinite(probs).all()) and abs(float(probs.sum()) - 1.0) < 1e-4,
                      "predict: probabilities are not a distribution")

    cache = 0
    try:
        for path, planted, boxes in inp["frames"]:
            image = fd.read_pnm(path)
            gray = fd.to_grayscale(image)
            t0 = time.perf_counter()
            dets = fd.detect(cascade, gray, scale_factor=SCALE_FACTOR, min_neighbors=MIN_NEIGHBORS)
            detect_s.append(time.perf_counter() - t0)
            frame_digests.append(common.sha(fd.detections_csv(dets)))
            for box in planted:
                best = max((inputs.iou(box, (d.x, d.y, d.w, d.h)) for d in dets), default=0.0)
                best_ious.append(best)
                run.check(best >= MIN_IOU, f"detect: planted pattern {box} best IoU {best:.2f}")

            crops = [fd.preprocess_face(image, d) for d in dets]
            crops += [fd.preprocess_face(image, fd.Detection(*box, neighbors=0))
                      for box in boxes[: max(0, len(boxes) - len(crops))]]
            predict_crops(crops[: len(crops) // 2])

            t0 = time.perf_counter()
            _, probs, preds = T.evaluate(net, test)
            eval_s.append(time.perf_counter() - t0)
            run.check(bool(np.isfinite(probs).all()), "evaluate: non-finite probabilities")
            label_digests.add(common.sha(repr(preds.tolist())))
            eval_probs = probs
            cache = sum(common.cache_bytes(layer._cache) for layer in net.layers)

            predict_crops(crops[len(crops) // 2 :])
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.check(len(label_digests) == 1, "evaluate: labels differ between repetitions")

    # batch-1 predict and batched evaluate must agree on the same image
    for i in range(CHECK_IMAGES):
        diff = float(np.abs(net.predict(test.images[i]) - eval_probs[i]).max())
        run.check(diff <= PREDICT_TOLERANCE, f"predict/evaluate differ by {diff:.2e} on image {i}")
    return {"eval_s": eval_s, "detect_s": detect_s, "predict_s": predict_s,
            "labels": label_digests.pop(), "frames": frame_digests, "best_iou": best_ious,
            "windows": window_count(cascade, gray.shape[1], gray.shape[0]),
            "cache_bytes": cache, "conv": common.conv_counts(net, EVAL_IMAGES),
            "evaluate_batches": math.ceil(len(test) / EVAL_BATCH) * len(eval_s)}


def details(res: dict) -> dict[str, tuple[float, str]]:
    return {
        "infer.img_per_s": (EVAL_IMAGES / common.median(res["eval_s"]), "img/s"),
        "predict.p50_ms": (1000.0 * common.percentile(res["predict_s"], 50), "ms"),
        "predict.p90_ms": (1000.0 * common.percentile(res["predict_s"], 90), "ms"),
        "detect.ms_per_frame": (1000.0 * common.median(res["detect_s"]), "ms"),
    }


def ops(res: dict) -> tuple:
    return res["detect_s"], res["eval_s"], res["predict_s"]


def layer_metrics(run, tr: Tracer, res: dict, model_path: str, sgemm_gflops: float):
    frames = len(res["detect_s"])
    calls = {"train.evaluate": res["evaluate_batches"], "models.predict": len(res["predict_s"])}
    family = {"train.evaluate": "infer", "models.predict": "predict"}
    fwd: dict[tuple[str, str], float] = {}
    for i in tr.spans_with_prefix("layers.net."):
        caller = tr.root_name(i)
        key = (caller, tr.names[i].split(".")[2])
        fwd[key] = fwd.get(key, 0.0) + tr.ends[i] - tr.starts[i]
    for (caller, kind), s in fwd.items():
        run.detail(f"layers.{family[caller]}.{kind}.fwd_ms", 1000.0 * s / calls[caller], "ms")
    conv_s = fwd[("train.evaluate", "conv2d")] / len(res["eval_s"])
    rate = res["conv"]["gflop_forward"] / conv_s
    run.layer_metric("tensor.conv_gflop_per_s", rate, "GFLOP/s")
    run.layer_metric("tensor.conv_peak_frac", rate / sgemm_gflops, "ratio")
    run.layer_metric("layers.cache_mb", res["cache_bytes"] / common.MB, "MB")

    selfs = tr.self_times()
    run.detail("models.load_model.ms", 1000.0 * tr.durations("models.load_model")[0], "ms")
    run.detail("models.femo_mb", os.path.getsize(model_path) / common.MB, "MB")
    run.detail("train.evaluate.s", common.median(tr.durations("train.evaluate")), "s")
    for name in ("read_pnm", "preprocess_face"):
        run.detail(f"facedetect.{name}.ms",
                   1000.0 * common.median(tr.durations(f"facedetect.{name}")), "ms")
    for name in ("integral_image", "group_hits"):
        run.detail(f"facedetect.{name}.ms", 1000.0 * selfs[f"facedetect.{name}"] / frames, "ms")
    run.detail("facedetect.scan.ms", 1000.0 * selfs["facedetect.detect"] / frames, "ms")
    hits = tr.counts["facedetect.hits"] / frames
    run.layer_metric("facedetect.windows", res["windows"], "count")
    run.layer_metric("facedetect.hits", hits, "count")
    run.layer_metric("facedetect.detections", tr.counts["facedetect.detections"] / frames, "count")
    run.layer_metric("facedetect.hit_frac", hits / res["windows"], "ratio")


def main(run, sgemm_gflops: float):
    inp = make_inputs(run)
    setup, probes = common.setup_seconds("infer_detect", [inp["model"], inp["cascade"]])
    run.record["setup_probes_s"] = probes
    run.record["peak_rss_mb_before_workload"] = common.peak_rss_mb()

    res = measure(run, inp, None)
    run.e2e_metric("setup_s", setup, "s")
    run.e2e_metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    run.op_metrics(*ops(res))
    for name, (value, unit) in details(res).items():
        run.detail(name, value, unit)
    run.digest("evaluate_labels", res["labels"])
    run.digest("detections_csv", res["frames"])
    run.record["planted_best_iou"] = res["best_iou"]
    run.record["computed"]["facedetect.windows"] = res["windows"]

    if not run.trace:
        return
    tracer = Tracer()
    traced = measure(run, inp, tracer)
    run.check(traced["labels"] == res["labels"] and traced["frames"] == res["frames"],
              "traced outputs differ from untraced outputs")
    tracer.dump(run.out_prefix + "-spans.jsonl", "infer_detect")
    layer_metrics(run, tracer, traced, inp["model"], sgemm_gflops)
    test = inp["test"]
    run.layer_metric("data.dataset_mb", sum(a.nbytes for a in (
        test.images, test.labels, test.onehots)) / common.MB, "MB")
    run.traced_op_metrics(ops(res), ops(traced), [tracer])
