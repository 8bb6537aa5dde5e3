"""ingest_tree: FER-2013 CSV ingest and the CART baseline, with no conv at all.

Parses a seeded ``emotion,pixels,Usage`` CSV with ``data.parse_fer_csv``,
splits it with ``data.split_dataset``, fits ``tree.fit_tree`` with the
default ``TreeConfig`` (all 2304 features, ``min_samples_split=40``) on the
training split and runs ``tree.predict_tree`` over the test split. The
three phases repeat in turn on the same input. op1 is one ``fit_tree``,
op2 one ``parse_fer_csv`` with its ``split_dataset``, op3 one
``predict_tree`` pass over the test split. The images carry a weak class
signal spread over many pixels (``inputs.fer_pixels``), so the tree grows
deep and uneven, as on faces.
"""

import math
import os
import time

import numpy as np

from fer_forge import data as D
from fer_forge import tree as TR

import common
import inputs
from tracer import Tracer

ROWS = 2000
TRAIN_ROWS = 600  # one default fit on these takes about 6 s
PARSES = 3  # parse+split passes per cycle; one pass takes about a second
MIN_TEST_ACCURACY = 0.5  # chance is 1/7; a fit on this data scores about 0.75


def cycles(seconds: float) -> int:
    """Parse-fit-predict cycles per run, so that a run takes about ``seconds``."""
    return max(3, round(seconds / 10))


def predict_passes(seconds: float) -> int:
    """Passes over the test split after each parse, so that op3 runs often enough."""
    return math.ceil(common.MIN_OP3_CALLS / (cycles(seconds) * PARSES))


def make_inputs(run) -> dict:
    rng = np.random.default_rng([run.seed, 3])
    pixels, labels = inputs.fer_pixels(rng, ROWS)
    usage = inputs.usage_tags(rng, ROWS, TRAIN_ROWS)
    path = os.path.join(run.tmp, "fer.csv")
    inputs.write_fer_csv(path, pixels, labels, usage)
    return {"csv": path, "pixels": pixels.reshape(ROWS, -1), "labels": labels, "usage": usage}


def depth(node) -> int:
    return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))


def walk_lines(lines: list[str], x: np.ndarray) -> np.ndarray:
    """Classes for the rows of ``x`` from the tree text, all rows at once.

    An oracle for ``predict_tree`` that shares none of its code.
    """
    feature, threshold, child, leaf_class = [], [], [], []
    rows = iter(lines)

    def parse() -> int:
        parts = next(rows).split()
        i = len(feature)
        feature.append(int(parts[1]) if parts[0] == "I" else -1)
        threshold.append(float(parts[2]) if parts[0] == "I" else 0.0)
        child.append([i, i])
        leaf_class.append(int(parts[1]) if parts[0] == "L" else -1)
        if parts[0] == "I":
            child[i] = [parse(), parse()]
        return i

    parse()
    feature, threshold = np.array(feature), np.array(threshold)
    child, leaf_class = np.array(child), np.array(leaf_class)
    at = np.zeros(len(x), dtype=np.int64)
    while (feature[at] >= 0).any():
        value = x[np.arange(len(x)), np.maximum(feature[at], 0)]
        at = child[at, (value > threshold[at]).astype(np.int64)]
    return leaf_class[at]


def check_tree(run, lines: list[str], train, test, preds: list[int]):
    leaves = np.array([[int(c) for c in line.split()[2:]] for line in lines if line[0] == "L"])
    class_counts = np.bincount(train.labels, minlength=inputs.NUM_CLASSES)
    run.check(np.array_equal(leaves.sum(axis=0), class_counts),
              "fit: leaf class counts do not add up to the training labels")
    # predict_tree and fit_tree read normalized images in pixel units
    x = test.images.reshape(len(test), -1).astype(np.float64) * 255.0
    run.check(np.array_equal(preds, walk_lines(lines, x)),
              "predict_tree: classes differ from a walk of the tree text")
    accuracy = float(np.mean(np.asarray(preds) == test.labels))
    run.check(accuracy >= MIN_TEST_ACCURACY, f"predict_tree: test accuracy {accuracy:.2f}")
    return accuracy


def check_records(run, records, inp: dict):
    run.check(len(records) == ROWS, f"parse: {len(records)} rows, wrote {ROWS}")
    run.check(np.array_equal([r.emotion for r in records], inp["labels"]),
              "parse: labels differ from the file")
    run.check(np.array_equal(np.stack([r.pixels for r in records]), inp["pixels"]),
              "parse: pixels differ from the file")
    run.check([r.usage for r in records] == inp["usage"].tolist(),
              "parse: usage tags differ from the file")


def measure(run, inp: dict, tracer: Tracer | None) -> dict:
    """Cycles of parse+split, fit and predict passes, so each phase samples the whole run.

    Host speed shifts for seconds at a time, so the short predict passes
    follow every parse, not one burst per cycle, and predict throughput is
    taken over all of them.
    """
    if tracer is not None:
        tracer.patch_function(D, "parse_fer_csv", "data.parse_fer_csv")
        tracer.patch_function(D, "split_dataset", "data.split_dataset")
        tracer.patch_function(TR, "fit_tree", "tree.fit_tree")
        tracer.patch_function(TR, "predict_tree", "tree.predict_tree")
    parse_s, fit_s, predict_s = [], [], []
    lines = None
    try:
        for _ in range(cycles(run.seconds)):
            for parse in range(PARSES):
                t0 = time.perf_counter()
                records = D.parse_fer_csv(inp["csv"])
                train, test = D.split_dataset(records)
                parse_s.append(time.perf_counter() - t0)
                check_records(run, records, inp)
                del records

                if parse == 0:
                    t0 = time.perf_counter()
                    root = TR.fit_tree(train.images, train.labels)
                    fit_s.append(time.perf_counter() - t0)
                    fitted = TR.tree_to_lines(root)
                    lines = lines or fitted
                    run.check(fitted == lines, "fit: tree differs between repetitions")

                for i in range(predict_passes(run.seconds)):
                    t0 = time.perf_counter()
                    preds = [TR.predict_tree(root, x) for x in test.images]
                    predict_s.append(time.perf_counter() - t0)
                    if i == 0:
                        accuracy = check_tree(run, fitted, train, test, preds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.check(TR.tree_to_lines(TR.tree_from_lines(lines)) == lines,
              "tree_from_lines(tree_to_lines(t)) does not round-trip")
    dataset_bytes = sum(a.nbytes for ds in (train, test)
                        for a in (ds.images, ds.labels, ds.onehots))
    return {"parse_s": parse_s, "fit_s": fit_s, "predict_s": predict_s, "lines": lines,
            "depth": depth(root), "test_rows": len(test), "dataset_bytes": dataset_bytes,
            "test_accuracy": accuracy}


def ops(res: dict) -> tuple:
    return res["fit_s"], res["parse_s"], res["predict_s"]


def main(run, sgemm_gflops: float):
    inp = make_inputs(run)
    setup, probes = common.setup_seconds("ingest_tree", [])
    run.record["setup_probes_s"] = probes
    run.record["peak_rss_mb_before_workload"] = common.peak_rss_mb()

    res = measure(run, inp, None)
    run.e2e_metric("setup_s", setup, "s")
    run.e2e_metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    run.op_metrics(*ops(res))
    run.detail("ingest.rows_per_s", ROWS / common.median(res["parse_s"]), "rows/s")
    run.detail("tree.fit_s", common.median(res["fit_s"]), "s")
    run.detail("tree.predict_img_per_s",
               res["test_rows"] * len(res["predict_s"]) / sum(res["predict_s"]), "img/s")
    run.digest("tree_to_lines", common.sha("\n".join(res["lines"])))
    run.record["computed"]["tree.nodes"] = len(res["lines"])
    run.record["computed"]["tree.depth"] = res["depth"]
    run.record["test_accuracy"] = res["test_accuracy"]

    if not run.trace:
        return
    tracer = Tracer()
    traced = measure(run, inp, tracer)
    run.check(traced["lines"] == res["lines"], "traced tree differs from untraced tree")
    tracer.dump(run.out_prefix + "-spans.jsonl", "ingest_tree")
    run.detail("data.parse_fer_csv.s", common.median(tracer.durations("data.parse_fer_csv")), "s")
    run.detail("data.split_dataset.s", common.median(tracer.durations("data.split_dataset")), "s")
    run.detail("tree.predict_tree.us_per_img",
               1e6 * common.median(tracer.durations("tree.predict_tree")), "us")
    run.layer_metric("data.dataset_mb", traced["dataset_bytes"] / common.MB, "MB")
    run.layer_metric("tree.nodes", len(traced["lines"]), "count")
    run.layer_metric("tree.depth", traced["depth"], "count")
    run.traced_op_metrics(ops(res), ops(traced), [tracer])
