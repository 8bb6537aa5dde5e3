"""Command-line entry point for the full pipeline.

Subcommands: train, sweep, eval, predict, detect, gradcheck, histogram.
Settings come from flat key=value manifest files, CLI flags, or both;
flags win. Exit codes are stable: 0 success, 1 computational failure,
2 usage or input error.
"""

import argparse
import importlib.resources
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as D
from . import facedetect as fd
from . import models as M
from . import train as T
from . import tree as tr
from .gradcheck import TOLERANCE, gradcheck_architecture
from .optim import OptimizerConfig
from .seeding import DEFAULT_SEED

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

MODEL_NAMES = ("tree", *M.ARCHITECTURE_SPECS)
DEFAULT_LR = {"sgd": 0.01, "rmsprop": 0.001, "adam": 0.001}
SWEEP_COLUMNS = ("model", "optimizer", "batch", "epochs", "lr", "decay", "accuracy", "error")

_RUN_KEYS = {
    "model": str,
    "data": str,
    "out": str,
    "seed": int,
    "strict_epoch_eval": lambda s: s.lower() in ("1", "true", "yes"),
}
MANIFEST_KEYS = {  # command -> the keys its manifest may set, each with its value parser
    "train": {**_RUN_KEYS, "optimizer": str, "lr": float, "decay": float, "batch": int,
              "epochs": int},
    "sweep": {**_RUN_KEYS, "cell": str},
}


class UsageError(Exception):
    """Bad flags, missing files or malformed inputs; maps to exit code 2."""


def parse_manifest(path: str, command: str) -> dict:
    """Flat key = value file of ``command``'s keys; repeated ``cell`` keys accumulate into a list."""
    if not os.path.isfile(path):
        raise UsageError(f"manifest not found: {path}")
    keys = MANIFEST_KEYS[command]
    settings: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise UsageError(D.first_non_utf8(path)) from None
    for line_num, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_num}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise UsageError(f"{path}:{line_num}: unknown key {key!r} for {command}")
        if key == "cell":
            settings.setdefault("cell", []).append(value)
            continue
        if key in settings:
            raise UsageError(f"{path}:{line_num}: duplicate key {key!r}")
        try:
            settings[key] = keys[key](value)
        except ValueError:
            raise UsageError(f"{path}:{line_num}: bad value {value!r} for {key}") from None
    return settings


def _merge(args, manifest: dict, key: str, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return manifest.get(key, default)


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise UsageError(f"missing required {what}")
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _load_pipeline_model(path: str | None) -> M.Network:
    """A saved model that takes the pipeline's [1,48,48] images and scores its 7 emotions."""
    net = M.load_model(_require_file(path, "model file"))
    if (net.input_shape, net.num_classes) != (M.INPUT_SHAPE, D.NUM_CLASSES):
        raise UsageError(f"model file {path} takes input {list(net.input_shape)} and gives "
                         f"{net.num_classes} classes; the pipeline needs input "
                         f"{list(M.INPUT_SHAPE)} and {D.NUM_CLASSES} classes")
    return net


def _load_split(data_path: str, seed: int):
    records = D.parse_fer_csv(data_path)
    if not records:
        raise UsageError(f"dataset {data_path} contains no records")
    return D.split_dataset(records, seed=seed)


def _run_settings(args, manifest: dict):
    """The split, output directory, seed and strict-eval flag of a train or sweep."""
    data_path = _require_file(_merge(args, manifest, "data"), "dataset")
    out = _merge(args, manifest, "out")
    if not out:
        raise UsageError("missing required output directory (--out)")
    seed = _merge(args, manifest, "seed", DEFAULT_SEED)
    train_ds, test_ds = split = _load_split(data_path, seed)
    if not (len(train_ds) and len(test_ds)):
        raise UsageError(f"dataset {data_path} splits into {len(train_ds)} training and "
                         f"{len(test_ds)} test records; training needs both")
    return split, out, seed, _merge(args, manifest, "strict_epoch_eval")


def _given(**settings) -> dict:
    """The settings that are set; the config classes hold every other default."""
    return {key: value for key, value in settings.items() if value is not None}


def _train_config(cell: dict, seed: int, strict) -> T.TrainConfig:
    optimizer = cell["optimizer"].lower()
    if optimizer not in DEFAULT_LR:
        raise UsageError(f"unknown optimizer {optimizer!r}")
    lr = DEFAULT_LR[optimizer] if cell["lr"] is None else cell["lr"]
    try:
        opt = OptimizerConfig(kind=optimizer, learning_rate=lr, **_given(decay=cell["decay"]))
        return T.TrainConfig(opt, seed=seed, **_given(
            batch_size=cell["batch"], max_epochs=cell["epochs"], strict_epoch_eval=strict))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def run_cell(cell: dict, split, out: str, seed: int, strict) -> float:
    """Fit one cell's model on a (train, test) split, write its files under ``out``,
    print a network's stop line and return its test accuracy. Unset (None) cell
    fields take the config defaults."""
    train_ds, test_ds = split
    os.makedirs(out, exist_ok=True)
    if cell["model"] == "tree":
        root = tr.fit_tree(train_ds.images, train_ds.labels, tr.TreeConfig())
        tr.save_tree(root, os.path.join(out, "tree.txt"))
        preds = [tr.predict_tree(root, image) for image in test_ds.images]
        return T.accuracy(preds, test_ds.labels)
    cfg = _train_config(cell, seed, strict)
    net = M.Network(M.ARCHITECTURE_SPECS[cell["model"]](), seed=seed)
    net, logs, stop_reason = T.train(net, train_ds, cfg)
    M.save_model(net, os.path.join(out, f"{cell['model']}.femo"))
    with open(os.path.join(out, "epochs.csv"), "w", encoding="utf-8") as fh:
        fh.write(T.epoch_logs_csv(logs))
    test_acc, _, _ = T.evaluate(net, test_ds)
    print(f"stop_reason={stop_reason} epochs_ran={len(logs)}")
    return test_acc


def cmd_train(args) -> int:
    manifest = parse_manifest(args.manifest, "train") if args.manifest else {}
    cell = {key: _merge(args, manifest, key) for key in ("model", "batch", "epochs", "lr", "decay")}
    if cell["model"] not in MODEL_NAMES:
        raise UsageError(f"--model must be one of {MODEL_NAMES}, got {cell['model']!r}")
    cell["optimizer"] = _merge(args, manifest, "optimizer", "adam")
    split, out, seed, strict = _run_settings(args, manifest)
    test_acc = run_cell(cell, split, out, seed, strict)
    line = f"test_accuracy={test_acc:.4f}"
    with open(os.path.join(out, "result.txt"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return EXIT_OK


def _parse_cell(raw: str, default_model: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) == 6:
        model, parts = parts[0], parts[1:]
    elif len(parts) == 5:
        model = default_model
    else:
        raise UsageError(f"bad cell {raw!r}: want [model,]optimizer,batch,epochs,lr,decay")
    if model not in MODEL_NAMES:
        raise UsageError(f"bad cell {raw!r}: unknown model {model!r}")
    try:
        return {
            "model": model,
            "optimizer": parts[0],
            "batch": int(parts[1]),
            "epochs": int(parts[2]),
            "lr": float(parts[3]),
            "decay": float(parts[4]),
        }
    except ValueError:
        raise UsageError(f"bad cell {raw!r}: non-numeric field") from None


def load_default_grid() -> dict:
    grid = importlib.resources.files("fer_forge") / "manifests" / "default_sweep.manifest"
    with importlib.resources.as_file(grid) as path:
        return parse_manifest(str(path), "sweep")


def cmd_sweep(args) -> int:
    manifest = parse_manifest(args.manifest, "sweep") if args.manifest else load_default_grid()
    default_model = _merge(args, manifest, "model", "proposed_cnn")
    cells = [_parse_cell(raw, default_model) for raw in manifest.get("cell", [])]
    split, out, seed, strict = _run_settings(args, manifest)

    os.makedirs(out, exist_ok=True)
    results = []
    for i, cell in enumerate(cells):
        tag = f"cell_{i:02d}_{cell['model']}_{cell['optimizer']}_b{cell['batch']}_e{cell['epochs']}"
        try:
            acc = run_cell(cell, split, os.path.join(out, tag), seed, strict)
            results.append({**cell, "accuracy": f"{acc:.4f}", "error": ""})
        except Exception as exc:  # per-cell failures must not kill the sweep
            results.append({**cell, "accuracy": "", "error": str(exc)})

    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(str(r[column]) for column in SWEEP_COLUMNS) for r in results]
    sweep_csv = "\n".join(lines) + "\n"
    with open(os.path.join(out, "sweep_results.csv"), "w", encoding="utf-8") as fh:
        fh.write(sweep_csv)
    print(sweep_csv, end="")

    if len({r["model"] for r in results}) > 1:
        best: dict[str, float] = {}
        for r in results:
            if r["accuracy"]:
                best[r["model"]] = max(best.get(r["model"], 0.0), float(r["accuracy"]))
        rows = ["model,accuracy"] + [f"{m},{best[m]:.4f}" for m in sorted(best)]
        with open(os.path.join(out, "model_comparison.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    net = _load_pipeline_model(args.model_file)
    data_path = _require_file(args.data, "dataset")
    _, test_ds = _load_split(data_path, args.seed if args.seed is not None else DEFAULT_SEED)
    if len(test_ds) == 0:
        raise UsageError("dataset has no test records")
    acc, probs, preds = T.evaluate(net, test_ds)
    matrix = T.confusion(preds, test_ds.labels)
    top2 = T.topk_accuracy(probs, test_ds.labels, k=2)
    print(f"test_accuracy={acc:.4f}")
    print(f"top2_accuracy={top2:.4f}")
    print(matrix.to_table())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "confusion.csv"), "w", encoding="utf-8") as fh:
            fh.write(matrix.to_csv())
        with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(f"accuracy,top2\n{acc:.6f},{top2:.6f}\n")
    return EXIT_OK


def _image_to_input(image: np.ndarray) -> np.ndarray:
    """Full-frame preprocessing: grayscale, 48x48 downscale, [0,1] range."""
    h, w = image.shape[:2]
    box = fd.Detection(0, 0, w, h, neighbors=0)
    return fd.preprocess_face(image, box)


def cmd_predict(args) -> int:
    net = _load_pipeline_model(args.model_file)
    image_path = _require_file(args.image, "image")
    probs = net.predict(_image_to_input(fd.read_pnm(image_path)))
    ranked = sorted(zip(D.EMOTION_NAMES, probs), key=lambda kv: (-kv[1], kv[0]))
    for name, p in ranked:
        print(f"{name} {p:.6f}")
    print(f"top1={ranked[0][0]}")
    print(f"top2={ranked[1][0]}")
    return EXIT_OK


def _print_scan_row(scale, size, windows, survivors):
    """One ``detect --stats`` CSV row: a scale's windows and stage survivors."""
    print(",".join(map(str, [f"{scale:.6g}", *size, windows, *survivors])), file=sys.stderr)


def cmd_detect(args) -> int:
    cascade_path = _require_file(args.cascade, "cascade file")
    image_path = _require_file(args.image, "image")
    net = _load_pipeline_model(args.model_file) if args.model_file else None
    cascade = fd.load_cascade(cascade_path)
    image = fd.read_pnm(image_path)
    gray = fd.to_grayscale(image)
    on_scale = None
    if args.stats:
        stages = [f"stage{i}_survivors" for i in range(len(cascade.stages))]
        print(",".join(["scale", "win_w", "win_h", "windows", *stages]), file=sys.stderr)
        on_scale = _print_scan_row
    detections = fd.detect(cascade, gray, scale_factor=args.scale_factor,
                           min_neighbors=args.min_neighbors, on_scale=on_scale)
    header, *rows = fd.detections_csv(detections).splitlines()
    if net is not None:
        # a mean box can end a pixel past the frame, so its part inside is classified
        height, width = image.shape[:2]
        faces = [replace(det, w=min(det.w, width - det.x), h=min(det.h, height - det.y))
                 for det in detections]
        header += "," + ",".join(D.EMOTION_NAMES)
        rows = [row + "," + ",".join(f"{p:.6f}" for p in net.predict(fd.preprocess_face(image, face)))
                for row, face in zip(rows, faces)]
    print("\n".join([header, *rows]))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.model == "tree":
        raise UsageError("gradcheck applies to the neural architectures only")
    report = gradcheck_architecture(
        args.model, seed=args.seed if args.seed is not None else DEFAULT_SEED)
    for entry in report.entries:
        status = "pass" if entry.error < TOLERANCE else "FAIL"
        print(f"{entry.label} rel_err={entry.error:.3e} {status}")
    worst = report.worst
    print(f"worst: {worst.label} ({worst.worst_part}) rel_err={worst.error:.3e} "
          f"tolerance={TOLERANCE:g}")
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_histogram(args) -> int:
    data_path = _require_file(args.data, "dataset")
    records = D.parse_fer_csv(data_path)
    csv_text = D.histogram_csv([record.emotion for record in records])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    return EXIT_OK


def _at_least(kind, low, *, strict=False):
    """An argparse type: a ``kind`` value >= ``low``, or > ``low`` when strict."""
    def parse(raw: str):
        value = kind(raw)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {raw}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names the type
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fer-forge",
        description="Facial emotion recognition pipeline: training, evaluation and detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, model=False, data=False, out=False):
        if model:
            p.add_argument("--model", choices=MODEL_NAMES)
        if data:
            p.add_argument("--data", help="FER-2013 style CSV")
        if out:
            p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)

    p_train = sub.add_parser("train", help="train one model and report test accuracy")
    add_common(p_train, model=True, data=True, out=True)
    p_train.add_argument("--manifest", help="key = value settings file; flags win")
    p_train.add_argument("--optimizer", choices=sorted(DEFAULT_LR))
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--decay", type=float)
    p_train.add_argument("--batch", type=_at_least(int, 1))
    p_train.add_argument("--epochs", type=_at_least(int, 0))
    p_train.add_argument("--strict-epoch-eval", dest="strict_epoch_eval",
                         action="store_const", const=True)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a grid of training cells")
    add_common(p_sweep, model=True, data=True, out=True)
    p_sweep.add_argument("--manifest", help="grid manifest with repeated cell = lines")
    p_sweep.add_argument("--strict-epoch-eval", dest="strict_epoch_eval",
                         action="store_const", const=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on the test split")
    add_common(p_eval, data=True, out=True)
    p_eval.add_argument("--model-file", dest="model_file", help="saved .femo model")
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="classify one PGM/PPM face image")
    p_predict.add_argument("--model-file", dest="model_file")
    p_predict.add_argument("--image")
    p_predict.set_defaults(func=cmd_predict)

    p_detect = sub.add_parser("detect", help="find faces; optionally classify each")
    p_detect.add_argument("--cascade")
    p_detect.add_argument("--image")
    p_detect.add_argument("--model-file", dest="model_file")
    p_detect.add_argument("--min-neighbors", dest="min_neighbors", type=_at_least(int, 0),
                          default=3)
    p_detect.add_argument("--scale-factor", dest="scale_factor",
                          type=_at_least(float, 1.0, strict=True), default=1.1)
    p_detect.add_argument("--stats", action="store_true",
                          help="per-scale windows and stage survivors as CSV on stderr")
    p_detect.set_defaults(func=cmd_detect)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all layers")
    p_grad.add_argument("--model", choices=MODEL_NAMES, required=True)
    add_common(p_grad)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_hist = sub.add_parser("histogram", help="per-class sample counts as CSV")
    p_hist.add_argument("--data")
    p_hist.add_argument("--out")
    p_hist.set_defaults(func=cmd_histogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, D.DataFormatError, fd.PnmFormatError, fd.CascadeFormatError,
            M.ModelFileError, FileNotFoundError, NotADirectoryError, IsADirectoryError,
            FileExistsError) as exc:  # an input missing or an output path of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # computational failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
