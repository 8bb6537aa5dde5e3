import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    MALFORMED_ARCHS,
    accept_all_cascade_doc,
    make_fer_csv,
    random_rows,
    reject_all_cascade_doc,
    write_arch_only,
)
import fer_forge
from fer_forge import blas
from fer_forge import facedetect as fd
from fer_forge.cli import (
    MANIFEST_KEYS,
    _parse_cell,
    build_parser,
    load_default_grid,
    main,
    parse_manifest,
)
from fer_forge.facedetect import write_pnm
from fer_forge.layers import LayerSpec
from fer_forge.models import Network, build_feedforward, build_simple_cnn, save_model


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(make_fer_csv(random_rows(18, seed=0)))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = str(tmp_path / "model.femo")
    save_model(build_feedforward(seed=1), path)
    return path


@pytest.fixture
def face_pgm(tmp_path):
    path = str(tmp_path / "face.pgm")
    img = np.random.default_rng(2).integers(0, 256, (48, 48)).astype(np.uint8)
    write_pnm(path, img)
    return path


# runs the CLI in a child that first restricts itself to the cores in argv[1]
PINNED_CLI = ("import os, sys; os.sched_setaffinity(0, map(int, sys.argv[1].split(','))); "
              "from fer_forge.cli import main; sys.exit(main(sys.argv[2:]))")


def run(*argv):
    return main(list(argv))


def exit_code(argv):
    """``main``'s return code, or the status of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


BAD_VALUES = [  # argv ({data}, {out}, {cascade}, {image} filled in), the flag stderr names
    pytest.param("train --model ffnn --data {data} --out {out} --batch 0", "--batch",
                 id="train-batch-0"),
    pytest.param("train --model ffnn --data {data} --out {out} --epochs -1", "--epochs",
                 id="train-epochs-negative"),
    pytest.param("train --model ffnn --data {data} --out {out} --batch x", "--batch",
                 id="train-batch-not-a-number"),
    pytest.param("gradcheck", "--model", id="gradcheck-no-model"),
    pytest.param("detect --cascade {cascade} --image {image} --scale-factor 1.0",
                 "--scale-factor", id="detect-scale-factor-1"),
    pytest.param("detect --cascade {cascade} --image {image} --min-neighbors -5",
                 "--min-neighbors", id="detect-min-neighbors-negative"),
]


@pytest.mark.parametrize("argv,flag", BAD_VALUES)
def test_bad_flag_value_exits_2_naming_the_flag(tmp_path, dataset_csv, face_pgm, capsys, argv, flag):
    cascade = tmp_path / "cascade.json"
    cascade.write_text(json.dumps(accept_all_cascade_doc()))
    out = tmp_path / "out"
    argv = argv.format(data=dataset_csv, out=out, cascade=cascade, image=face_pgm).split()
    assert exit_code(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


WRONG_KIND_OUTPUTS = [  # argv ({data}, {file}, {dir} filled in), the path stderr names
    pytest.param("train --model tree --data {data} --out {file}/sub", "{file}/sub",
                 id="train-out-under-a-file"),
    pytest.param("sweep --model tree --data {data} --out {file}", "{file}", id="sweep-out-a-file"),
    pytest.param("histogram --data {data} --out {dir}", "{dir}", id="histogram-out-a-directory"),
]


@pytest.mark.parametrize("argv,path", WRONG_KIND_OUTPUTS)
def test_output_path_of_the_wrong_kind_exits_2(tmp_path, dataset_csv, capsys, argv, path):
    taken = tmp_path / "taken.txt"
    taken.write_text("a file\n")
    fill = {"data": dataset_csv, "file": taken, "dir": tmp_path}
    assert main(argv.format(**fill).split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path.format(**fill) in err


@pytest.mark.parametrize("command,line", [
    ("train", "cell = ffnn,adam,6,1,0.001,0"),
    ("sweep", "lr = 0.01"),
    ("sweep", "batch = 6"),
    ("sweep", "optimizer = sgd"),
], ids=["train-cell", "sweep-lr", "sweep-batch", "sweep-optimizer"])
def test_manifest_key_of_another_command_exits_2(tmp_path, dataset_csv, capsys, command, line):
    manifest = tmp_path / "run.manifest"
    manifest.write_text(f"model = tree\n{line}\n")
    out = tmp_path / "o"
    assert run(command, "--manifest", str(manifest), "--data", dataset_csv, "--out", str(out)) == 2
    key = line.split(" =")[0]
    assert f"{manifest}:2: unknown key {key!r} for {command}" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_manifest_exits_2_naming_the_line(tmp_path, dataset_csv, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_bytes(b"model = tree\n# caf\xe9\n")
    assert run("train", "--manifest", str(manifest), "--data", dataset_csv,
               "--out", str(tmp_path / "o")) == 2
    assert f"{manifest}:2: not UTF-8: byte 0xe9 at column 6" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


MISFIT_MODELS = {  # name -> (input_shape, num_classes, what stderr names)
    "three-classes": ((1, 48, 48), 3, "input [1, 48, 48] and gives 3 classes"),
    "8x8-input": ((1, 8, 8), 7, "input [1, 8, 8] and gives 7 classes"),
}


@pytest.mark.parametrize("command", ["eval", "predict", "detect"])
@pytest.mark.parametrize("name", sorted(MISFIT_MODELS))
def test_model_that_does_not_fit_the_pipeline_exits_2(tmp_path, dataset_csv, face_pgm, capsys,
                                                      command, name):
    input_shape, classes, named = MISFIT_MODELS[name]
    path = str(tmp_path / "misfit.femo")
    save_model(Network([LayerSpec("flatten"), LayerSpec("dense", {"units": classes}),
                        LayerSpec("softmax")], input_shape, classes), path)
    cascade = tmp_path / "cascade.json"
    cascade.write_text(json.dumps(accept_all_cascade_doc()))
    argv = {"eval": ["--data", dataset_csv], "predict": ["--image", face_pgm],
            "detect": ["--cascade", str(cascade), "--image", face_pgm]}[command]
    assert run(command, "--model-file", path, *argv) == 2
    err = capsys.readouterr().err
    assert f"model file {path} takes {named}" in err
    assert "the pipeline needs input [1, 48, 48] and 7 classes" in err


@pytest.mark.parametrize("usage", ["Training", "PublicTest"])
@pytest.mark.parametrize("argv", [["train", "--model", "ffnn"], ["train", "--model", "tree"],
                                  ["sweep"]], ids=["train-ffnn", "train-tree", "sweep"])
def test_one_sided_usage_split_exits_2_before_training(tmp_path, capsys, argv, usage):
    data = tmp_path / "one_sided.csv"
    data.write_text(make_fer_csv(random_rows(30, seed=0, usage_cycle=(usage,))))
    out = tmp_path / "o"
    assert run(*argv, "--data", str(data), "--out", str(out)) == 2
    assert f"dataset {data} splits into" in capsys.readouterr().err
    assert not out.exists()


def test_bad_manifest_value_exits_2(tmp_path, dataset_csv, capsys):
    manifest = tmp_path / "run.manifest"
    manifest.write_text(f"model = ffnn\ndata = {dataset_csv}\nout = {tmp_path / 'o'}\nbatch = 0\n")
    assert run("train", "--manifest", str(manifest)) == 2
    assert "batch size must be >= 1, got 0" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path, dataset_csv):
        out = str(tmp_path / "run")
        code = run("train", "--model", "ffnn", "--data", dataset_csv, "--out", out,
                   "--epochs", "1", "--batch", "6", "--seed", "3")
        assert code == 0
        assert os.path.isfile(os.path.join(out, "ffnn.femo"))
        assert os.path.isfile(os.path.join(out, "epochs.csv"))
        result = open(os.path.join(out, "result.txt")).read()
        assert result.startswith("test_accuracy=")

    def test_zero_epochs_saves_initialized_model(self, tmp_path, dataset_csv, capsys):
        out = str(tmp_path / "run0")
        code = run("train", "--model", "ffnn", "--data", dataset_csv, "--out", out,
                   "--epochs", "0", "--seed", "3")
        assert code == 0
        assert os.path.isfile(os.path.join(out, "ffnn.femo"))
        acc = float(capsys.readouterr().out.split("test_accuracy=")[1].strip())
        assert 0.0 <= acc <= 0.6  # untrained, near chance on a tiny test set

    def test_tree_model(self, tmp_path, dataset_csv):
        out = str(tmp_path / "tree_run")
        code = run("train", "--model", "tree", "--data", dataset_csv, "--out", out,
                   "--seed", "1")
        assert code == 0
        assert os.path.isfile(os.path.join(out, "tree.txt"))

    def test_missing_dataset_exits_2_without_outputs(self, tmp_path):
        out = str(tmp_path / "never")
        code = run("train", "--model", "ffnn", "--data", str(tmp_path / "no.csv"),
                   "--out", out)
        assert code == 2
        assert not os.path.exists(out)

    def test_malformed_dataset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("emotion,pixels,Usage\n9,1 2 3,Training\n")
        code = run("train", "--model", "ffnn", "--data", str(bad),
                   "--out", str(tmp_path / "o"))
        assert code == 2

    def test_overflowing_pixel_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(make_fer_csv(random_rows(4, seed=0))
                       + "1," + "0 " * 2303 + "99999999999,Training\n")
        code = run("train", "--model", "tree", "--data", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "row 6" in capsys.readouterr().err

    def test_manifest_settings_and_flag_override(self, tmp_path, dataset_csv):
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            f"model = ffnn\ndata = {dataset_csv}\nout = {tmp_path / 'mrun'}\n"
            "epochs = 5\nbatch = 6\nseed = 3\n"
        )
        code = run("train", "--manifest", str(manifest), "--epochs", "1")
        assert code == 0
        epochs = open(tmp_path / "mrun" / "epochs.csv").read().strip().split("\n")
        assert len(epochs) == 2  # header + the single overridden epoch

    def test_cnn_files_are_the_same_on_every_host(self, tmp_path):
        # one simple_cnn epoch on 30 training rows at batch 17: a two-shard batch, then a
        # one-shard partial batch, in child processes on one core and on every core, at
        # one and two OpenBLAS threads
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) < 2:
            pytest.skip("needs 2 usable cores")
        if blas.blas_threads() is None:
            pytest.skip("no OpenBLAS thread count to read and set")
        data = tmp_path / "data.csv"
        data.write_text(make_fer_csv(random_rows(40, seed=4, usage_cycle=(
            "Training", "Training", "Training", "PublicTest"))))
        src = os.path.dirname(os.path.dirname(fer_forge.__file__))
        runs = {}
        for on in ([cores[0]], cores):
            for threads in ("1", "2"):
                out = tmp_path / f"cores{len(on)}-blas{threads}"
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
                runs[out] = subprocess.Popen(
                    [sys.executable, "-c", PINNED_CLI, ",".join(map(str, on)), "train",
                     "--model", "simple_cnn", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--batch", "17", "--seed", "5"],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        outputs = set()
        try:
            for out, child in runs.items():
                _, err = child.communicate(timeout=120)
                assert child.returncode == 0, err
                epochs = [line.rsplit(",", 1)[0]  # all but seconds
                          for line in (out / "epochs.csv").read_text().splitlines()]
                outputs.add(((out / "simple_cnn.femo").read_bytes(), tuple(epochs)))
        finally:
            for child in runs.values():
                child.kill()
                child.wait()
        assert len(outputs) == 1

    def test_unknown_manifest_key_exits_2(self, tmp_path, dataset_csv):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("model = ffnn\nwidget = 3\n")
        code = run("train", "--manifest", str(manifest), "--data", dataset_csv,
                   "--out", str(tmp_path / "o"))
        assert code == 2

    def test_negative_lr_exits_2(self, dataset_csv, tmp_path):
        code = run("train", "--model", "ffnn", "--data", dataset_csv,
                   "--out", str(tmp_path / "o"), "--optimizer", "adam",
                   "--lr", "-1")
        assert code == 2


class TestManifestParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("# comment\nmodel = ffnn\nlr = 0.001\n")
        parsed = parse_manifest(str(path), "train")
        assert parsed["model"] == "ffnn"
        assert parsed["lr"] == 0.001
        path.write_text("# comment\nmodel = ffnn\ncell = a\ncell = b\n")
        assert parse_manifest(str(path), "sweep") == {"model": "ffnn", "cell": ["a", "b"]}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("model = ffnn\nmodel = tree\n")
        with pytest.raises(Exception, match="duplicate"):
            parse_manifest(str(path), "train")

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("model ffnn\n")
        with pytest.raises(Exception, match="key = value"):
            parse_manifest(str(path), "train")

    def test_every_key_is_a_train_or_sweep_flag(self):
        # each command accepts only keys that one of its own flags sets, or sweep's cell
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        assert set(MANIFEST_KEYS) == {"train", "sweep"}
        for name, keys in MANIFEST_KEYS.items():
            dests = {a.dest for a in commands.choices[name]._actions}
            assert set(keys) - dests == ({"cell"} if name == "sweep" else set()), name

    def test_default_sweep_grid_ships_with_package(self):
        grid = load_default_grid()
        cells = [_parse_cell(raw, "proposed_cnn") for raw in grid["cell"]]
        assert len(cells) == 7
        combos = {(c["optimizer"], c["batch"], c["epochs"]) for c in cells}
        assert {("rmsprop", 64, 24), ("rmsprop", 32, 9), ("rmsprop", 96, 20),
                ("sgd", 64, 10), ("adam", 64, 10), ("adam", 128, 20)} <= combos
        adam_tuned = [c for c in cells if c["optimizer"] == "adam" and c["batch"] == 128]
        assert sorted(c["decay"] for c in adam_tuned) == [1e-6, 1e-5]
        assert all(c["lr"] == 1e-4 for c in adam_tuned)


class TestPredictCommand:
    def test_probabilities_and_determinism(self, model_file, face_pgm, capsys):
        assert run("predict", "--model-file", model_file, "--image", face_pgm) == 0
        first = capsys.readouterr().out
        lines = first.strip().split("\n")
        probs = dict(line.split() for line in lines[:7])
        total = sum(float(v) for v in probs.values())
        assert abs(total - 1.0) < 1e-5  # printed at 6 decimals; drift <= 3.5e-6
        best = max(probs, key=lambda k: float(probs[k]))
        assert lines[7] == f"top1={best}"
        assert lines[0].split()[0] == best  # sorted descending

        assert run("predict", "--model-file", model_file, "--image", face_pgm) == 0
        assert capsys.readouterr().out == first

    def test_larger_image_downscaled(self, model_file, tmp_path, capsys):
        path = str(tmp_path / "big.ppm")
        img = np.random.default_rng(3).integers(0, 256, (96, 120, 3)).astype(np.uint8)
        write_pnm(path, img)
        assert run("predict", "--model-file", model_file, "--image", path) == 0
        assert "top2=" in capsys.readouterr().out

    def test_corrupt_model_file_exits_2(self, tmp_path, face_pgm, model_file):
        blob = bytearray(open(model_file, "rb").read())
        blob[0] ^= 0xFF
        bad = str(tmp_path / "bad.femo")
        open(bad, "wb").write(bytes(blob))
        assert run("predict", "--model-file", bad, "--image", face_pgm) == 2

    @pytest.mark.parametrize("name", sorted(MALFORMED_ARCHS))
    def test_malformed_arch_descriptor_exits_2(self, tmp_path, face_pgm, capsys, name):
        arch, where = MALFORMED_ARCHS[name]
        bad = write_arch_only(tmp_path / "bad.femo", arch)
        assert run("predict", "--model-file", bad, "--image", face_pgm) == 2
        assert where in capsys.readouterr().err

    def test_conv_stride_in_model_file_exits_2(self, tmp_path, face_pgm, capsys):
        # convolutions are stride-1 only: a file that names a stride is refused, not misread
        arch = {"input_shape": [1, 48, 48], "num_classes": 7, "layers": [
            {"kind": "conv2d", "hyper": {"filters": 2, "kernel_size": 3, "stride": 2}},
            {"kind": "flatten"}, {"kind": "dense", "hyper": {"units": 7}}, {"kind": "softmax"}]}
        bad = write_arch_only(tmp_path / "strided.femo", arch)
        assert run("predict", "--model-file", bad, "--image", face_pgm) == 2
        assert re.search(r"arch layer 0 \(conv2d\): .*'stride'", capsys.readouterr().err)


class TestDetectCommand:
    def test_accept_all_single_row(self, tmp_path, capsys):
        cascade = str(tmp_path / "cascade.json")
        json.dump(accept_all_cascade_doc(), open(cascade, "w"))
        image = str(tmp_path / "img.pgm")
        write_pnm(image, np.random.default_rng(4).integers(0, 256, (24, 24)).astype(np.uint8))
        code = run("detect", "--cascade", cascade, "--image", image, "--min-neighbors", "1")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x,y,w,h,neighbors"
        assert lines[1:] == ["0,0,24,24,1"]

    def test_no_faces_header_only(self, tmp_path, capsys):
        cascade = str(tmp_path / "reject.json")
        json.dump(reject_all_cascade_doc(), open(cascade, "w"))
        image = str(tmp_path / "img.pgm")
        write_pnm(image, np.zeros((32, 32), dtype=np.uint8))
        code = run("detect", "--cascade", cascade, "--image", image)
        assert code == 0
        assert capsys.readouterr().out.strip() == "x,y,w,h,neighbors"

    def test_with_model_appends_probabilities(self, tmp_path, model_file, capsys):
        cascade = str(tmp_path / "cascade.json")
        json.dump(accept_all_cascade_doc(), open(cascade, "w"))
        image = str(tmp_path / "img.pgm")
        write_pnm(image, np.random.default_rng(5).integers(0, 256, (24, 24)).astype(np.uint8))
        code = run("detect", "--cascade", cascade, "--image", image,
                   "--min-neighbors", "1", "--model-file", model_file)
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].count(",") == 11  # x,y,w,h,neighbors + 7 emotions
        values = lines[1].split(",")
        assert len(values) == 12
        assert abs(sum(float(v) for v in values[5:]) - 1.0) < 1e-4

    def test_with_model_classifies_a_box_that_ends_past_the_frame(self, tmp_path, model_file,
                                                                   capsys, monkeypatch):
        # the mean of these hits rounds to x=4, w=26: the box ends at column 30 of 29
        (box,) = fd.group_hits([(3, 0, 26, 26), (4, 0, 25, 25)], 1)
        assert box.x + box.w == 30
        monkeypatch.setattr(fd, "detect", lambda *args, **kwargs: [box])
        cascade = str(tmp_path / "cascade.json")
        json.dump(accept_all_cascade_doc(), open(cascade, "w"))
        image = str(tmp_path / "img.pgm")
        write_pnm(image, np.random.default_rng(6).integers(0, 256, (29, 29)).astype(np.uint8))
        code = run("detect", "--cascade", cascade, "--image", image, "--model-file", model_file)
        assert code == 0
        values = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert values[:5] == ["4", "0", "26", "26", "2"]  # the box is printed as grouped
        probs = [float(v) for v in values[5:]]
        assert len(probs) == 7 and abs(sum(probs) - 1.0) < 1e-4

    def test_with_model_each_face_row_is_its_own_predict(self, tmp_path, capsys, monkeypatch):
        boxes = [fd.Detection(0, 0, 24, 24, 3), fd.Detection(10, 4, 30, 30, 2),
                 fd.Detection(20, 12, 20, 20, 1), fd.Detection(5, 20, 16, 16, 4)]
        monkeypatch.setattr(fd, "detect", lambda *args, **kwargs: boxes)
        cascade = str(tmp_path / "cascade.json")
        json.dump(accept_all_cascade_doc(), open(cascade, "w"))
        pixels = np.random.default_rng(7).integers(0, 256, (36, 40)).astype(np.uint8)
        image = str(tmp_path / "img.pgm")
        write_pnm(image, pixels)
        model = str(tmp_path / "simple.femo")
        net = build_simple_cnn(seed=3)
        save_model(net, model)
        code = run("detect", "--cascade", cascade, "--image", image, "--model-file", model)
        assert code == 0
        expected = [f"{b.x},{b.y},{b.w},{b.h},{b.neighbors}," + ",".join(
            f"{p:.6f}" for p in net.predict(fd.preprocess_face(pixels, b))) for b in boxes]
        assert capsys.readouterr().out.strip().split("\n")[1:] == expected

    def test_invalid_cascade_json_exits_2(self, tmp_path, face_pgm):
        cascade = str(tmp_path / "broken.json")
        open(cascade, "w").write("{not json")
        assert run("detect", "--cascade", cascade, "--image", face_pgm) == 2


class TestGradcheckCommand:
    def test_ffnn_passes(self, capsys):
        assert run("gradcheck", "--model", "ffnn", "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "worst:" in out
        assert "FAIL" not in out

    def test_repeated_runs_identical(self, capsys):
        run("gradcheck", "--model", "ffnn", "--seed", "7")
        first = capsys.readouterr().out
        run("gradcheck", "--model", "ffnn", "--seed", "7")
        assert capsys.readouterr().out == first

    def test_tree_rejected(self):
        assert run("gradcheck", "--model", "tree") == 2


class TestHistogramCommand:
    def test_runs_as_a_module(self, dataset_csv):
        src = os.path.dirname(os.path.dirname(fer_forge.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "fer_forge.cli", "histogram", "--data",
                               dataset_csv], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("class,name,count\n0,angry,")

    def test_counts(self, dataset_csv, capsys, tmp_path):
        out_file = str(tmp_path / "hist.csv")
        assert run("histogram", "--data", dataset_csv, "--out", out_file) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "class,name,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 18
        assert open(out_file).read().strip().split("\n") == lines


class TestEvalCommand:
    def test_eval_outputs(self, tmp_path, dataset_csv, model_file, capsys):
        out = str(tmp_path / "eval_out")
        code = run("eval", "--model-file", model_file, "--data", dataset_csv, "--out", out)
        assert code == 0
        printed = capsys.readouterr().out
        assert "test_accuracy=" in printed
        assert "top2_accuracy=" in printed
        assert os.path.isfile(os.path.join(out, "confusion.csv"))


class TestSweepCommand:
    def _grid(self, tmp_path, cells):
        path = tmp_path / "grid.manifest"
        path.write_text("".join(f"cell = {c}\n" for c in cells))
        return str(path)

    def test_tiny_grid(self, tmp_path, dataset_csv, capsys):
        grid = self._grid(tmp_path, ["ffnn,adam,6,1,0.001,0", "tree,adam,6,1,0.001,0"])
        out = str(tmp_path / "sweep")
        code = run("sweep", "--data", dataset_csv, "--out", out, "--manifest", grid,
                   "--seed", "3")
        assert code == 0
        rows = open(os.path.join(out, "sweep_results.csv")).read().strip().split("\n")
        assert rows[0] == "model,optimizer,batch,epochs,lr,decay,accuracy,error"
        assert len(rows) == 3
        assert all(r.endswith(",") for r in rows[1:])  # no errors recorded
        assert os.path.isfile(os.path.join(out, "model_comparison.csv"))

    def test_empty_grid_header_only(self, tmp_path, dataset_csv):
        grid = self._grid(tmp_path, [])
        out = str(tmp_path / "sweep_empty")
        code = run("sweep", "--data", dataset_csv, "--out", out, "--manifest", grid)
        assert code == 0
        content = open(os.path.join(out, "sweep_results.csv")).read()
        assert content == "model,optimizer,batch,epochs,lr,decay,accuracy,error\n"

    def test_grid_of_one_matches_train(self, tmp_path, dataset_csv, capsys):
        out_train = str(tmp_path / "single_train")
        run("train", "--model", "ffnn", "--data", dataset_csv, "--out", out_train,
            "--optimizer", "adam", "--lr", "0.001", "--batch", "6", "--epochs", "1",
            "--seed", "3")
        train_acc = open(os.path.join(out_train, "result.txt")).read().strip()

        grid = self._grid(tmp_path, ["ffnn,adam,6,1,0.001,0"])
        out_sweep = str(tmp_path / "single_sweep")
        run("sweep", "--data", dataset_csv, "--out", out_sweep, "--manifest", grid,
            "--seed", "3")
        row = open(os.path.join(out_sweep, "sweep_results.csv")).read().strip().split("\n")[1]
        sweep_acc = row.split(",")[6]
        assert train_acc == f"test_accuracy={sweep_acc}"

    def test_failed_cell_recorded_and_sweep_continues(self, tmp_path, dataset_csv):
        grid = self._grid(tmp_path, ["ffnn,nosuchopt,6,1,0.001,0", "ffnn,adam,6,1,0.001,0",
                                     "ffnn,adam,0,1,0.001,0"])
        out = str(tmp_path / "sweep_fail")
        code = run("sweep", "--data", dataset_csv, "--out", out, "--manifest", grid,
                   "--seed", "3")
        assert code == 0
        rows = open(os.path.join(out, "sweep_results.csv")).read().strip().split("\n")
        assert "unknown optimizer" in rows[1]
        assert rows[2].endswith(",")
        assert rows[3].endswith(",batch size must be >= 1, got 0")

    def test_bad_cell_shape_exits_2(self, tmp_path, dataset_csv):
        grid = self._grid(tmp_path, ["ffnn,adam,6"])
        code = run("sweep", "--data", dataset_csv, "--out", str(tmp_path / "s"),
                   "--manifest", grid)
        assert code == 2
