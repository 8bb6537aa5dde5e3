"""The one run path: `train` and every `sweep` cell go through `cli.run_cell`."""

import argparse
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import fer_forge
import fer_forge.data as D
from fer_forge import blas
from conftest import make_fer_csv, random_rows
from fer_forge.cli import build_parser, main
from fer_forge.models import (
    ARCHITECTURE_SPECS,
    build_feedforward,
    build_proposed_cnn,
    build_simple_cnn,
    load_model,
)

BUILD_FUNCTIONS = {
    "ffnn": build_feedforward,
    "simple_cnn": build_simple_cnn,
    "proposed_cnn": build_proposed_cnn,
}


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(make_fer_csv(random_rows(18, seed=0)))
    return str(path)


def two_cell_sweep(tmp_path, dataset_csv, name):
    grid = tmp_path / "grid.manifest"
    grid.write_text("cell = ffnn,adam,6,1,0.001,0\ncell = tree,sgd,6,1,0.01,0\n")
    out = tmp_path / name
    code = main(["sweep", "--data", dataset_csv, "--out", str(out), "--manifest", str(grid),
                 "--seed", "3"])
    return code, out


def test_sweep_parses_the_dataset_once(tmp_path, dataset_csv, monkeypatch):
    calls = []
    parse = D.parse_fer_csv

    def counting_parse(source):
        calls.append(source)
        return parse(source)

    monkeypatch.setattr(D, "parse_fer_csv", counting_parse)
    code, _ = two_cell_sweep(tmp_path, dataset_csv, "sweep")
    assert code == 0
    assert calls == [dataset_csv]


def test_process_pool_sweep_matches_serial(tmp_path, dataset_csv, monkeypatch, capsys):
    code, serial = two_cell_sweep(tmp_path, dataset_csv, "serial")
    assert code == 0
    serial_stdout = capsys.readouterr().out
    monkeypatch.setenv("FER_FORGE_THREADS", "2")
    code, pooled = two_cell_sweep(tmp_path, dataset_csv, "pooled")
    assert code == 0
    # the cells' stop lines come back from the workers and print in cell order
    assert serial_stdout.startswith("stop_reason=")
    assert capsys.readouterr().out == serial_stdout
    expected = (serial / "sweep_results.csv").read_bytes()
    assert expected.count(b"\n") == 3 and b",,\n" not in expected  # two scored cells
    assert (pooled / "sweep_results.csv").read_bytes() == expected
    for cell_file in ("cell_00_ffnn_adam_b6_e1/ffnn.femo", "cell_01_tree_sgd_b6_e1/tree.txt"):
        assert (pooled / cell_file).read_bytes() == (serial / cell_file).read_bytes()


FORKED_SWEEP = """
import os, sys, threading
import numpy as np
from fer_forge.cli import main
from fer_forge.models import build_simple_cnn

os.sched_getaffinity = lambda pid: {0, 1}  # two lanes here and in the forked workers
build_simple_cnn(seed=1).forward(np.zeros((32, 1, 48, 48), np.float32))
assert any(t.name.startswith("fer_forge-lane-") for t in threading.enumerate())
os.environ["FER_FORGE_THREADS"] = "2"
sys.exit(main(sys.argv[1:]))
"""


def test_forked_sweep_after_a_sharded_forward_matches_serial(tmp_path, dataset_csv,
                                                             monkeypatch):
    # a worker forked from a process whose lane threads exist must start its own
    if blas.blas_threads() is None:
        pytest.skip("no OpenBLAS thread count to read and set")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid = tmp_path / "grid.manifest"
    grid.write_text("cell = simple_cnn,adam,6,1,0.001,0\ncell = simple_cnn,sgd,6,1,0.01,0\n")
    args = ["sweep", "--data", dataset_csv, "--manifest", str(grid), "--seed", "3", "--out"]
    assert main([*args, str(tmp_path / "serial")]) == 0
    src = os.path.dirname(os.path.dirname(fer_forge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    sweep = subprocess.Popen([sys.executable, "-c", FORKED_SWEEP, *args, str(tmp_path / "forked")],
                             env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        assert sweep.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        os.killpg(sweep.pid, signal.SIGKILL)  # the workers too
        sweep.wait()
        pytest.fail("the forked sweep did not finish")
    for name in ("sweep_results.csv", "cell_00_simple_cnn_adam_b6_e1/simple_cnn.femo",
                 "cell_01_simple_cnn_sgd_b6_e1/simple_cnn.femo"):
        forked, serial = (tmp_path / side / name for side in ("forked", "serial"))
        assert forked.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("content, where", [
    ("emotion,pixels,Usage\n9,1 2 3,Training\n", "row 2"),
    ("emotion,pixels,Usage\n", "no records"),
], ids=["bad-row", "header-only"])
def test_bad_dataset_fails_sweep_once(tmp_path, capsys, content, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    out = tmp_path / "never"
    code = main(["sweep", "--data", str(bad), "--out", str(out), "--model", "ffnn"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and where in err
    assert not out.exists()


def test_model_choices_are_tree_plus_registry():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("train", "sweep", "gradcheck"):
        model = next(a for a in commands.choices[command]._actions if a.dest == "model")
        assert tuple(model.choices) == ("tree", *ARCHITECTURE_SPECS)
    assert set(ARCHITECTURE_SPECS) == set(BUILD_FUNCTIONS)


@pytest.mark.parametrize("name", sorted(BUILD_FUNCTIONS))
def test_registry_name_trains_its_build_function(tmp_path, dataset_csv, name):
    out = tmp_path / name
    code = main(["train", "--model", name, "--data", dataset_csv, "--out", str(out),
                 "--epochs", "0", "--seed", "5"])
    assert code == 0
    trained = load_model(str(out / f"{name}.femo")).parameters()
    built = BUILD_FUNCTIONS[name](seed=5).parameters()
    assert len(trained) == len(built)
    for a, b in zip(trained, built):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("value", ["x", "0", "-2", "1.5"])
def test_bad_thread_count_exits_2_before_any_work(tmp_path, dataset_csv, monkeypatch, capsys,
                                                  value):
    parsed = []
    monkeypatch.setattr(D, "parse_fer_csv", parsed.append)
    monkeypatch.setenv("FER_FORGE_THREADS", value)
    code, out = two_cell_sweep(tmp_path, dataset_csv, "sweep")
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: FER_FORGE_THREADS must be a positive integer, got {value!r}\n"
    assert parsed == [] and not out.exists()
