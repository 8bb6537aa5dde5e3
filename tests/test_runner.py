"""The one run path: `train` and every `sweep` cell go through `cli.run_cell`."""

import argparse

import numpy as np
import pytest

import fer_forge.data as D
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
