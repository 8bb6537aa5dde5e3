import pytest

from fer_forge.gradcheck import gradcheck_architecture
from fer_forge.layers import MaxPool2D


class TestArchitectureSuite:
    @pytest.mark.parametrize("name", ["ffnn", "simple_cnn", "proposed_cnn"])
    def test_fresh_architectures_pass(self, name):
        report = gradcheck_architecture(name, seed=42)
        assert report.passed
        assert all(e.error < 1e-5 for e in report.entries)

    def test_corrupted_backward_fails_naming_the_layer(self, monkeypatch):
        # simple_cnn has one max pool, layer 4; perturb its input gradient
        def corrupted(layer, grad, _orig=MaxPool2D.backward):
            out = _orig(layer, grad).copy()
            out.ravel()[0] += 1e-2
            return out

        monkeypatch.setattr(MaxPool2D, "backward", corrupted)
        report = gradcheck_architecture("simple_cnn", seed=42)
        assert not report.passed
        worst = report.worst
        assert worst.label.startswith("04:maxpool2d")
        assert worst.error > 1e-5
        assert worst.worst_part == "input"
        assert all(e.error < 1e-5 for e in report.entries if e is not worst)

    def test_same_seed_identical_report(self):
        a = gradcheck_architecture("simple_cnn", seed=7)
        b = gradcheck_architecture("simple_cnn", seed=7)
        assert [(e.label, e.error) for e in a.entries] == [
            (e.label, e.error) for e in b.entries
        ]

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            gradcheck_architecture("resnet")
