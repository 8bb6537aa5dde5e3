import pytest

from fer_forge import tensor
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

    def test_conv_twins_run_the_kernels_of_the_real_convs(self, monkeypatch):
        # simple_cnn's conv 0 (1 input channel) runs the patch matrix, conv 2 (32) the taps
        calls = []

        def spy(name, orig):
            return lambda *args: calls.append(name) or orig(*args)

        for name in ("_patches", "_sum_of_taps"):
            monkeypatch.setattr(tensor, name, spy(name, getattr(tensor, name)))
        assert gradcheck_architecture("simple_cnn", seed=42).passed
        assert set(calls) == {"_patches", "_sum_of_taps"}

    def test_same_seed_identical_report(self):
        a = gradcheck_architecture("simple_cnn", seed=7)
        b = gradcheck_architecture("simple_cnn", seed=7)
        assert [(e.label, e.error) for e in a.entries] == [
            (e.label, e.error) for e in b.entries
        ]

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            gradcheck_architecture("resnet")
