import numpy as np
import pytest

import fer_forge.train as T
from conftest import check_confusion_row_sums, synthetic_dataset
from fer_forge.models import build_feedforward
from fer_forge.optim import Optimizer, OptimizerConfig
from fer_forge.train import (
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    argmax_labels,
    confusion,
    early_stop,
    epoch_logs_csv,
    evaluate,
    topk_accuracy,
    train,
)


def small_net(seed=0):
    return build_feedforward(hidden1=16, hidden2=8, seed=seed)


def adam(lr=1e-3, decay=0.0):
    return OptimizerConfig("adam", lr, decay=decay)


class TestEarlyStop:
    def test_constant_history_fires_at_window_plus_one(self):
        assert early_stop([0.5, 0.5, 0.5, 0.5, 0.5], window=4, tol=0.0)

    def test_short_history_never_fires(self):
        assert not early_stop([0.1, 0.2, 0.3], window=4, tol=0.0)
        assert not early_stop([0.5] * 4, window=4, tol=0.0)

    def test_last_delta_suppresses(self):
        assert not early_stop([0.5, 0.5, 0.5, 0.5, 0.6], window=4, tol=0.0)

    def test_tolerance_absorbs_small_changes(self):
        history = [0.5, 0.5002, 0.4999, 0.5001, 0.5]
        assert early_stop(history, window=4, tol=5e-4)
        assert not early_stop(history, window=4, tol=0.0)

    def test_only_last_window_counts(self):
        assert early_stop([0.1, 0.9, 0.7, 0.7, 0.7, 0.7, 0.7], window=4, tol=0.0)


class TestAccuracy:
    def test_two_of_three(self):
        assert accuracy([1, 2, 3], [1, 0, 3]) == pytest.approx(2.0 / 3.0)

    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1])


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        truths = np.repeat(np.arange(7), 3)
        matrix = confusion(truths, truths)
        assert np.array_equal(matrix.counts, np.diag(np.full(7, 3)))

    def test_single_sample_cell(self):
        matrix = confusion([5], [3])
        expected = np.zeros((7, 7), dtype=int)
        expected[3, 5] = 1
        assert np.array_equal(matrix.counts, expected)

    def test_trace_over_total_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 7, n)
            truths = rng.integers(0, 7, n)
            matrix = confusion(preds, truths)
            assert matrix.accuracy() == pytest.approx(accuracy(preds, truths))

    def test_row_sums_match_histogram(self):
        ds = synthetic_dataset(21, seed=3)
        preds = np.random.default_rng(2).integers(0, 7, 21)
        matrix = confusion(preds, ds.labels)
        assert check_confusion_row_sums(matrix, ds)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion([7], [0])

    def test_csv_and_table_render(self):
        matrix = confusion([1, 2], [1, 1])
        assert matrix.to_csv().startswith("true\\pred,0,1,2")
        assert "true\\pred" in matrix.to_table()


class TestTopK:
    def _random_probs(self, rng, n):
        probs = rng.random((n, 7))
        return probs / probs.sum(axis=1, keepdims=True)

    def test_k7_always_one(self):
        rng = np.random.default_rng(3)
        probs = self._random_probs(rng, 30)
        truths = rng.integers(0, 7, 30)
        assert topk_accuracy(probs, truths, k=7) == 1.0

    def test_k1_equals_accuracy(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            probs = self._random_probs(rng, 25)
            truths = rng.integers(0, 7, 25)
            assert topk_accuracy(probs, truths, k=1) == pytest.approx(
                accuracy(argmax_labels(probs), truths)
            )

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        probs = self._random_probs(rng, 40)
        truths = rng.integers(0, 7, 40)
        values = [topk_accuracy(probs, truths, k=k) for k in range(1, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_ties_rank_lower_class_first(self):
        probs = np.tile(np.full(7, 1.0 / 7.0), (2, 1))
        assert topk_accuracy(probs, np.array([0, 1]), k=1) == 0.5
        assert topk_accuracy(probs, np.array([0, 1]), k=2) == 1.0
        assert np.array_equal(argmax_labels(probs), [0, 0])


class TestTrainLoop:
    def test_step_count_is_ceil_n_over_b(self, monkeypatch, tiny_dataset):
        steps = []

        class CountingOptimizer(Optimizer):
            def step(self, grads):
                steps.append(1)
                super().step(grads)

        monkeypatch.setattr(T, "Optimizer", CountingOptimizer)
        cfg = TrainConfig(optimizer=adam(), batch_size=5, max_epochs=1, seed=0)
        train(small_net(), tiny_dataset, cfg)
        assert len(steps) == 3  # ceil(12 / 5)

    def test_zero_lr_leaves_parameters_unchanged(self, tiny_dataset):
        net = small_net(seed=1)
        before = [p.copy() for p in net.parameters()]
        cfg = TrainConfig(optimizer=OptimizerConfig("sgd", 0.0), batch_size=4,
                          max_epochs=3, seed=0)
        train(net, tiny_dataset, cfg)
        for a, b in zip(before, net.parameters()):
            assert np.array_equal(a, b)

    def test_fixed_seed_bit_reproducible(self, tiny_dataset):
        results = []
        for _ in range(2):
            net = small_net(seed=2)
            cfg = TrainConfig(optimizer=adam(), batch_size=4, max_epochs=3, seed=11)
            net, logs, _ = train(net, tiny_dataset, cfg)
            results.append((logs, [p.copy() for p in net.parameters()]))
        (logs_a, params_a), (logs_b, params_b) = results
        assert [(l.epoch, l.loss, l.accuracy) for l in logs_a] == [
            (l.epoch, l.loss, l.accuracy) for l in logs_b
        ]
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a, b)

    def test_constant_accuracy_stops_after_five_epochs(self, tiny_dataset):
        # frozen parameters make the monitored accuracy constant
        net = small_net(seed=3)
        cfg = TrainConfig(optimizer=OptimizerConfig("sgd", 0.0), batch_size=4,
                          max_epochs=50, seed=0, early_stop_tol=0.0,
                          strict_epoch_eval=True)
        _, logs, reason = train(net, tiny_dataset, cfg)
        assert reason == "early_stop"
        assert len(logs) == 5

    def test_stop_at_target_accuracy(self, tiny_dataset):
        net = small_net(seed=4)
        cfg = TrainConfig(optimizer=adam(), batch_size=4, max_epochs=100, seed=0,
                          stop_at_accuracy=0.0)
        _, logs, reason = train(net, tiny_dataset, cfg)
        assert reason == "target_accuracy"
        assert len(logs) == 1

    def test_non_finite_loss_diagnostic(self, tiny_dataset, monkeypatch):
        net = small_net(seed=5)

        def nan_loss(x, y, rng=None):
            return float("nan"), np.full((x.shape[0], 7), 1.0 / 7.0)

        monkeypatch.setattr(net, "loss_and_grad", nan_loss)
        cfg = TrainConfig(optimizer=adam(), batch_size=4, max_epochs=2, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(net, tiny_dataset, cfg)
        assert err.value.epoch == 0
        assert err.value.batch == 0

    def test_empty_dataset_rejected(self):
        ds = synthetic_dataset(0)
        with pytest.raises(ValueError):
            train(small_net(), ds, TrainConfig(optimizer=adam()))

    def test_tiny_overfit_smoke(self):
        ds = synthetic_dataset(8, seed=9)
        net = build_feedforward(hidden1=64, hidden2=32, seed=6)
        cfg = TrainConfig(optimizer=adam(1e-3), batch_size=4, max_epochs=60, seed=1,
                          strict_epoch_eval=True, stop_at_accuracy=1.0)
        _, logs, _ = train(net, ds, cfg)
        assert logs[-1].accuracy == 1.0

    def test_epoch_csv_format(self, tiny_dataset):
        net = small_net(seed=7)
        cfg = TrainConfig(optimizer=adam(), batch_size=6, max_epochs=2, seed=0)
        _, logs, _ = train(net, tiny_dataset, cfg)
        lines = epoch_logs_csv(logs).strip().split("\n")
        assert lines[0] == "epoch,loss,accuracy,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("0,")


class TestEvaluate:
    def test_accuracy_in_unit_interval(self, tiny_dataset):
        acc, probs, preds = evaluate(small_net(seed=8), tiny_dataset)
        assert 0.0 <= acc <= 1.0
        assert probs.shape == (len(tiny_dataset), 7)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-5)
        assert np.array_equal(preds, argmax_labels(probs))


class TestConfigValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer=adam(), early_stop_window=0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer=adam(), early_stop_tol=-0.1)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer=adam(), batch_size=0)
