import hashlib
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import HUGE_ARCH, MALFORMED_ARCHS, synthetic_dataset, use_lanes, write_arch_only
from fer_forge import blas
from fer_forge import layers as L
from fer_forge import models as M
from fer_forge import train as T
from fer_forge.gradcheck import relative_error
from fer_forge.optim import OptimizerConfig
from fer_forge.layers import LayerSpec, ShapeError
from fer_forge.models import (
    ARCHITECTURE_SPECS,
    BadMagicError,
    DimOverflowError,
    ModelFileError,
    Network,
    TruncatedFileError,
    VersionMismatchError,
    build_feedforward,
    build_proposed_cnn,
    build_simple_cnn,
    load_model,
    save_model,
)
from tensor_oracle import conv2d_forward_direct

GOLDEN = Path(__file__).resolve().parent / "data"


def conv_params(c_in, c_out, k=3):
    return k * k * c_in * c_out + c_out


def dense_params(d, u):
    return d * u + u


class TestFeedforward:
    def test_output_is_probability_vector(self):
        net = build_feedforward(seed=3)
        probs = net.predict(np.random.default_rng(0).random((1, 48, 48), dtype=np.float32))
        assert probs.shape == (7,)
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_parameter_count_closed_form(self):
        net = build_feedforward(hidden1=1024, hidden2=512, seed=0)
        expected = dense_params(2304, 1024) + dense_params(1024, 512) + dense_params(512, 7)
        assert net.parameter_count() == expected
        assert expected == 2_888_711

    def test_zero_input_gives_positive_probs(self):
        net = build_feedforward(seed=1)
        probs = net.predict(np.zeros((1, 48, 48), dtype=np.float32))
        assert (probs > 0).all()

    def test_widths_overridable(self):
        net = build_feedforward(hidden1=32, hidden2=16, seed=0)
        assert net.parameter_count() == dense_params(2304, 32) + dense_params(32, 16) + dense_params(16, 7)


class TestSimpleCnn:
    def test_shape_trace(self):
        net = build_simple_cnn(seed=0)
        trace = net.shape_trace()
        spatial = [s[1] for s in trace if len(s) == 3]
        assert spatial == [48, 46, 46, 44, 44, 22, 22]
        assert (30976,) in trace  # 22 * 22 * 64

    def test_conv_parameter_counts(self):
        net = build_simple_cnn(seed=0)
        convs = [l for l in net.layers if l.kind == "conv2d"]
        sizes = [sum(p.size for p in l.params) for l in convs]
        assert sizes == [320, 18496]

    def test_forward_probability_contract(self):
        net = build_simple_cnn(seed=2)
        probs = net.predict(np.random.default_rng(1).random((1, 48, 48), dtype=np.float32))
        assert abs(probs.sum() - 1.0) < 1e-6


class TestProposedCnn:
    def test_shape_trace(self):
        net = build_proposed_cnn(seed=0)
        spatial = [s[1] for s in net.shape_trace() if len(s) == 3]
        # conv/relu pairs repeat sizes; the distinct progression is what matters
        distinct = [spatial[0]] + [b for a, b in zip(spatial, spatial[1:]) if b != a]
        assert distinct == [48, 46, 44, 22, 20, 18, 16, 14, 7]
        assert (12544,) in net.shape_trace()

    def test_conv_parameter_counts(self):
        net = build_proposed_cnn(seed=0)
        convs = [l for l in net.layers if l.kind == "conv2d"]
        sizes = [sum(p.size for p in l.params) for l in convs]
        assert sizes == [640, 36928, 73856, 147584, 295168, 590080]
        assert sizes == [
            conv_params(1, 64), conv_params(64, 64), conv_params(64, 128),
            conv_params(128, 128), conv_params(128, 256), conv_params(256, 256),
        ]

    def test_total_parameter_count_closed_form(self):
        net = build_proposed_cnn(seed=0)
        expected = (
            conv_params(1, 64) + conv_params(64, 64) + conv_params(64, 128)
            + conv_params(128, 128) + conv_params(128, 256) + conv_params(256, 256)
            + dense_params(12544, 512) + dense_params(512, 7)
        )
        assert net.parameter_count() == expected

    def test_forward_probability_contract(self):
        net = build_proposed_cnn(seed=4)
        probs = net.predict(np.random.default_rng(2).random((1, 48, 48), dtype=np.float32))
        assert probs.shape == (7,)
        assert abs(probs.sum() - 1.0) < 1e-6


class TestBuildValidation:
    def test_dense_on_unflattened_input_rejected(self):
        specs = [LayerSpec("dense", {"units": 7}), LayerSpec("softmax")]
        with pytest.raises(ShapeError):
            Network(specs)

    def test_conv_after_flatten_rejected(self):
        specs = [
            LayerSpec("flatten"),
            LayerSpec("conv2d", {"filters": 4}),
            LayerSpec("softmax"),
        ]
        with pytest.raises(ShapeError):
            Network(specs)

    def test_missing_softmax_rejected(self):
        specs = [LayerSpec("flatten"), LayerSpec("dense", {"units": 7})]
        with pytest.raises(ShapeError, match="softmax"):
            Network(specs)

    def test_wrong_class_count_rejected(self):
        specs = [LayerSpec("flatten"), LayerSpec("dense", {"units": 5}), LayerSpec("softmax")]
        with pytest.raises(ShapeError):
            Network(specs)

    def test_conv_shrinks_below_one_rejected(self):
        specs = (
            [LayerSpec("conv2d", {"filters": 2, "kernel_size": 3}) for _ in range(4)]
            + [LayerSpec("flatten"), LayerSpec("dense", {"units": 7}), LayerSpec("softmax")]
        )
        with pytest.raises(ShapeError):
            Network(specs, input_shape=(1, 8, 8))


class TestPredict:
    def test_argmax_defines_classification(self):
        net = build_feedforward(seed=5)
        probs = net.predict(np.random.default_rng(3).random((1, 48, 48), dtype=np.float32))
        assert 0 <= int(np.argmax(probs)) < 7

    def test_deterministic_inference(self):
        net = build_simple_cnn(seed=6)
        x = np.random.default_rng(4).random((1, 48, 48), dtype=np.float32)
        assert np.array_equal(net.predict(x), net.predict(x))

    def test_wrong_shape_rejected(self):
        net = build_feedforward(seed=0)
        with pytest.raises(ShapeError):
            net.predict(np.zeros((48, 48), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1, 48, 48), (2, 48, 48, 1)], ids=["unbatched", "nhwc"])
    def test_forward_takes_only_nchw_batches(self, shape):
        net = build_simple_cnn(seed=0)
        with pytest.raises(ShapeError, match=re.escape(f"[N,1,48,48], got shape {shape}")):
            net.forward(np.zeros(shape, dtype=np.float32))

    def test_fresh_networks_near_uniform(self):
        x = np.random.default_rng(5).random((1, 48, 48), dtype=np.float32)
        mean = np.zeros(7)
        for seed in range(100):
            mean += build_feedforward(hidden1=64, hidden2=32, seed=seed).predict(x)
        mean /= 100
        assert np.all(np.abs(mean - 1.0 / 7.0) < 0.1)


class TestLossAndGrad:
    """The backward pass stops at the lowest layer with parameters."""

    SPECS = {
        "conv_first": [LayerSpec("conv2d", {"filters": 4, "kernel_size": 3}), LayerSpec("relu"),
                       LayerSpec("maxpool2d"), LayerSpec("flatten"),
                       LayerSpec("dense", {"units": 7}), LayerSpec("softmax")],
        "dense_after_flatten": [LayerSpec("flatten"), LayerSpec("dense", {"units": 8}),
                                LayerSpec("relu"), LayerSpec("dense", {"units": 7}),
                                LayerSpec("softmax")],
    }

    def batch(self):
        rng = np.random.default_rng(5)
        return rng.random((3, 1, 48, 48), dtype=np.float32), np.eye(7, dtype=np.float32)[[0, 4, 6]]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_gradients_equal_a_backward_through_every_layer(self, name, monkeypatch):
        # one core, one shard: the layers keep the whole batch's caches
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        net = Network(self.SPECS[name], seed=2)
        x, targets = self.batch()
        _, probs = net.loss_and_grad(x, targets)
        skipped = [g.copy() for g in net.gradients()]
        grad = (probs - targets) / len(x)
        for layer in reversed(net.layers[:-1]):
            grad = layer.backward(grad)
        assert grad.shape == (3, 48, 48, 1)
        assert all(np.array_equal(a, b) for a, b in zip(skipped, net.gradients()))

    def test_no_layer_below_the_first_parameters_runs_backward(self, monkeypatch):
        net = Network(self.SPECS["dense_after_flatten"], seed=2)

        def fail(*args, **kwargs):
            raise AssertionError("flatten backward ran")

        monkeypatch.setattr(net.layers[0], "backward", fail)
        net.loss_and_grad(*self.batch())
        assert len(net.gradients()) == 4


class TestShardedStep:
    """A training step runs the layers before Flatten as 16-image shards on the lanes."""

    def batch(self, n, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.random((n, 1, 48, 48), dtype=np.float32)
        return x, np.eye(7, dtype=np.float32)[rng.integers(0, 7, n)]

    def step(self, name, n, seed=3):
        net = Network(ARCHITECTURE_SPECS[name](), seed=seed)
        loss, probs = net.loss_and_grad(*self.batch(n, seed), np.random.default_rng(9))
        return net, loss, probs

    def assert_same_step(self, got, ref):
        (net, loss, probs), (ref_net, ref_loss, ref_probs) = got, ref
        assert loss == ref_loss and np.array_equal(probs, ref_probs)
        assert all(np.array_equal(g, ref_g)
                   for g, ref_g in zip(net.gradients(), ref_net.gradients(), strict=True))

    @pytest.mark.parametrize("n", [5, 1])
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("name", ["simple_cnn", "proposed_cnn"])
    def test_shards_match_one_shard(self, name, shards, n, pin_blas_threads, monkeypatch):
        # at most 16 images are one shard: the trunk runs here, on the network's own
        # layers, and the whole step with OpenBLAS at one thread on any host, so every
        # byte equals the step's on one core at one BLAS thread
        use_lanes(pin_blas_threads, monkeypatch, 1, threads=1)
        ref = self.step(name, n)
        use_lanes(pin_blas_threads, monkeypatch, shards, threads=2)
        threads = set(threading.enumerate())
        convs, blas_at = [], {}
        conv_forward, dense_forward = L.Conv2D.forward, L.Dense.forward

        def conv_spy(layer, *args, **kwargs):
            convs.append((threading.get_ident(), layer))
            blas_at["trunk"] = blas.blas_threads()
            return conv_forward(layer, *args, **kwargs)

        def dense_spy(layer, *args, **kwargs):
            blas_at["head"] = blas.blas_threads()
            return dense_forward(layer, *args, **kwargs)

        monkeypatch.setattr(L.Conv2D, "forward", conv_spy)
        monkeypatch.setattr(L.Dense, "forward", dense_spy)
        got = self.step(name, n)
        assert set(threading.enumerate()) <= threads
        assert {thread for thread, _ in convs} == {threading.get_ident()}
        assert all(any(layer is own for own in got[0].layers) for _, layer in convs)
        assert blas_at == {"trunk": 1, "head": 1}
        assert blas.blas_threads() == 1
        self.assert_same_step(got, ref)

    @pytest.mark.parametrize("name, n", [("ffnn", 1), ("ffnn", 16), ("ffnn", 17), ("ffnn", 40),
                                         ("ffnn", 128), ("simple_cnn", 1), ("simple_cnn", 5),
                                         ("simple_cnn", 16), ("simple_cnn", 17),
                                         ("simple_cnn", 40), ("simple_cnn", 128),
                                         ("proposed_cnn", 1), ("proposed_cnn", 17)])
    def test_every_host_gives_the_same_bytes(self, name, n, pin_blas_threads, monkeypatch):
        # the shards and their summation order depend on n alone, a dense product split by
        # column sums as the whole product does, and a step or a forward runs at one BLAS
        # thread whatever the count it finds, so neither the cores nor the BLAS count
        # move a bit (OpenBLAS at three threads sums a one-image dense product in another
        # order than at one or two)
        use_lanes(pin_blas_threads, monkeypatch, 1, threads=1)
        x, _ = self.batch(n)
        ref = self.step(name, n)
        ref_rows = ref[0].forward(x)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so a lost update would show
        try:
            for cores in (1, 2, 3):
                for threads in (1, 2, 3):
                    use_lanes(pin_blas_threads, monkeypatch, cores, threads=threads)
                    got = self.step(name, n)
                    self.assert_same_step(got, ref)
                    pin_blas_threads(threads)
                    assert np.array_equal(got[0].forward(x), ref_rows), (cores, threads)
                    assert blas.blas_threads() == 1
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name, n", [("simple_cnn", 40), ("proposed_cnn", 17)])
    def test_shard_sums_match_a_whole_batch_step(self, name, n, pin_blas_threads, monkeypatch):
        use_lanes(pin_blas_threads, monkeypatch, 2)
        net, loss, probs = self.step(name, n)
        monkeypatch.setattr(M, "SHARD_IMAGES", n)  # one shard
        ref, ref_loss, ref_probs = self.step(name, n)
        assert loss == ref_loss and np.array_equal(probs, ref_probs)
        trunk = net.layers.index(next(l for l in net.layers if l.kind == "flatten"))
        for i, (layer, ref_layer) in enumerate(zip(net.layers, ref.layers)):
            for g, ref_g in zip(layer.grads, ref_layer.grads):
                if i > trunk:
                    assert np.array_equal(g, ref_g)
                else:  # summed over the shards in another order: kernels, then biases
                    bound = 1e-6 if g.ndim == 4 else 2e-5
                    assert np.abs(g - ref_g).max() <= bound * np.abs(ref_g).max()

    def test_shards_hold_16_images_and_only_this_thread_runs_the_layers(self, pin_blas_threads,
                                                                         monkeypatch):
        use_lanes(pin_blas_threads, monkeypatch, 3, threads=2)
        net = Network(ARCHITECTURE_SPECS["simple_cnn"](), seed=3)
        calls = []  # (thread, whether the layer is one of net.layers, images)
        conv_forward, conv_backward = L.Conv2D.forward, L.Conv2D.backward

        def spy(run):
            def call(layer, x, *args, **kwargs):
                calls.append((threading.get_ident(), any(layer is own for own in net.layers),
                              len(x)))
                return run(layer, x, *args, **kwargs)
            return call

        monkeypatch.setattr(L.Conv2D, "forward", spy(conv_forward))
        monkeypatch.setattr(L.Conv2D, "backward", spy(conv_backward))
        threads = set(threading.enumerate())
        x = np.random.default_rng(3).random((64, 1, 48, 48), dtype=np.float32)
        net.loss_and_grad(x, np.eye(7, dtype=np.float32)[np.arange(64) % 7])
        main = threading.get_ident()
        # 4 shards on 3 lanes: this thread runs shard 0 on net.layers and shard 3 on a
        # replica; each shard runs both conv layers forward and backward
        assert len(calls) == 4 * 4 and max(images for _, _, images in calls) == 16
        assert sum(own for _, own, _ in calls) == 4
        assert all(thread == main for thread, own, _ in calls if own)
        assert sum(thread == main for thread, _, _ in calls) == 8
        assert len({thread for thread, _, _ in calls}) == 3
        assert set(threading.enumerate()) <= threads

    @pytest.mark.parametrize("shards", [2, 3])
    def test_same_seed_same_model_file(self, shards, pin_blas_threads, monkeypatch, tmp_path):
        use_lanes(pin_blas_threads, monkeypatch, shards)
        cfg = T.TrainConfig(OptimizerConfig("adam", 1e-3), batch_size=5, max_epochs=2, seed=4)
        blobs = []
        for i in range(2):
            net, _, _ = T.train(Network(ARCHITECTURE_SPECS["simple_cnn"](), seed=4),
                                synthetic_dataset(10, seed=4), cfg)
            save_model(net, str(tmp_path / f"{i}.femo"))
            blobs.append((tmp_path / f"{i}.femo").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("shards", [2, 3])
    def test_worker_error_propagates_after_every_thread_ends(self, shards, pin_blas_threads,
                                                             monkeypatch):
        use_lanes(pin_blas_threads, monkeypatch, shards)
        threads = set(threading.enumerate())
        relu_backward = L.ReLU.backward

        def fail_off_the_main_thread(layer, grad):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker shard failed")
            return relu_backward(layer, grad)

        monkeypatch.setattr(L.ReLU, "backward", fail_off_the_main_thread)
        with pytest.raises(RuntimeError, match="worker shard failed"):
            self.step("simple_cnn", 40)  # 3 shards, so at least one on a lane thread
        assert set(threading.enumerate()) <= threads
        assert blas.blas_threads() == 1

    def test_a_network_without_a_trunk_looks_up_no_blas(self, pin_blas_threads, monkeypatch):
        # no trunk, so no shards; below 16 images the dense products do not split either
        # and no lane starts; at 40 the hidden layers split by column, on lanes that
        # end with the step, and OpenBLAS is left at one thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pin_blas_threads(2)
        ran_on, each_lane = {8: set(), 40: set()}, blas.each_lane
        threads = set(threading.enumerate())
        for n, seen in ran_on.items():
            def spy(count, work, seen=seen):
                def lane(j):
                    seen.add(threading.current_thread())
                    return work(j)
                return each_lane(count, lane)

            monkeypatch.setattr(blas, "each_lane", spy)
            _, loss, probs = self.step("ffnn", n)
            assert np.isfinite(loss) and probs.shape == (n, 7)
            assert set(threading.enumerate()) <= threads
            assert blas.blas_threads() in (1, None)
        here = threading.current_thread()
        assert ran_on[8] == {here}
        lanes = {here.name} if blas.blas_threads() is None else {here.name, "fer_forge-lane-1"}
        assert {t.name for t in ran_on[40]} == lanes
        assert not any(t.is_alive() for t in ran_on[40] - threads)


class TestShardedForward:
    """A forward on more than 16 images runs 16-image shards on one lane per usable core."""

    SIZES = (1, 16, 17, 37, 64)

    def batch(self, n, seed=4):
        return np.random.default_rng(seed).random((n, 1, 48, 48), dtype=np.float32)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["ffnn", "simple_cnn", "proposed_cnn"])
    def test_lanes_match_one_lane(self, name, threads, pin_blas_threads, monkeypatch):
        net = Network(ARCHITECTURE_SPECS[name](), seed=5)
        x = self.batch(max(self.SIZES))
        use_lanes(pin_blas_threads, monkeypatch, 1, threads=threads)
        one_lane = [net.forward(x[:n]) for n in self.SIZES]
        for cores in (2, 3):
            use_lanes(pin_blas_threads, monkeypatch, cores, threads=threads)
            for n, ref in zip(self.SIZES, one_lane):
                assert np.array_equal(net.forward(x[:n]), ref), (cores, n)
            assert blas.blas_threads() == 1

    @pytest.mark.parametrize("n", [17, 64])
    def test_lanes_run_on_their_own_threads_and_replicas(self, n, pin_blas_threads,
                                                         monkeypatch):
        net = Network(ARCHITECTURE_SPECS["simple_cnn"](), seed=5)
        use_lanes(pin_blas_threads, monkeypatch, 3, threads=2)
        calls = []  # (thread, whether the layer is one of net.layers, BLAS threads)
        conv_forward = L.Conv2D.forward

        def conv_spy(layer, *args, **kwargs):
            calls.append((threading.get_ident(), any(layer is own for own in net.layers),
                          blas.blas_threads()))
            return conv_forward(layer, *args, **kwargs)

        monkeypatch.setattr(L.Conv2D, "forward", conv_spy)
        threads = set(threading.enumerate())
        probs = net.forward(self.batch(n))
        lanes = min(3, -(-n // 16))
        assert probs.shape == (n, 7)
        assert len({thread for thread, _, _ in calls}) == lanes
        # shard 0 runs on net.layers, here; every other shard, here too, on a replica
        main = threading.get_ident()
        assert [thread for thread, own, _ in calls if own] == [main, main]  # two convs
        assert {blas_at for _, _, blas_at in calls} == {1}
        assert blas.blas_threads() == 1
        assert set(threading.enumerate()) <= threads

    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("name", ["ffnn", "proposed_cnn"])
    def test_a_small_batch_reads_no_blas_and_starts_no_lane(self, name, n, pin_blas_threads,
                                                            monkeypatch):
        # one shard: one lane, this thread, whatever the cores; OpenBLAS left at one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pin_blas_threads(2)
        lanes, each_lane = [], blas.each_lane

        def spy(count, work):
            lanes.append(count)
            return each_lane(count, work)

        monkeypatch.setattr(blas, "each_lane", spy)
        net = Network(ARCHITECTURE_SPECS[name](), seed=5)
        x = self.batch(n)
        threads = set(threading.enumerate())
        assert net.forward(x).shape == (n, 7)
        assert net.predict(x[0]).shape == (7,)
        assert lanes == [1, 1] and set(threading.enumerate()) <= threads
        assert blas.blas_threads() in (1, None)

    def test_a_count_that_cannot_be_set_runs_every_shard_here(self, monkeypatch):
        net = Network(ARCHITECTURE_SPECS["simple_cnn"](), seed=5)
        x = self.batch(40)
        expected = np.concatenate([net.forward(x[a:b]) for a, b in ((0, 13), (13, 26), (26, 40))])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(blas, "blas_threads", lambda: None)
        threads = set(threading.enumerate())
        seen = set()
        conv_forward = L.Conv2D.forward

        def conv_spy(layer, *args, **kwargs):
            seen.add(threading.get_ident())
            return conv_forward(layer, *args, **kwargs)

        monkeypatch.setattr(L.Conv2D, "forward", conv_spy)
        assert np.array_equal(net.forward(x), expected)
        assert seen == {threading.get_ident()}
        assert set(threading.enumerate()) <= threads

    def test_lane_error_is_raised_after_every_lane_ends(self, pin_blas_threads, monkeypatch):
        use_lanes(pin_blas_threads, monkeypatch, 3, threads=2)
        net = Network(ARCHITECTURE_SPECS["simple_cnn"](), seed=5)
        finished = []  # the threads that ran a softmax: the end of a shard
        lane_thread = {}
        relu_forward, softmax_forward = L.ReLU.forward, L.Softmax.forward

        def fail_in_one_lane(layer, *args, **kwargs):
            me = threading.get_ident()
            if me != threading.main_thread().ident and lane_thread.setdefault("failing", me) == me:
                raise RuntimeError("lane failed")
            return relu_forward(layer, *args, **kwargs)

        def softmax_spy(layer, *args, **kwargs):
            if threading.get_ident() != threading.main_thread().ident:
                time.sleep(0.3)  # the last lane ends well after the others
            finished.append(threading.get_ident())
            return softmax_forward(layer, *args, **kwargs)

        monkeypatch.setattr(L.ReLU, "forward", fail_in_one_lane)
        monkeypatch.setattr(L.Softmax, "forward", softmax_spy)
        threads = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="lane failed"):
            net.forward(self.batch(64))  # 4 shards on 3 lanes: 0 and 3, 1, 2
        main = threading.main_thread().ident
        assert finished.count(main) == 2 and len(set(finished) - {main}) == 1
        assert lane_thread["failing"] not in finished
        assert blas.blas_threads() == 1
        assert set(threading.enumerate()) <= threads


FORK_AFTER_LANES = """
import os, sys, threading
import numpy as np
from fer_forge.models import build_simple_cnn

os.sched_getaffinity = lambda pid: {0, 1}  # two lanes here and in the forked child
net = build_simple_cnn(seed=1)
x = np.random.default_rng(2).random((32, 1, 48, 48), dtype=np.float32)
rows = net.forward(x)
assert not any(t.name.startswith("fer_forge-lane-") for t in threading.enumerate())
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(net.forward(x), rows) else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


class TestBlas:
    def test_thread_count_round_trips(self, pin_blas_threads):
        if blas.blas_threads() is None:
            pytest.skip("no OpenBLAS thread count to read and set")
        pin_blas_threads(3)
        assert blas.blas_threads() == 3
        pin_blas_threads(1)
        assert blas.blas_threads() == 1

    def test_concurrent_sharded_forwards_match_a_serial_one(self, pin_blas_threads,
                                                           monkeypatch):
        # two callers share one network; each call starts and joins its own lanes
        use_lanes(pin_blas_threads, monkeypatch, 3, threads=2)
        net = Network(ARCHITECTURE_SPECS["simple_cnn"](), seed=5)
        x = np.random.default_rng(6).random((40, 1, 48, 48), dtype=np.float32)
        serial = net.forward(x)
        results = {"first": [], "second": []}

        def call(name):
            for _ in range(20):
                results[name].append(net.forward(x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(name,)) for name in results]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [len(rows) for rows in results.values()] == [20, 20]
        assert all(np.array_equal(rows, serial) for rows in results["first"] + results["second"])
        assert blas.blas_threads() == 1
        assert not any(t.name.startswith("fer_forge-lane-") for t in threading.enumerate())

    def test_forked_child_after_a_sharded_forward_matches_parent(self):
        # every lane thread has ended when the forward returns, so a forked child starts
        # its own
        if blas.blas_threads() is None:
            pytest.skip("no OpenBLAS thread count to read and set")
        src = os.path.dirname(os.path.dirname(M.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.Popen([sys.executable, "-c", FORK_AFTER_LANES], env=env,
                                 start_new_session=True)
        try:
            assert child.wait(timeout=120) == 0
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the forked child too
            child.wait()
            pytest.fail("the forked child did not finish")


# peak RSS from VmHWM, which exec resets; ru_maxrss would keep the forking parent's
LOAD_AND_REPORT_RSS = """
import sys
from fer_forge.models import ModelFileError, load_model
try:
    load_model(sys.argv[1])
except ModelFileError as exc:
    print(f"{type(exc).__name__}: {exc}")
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


class TestPersistence:
    def _save(self, tmp_path, net, name="model.femo"):
        path = str(tmp_path / name)
        save_model(net, path)
        return path

    def test_round_trip_bit_exact(self, tmp_path):
        net = build_simple_cnn(seed=7)
        path = self._save(tmp_path, net)
        loaded = load_model(path)
        before = hashlib.sha256(b"".join(p.tobytes() for p in net.parameters())).hexdigest()
        after = hashlib.sha256(b"".join(p.tobytes() for p in loaded.parameters())).hexdigest()
        assert before == after
        x = np.random.default_rng(6).random((1, 48, 48), dtype=np.float32)
        assert np.array_equal(net.predict(x), loaded.predict(x))

    def test_no_gradient_arrays_before_the_first_backward(self, tmp_path):
        built = build_simple_cnn(seed=7)
        loaded = load_model(self._save(tmp_path, built))
        assert built.gradients() == [] and loaded.gradients() == []
        x = np.random.default_rng(6).random((2, 1, 48, 48), dtype=np.float32)
        loaded.loss_and_grad(x, np.eye(7, dtype=np.float32)[[0, 3]])
        params = loaded.parameters()
        assert [(g.shape, g.dtype) for g in loaded.gradients()] == [(p.shape, p.dtype) for p in params]

    def test_bad_magic(self, tmp_path):
        net = build_feedforward(hidden1=8, hidden2=8, seed=0)
        path = self._save(tmp_path, net)
        blob = bytearray(open(path, "rb").read())
        blob[0] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        net = build_feedforward(hidden1=8, hidden2=8, seed=0)
        path = self._save(tmp_path, net)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = struct.pack("<I", 99)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_truncated_mid_tensor(self, tmp_path):
        net = build_feedforward(hidden1=8, hidden2=8, seed=0)
        path = self._save(tmp_path, net)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) - 37])
        with pytest.raises(TruncatedFileError):
            load_model(path)

    def test_dim_overflow(self, tmp_path):
        net = build_feedforward(hidden1=8, hidden2=8, seed=0)
        path = self._save(tmp_path, net)
        blob = bytearray(open(path, "rb").read())
        arch_len = struct.unpack("<I", blob[8:12])[0]
        rank_at = 12 + arch_len + 4  # first tensor's rank field
        dims_at = rank_at + 4
        blob[dims_at : dims_at + 4] = struct.pack("<I", 2**31 - 1)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(DimOverflowError):
            load_model(path)

    def test_arch_length_past_end_of_file_names_both(self, tmp_path):
        # 14 bytes: magic, version 1, an arch length of 0xFFFFFFF0 and 2 bytes of arch
        path = tmp_path / "huge_arch.femo"
        path.write_bytes(b"FEMO" + struct.pack("<II", 1, 0xFFFFFFF0) + b"{}")
        with pytest.raises(TruncatedFileError, match="needs 4294967280 bytes, 2 left"):
            load_model(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        net = build_feedforward(hidden1=8, hidden2=8, seed=0)
        path = self._save(tmp_path, net)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_a_file_short_of_its_arch_fails_before_it_allocates(self, tmp_path):
        # 204 bytes, 0 tensors, an arch of 46,240,007 floats: 185 MB of weights, and
        # 370 MB more for their float64 draw, had it been built first
        if not os.path.exists("/proc/self/status"):
            pytest.skip("no /proc/self/status to read the peak RSS from")
        path = write_arch_only(tmp_path / "huge.femo", HUGE_ARCH)
        assert os.path.getsize(path) == 204
        src = os.path.dirname(os.path.dirname(M.__file__))
        out = subprocess.run([sys.executable, "-c", LOAD_AND_REPORT_RSS, path], text=True,
                             capture_output=True, env={**os.environ, "PYTHONPATH": src},
                             timeout=120, check=True).stdout.splitlines()
        assert out[0] == ("ModelFileError: file has 0 tensors of 0 floats, "
                          "arch needs 4 tensors of 46240007 floats")
        assert int(out[1]) < 100 * 1024  # peak RSS in kB

    @pytest.mark.parametrize("name", sorted(MALFORMED_ARCHS))
    def test_malformed_arch_descriptor_names_layer(self, tmp_path, name):
        arch, where = MALFORMED_ARCHS[name]
        path = write_arch_only(tmp_path / "bad.femo", arch)
        with pytest.raises(ModelFileError, match=where):
            load_model(path)


class TestGoldenModel:
    """A model file, its probabilities and one step's gradients, written by the
    channels-last conv kernels; its second conv has 16 input channels (per-tap
    path) and its first has one (patch-matrix path). See tests/data/make_golden.py."""

    def test_probabilities_match_batched_and_single(self):
        net = load_model(str(GOLDEN / "golden_tiny.femo"))
        ref = np.load(GOLDEN / "golden_tiny.npz")
        batched = net.forward(ref["inputs"])
        assert np.abs(batched - ref["probs"]).max() < 1e-5
        for x, probs in zip(ref["inputs"], ref["probs"]):
            assert np.abs(net.predict(x) - probs).max() < 1e-5

    def test_direct_loop_convolution_gives_the_recorded_probabilities(self, monkeypatch):
        # the recorded probabilities came from the kernels this fixture guards, so check
        # them once against the direct sliding-window loop
        def direct_nhwc(x, kernels, bias):
            return conv2d_forward_direct(x.transpose(0, 3, 1, 2), kernels, bias).transpose(0, 2, 3, 1)

        monkeypatch.setattr(L, "conv2d", direct_nhwc)
        net = load_model(str(GOLDEN / "golden_tiny.femo"))
        ref = np.load(GOLDEN / "golden_tiny.npz")
        assert np.abs(net.forward(ref["inputs"]) - ref["probs"]).max() < 1e-5

    def test_one_training_step_matches_the_recorded_gradients(self):
        net = load_model(str(GOLDEN / "golden_tiny.femo"))
        inputs = np.load(GOLDEN / "golden_tiny.npz")["inputs"]
        ref = np.load(GOLDEN / "golden_tiny_grads.npz")
        loss, _ = net.loss_and_grad(inputs, ref["targets"])
        assert abs(loss - ref["loss"]) <= 1e-5 * abs(ref["loss"])
        grads = net.gradients()
        assert len(grads) == len(ref.files) - 2
        for i, grad in enumerate(grads):
            assert relative_error(grad, ref[f"grad{i}"]) < 1e-5, f"gradient {i}"

    def test_resave_is_byte_identical(self, tmp_path):
        src = GOLDEN / "golden_tiny.femo"
        out = tmp_path / "again.femo"
        save_model(load_model(str(src)), str(out))
        assert out.read_bytes() == src.read_bytes()
