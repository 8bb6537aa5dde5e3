import math
import os
import sys
import threading

import numpy as np
import pytest

from conftest import use_lanes
from fer_forge import blas
from fer_forge.optim import BLOCK, KINDS, Optimizer, OptimizerConfig, schedule_lr
from optim_oracle import OracleConfig, OracleState, oracle_step


def one_step(kind, lr, w, grad, decay=0.0):
    opt = Optimizer(OptimizerConfig(kind, lr, decay=decay), [w])
    opt.step([grad])
    return opt


class TestSchedule:
    def test_inverse_time(self):
        cfg = OptimizerConfig("adam", 0.0001, decay=1e-6)
        assert schedule_lr(cfg, 0) == 0.0001
        assert schedule_lr(cfg, 10**6) == pytest.approx(5e-5)

    def test_non_increasing_with_positive_decay(self):
        cfg = OptimizerConfig("sgd", 0.1, decay=0.01)
        rates = [schedule_lr(cfg, t) for t in range(100)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_constant_without_decay(self):
        cfg = OptimizerConfig("sgd", 0.1)
        assert schedule_lr(cfg, 10**9) == 0.1


class TestSGD:
    def test_definitional_step(self):
        w = np.array([1.0])
        one_step("sgd", 0.1, w, np.array([0.5]))
        assert np.allclose(w, 0.95)

    def test_zero_grad_unchanged(self):
        w = np.array([1.0, -2.0])
        one_step("sgd", 0.1, w, np.zeros(2))
        assert np.array_equal(w, [1.0, -2.0])

    def test_decayed_step(self):
        w = np.array([1.0])
        one_step("sgd", 0.1, w, np.array([1.0]), decay=1.0)
        assert np.allclose(w, 0.95)  # lr_t = 0.1 / (1 + 1*1) = 0.05


class TestRMSProp:
    def test_zero_grad_decays_velocity(self):
        w = np.array([3.0])
        opt = Optimizer(OptimizerConfig("rmsprop", 0.01), [w])
        opt.v[0][...] = 1.0
        opt.step([np.zeros(1)])
        assert np.array_equal(w, [3.0])
        assert np.allclose(opt.v[0], 0.9)

    def test_first_step_magnitude(self):
        # v = 0.1 g^2 after one step, so |dw| ~ lr / sqrt(0.1)
        for g in (0.5, -2.0, 100.0):
            w = np.array([0.0])
            one_step("rmsprop", 0.01, w, np.array([g]))
            assert abs(w[0]) == pytest.approx(0.01 / math.sqrt(0.1), rel=1e-3)

    def test_adaptive_scale_near_equal_steps(self):
        g = 0.37
        w = np.zeros(2)
        one_step("rmsprop", 0.001, w, np.array([g, 100.0 * g]))
        ratio = abs(w[1]) / abs(w[0])
        assert 0.99 <= ratio <= 1.01


class TestAdam:
    def test_zero_grad_fresh_state_unchanged(self):
        w = np.array([1.0, 2.0])
        one_step("adam", 0.001, w, np.zeros(2))
        assert np.array_equal(w, [1.0, 2.0])

    def test_first_step_close_to_lr(self):
        for g in (0.01, -5.0, 300.0):
            w = np.array([0.0])
            one_step("adam", 0.0001, w, np.array([g]))
            assert abs(w[0]) == pytest.approx(0.0001, rel=0.01)

    def test_bias_correction_direction(self):
        w = np.array([0.0])
        one_step("adam", 0.001, w, np.array([2.0]))
        assert w[0] < 0  # moves against the gradient


class TestSharedProperties:
    CONFIGS = [
        OptimizerConfig("sgd", 0.01),
        OptimizerConfig("rmsprop", 0.001),
        OptimizerConfig("adam", 0.001),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.kind)
    def test_zero_gradients_fresh_state(self, cfg):
        w = np.array([0.3, -0.4])
        opt = Optimizer(cfg, [w])
        for _ in range(5):
            opt.step([np.zeros(2)])
        assert np.array_equal(w, [0.3, -0.4])

    def test_scale_adaptivity_contrast(self):
        # adaptive optimizers nearly ignore gradient scale on the first step;
        # sgd scales proportionally
        for kind in ("adam", "rmsprop"):
            steps = []
            for scale in (1.0, 50.0):
                w = np.zeros(1)
                one_step(kind, 0.001, w, np.array([0.2 * scale]))
                steps.append(abs(w[0]))
            assert abs(steps[1] / steps[0] - 1.0) < 0.01
        steps = []
        for scale in (1.0, 50.0):
            w = np.zeros(1)
            one_step("sgd", 0.001, w, np.array([0.2 * scale]))
            steps.append(abs(w[0]))
        assert steps[1] / steps[0] == pytest.approx(50.0)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.kind)
    def test_quadratic_convergence(self, cfg):
        w = np.array([1.0, -0.7])
        opt = Optimizer(cfg, [w])
        min_norm = float(np.linalg.norm(w))
        for _ in range(10_000):
            opt.step([w.copy()])  # grad of 0.5 * ||w||^2 is w
            min_norm = min(min_norm, float(np.linalg.norm(w)))
            if min_norm < 1e-3:
                break
        assert min_norm < 1e-3

    @pytest.mark.parametrize("kind,moments", [("sgd", (0, 0)), ("rmsprop", (0, 2)),
                                              ("adam", (2, 2))])
    def test_keeps_only_the_moments_its_rule_reads(self, kind, moments):
        opt = Optimizer(OptimizerConfig(kind, 0.01), [np.zeros(3), np.zeros((2, 2))])
        assert (len(opt.m), len(opt.v)) == moments


class TestMatchesOracle:
    """``Optimizer`` against the per-parameter step functions it replaced."""

    # beside small shapes, sizes on each side of the block edge and one of several blocks
    SHAPES = [(3, 3, 2, 4), (4,), (17, 5), (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,),
              (3 * BLOCK + 5,)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("decay", [0.0, 0.05])
    def test_five_steps_bit_identical(self, kind, decay, pin_blas_threads, monkeypatch):
        # on 1 to 3 lanes, whose blocks interleave in any order, and in float32 and float64
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lanes in (1, 2, 3):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(lanes)))
                pin_blas_threads(lanes)
                for dtype in (np.float32, np.float64):
                    self.check_five_steps(kind, decay, dtype)
                assert blas.blas_threads() in (1, None)
        finally:
            sys.setswitchinterval(interval)

    def check_five_steps(self, kind, decay, dtype):
        rng = np.random.default_rng(3)
        params = [rng.standard_normal(s).astype(dtype) for s in self.SHAPES]
        twins = [p.copy() for p in params]
        opt = Optimizer(OptimizerConfig(kind, 0.01, decay=decay), params)
        cfg, state = OracleConfig(kind, 0.01, decay=decay), OracleState.for_params(twins)
        for _ in range(5):
            grads = [rng.standard_normal(s).astype(dtype) for s in self.SHAPES]
            opt.step(grads)
            oracle_step(cfg, state, twins, grads)
            for p, q in zip(params, twins):
                assert p.dtype == dtype
                assert np.array_equal(p, q)

class TestBlocks:
    """A step cuts every parameter into blocks of ``BLOCK`` elements and runs them on the lanes."""

    def test_a_transposed_gradient_is_read_in_its_parameter_order(self):
        # a tap conv's kernel gradient is a transposed view
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 5, 7)).astype(np.float32)
        grad = np.ascontiguousarray(rng.standard_normal((7, 5, 3)).astype(np.float32)).T
        twin = w.copy()
        one_step("adam", 0.01, w, grad)
        oracle_step(OracleConfig("adam", 0.01), OracleState.for_params([twin]), [twin], [grad])
        assert np.array_equal(w, twin)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_block_starts_no_thread(self, kind, pin_blas_threads, monkeypatch):
        use_lanes(pin_blas_threads, monkeypatch, 3)
        lanes, each_lane = [], blas.each_lane

        def spy(count, work):
            lanes.append(count)
            return each_lane(count, work)

        monkeypatch.setattr(blas, "each_lane", spy)
        threads = set(threading.enumerate())
        for sizes in ([BLOCK], [3, 4]):  # one block; two, as a block never spans two
            opt = Optimizer(OptimizerConfig(kind, 0.01), [np.zeros(k) for k in sizes])
            opt.step([np.ones(k) for k in sizes])
        assert lanes == [1, 2] and set(threading.enumerate()) <= threads


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            OptimizerConfig("adagrad", 0.01)

    def test_negative_lr(self):
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", -0.1)

    def test_grad_count_mismatch(self):
        opt = Optimizer(OptimizerConfig("sgd", 0.1), [np.zeros(2)])
        with pytest.raises(ValueError):
            opt.step([np.zeros(2), np.zeros(2)])
