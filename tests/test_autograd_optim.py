"""Unit tests for the SGD and Adam optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Adam, SGD, Tensor
from repro.autograd.module import Parameter
from repro.exceptions import AutogradError


def quadratic_loss(param: Parameter, target: np.ndarray) -> Tensor:
    diff = param - Tensor(target)
    return (diff * diff).sum()


class TestOptimizerBase:
    def test_empty_parameter_list_raises(self):
        with pytest.raises(AutogradError):
            SGD([], lr=0.1)

    def test_non_positive_lr_raises(self):
        with pytest.raises(AutogradError):
            SGD([Parameter(np.ones(2))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        optimizer = SGD([p], lr=0.1)
        quadratic_loss(p, np.zeros(3)).backward()
        assert p.grad is not None
        optimizer.zero_grad()
        assert p.grad is None

    def test_step_skips_parameters_without_grad(self):
        p = Parameter(np.ones(3))
        optimizer = SGD([p], lr=0.1)
        optimizer.step()  # no gradient accumulated; should be a no-op
        np.testing.assert_allclose(p.data, np.ones(3))


class TestSGD:
    def test_converges_on_quadratic(self):
        target = np.array([1.0, -2.0, 3.0])
        p = Parameter(np.zeros(3))
        optimizer = SGD([p], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(p, target).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, target, atol=1e-6)

    def test_momentum_accelerates(self):
        target = np.array([5.0])
        plain = Parameter(np.zeros(1))
        momentum = Parameter(np.zeros(1))
        opt_plain = SGD([plain], lr=0.01)
        opt_momentum = SGD([momentum], lr=0.01, momentum=0.9)
        for _ in range(50):
            for p, opt in ((plain, opt_plain), (momentum, opt_momentum)):
                opt.zero_grad()
                quadratic_loss(p, target).backward()
                opt.step()
        assert abs(momentum.data[0] - 5.0) < abs(plain.data[0] - 5.0)

    def test_weight_decay_shrinks_solution(self):
        target = np.array([10.0])
        decayed = Parameter(np.zeros(1))
        optimizer = SGD([decayed], lr=0.05, weight_decay=1.0)
        for _ in range(500):
            optimizer.zero_grad()
            quadratic_loss(decayed, target).backward()
            optimizer.step()
        assert 0.0 < decayed.data[0] < 10.0

    def test_invalid_momentum_raises(self):
        with pytest.raises(AutogradError):
            SGD([Parameter(np.ones(1))], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        target = np.array([0.5, -1.5])
        p = Parameter(np.zeros(2))
        optimizer = Adam([p], lr=0.05)
        for _ in range(500):
            optimizer.zero_grad()
            quadratic_loss(p, target).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_first_step_size_close_to_lr(self):
        p = Parameter(np.array([10.0]))
        optimizer = Adam([p], lr=0.1)
        optimizer.zero_grad()
        quadratic_loss(p, np.zeros(1)).backward()
        optimizer.step()
        assert abs(p.data[0] - 10.0) == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas_raise(self):
        with pytest.raises(AutogradError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.999))

    def test_weight_decay_changes_solution(self):
        target = np.array([3.0])
        plain = Parameter(np.zeros(1))
        decayed = Parameter(np.zeros(1))
        opt_plain = Adam([plain], lr=0.05)
        opt_decayed = Adam([decayed], lr=0.05, weight_decay=5.0)
        for _ in range(400):
            for p, opt in ((plain, opt_plain), (decayed, opt_decayed)):
                opt.zero_grad()
                quadratic_loss(p, target).backward()
                opt.step()
        assert decayed.data[0] < plain.data[0]

    def test_handles_multiple_parameters(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.zeros(3))
        optimizer = Adam([a, b], lr=0.1)
        optimizer.zero_grad()
        (quadratic_loss(a, np.ones(2)) + quadratic_loss(b, np.ones(3))).backward()
        optimizer.step()
        assert not np.allclose(a.data, 0.0)
        assert not np.allclose(b.data, 0.0)


def reference_adam(data, grads, lr, betas, eps, weight_decay):
    """The unfused Adam expression chain, one fresh array per operation.

    ``grads`` holds one list per step, one gradient (or ``None``) per array
    in ``data``; returns the parameter arrays after every step.
    """
    beta1, beta2 = betas
    data = [array.copy() for array in data]
    first, second = {}, {}
    history = []
    for t, step_grads in enumerate(grads, start=1):
        for index, grad in enumerate(step_grads):
            if grad is None:
                continue
            if weight_decay:
                grad = grad + weight_decay * data[index]
            m = first.get(index, np.zeros_like(data[index]))
            v = second.get(index, np.zeros_like(data[index]))
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad ** 2
            first[index], second[index] = m, v
            m_hat = m / (1.0 - beta1 ** t)
            v_hat = v / (1.0 - beta2 ** t)
            data[index] = data[index] - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append([array.copy() for array in data])
    return history


class TestAdamFusedStep:
    SHAPES = [(4, 3), (5,), (2, 2), ()]

    def _run(self, weight_decay, seed=0, steps=50):
        rng = np.random.default_rng(seed)
        initial = [rng.normal(size=shape) for shape in self.SHAPES]
        grads = []
        for step in range(steps):
            step_grads = []
            for index, shape in enumerate(self.SHAPES):
                # Parameter 2 never gets a gradient; parameter 1 skips every
                # third step, so its moments must freeze while others advance.
                skipped = index == 2 or (index == 1 and step % 3 == 0)
                step_grads.append(None if skipped else rng.normal(size=shape))
            grads.append(step_grads)
        params = [Parameter(array.copy()) for array in initial]
        optimizer = Adam(params, lr=0.01, weight_decay=weight_decay)
        fused = []
        for step_grads in grads:
            for param, grad in zip(params, step_grads):
                param.grad = None if grad is None else grad.copy()
            optimizer.step()
            fused.append([param.data.copy() for param in params])
        expected = reference_adam(initial, grads, 0.01, (0.9, 0.999), 1e-8, weight_decay)
        return fused, expected, initial

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_fifty_steps_bit_identical_to_expression_chain(self, weight_decay):
        fused, expected, _ = self._run(weight_decay)
        for step, (got, want) in enumerate(zip(fused, expected)):
            for index, (a, b) in enumerate(zip(got, want)):
                assert np.array_equal(a, b), f"step {step}, parameter {index}"

    def test_parameter_without_grad_is_untouched(self):
        fused, _, initial = self._run(5e-4)
        assert np.array_equal(fused[-1][2], initial[2])

    def test_step_rebinds_and_never_mutates_previous_data(self):
        p = Parameter(np.array([1.0, -2.0, 3.0]))
        optimizer = Adam([p], lr=0.1, weight_decay=0.01)
        for _ in range(3):
            before = p.data
            snapshot = before.copy()
            optimizer.zero_grad()
            quadratic_loss(p, np.zeros(3)).backward()
            optimizer.step()
            assert p.data is not before
            assert np.array_equal(before, snapshot)
            assert not np.array_equal(p.data, snapshot)
