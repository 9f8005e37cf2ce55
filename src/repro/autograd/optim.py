"""First-order optimisers for :class:`~repro.autograd.module.Parameter` lists."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.autograd.tensor import Tensor
from repro.exceptions import AutogradError


class Optimizer:
    """Base optimiser: tracks a parameter list and clears their gradients."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise AutogradError("optimizer constructed with an empty parameter list")
        if lr <= 0:
            raise AutogradError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Reset gradients of all tracked parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise AutogradError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                velocity = grad if velocity is None else self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = velocity
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with optional weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise AutogradError(f"betas must lie in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """One Adam update, with the moments kept in per-parameter buffers.

        The moments are allocated once and updated in place; the elementwise
        operations run in the textbook order, so results are bit-identical to
        the unfused expression chain.  ``param.data`` is rebound, never
        written in place: state-dict snapshots and recorded vjp closures keep
        references to the previous array.
        """
        self._step_count += 1
        t = self._step_count
        beta1, beta2 = self.beta1, self.beta2
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = self.weight_decay * param.data
                grad += param.grad
            key = id(param)
            m = self._first_moment.get(key)
            if m is None:
                m = self._first_moment[key] = np.zeros_like(param.data)
                self._second_moment[key] = np.zeros_like(param.data)
            v = self._second_moment[key]
            work = np.multiply(1.0 - beta1, grad, out=np.empty_like(m))
            m *= beta1
            m += work
            np.square(grad, out=work)
            work *= 1.0 - beta2
            v *= beta2
            v += work
            # update = lr * m_hat / (sqrt(v_hat) + eps)
            update = np.divide(m, 1.0 - beta1 ** t, out=np.empty_like(m))
            update *= self.lr
            np.divide(v, 1.0 - beta2 ** t, out=work)
            np.sqrt(work, out=work)
            work += self.eps
            update /= work
            param.data = param.data - update
