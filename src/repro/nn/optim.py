"""First-order optimisers: the base class and Adam.

The paper trains BiSAGE with a learning rate of 0.003 (Sec. V); Adam is
the conventional choice for GraphSAGE-family models and is the default
throughout the library.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter
from repro.utils.validation import check_positive

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimiser: holds parameters, provides zero_grad/step."""

    def __init__(self, parameters):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters, lr: float = 0.003, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = check_positive(lr, "lr")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = check_positive(eps, "eps")
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
