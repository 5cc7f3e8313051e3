"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter


class NonFiniteGradient(RuntimeError):
    """A parameter's gradient went non-finite; the step was aborted."""


@dataclass
class OptimizerState:
    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_step(state: OptimizerState, params: list[Parameter]) -> None:
    """One AdamW update in place. Weight decay is decoupled and applied only
    to decay-eligible parameters; moments use bias correction."""
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p.name} has no gradient")
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradient(f"non-finite gradient on parameter {p.name}")

    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for p in params:
        g = p.grad
        m = state.m.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.data)
            state.v[p.name] = np.zeros_like(p.data)
        v = state.v[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        update = m_hat / (np.sqrt(v_hat) + state.eps)
        if state.weight_decay != 0.0 and p.decay:
            update = update + state.weight_decay * p.data
        p.data -= (state.lr * update).astype(p.dtype, copy=False)


def grad_norm(params: list[Parameter]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_gradients(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients uniformly so the global L2 norm is <= max_norm.
    Returns the scale factor applied (1.0 when already within bounds)."""
    norm = grad_norm(params)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in params:
        if p.grad is not None:
            p.grad = p.grad * p.dtype.type(factor)
    return factor
