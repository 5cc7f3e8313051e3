"""Minimal reverse-mode autodiff on numpy arrays.

Tensors carry dense float data. Every differentiable op states its forward
value, its operands and one vector-Jacobian product that maps the output's
gradient to one gradient per operand, and ``_op`` records them as one
backward closure on the active :class:`Tape`. Recording order
is execution order, which is a valid topological order, so the backward
pass just walks the tape in reverse. Training runs in float32; gradient
checks run the same code in float64.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import RngTree


# glibc's mallopt parameters, from malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> bool:
    """Keep freed memory in the process where glibc's ``mallopt`` exists;
    elsewhere do nothing. Returns whether it applied.

    Arrays below 32 MiB then come from the heap, not from mmaps of their
    own, and the heap returns memory to the system only past 1 GiB free.
    Otherwise glibc unmaps what one train step or eval pass frees, and the
    next pass faults the same temporaries in again, page by page."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    return mmap_set == trim_set == 1


_keep_freed_memory()


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class TapeError(RuntimeError):
    """Tape misuse: backward without a tape, or a second backward."""


class GradCheckError(RuntimeError):
    """Non-finite values encountered during a gradient check."""


_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Records ops of one forward pass; replays them in reverse for grads."""

    def __init__(self):
        self._nodes: list[Callable[[], None]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPES.pop()

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._nodes.append(backward_fn)

    def backward(self, loss: "Tensor") -> None:
        if self._spent:
            raise TapeError("backward() already ran on this tape")
        if loss.data.ndim != 0:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        # Pop each node before running it: once it returns, nothing holds its
        # closure, so the forward arrays it captured and the gradient of an
        # output no caller kept are freed while the walk goes on.
        nodes = self._nodes
        while nodes:
            nodes.pop()()


def _tape() -> Tape | None:
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


class _GradSlot:
    """A tensor's gradient state, which the tape holds in place of the
    tensor: the gradient, whether one is wanted, and whether the gradient
    array is this slot's own to update in place."""

    __slots__ = ("grad", "requires_grad", "owns_grad")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.owns_grad = False

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient.

        A C-contiguous first gradient is adopted without a copy. It may be
        shared, e.g. ``add`` hands one array to both operands, so the first
        accumulation into it allocates a new array, and only arrays
        allocated here are updated in place. Any other first gradient is
        copied to C order: numpy's reductions follow memory layout, so a
        strided view would round differently downstream.
        """
        if self.grad is None:
            self.owns_grad = not g.flags.c_contiguous
            self.grad = g.copy() if self.owns_grad else g
        elif self.owns_grad:
            self.grad += g
        else:
            self.grad = self.grad + g
            self.owns_grad = True


class Tensor:
    """Dense n-dimensional array of reals, optionally tracked for gradients.

    The gradient lives in a small slot that tape nodes refer to, so a node
    never keeps a tensor, and with it its data, alive."""

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self._slot = _GradSlot(requires_grad)

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._slot.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self._slot.requires_grad = flag

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named, trainable tensor. Weight matrices are weight-decayed; biases
    and gains are not."""

    __slots__ = ("name", "decay")

    def __init__(self, data, name: str, decay: bool = True, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name
        self.decay = decay

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, decay={self.decay})"


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def parameters(bundle) -> list[Parameter]:
    """Every Parameter field of a dataclass, in declaration order, with
    nested dataclasses walked in place and None fields skipped. The order
    is load-bearing: gradient norms are summed in list order."""
    out: list[Parameter] = []
    for f in dataclasses.fields(bundle):
        value = getattr(bundle, f.name)
        if isinstance(value, Parameter):
            out.append(value)
        elif dataclasses.is_dataclass(value):
            out += parameters(value)
    return out


def check_unique_names(params: Sequence[Parameter]) -> None:
    seen: set[str] = set()
    for p in params:
        if p.name in seen:
            raise ValueError(f"duplicate parameter name: {p.name}")
        seen.add(p.name)


# ---------------------------------------------------------------------------
# op plumbing


def _op(data: np.ndarray, operands: Sequence[Tensor],
        vjp: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """Wrap an op's forward value and record its backward on the active tape.

    ``vjp`` maps the output's gradient to one gradient per operand, in
    operand order, so backward work that the operands share is done once.
    The output requires grad when any operand does. The recorded node
    holds gradient slots, never tensors, so ``vjp`` must capture exactly
    the arrays and shapes it reads: every other array the forward pass
    drops is freed at once. The node does nothing when the output got no
    gradient; otherwise it runs ``vjp`` once and accumulates, in operand
    order, into every operand that requires grad by then, dropping the
    others' gradients. A ``vjp`` that returns more or fewer gradients than
    there are operands raises ValueError.
    """
    out = Tensor(data, any(t.requires_grad for t in operands))
    tape = _tape()
    if tape is not None and out.requires_grad:
        slot, slots = out._slot, [t._slot for t in operands]

        def bwd():
            if slot.grad is None:
                return
            for operand, g in zip(slots, vjp(slot.grad), strict=True):
                if operand.requires_grad:
                    operand.accumulate(g)

        tape.record(bwd)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_same_dtype(a: Tensor, *others: Tensor | None) -> None:
    for b in others:
        if b is not None and a.dtype != b.dtype:
            raise ValueError(f"mixed dtypes: {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    sa, sb = a.shape, b.shape
    return _op(data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def scale(a: Tensor, c: float) -> Tensor:
    c = a.dtype.type(c)
    return _op(a.data * c, (a,), lambda g: (g * c,))


def blend(w: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Convex mix w * a + (1 - w) * b, broadcasting; the node keeps w, a and b, not 1 - w.
    w's gradient is two reductions and a difference; one reduction of g * (a - b) rounds otherwise."""
    _check_same_dtype(w, a, b)
    u, x, y, one = w.data, a.data, b.data, w.dtype.type(1)
    return _op(u * x + (one - u) * y, (w, a, b),
               lambda g: (_unbroadcast(g * x, u.shape) - _unbroadcast(g * y, u.shape),
                          _unbroadcast(g * u, x.shape), _unbroadcast(g * (one - u), y.shape)))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b (+ bias)`` for a >=2-D ``a`` and a 2-D weight ``b``: all
    leading axes of ``a`` fold into one (M, k) matrix, so forward and both
    product gradients are single GEMMs and the weight gradient needs no
    per-sample reduction."""
    _check_same_dtype(a, b, bias)
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs a >=2-d left operand and a 2-d weight, "
                             f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    x, w = a.data, b.data
    k, n = w.shape
    data = np.matmul(x.reshape(-1, k), w).reshape(x.shape[:-1] + (n,))

    def vjp(g):
        g2 = g.reshape(-1, n)
        # With one column each input-gradient cell is a single product, so
        # the broadcast product has the GEMM's bytes at a fraction of its time.
        gx = g2 * w.T if n == 1 else np.matmul(g2, w.T)
        return gx.reshape(x.shape), np.matmul(x.reshape(-1, k).T, g2)

    if bias is None:
        return _op(data, (a, b), vjp)
    data += bias.data
    bias_shape = bias.shape
    return _op(data, (a, b, bias), lambda g: vjp(g) + (_unbroadcast(g, bias_shape),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _op(np.maximum(a.data, 0), (a,), lambda g: (g * mask,))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoids(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sigmoid(x) and log(1 - sigmoid(x)) = log sigmoid(-x), sharing one
    log1p(exp(-|x|)); exact at |x| = 1e9."""
    soft = np.log1p(np.exp(-np.abs(x)))
    return np.minimum(x, 0) - soft, np.minimum(-x, 0) - soft


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid_np(a.data)
    return _op(y, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _op(y, (a,), lambda g: (g * (1.0 - y * y),))


def layernorm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = xc * inv
    gd = gain.data

    bias_shape = bias.shape

    def vjp(g):
        dxhat = g * gd
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return _unbroadcast(g * xhat, gd.shape), _unbroadcast(g, bias_shape), term * inv

    return _op(xhat * gd + bias.data, (gain, bias, a), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.shape[0]:
        raise ValueError(f"embedding ids out of range [0, {table.shape[0]})")
    shape, dtype = table.shape, table.dtype

    def vjp(g):
        gt = np.zeros(shape, dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _op(table.data[ids], (table,), vjp)


def dropout(a: Tensor, rate: float, gen: np.random.Generator) -> Tensor:
    """Inverted dropout; call only in train mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = gen.random(a.shape) >= rate
    s = a.dtype.type(1.0) / a.dtype.type(1.0 - rate)
    return _op(a.data * (keep * s), (a,), lambda g: (g * (keep * s),))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of (B, C) logits against integer targets (B,)."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2:
        raise DimensionError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    b, c = logits.shape
    if targets.shape != (b,):
        raise DimensionError(f"targets shape {targets.shape} does not match batch {b}")
    if targets.min() < 0 or targets.max() >= c:
        raise ValueError(f"target class out of range [0, {c})")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=-1, keepdims=True)
    logp = (x - m) - np.log(z)
    nll = -logp[np.arange(b), targets].mean()

    def vjp(g):
        p = e / z
        p[np.arange(b), targets] -= 1.0
        return (p * (g / b),)

    return _op(np.asarray(nll, dtype=x.dtype), (logits,), vjp)


# ---------------------------------------------------------------------------
# parameter init


class Init:
    """Builds named Parameters with per-parameter random streams.

    Linear weights draw from uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
    biases start at a constant (zero unless stated otherwise).
    """

    def __init__(self, rng: RngTree, dtype=np.float32, prefix: str = ""):
        self.rng = rng
        self.dtype = dtype
        self.prefix = prefix

    def sub(self, name: str) -> "Init":
        return Init(self.rng, self.dtype, self._name(name))

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def linear(self, name: str, fan_in: int, fan_out: int) -> Parameter:
        bound = 1.0 / math.sqrt(fan_in)
        gen = self.rng.child(f"init/{self._name(name)}").generator()
        data = gen.uniform(-bound, bound, size=(fan_in, fan_out)).astype(self.dtype)
        return Parameter(data, self._name(name), decay=True)

    def bias(self, name: str, shape, value: float = 0.0) -> Parameter:
        data = np.full(shape, value, dtype=self.dtype)
        return Parameter(data, self._name(name), decay=False)

    def gain(self, name: str, shape, value: float = 1.0) -> Parameter:
        data = np.full(shape, value, dtype=self.dtype)
        return Parameter(data, self._name(name), decay=False)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn: Callable[[Sequence[Tensor]], Tensor], points: Sequence[Tensor], step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps the given tensors to a scalar Tensor and must be
    deterministic. Points must be float64 or wider; extended precision
    keeps the difference quotient meaningful on coordinates whose true
    gradient is structurally tiny.
    """
    for p in points:
        if not np.issubdtype(p.dtype, np.floating) or p.data.itemsize < 8:
            raise ValueError("grad_check requires float64 or wider inputs")
        p.grad = None
        p.requires_grad = True

    with Tape() as tape:
        loss = fn(points)
        tape.backward(loss)
    if not np.isfinite(loss.data):
        raise GradCheckError("loss is not finite at the given point")
    analytic = []
    for p in points:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise GradCheckError("analytic gradient has non-finite entries")
        analytic.append(g.copy())

    worst = 0.0
    for p, g in zip(points, analytic):
        flat = p.data.reshape(-1)
        h = p.dtype.type(step)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn(points).data
            flat[i] = orig - h
            f_minus = fn(points).data
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            if not np.isfinite(numeric):
                raise GradCheckError("numeric gradient is not finite")
            a = g.reshape(-1)[i]
            rel = float(abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12))
            worst = max(worst, rel)
    return worst
