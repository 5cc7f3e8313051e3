"""One shared encoder step in all ablation variants, plus adaptive-depth
readout wrappers.

With a copy gate the step computes attention with a residual and
layernorm, a feedforward update WITHOUT a residual, and a sigmoid gate
that blends the update with the unchanged input per channel; a closed
gate copies the column to the next step bit for bit. Without one it is a
standard post-norm encoder layer. The LayerParams bundle is the only
record of the variant. Parameters are shared across steps by reusing the
same LayerParams object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as att
from . import autodiff as ad
from .attention import AttentionConfig, Mode, EVAL
from .autodiff import Init, Parameter, Tensor

GATE_BIAS_INIT = -3.0


@dataclass
class LayerParams:
    attn: object
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter
    ln_att_g: Parameter
    ln_att_b: Parameter
    gate_w1: Parameter | None = None
    gate_b1: Parameter | None = None
    gate_w2: Parameter | None = None
    gate_b2: Parameter | None = None
    ln_ffn_g: Parameter | None = None
    ln_ffn_b: Parameter | None = None


def init_layer(init: Init, att_cfg: AttentionConfig, gated: bool, d_ff: int) -> LayerParams:
    """The one place that decides which parameters a variant has;
    encoder_step reads the variant back from them."""
    d = att_cfg.d_model
    attn = att.init_attention(init.sub("att"), att_cfg)
    lp = LayerParams(
        attn=attn,
        ffn_w1=init.linear("ffn_w1", d, d_ff),
        ffn_b1=init.bias("ffn_b1", d_ff),
        ffn_w2=init.linear("ffn_w2", d_ff, d),
        ffn_b2=init.bias("ffn_b2", d),
        ln_att_g=init.gain("ln_att_g", d),
        ln_att_b=init.bias("ln_att_b", d),
    )
    if gated:
        lp.gate_w1 = init.linear("gate_w1", d, d)
        lp.gate_b1 = init.bias("gate_b1", d)
        lp.gate_w2 = init.linear("gate_w2", d, d)
        lp.gate_b2 = init.bias("gate_b2", d, value=GATE_BIAS_INIT)
    # Gated non-geometric variants squash the update with tanh instead of
    # a layernorm, so they get no ln_ffn parameters.
    if not gated or att_cfg.kind == "geometric":
        lp.ln_ffn_g = init.gain("ln_ffn_g", d)
        lp.ln_ffn_b = init.bias("ln_ffn_b", d)
    return lp


def _ffn(x: Tensor, w1, b1, w2, b2, drop: float, mode: Mode, site: str) -> Tensor:
    hidden = att._maybe_dropout(ad.relu(ad.matmul(x, w1, b1)), drop, mode, site)
    return ad.matmul(hidden, w2, b2)


def encoder_step(h: Tensor, lp: LayerParams, valid: np.ndarray, mode: Mode = EVAL,
                 drop: float = 0.0):
    """One shared step on packed states h (M, d), one row per true cell of
    valid (B, N); returns (next states (M, d), attention weights (one
    (B_b, H, N_b, N_b) array per length band, see attention.attend), gate
    (M, d) or None).

    Attention with a residual and layernorm feeds the FFN. With gate
    parameters the FFN update (tanh-squashed, or layernormed when lp has
    ln_ffn parameters) is blended with h by the sigmoid gate; without them
    the step is a post-norm residual layer and the gate is None."""
    att_out, weights = att.attend(h, lp.attn, valid, mode)
    a = ad.layernorm(ad.add(att_out, h), lp.ln_att_g, lp.ln_att_b)
    update = _ffn(a, lp.ffn_w1, lp.ffn_b1, lp.ffn_w2, lp.ffn_b2, drop, mode, "ffn")
    if lp.gate_w1 is None:
        gate = None
        out = ad.layernorm(ad.add(update, a), lp.ln_ffn_g, lp.ln_ffn_b)
    else:
        if lp.ln_ffn_g is None:
            update = ad.tanh(update)
        else:
            update = ad.layernorm(update, lp.ln_ffn_g, lp.ln_ffn_b)
        gate = ad.sigmoid(_ffn(a, lp.gate_w1, lp.gate_b1, lp.gate_w2, lp.gate_b2, 0.0, mode, "gate"))
        out = ad.blend(gate, update, h)
    return out, weights, gate


# ---------------------------------------------------------------------------
# adaptive computation time


@dataclass
class ACTConfig:
    variant: str = "A"  # A: remainder-correct readout; U: universal-transformer listing
    epsilon: float = 0.01
    reg_weight: float = 0.03

    def __post_init__(self):
        if self.variant not in ("A", "U"):
            raise ValueError(f"unknown ACT variant: {self.variant}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass
class ActResult:
    readout: Tensor          # (M, d) per-token halting-weighted states
    ponder: np.ndarray       # (M,) readout step per token, 1-based
    remainder: np.ndarray    # (M,)
    act_loss: Tensor         # scalar: reg_weight * per-sequence mean, averaged over the batch


def act_halting(h: Tensor, w_h: Parameter, b_h: Parameter) -> Tensor:
    """Halting unit: p_hat = sigmoid(W_H h + b_H), an (M, 1) column for states h (M, d)."""
    return ad.sigmoid(ad.matmul(h, w_h, b_h))


def act_schedule(p_hats: np.ndarray, epsilon: float, variant: str = "A"
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The halting schedule of a (T, ...) stack of halting units. Returns
    (halt step, per-step readout weights, remainder), the last two in the
    dtype of p_hats.

    A column halts at the first step whose float64 cumulative sum reaches
    1 - epsilon, or at T. Before it a step's weight is p_hat_t; at it the
    weight is the remainder 1 - sum_{s<t} p_hat_s, so the weights sum to 1.
    Variant U gives a column that never crosses p_hat_T at T and no
    remainder; its halt step reads T + 1, one past the steps it runs."""
    p_hats = np.asarray(p_hats)
    t_max = p_hats.shape[0]
    crossed = np.cumsum(p_hats, axis=0, dtype=np.float64) >= 1.0 - epsilon
    halt_step = np.where(crossed.any(axis=0), np.argmax(crossed, axis=0) + 1, t_max + (variant == "U"))
    steps = np.arange(1, t_max + 1).reshape((t_max,) + (1,) * (p_hats.ndim - 1))
    before = np.concatenate([np.zeros_like(p_hats[:1]), np.cumsum(p_hats[:-1], axis=0)])
    remainders = np.where(steps == halt_step, 1 - before, 0)
    return halt_step, np.where(steps < halt_step, p_hats, 0) + remainders, remainders.sum(axis=0)


def act_readout(states: list[Tensor], p_hats: list[Tensor], cfg: ACTConfig,
                lengths: np.ndarray) -> ActResult:
    """Combine per-step packed states (M, d) into per-token readouts by the
    schedule of the (M, 1) halting columns, in two tape nodes: the fold, and
    reg_weight times each sequence's mean remainder averaged over the batch
    (the sequences' lengths sum to M). Variant A reads out sum_t w_t h_t;
    variant U, the universal-transformer listing, folds o <- w h + (1 - w) o.
    The VJPs to the halting units hold each halt step fixed."""
    if not states:
        raise ValueError("act_readout needs at least one step")
    t_max, hs = len(states), [t.data for t in states]
    halt_step, weights, remainder = act_schedule(np.stack([p.data for p in p_hats]), cfg.epsilon, cfg.variant)
    steps = np.arange(1, t_max + 1)[:, None, None]
    running, halting = steps < halt_step, steps == halt_step

    readout, folds = weights[0] * hs[0], []  # U's weight gradients read each partial fold
    for w, h in zip(weights[1:], hs[1:]):
        if cfg.variant == "A":
            readout = readout + w * h
        else:
            folds.append(readout)
            readout = w * h + (1 - w) * readout

    def fold_vjp(g):
        g_states, g_w = [None] * t_max, np.empty_like(weights)
        for t in reversed(range(t_max)):
            g_states[t] = g * weights[t]
            g_w[t] = (g * hs[t]).sum(axis=-1, keepdims=True)
            if folds and t > 0:
                g_w[t] -= (g * folds[t - 1]).sum(axis=-1, keepdims=True)
                g = g * (1 - weights[t])
        g_p = np.where(running, g_w - np.where(halting, g_w, 0).sum(axis=0), 0)
        return g_states + list(g_p)

    readout = ad._op(readout, states + p_hats, fold_vjp)
    row_weight = np.repeat(1.0 / lengths / len(lengths), lengths).astype(weights.dtype)
    reg, took_remainder = weights.dtype.type(cfg.reg_weight), halting.any(axis=0)
    # A column running at step T halts after it and takes no remainder, so
    # the last halting unit gets no gradient here and is no operand.
    act_loss = ad._op((remainder[:, 0] * row_weight).sum() * reg, p_hats[:-1], lambda g: list(
        np.where(running[:-1] & took_remainder, -(g * reg * row_weight[:, None]), 0)))
    return ActResult(readout=readout, ponder=np.minimum(halt_step[:, 0], t_max),
                     remainder=remainder[:, 0], act_loss=act_loss)
