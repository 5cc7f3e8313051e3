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
    valid (B, N); returns (next states (M, d), attention weights
    (B, H, N, N), gate (M, d) or None).

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
    t_max: int | None = None  # None: use the model's step count
    epsilon: float = 0.01
    reg_weight: float = 0.03

    def __post_init__(self):
        if self.variant not in ("A", "U"):
            raise ValueError(f"unknown ACT variant: {self.variant}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.t_max is not None and self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")


@dataclass
class ActResult:
    readout: Tensor          # (M, d) per-token halting-weighted states
    ponder: np.ndarray       # (M,) readout step per token, 1-based
    remainder: Tensor        # (M,)
    act_loss: Tensor         # scalar: reg_weight * per-sequence mean, averaged over the batch


def act_halting(h: Tensor, w_h: Parameter, b_h: Parameter) -> Tensor:
    """Halting unit: p_hat = sigmoid(W_H h + b_H), one per row of h."""
    return ad.reshape(ad.sigmoid(ad.matmul(h, w_h, b_h)), h.shape[:-1])


def _halt_steps(p_hats: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-column halt step (1-based, T if never crossed) and whether the
    float64 cumulative sum crosses 1 - epsilon; shared so all callers agree."""
    crossed = np.cumsum(np.asarray(p_hats, dtype=np.float64), axis=0) >= 1.0 - epsilon
    any_cross = crossed.any(axis=0)
    return np.where(any_cross, np.argmax(crossed, axis=0) + 1, crossed.shape[0]), any_cross


def act_schedule(p_hats: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure remainder-correct schedule over a (T, ...) stack of halting
    units. Returns (halt step 1-based, per-step readout weights, remainder).
    Columns that never cross the threshold read out at T with the remainder
    as their final weight, so weights always sum to 1."""
    p_hats = np.asarray(p_hats, dtype=np.float64)
    t_max = p_hats.shape[0]
    halt_step, _ = _halt_steps(p_hats, epsilon)
    steps = np.arange(1, t_max + 1).reshape((t_max,) + (1,) * (p_hats.ndim - 1))
    running = steps < halt_step
    halting = steps == halt_step
    cum_before = np.cumsum(p_hats, axis=0) - p_hats
    remainder = np.take_along_axis(1.0 - cum_before, halt_step[None, ...] - 1, axis=0)[0]
    weights = p_hats * running + remainder * halting
    return halt_step, weights, remainder


def act_readout(states: list[Tensor], p_hats: list[Tensor], cfg: ACTConfig,
                lengths: np.ndarray) -> ActResult:
    """Combine per-step packed states (M, d) into per-token readouts; the
    sequences' lengths, which sum to M, weight the regularizer.

    Variant A weights state t by p_hat_t while running and by the remainder
    at the halt step (including a proper remainder at t_max). Variant U
    follows the universal-transformer listing: the same weights, but states
    fold in as o <- w*h + (1-w)*o, and columns that never cross the
    threshold get no remainder correction.
    """
    if not states:
        raise ValueError("act_readout needs at least one step")
    t_max = len(states)
    m = states[0].shape[0]
    halt_step, any_cross = _halt_steps(np.stack([p.data for p in p_hats]), cfg.epsilon)

    dtype = states[0].dtype.type
    readout: Tensor | None = None
    remainder: Tensor | None = None
    run_sum: Tensor | None = None
    for t in range(1, t_max + 1):
        running = (t < halt_step).astype(dtype)
        halting = (t == halt_step).astype(dtype)
        if cfg.variant == "U":
            # Never-crossing columns stay "running" through t_max and keep
            # plain p_hat weights; their remainder is left unhandled.
            halting = halting * any_cross.astype(dtype)
            running = running + (t == halt_step).astype(dtype) * (1.0 - any_cross.astype(dtype))
        p_t = p_hats[t - 1]
        if run_sum is None:
            rem_t = Tensor(np.ones(m, dtype=dtype))
        else:
            rem_t = ad.shift(ad.scale(run_sum, -1.0), 1.0)
        w_t = ad.add(ad.mul(p_t, Tensor(running)), ad.mul(rem_t, Tensor(halting)))
        w_col = ad.reshape(w_t, (m, 1))
        if readout is None:
            readout = ad.mul(w_col, states[t - 1])
        elif cfg.variant == "A":
            readout = ad.add(readout, ad.mul(w_col, states[t - 1]))
        else:
            readout = ad.blend(w_col, states[t - 1], readout)
        rem_contrib = ad.mul(rem_t, Tensor(halting))
        remainder = rem_contrib if remainder is None else ad.add(remainder, rem_contrib)
        run_sum = p_t if run_sum is None else ad.add(run_sum, p_t)

    # Each sequence's mean remainder, averaged over the batch.
    row_weight = np.repeat(1.0 / lengths / len(lengths), lengths).astype(dtype)
    act_loss = ad.scale(ad.sum_(ad.mul(remainder, Tensor(row_weight))), cfg.reg_weight)
    return ActResult(readout=readout, ponder=halt_step, remainder=remainder, act_loss=act_loss)
