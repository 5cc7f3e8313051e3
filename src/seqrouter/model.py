"""Encoder model: embedding, T applications of one shared layer, and a
single-column classification readout.

Weight sharing means the step count is a free knob: models can run more
steps at test time than they were trained with, without any new
parameters.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import EVAL, AttentionConfig, Mode, sinusoid_table
from .autodiff import Init, Parameter, Tensor, check_unique_names
from .layers import ACTConfig, ActResult, LayerParams, act_halting, act_readout, encoder_step, init_layer
from .rng import RngTree


@dataclass
class ModelConfig:
    vocab_size: int
    n_classes: int
    d_model: int = 256
    d_ff: int = 512
    n_heads: int = 1
    n_layers: int = 14
    test_steps: int | None = None
    kind: str = "geometric"
    gated: bool = True
    readout: str = "last"
    act: ACTConfig | None = None
    dropout: float = 0.0
    att_dropout: float = 0.0

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be at least 1, got {self.n_layers}")
        for key in ("dropout", "att_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if self.readout not in ("last", "first"):
            raise ValueError(f"readout must be 'last' or 'first', got {self.readout!r}")
        if self.test_steps is not None and self.test_steps < self.n_layers:
            raise ValueError(f"test_steps {self.test_steps} < n_layers {self.n_layers}")
        self.attention_config()  # rejects n_heads below 1 or not dividing d_model

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(self.d_model, self.n_heads, self.kind, content_dropout=self.att_dropout)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if d.get("act") is not None:
            act = dict(d["act"])
            # Older checkpoints store an ACT step cap, null unless it was set.
            t_max = act.pop("t_max", None)
            if t_max is not None:
                raise ValueError(f"ACT t_max={t_max} is no longer supported; "
                                 "ACT runs the model's step count")
            d["act"] = ACTConfig(**act)
        return cls(**d)


@dataclass
class StepTrace:
    attention: list[np.ndarray] = field(default_factory=list)  # per step (H, N, N)
    gates: list[np.ndarray] = field(default_factory=list)      # per step (length, d)


@dataclass
class ForwardOut:
    logits: Tensor
    act: ActResult | None = None
    trace: StepTrace | None = None


@dataclass(eq=False)
class EncoderModel:
    cfg: ModelConfig
    embed: Parameter
    layer: LayerParams
    out_w: Parameter
    out_b: Parameter
    act_w: Parameter | None = None
    act_b: Parameter | None = None

    def __post_init__(self):
        check_unique_names(self.parameters())

    @classmethod
    def build(cls, cfg: ModelConfig, rng: RngTree, dtype=np.float32) -> "EncoderModel":
        init = Init(rng, dtype=dtype)
        embed = init.linear("embed", cfg.vocab_size, cfg.d_model)
        layer = init_layer(init.sub("layer"), cfg.attention_config(), cfg.gated, cfg.d_ff)
        out_w = init.linear("out_w", cfg.d_model, cfg.n_classes)
        out_b = init.bias("out_b", cfg.n_classes)
        act_w = act_b = None
        if cfg.act is not None:
            act_w = init.linear("act_w", cfg.d_model, 1)
            act_b = init.bias("act_b", 1)
        return cls(cfg, embed, layer, out_w, out_b, act_w, act_b)

    def parameters(self) -> list[Parameter]:
        return ad.parameters(self)

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def steps_for(self, mode: Mode) -> int:
        if mode.train or self.cfg.test_steps is None:
            return self.cfg.n_layers
        return self.cfg.test_steps

    def forward(self, tokens: np.ndarray, lengths: np.ndarray, *, steps: int | None = None,
                mode: Mode = EVAL, trace: bool = False) -> ForwardOut:
        tokens = np.asarray(tokens)
        lengths = np.asarray(lengths)
        b, n = tokens.shape
        if lengths.shape != (b,):
            raise ValueError(f"lengths shape {lengths.shape} does not match batch {b}")
        if lengths.min() < 1:
            raise ValueError("empty sequence in batch")
        if lengths.max() > n:
            raise ValueError(f"sequence length {lengths.max()} exceeds the {n} token columns")
        if trace and b != 1:
            raise ValueError("traces are per-example; pass a single sequence")
        steps = steps if steps is not None else self.steps_for(mode)
        # The state is packed: one row per real token, batch-major. Pad
        # columns are never read; only attention sees the (B, N) layout.
        valid = np.arange(n)[None, :] < lengths[:, None]
        ids = tokens[valid]
        if ids.min() < 0 or ids.max() >= self.cfg.vocab_size:
            raise ValueError(f"token id outside vocab of size {self.cfg.vocab_size}")
        dtype = self.embed.dtype

        h = ad.embedding(self.embed, ids)
        if self.cfg.kind == "standard_abs":
            pos = Tensor(sinusoid_table(np.nonzero(valid)[1], self.cfg.d_model, dtype))
            h = ad.add(ad.scale(h, math.sqrt(self.cfg.d_model)), pos)

        rec = StepTrace() if trace else None
        act_cfg = self.cfg.act
        halting = act_cfg.variant if act_cfg is not None else None
        # Only the ACT readout keeps every step's states; a no-tape eval holds one.
        states: list[Tensor] = []
        p_hats: list[Tensor] = []
        for t in range(steps):
            if halting == "U":
                p_hats.append(act_halting(h, self.act_w, self.act_b))
            h, weights, gate = encoder_step(h, self.layer, valid, mode.child(f"step{t}"),
                                            self.cfg.dropout)
            if halting == "A":
                p_hats.append(act_halting(h, self.act_w, self.act_b))
            if halting is not None:
                states.append(h)
            if rec is not None:
                rec.attention.append(weights[0][0].copy())  # B = 1: one band
                if gate is not None:
                    rec.gates.append(gate.data.copy())
        act_res = act_readout(states, p_hats, act_cfg, lengths) if act_cfg is not None else None
        final = h if act_res is None else act_res.readout

        # Each sequence's last or first row in the packed state.
        row = np.cumsum(lengths) - (1 if self.cfg.readout == "last" else lengths)
        picked = ad.embedding(final, row)
        logits = ad.matmul(picked, self.out_w, self.out_b)
        return ForwardOut(logits=logits, act=act_res, trace=rec)


def loss(out: ForwardOut, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy at the readout column, plus the halting
    regularizer when adaptive depth is on."""
    ce = ad.cross_entropy(out.logits, targets)
    if out.act is not None:
        return ad.add(ce, out.act.act_loss)
    return ce


def depth_heuristic(max_graph_depth: int, steps_per_op: int, extra: int) -> int:
    """Suggested step count: deepest path times steps per elementary
    operation, plus slack for readout and cross-column coordination."""
    if steps_per_op < 1:
        raise ValueError("steps_per_op must be >= 1")
    if max_graph_depth < 0:
        raise ValueError("max_graph_depth must be >= 0")
    return max_graph_depth * steps_per_op + extra
