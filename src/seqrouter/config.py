"""Run configuration: one flat dataclass, readable from key=value files,
with per-task defaults matching the reference hyperparameter grid."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path

from .layers import ACTConfig
from .model import ModelConfig

@dataclass
class RunConfig:
    task: str = "ctl_fwd"
    # model
    d_model: int = 256
    d_ff: int = 512
    n_heads: int = 1
    n_layers: int = 14
    test_steps: int | None = None
    kind: str = "geometric"
    gated: bool = True
    readout: str = "last"
    act: str = "none"  # none | A | U
    act_epsilon: float = 0.01
    act_reg_weight: float = 0.03
    dropout: float = 0.5
    att_dropout: float = 0.1
    # optimization
    batch_size: int = 512
    lr: float = 1.5e-4
    weight_decay: float = 0.01
    grad_clip: float = 5.0
    n_iters: int = 30_000
    eval_every: int = 1000
    seed: int = 0
    # paths
    data_dir: str = "data/ctl_fwd"
    out_dir: str = "runs/run"

    def model_config(self, vocab_size: int, n_classes: int) -> ModelConfig:
        act = None
        if self.act != "none":
            act = ACTConfig(variant=self.act, epsilon=self.act_epsilon,
                            reg_weight=self.act_reg_weight)
        # Shared fields are copied by name; act is a string here, an ACTConfig there.
        names = {f.name for f in dataclasses.fields(ModelConfig)} - {"act"}
        shared = {k: v for k, v in self.to_dict().items() if k in names}
        return ModelConfig(vocab_size=vocab_size, n_classes=n_classes, act=act, **shared)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# Each task's differences from the RunConfig defaults, which are the ctl recipe.
_TASK_DEFAULTS = {
    "ctl_fwd": {},
    "ctl_bwd": {},
    "arith": dict(d_ff=1024, n_heads=4, n_layers=15, grad_clip=1.0, n_iters=100_000),
    "listops": dict(d_model=512, d_ff=1024, n_heads=16, n_layers=20, test_steps=24, lr=2e-4,
                    weight_decay=0.09, dropout=0.1, grad_clip=1.0, n_iters=100_000),
}


def default_config(task: str) -> RunConfig:
    """Defaults reproducing the gated geometric-attention rows of the
    hyperparameter tables for each task."""
    if task not in _TASK_DEFAULTS:
        raise ValueError(f"unknown task {task!r}")
    return RunConfig(task=task, data_dir=f"data/{task}", **_TASK_DEFAULTS[task])


_HINTS = typing.get_type_hints(RunConfig)


def _coerce(key: str, raw: str):
    if key not in _HINTS:
        raise ValueError(f"unknown config key {key!r}")
    hint = _HINTS[key]
    raw = raw.strip()
    if hint is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r} expects a boolean, got {raw!r}")
    if hint not in (int, float, str):
        # Optional[int] is the only other hint in use.
        if raw.lower() in ("none", ""):
            return None
        hint = int
    try:
        return hint(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {hint.__name__}, got {raw!r}") from None


def load_config(path) -> RunConfig:
    """Flat key = value text; '#' starts a comment. Unknown keys are
    rejected. The task's defaults fill everything unspecified."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = line.split("=", 1)
        pairs[key.strip()] = raw
    task = pairs.get("task", "ctl_fwd").strip()
    cfg = default_config(task)
    for key, raw in pairs.items():
        setattr(cfg, key, _coerce(key, raw))
    return cfg


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        setattr(cfg, key.strip(), _coerce(key.strip(), raw))
    return cfg
