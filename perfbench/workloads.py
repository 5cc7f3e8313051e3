"""The benchmark's workloads: three gated geometric encoders at a recipe's
shape, each with its own data plan and step budget.

Shapes are pinned here rather than read from ``configs/`` so that a later
edit to a recipe file cannot silently change what the benchmark measures.
The comment above each workload names the recipe it copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from seqrouter.model import ModelConfig
from seqrouter.tasks import listops
from seqrouter.tasks.data import SplitPlan, SplitSpec, Vocab


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    model: dict
    batch_size: int
    lr: float
    weight_decay: float
    grad_clip: float
    train_depths: tuple[int, ...]
    train_size: int
    eval_depths: tuple[int, ...]
    eval_size: int
    # Train steps, warm-up included, that every run makes whatever its
    # time budget; the loss digest covers exactly these steps, and
    # train_loss_final is the mean loss over the last ``loss_window`` of them.
    fixed_steps: int
    loss_window: int
    # Full set-ups per end-to-end run; setup_s is their median.
    setup_repeats: int
    why: str
    # Pad every train batch to this many columns instead of its longest
    # sequence, so that each step does the same work whatever the seed.
    pad_to: int | None = None

    def plan(self) -> SplitPlan:
        return SplitPlan((SplitSpec("train", self.train_depths, self.train_size),
                          SplitSpec("valid_ood", self.eval_depths, self.eval_size)))

    def model_config(self, vocab: Vocab) -> ModelConfig:
        return ModelConfig(vocab_size=len(vocab), n_classes=vocab.n_classes,
                           kind="geometric", gated=True, **self.model)


WORKLOADS = {w.name: w for w in (
    # configs/ctl_smoke.cfg
    Workload(
        name="ctl_small", task="ctl_fwd",
        model=dict(d_model=64, d_ff=128, n_heads=2, n_layers=6, dropout=0.1, att_dropout=0.0),
        batch_size=64, lr=1e-3, weight_decay=0.01, grad_clip=5.0,
        train_depths=(1, 2, 3), train_size=8000, eval_depths=(4, 5), eval_size=24576,
        fixed_steps=100, loss_window=20, setup_repeats=3,
        why="per-op Python and tape overhead dominate: 408 tape nodes per step, no op above ~16 ms"),
    # configs/ctl_ndr.cfg at bs128
    Workload(
        name="ctl_wide", task="ctl_fwd",
        model=dict(d_model=256, d_ff=512, n_heads=1, n_layers=14, dropout=0.5, att_dropout=0.1),
        batch_size=128, lr=1.5e-4, weight_decay=0.01, grad_clip=5.0,
        train_depths=(1, 2, 3), train_size=8000, eval_depths=(4, 5), eval_size=1024,
        fixed_steps=4, loss_window=3, setup_repeats=3,
        why="GEMM-bound: matmul backward is most of the step; distance-ordered weights are under 1%"),
    # configs/listops_ndr.cfg at bs8
    Workload(
        name="listops_long", task="listops",
        model=dict(d_model=512, d_ff=1024, n_heads=16, n_layers=20, test_steps=24,
                   dropout=0.1, att_dropout=0.1),
        batch_size=8, lr=2e-4, weight_decay=0.09, grad_clip=1.0,
        train_depths=(1, 2, 3, 4, 5), train_size=200, eval_depths=(6,), eval_size=48,
        fixed_steps=5, loss_window=4, setup_repeats=2, pad_to=listops.MAX_TOKENS + 2,
        why="attention- and memory-bound: 16 heads over ~50 tokens; rejection-sampled data"),
)}
