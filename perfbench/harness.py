"""Set-up, train steps and the eval pass of one workload.

Everything here drives the package through its public entry points in the
order ``train.train`` calls them. Calls go through module attributes
(``train.encode_batch``, ``model_mod.loss``, ``optim.adamw_step``) so that
the traced run can wrap those functions from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seqrouter import model as model_mod
from seqrouter import optim, tasks, train
from seqrouter.attention import Mode
from seqrouter.autodiff import Tape, zero_grads
from seqrouter.model import EncoderModel
from seqrouter.rng import RngTree
from seqrouter.tasks.data import Sample, Vocab

from workloads import Workload


# Eval batch size: evaluate_model's default, as ``seqrouter eval`` uses it.
EVAL_BATCH = 256


class NonFiniteLoss(RuntimeError):
    pass


@dataclass
class Run:
    """One workload's data, model and optimizer, plus its loss history."""

    wl: Workload
    seed: int
    data_dir: Path
    generated: dict[str, list[Sample]]
    train_set: list[Sample]
    eval_set: list[Sample]
    vocab: Vocab
    model: EncoderModel
    opt: optim.OptimizerState
    batch_gen: np.random.Generator
    drop_tree: RngTree
    losses: list[bytes] = field(default_factory=list)  # float32 loss bytes per step
    failed: int = 0

    @property
    def step(self) -> int:
        return len(self.losses)

    def loss_digest(self) -> str:
        """SHA-256 over the loss bytes of the first ``fixed_steps`` steps."""
        return hashlib.sha256(b"".join(self.losses[:self.wl.fixed_steps])).hexdigest()

    def loss_values(self) -> list[float]:
        return [float(np.frombuffer(b, dtype=np.float32)[0]) for b in self.losses]


def prepare(wl: Workload, seed: int, data_dir: Path) -> Run:
    """Generate, write and read back the data, then build model and optimizer."""
    generated = tasks.generate_to_dir(wl.task, seed, data_dir, plan=wl.plan(), workers=1)
    train_set = tasks.load_split(data_dir, "train")
    eval_set = tasks.load_split(data_dir, "valid_ood")
    vocab = tasks.vocab_for_task(wl.task)
    root = RngTree(seed)
    model = EncoderModel.build(wl.model_config(vocab), root.child("model"))
    opt = optim.OptimizerState(lr=wl.lr, weight_decay=wl.weight_decay)
    return Run(wl, seed, data_dir, generated, train_set, eval_set, vocab, model, opt,
               root.child("batches").generator(), root.child("dropout"))


def train_step(run: Run) -> None:
    """Batch draw and encode, forward, loss, backward, clip and AdamW.

    Appends the step's loss; raises on a non-finite loss or gradient."""
    it = run.step
    idx = run.batch_gen.integers(0, len(run.train_set), size=run.wl.batch_size)
    tokens, lengths, targets = train.encode_batch([run.train_set[i] for i in idx], run.vocab)
    if run.wl.pad_to is not None:
        tokens = np.pad(tokens, ((0, 0), (0, run.wl.pad_to - tokens.shape[1])))
    mode = Mode(train=True, rng=run.drop_tree.child(f"iter{it}"))
    params = run.model.parameters()
    zero_grads(params)
    run.losses.append(np.float32(np.nan).tobytes())
    with Tape() as tape:
        out = run.model.forward(tokens, lengths, mode=mode)
        step_loss = model_mod.loss(out, targets)
        run.losses[-1] = np.asarray(step_loss.data, dtype=np.float32).tobytes()
        if not np.isfinite(step_loss.item()):
            raise NonFiniteLoss(f"non-finite loss at step {it}")
        tape.backward(step_loss)
    optim.clip_gradients(params, run.wl.grad_clip)
    optim.grad_norm(params)
    optim.adamw_step(run.opt, params)


def guarded_step(run: Run) -> None:
    """One train step that counts, rather than raises, a failure."""
    try:
        train_step(run)
    except Exception:  # every failed step is counted and reported
        run.failed += 1
        traceback.print_exc(file=sys.stderr)


def setup(wl: Workload, seed: int, data_dir: Path,
          around_warmup=contextlib.nullcontext) -> tuple[Run, float]:
    """Data generation, JSONL write/read, model build and one warm-up
    train step (step 0); returns the run and the seconds it took."""
    t0 = time.perf_counter()
    run = prepare(wl, seed, data_dir)
    with around_warmup():
        guarded_step(run)
    return run, time.perf_counter() - t0


def timed_steps(run: Run, seconds: float, on_step=None) -> tuple[list[float], float]:
    """Train until ``seconds`` have passed and at least ``fixed_steps``
    steps exist; returns each step's wall time and the process CPU time
    of them all, in seconds."""
    times = []
    start = time.perf_counter()
    cpu0 = time.process_time()
    while run.step < run.wl.fixed_steps or time.perf_counter() - start < seconds:
        if on_step is not None:
            on_step(run.step)
        t0 = time.perf_counter()
        guarded_step(run)
        times.append(time.perf_counter() - t0)
    return times, time.process_time() - cpu0


def eval_batches(run: Run) -> int:
    return math.ceil(len(run.eval_set) / EVAL_BATCH)


def eval_pass(run: Run) -> tuple[float, float | None]:
    """One forward-only pass over the held-out split at the recipe's step
    count; returns (seconds, accuracy), accuracy None on failure."""
    t0 = time.perf_counter()
    try:
        acc = train.evaluate_model(run.model, run.eval_set, run.vocab, EVAL_BATCH)
    except Exception:  # counted as failed eval batches
        traceback.print_exc(file=sys.stderr)
        acc = None
    return time.perf_counter() - t0, acc


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten steps beyond it, as
    (value, percentile). With ten or fewer steps no such percentile exists
    and the slowest step stands in, reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11  # ten steps lie above ordered[k]
    return ordered[k], 100.0 * k / (n - 1)

