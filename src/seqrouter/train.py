"""Training loop, evaluation, and axis sweeps.

Batches are drawn uniformly with replacement from the train split, padded
to the longest sequence in the batch, and the loss is read at the single
readout column. Iteration ``it`` draws its batch from the stream
``batches/iter{it}`` and its dropout from ``dropout/iter{it}``, so a
checkpoint's iteration fixes every later draw. Every ``eval_every``
iterations the systematically harder validation split is scored and the
best checkpoint retained; reported test numbers always come from that
checkpoint, never the final one.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tasks
from .attention import Mode
from .autodiff import Tape, zero_grads
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, apply_overrides
from .model import EncoderModel, loss as model_loss
from .optim import NonFiniteGradient, OptimizerState, adamw_step, clip_gradients, grad_norm
from .rng import RngTree
from .tasks.data import Sample, Vocab


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainResult:
    cfg: RunConfig
    model: EncoderModel
    opt: OptimizerState
    iteration: int
    best_accuracy: float
    best_iteration: int
    best_path: str
    last_path: str
    metrics_path: str


def encode_batch(samples: list[Sample], vocab: Vocab):
    encoded = [vocab.encode(s.tokens) for s in samples]
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    tokens = np.zeros((len(encoded), lengths.max()), dtype=np.int64)
    for i, e in enumerate(encoded):
        tokens[i, :len(e)] = e
    targets = np.array([vocab.class_id(s.target) for s in samples], dtype=np.int64)
    return tokens, lengths, targets


def evaluate_model(model: EncoderModel, samples: list[Sample], vocab: Vocab,
                   batch_size: int = 256, steps: int | None = None) -> float:
    """Exact-match accuracy of the argmax class over a split."""
    if steps is not None and steps < model.cfg.n_layers:
        raise ValueError(f"test_steps {steps} below trained n_layers {model.cfg.n_layers}")
    if not samples:
        raise ValueError("cannot evaluate on an empty split: it has no samples")
    hits = 0
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo:lo + batch_size]
        tokens, lengths, targets = encode_batch(chunk, vocab)
        out = model.forward(tokens, lengths, steps=steps)
        hits += int((out.logits.data.argmax(axis=-1) == targets).sum())
    return hits / len(samples)


def _check_vocab(header: dict, vocab: Vocab) -> None:
    stored = header.get("vocab")
    if stored is not None and tuple(stored) != vocab.tokens:
        raise ValueError("vocabulary mismatch between checkpoint and dataset")


# Run-config keys a resumed run may change: how long it runs, how often it
# evaluates and where it writes. Every other key shapes the model, the data
# or the optimizer, which the checkpoint fixes.
_RESUME_MAY_CHANGE = ("n_iters", "eval_every", "out_dir")


def _check_resume_config(header: dict, cfg: RunConfig) -> None:
    stored = header.get("run_config")
    if stored is None:
        return
    new = json.loads(json.dumps(cfg.to_dict()))
    differ = sorted(k for k in stored.keys() | new.keys()
                    if k not in _RESUME_MAY_CHANGE and stored.get(k) != new.get(k))
    if differ:
        raise ValueError("resume config differs from the checkpoint's in "
                         + ", ".join(f"{k} ({stored.get(k)!r} -> {new.get(k)!r})" for k in differ))


def evaluate_checkpoint(ckpt_path, split: str, test_steps: int | None = None,
                        data_dir=None) -> float:
    model, _, header = load_checkpoint(ckpt_path)
    data_dir = data_dir or header.get("data_dir")
    if data_dir is None:
        raise ValueError("checkpoint records no data_dir; pass one explicitly")
    task = tasks.dataset_task(data_dir)
    vocab = tasks.vocab_for_task(task)
    _check_vocab(header, vocab)
    samples = tasks.load_split(data_dir, split)
    return evaluate_model(model, samples, vocab, steps=test_steps)


class _MetricsLog:
    """``metrics.ndjson``. A fresh run starts it empty; a resumed run keeps the
    complete records up to the checkpoint's iteration and appends after them."""

    def __init__(self, path, resume_iter: int | None = None):
        self.path = Path(path)
        if resume_iter is not None and self.path.exists():
            _truncate_log(self.path, resume_iter)
        # Line-buffered, so a hard kill loses no record a checkpoint covers.
        self._fh = open(self.path, "w" if resume_iter is None else "a", buffering=1)

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.close()


def _truncate_log(path: Path, iteration: int) -> None:
    """Cut the log at its first record past ``iteration`` or first partial line."""
    keep = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                if not line.endswith(b"\n") or json.loads(line)["iter"] > iteration:
                    break
            except ValueError:
                break
            keep += len(line)
    os.truncate(path, keep)


def train(cfg: RunConfig, resume: str | None = None, quiet: bool = True) -> TrainResult:
    for key, least in (("batch_size", 1), ("n_iters", 1), ("eval_every", 1),
                       ("lr", 0), ("weight_decay", 0)):
        value = getattr(cfg, key)
        if not value >= least:
            raise ValueError(f"{key} must be at least {least}, got {value}")
    if not cfg.grad_clip > 0:
        raise ValueError(f"grad_clip must be positive, got {cfg.grad_clip}")
    # Building the model config checks the model keys before anything is written.
    vocab = tasks.vocab_for_task(cfg.task)
    mcfg = cfg.model_config(len(vocab), vocab.n_classes)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    task = tasks.dataset_task(cfg.data_dir)
    if task != cfg.task:
        raise ValueError(f"dataset at {cfg.data_dir} is for task {task!r}, config says {cfg.task!r}")
    train_set = tasks.load_split(cfg.data_dir, "train")
    eval_sets = {}
    for name in ("valid_ood", "valid_iid"):
        try:
            eval_sets[name] = tasks.load_split(cfg.data_dir, name)
        except FileNotFoundError:
            pass
    if "valid_ood" not in eval_sets:
        raise FileNotFoundError(f"{cfg.data_dir} has no valid_ood split")

    root = RngTree(cfg.seed)
    model = EncoderModel.build(mcfg, root.child("model"))
    opt = OptimizerState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    batch_tree = root.child("batches")
    drop_tree = root.child("dropout")
    start_iter = 0
    best_acc, best_iter = -1.0, -1

    if resume is not None:
        model, opt, header = load_checkpoint(resume)
        _check_vocab(header, vocab)
        _check_resume_config(header, cfg)
        start_iter = header["iteration"]
        if cfg.n_iters < start_iter:
            raise ValueError(f"n_iters {cfg.n_iters} is below the checkpoint's iteration {start_iter}")
        best_acc = header.get("best_accuracy", -1.0)
        best_iter = header.get("best_iteration", -1)

    params = model.parameters()
    metrics = _MetricsLog(out_dir / "metrics.ndjson", start_iter if resume is not None else None)
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"

    def header_for(iteration: int) -> dict:
        return {"task": cfg.task, "vocab": list(vocab.tokens), "data_dir": str(cfg.data_dir),
                "iteration": iteration, "best_accuracy": best_acc, "best_iteration": best_iter,
                "run_config": cfg.to_dict()}

    def diverged(reason: str, it: int) -> TrainingDiverged:
        path = out_dir / "diverged.ckpt"
        save_checkpoint(path, model, opt, header_for(it))
        return TrainingDiverged(f"{reason} at iteration {it}; state dumped to {path}")

    try:
        for it in range(start_iter, cfg.n_iters):
            idx = batch_tree.child(f"iter{it}").generator().integers(
                0, len(train_set), size=cfg.batch_size)
            batch = [train_set[i] for i in idx]
            tokens, lengths, targets = encode_batch(batch, vocab)
            mode = Mode(train=True, rng=drop_tree.child(f"iter{it}"))
            zero_grads(params)
            with Tape() as tape:
                out = model.forward(tokens, lengths, mode=mode)
                step_loss = model_loss(out, targets)
                loss_value = step_loss.item()
                if not np.isfinite(loss_value):
                    raise diverged(f"non-finite loss {loss_value}", it)
                tape.backward(step_loss)
            clip_gradients(params, cfg.grad_clip)
            post_norm = grad_norm(params)
            try:
                adamw_step(opt, params)
            except NonFiniteGradient as err:
                raise diverged(str(err), it) from err
            metrics.write({"iter": it + 1, "loss": loss_value, "grad_norm": post_norm})

            if (it + 1) % cfg.eval_every == 0 or it + 1 == cfg.n_iters:
                for name, split_samples in eval_sets.items():
                    acc = evaluate_model(model, split_samples, vocab, cfg.batch_size)
                    metrics.write({"iter": it + 1, "split": name, "accuracy": acc})
                    if not quiet:
                        print(f"iter {it + 1}: {name} accuracy {acc:.4f}")
                    if name == "valid_ood" and acc > best_acc:
                        best_acc, best_iter = acc, it + 1
                # Saved after this eval's records, so a resume from it finds them in the log.
                if best_iter == it + 1:
                    save_checkpoint(best_path, model, opt, header_for(it + 1))

        save_checkpoint(last_path, model, opt, header_for(cfg.n_iters))
        if not best_path.exists():  # eval never ran (tiny n_iters)
            save_checkpoint(best_path, model, opt, header_for(cfg.n_iters))
    finally:
        metrics.close()
    return TrainResult(cfg=cfg, model=model, opt=opt, iteration=cfg.n_iters,
                       best_accuracy=best_acc, best_iteration=best_iter,
                       best_path=str(best_path), last_path=str(last_path),
                       metrics_path=str(metrics.path))


def sweep(cfg: RunConfig, axis_key: str, values: list) -> list[dict]:
    """Train and evaluate once per axis value; rows are independent runs."""
    if not values:
        raise ValueError(f"sweep axis {axis_key!r} lists no values")
    rows = []
    for value in values:
        run_cfg = apply_overrides(copy.deepcopy(cfg), [f"{axis_key}={value}"])
        run_cfg.out_dir = str(Path(cfg.out_dir) / f"{axis_key}_{value}")
        result = train(run_cfg)
        vocab = tasks.vocab_for_task(run_cfg.task)
        test_samples = tasks.load_split(run_cfg.data_dir, "test")
        best_model, _, _ = load_checkpoint(result.best_path)
        test_acc = evaluate_model(best_model, test_samples, vocab, run_cfg.batch_size)
        rows.append({"axis": axis_key, "value": value,
                     "valid_ood": result.best_accuracy, "test": test_acc})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.json", "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
    return rows
