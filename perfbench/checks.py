"""Output checks. Each returns a list of error strings (empty when it
passes) and a short summary for the report.

- Every generated sample's target and depth, re-derived with the
  independent evaluators in ``tests/oracles.py`` (imported read-only).
- A float64 directional gradient check of the workload's model variant
  in train mode, with dropout on a fixed stream.
- ``evaluate_model``'s no-tape logits against the taped forward's.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from seqrouter import autodiff
from seqrouter import model as model_mod
from seqrouter import train
from seqrouter.attention import Mode
from seqrouter.autodiff import Tape, zero_grads
from seqrouter.model import EncoderModel
from seqrouter.rng import RngTree

from harness import Run

# Difference steps, tried in turn, and the largest relative error allowed
# between the analytic and numeric directional derivative, all in float64.
# A ReLU input that changes sign inside the difference interval puts a kink
# in the loss there; one input 4e-8 from zero spoiled every step down to
# 1e-7 on a listops_long seed. A step's difference therefore counts only
# over an interval on which no ReLU input changes sign: the central one, or
# else the one-sided one on the side without a kink.
GRAD_STEPS = (1e-6, 1e-7, 1e-8)
GRAD_TOL = 1e-6
# Largest allowed |no-tape logit - taped logit|, relative to max(1, |logit|).
LOGIT_TOL = 1e-5

LISTOPS_OPS = ("SM", "MIN", "MAX", "MED")


def load_oracles(tests_dir: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", tests_dir / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listops_depths(tokens) -> tuple[int, int, int]:
    """(value, parse depth, dependency depth) of a prefix expression, by a
    stack walk written against the task definition: MIN/MAX keep their
    first extremal argument, MED its middle one or two, SM all of them."""
    stack: list[tuple[str, list]] = []
    result = None
    for tok in tokens:
        if tok == "[":
            continue
        if tok in LISTOPS_OPS:
            stack.append((tok, []))
            continue
        if tok == "]":
            op, args = stack.pop()
            values = [a[0] for a in args]
            if op == "SM":
                value, kept = sum(values) % 10, range(len(args))
            elif op in ("MIN", "MAX"):
                best = min(values) if op == "MIN" else max(values)
                value, kept = best, [values.index(best)]
            else:
                order = sorted(range(len(values)), key=lambda i: (values[i], i))
                k = len(order)
                kept = [order[k // 2]] if k % 2 else [order[k // 2 - 1], order[k // 2]]
                value = sum(values[i] for i in kept) // len(kept)
            node = (value, 1 + max(a[1] for a in args), 1 + max(args[i][2] for i in kept))
        else:
            node = (int(tok), 0, 0)
        if stack:
            stack[-1][1].append(node)
        else:
            result = node
    return result


def check_dataset(run: Run, oracles) -> tuple[list[str], str]:
    errors = []
    plan = run.wl.plan()
    ctl = json.loads((run.data_dir / "manifest.json").read_text()).get("ctl")
    if ctl is not None:
        tables = {k: tuple(v) for k, v in ctl["tables"].items()}
    loaded = {"train": run.train_set, "valid_ood": run.eval_set}
    for name, samples in loaded.items():
        if samples != run.generated[name]:
            errors.append(f"{name}: JSONL round trip changed the samples")
        depths = set(plan[name].depths)
        if len(samples) != plan[name].size:
            errors.append(f"{name}: {len(samples)} samples, plan says {plan[name].size}")
        for s in samples:
            if s.depth not in depths:
                errors.append(f"{name}: depth {s.depth} outside {sorted(depths)}")
            if ctl is not None:
                target = oracles.eval_ctl(list(s.tokens), tables, tuple(ctl["symbols"]),
                                          reverse=ctl["order"] == "backward")
                depth, dep_depth = len(s.tokens) - 1, None
            else:
                target = str(oracles.eval_listops(list(s.tokens)))
                value, depth, dep_depth = _listops_depths(s.tokens)
                if str(value) != target:
                    errors.append(f"listops evaluators disagree on {' '.join(s.tokens)}")
            if target != s.target or depth != s.depth or dep_depth != s.dep_depth:
                errors.append(f"{name}: {' '.join(s.tokens)} -> {s.target!r} depth {s.depth}/"
                              f"{s.dep_depth}; oracle says {target!r} depth {depth}/{dep_depth}")
    n = sum(len(samples) for samples in loaded.values())
    return errors[:20], f"oracles agree on {n} samples" if not errors else f"{len(errors)} mismatches"


def check_gradient(run: Run) -> tuple[list[str], str]:
    """Analytic g.v against a difference quotient of the loss along a unit
    direction v over all parameters."""
    wl = run.wl
    root = RngTree(run.seed).child("perfbench/gradcheck")
    model = EncoderModel.build(wl.model_config(run.vocab), root.child("model"), dtype=np.float64)
    params = model.parameters()
    tokens, lengths, targets = train.encode_batch(run.train_set[:2], run.vocab)
    mode = Mode(train=True, rng=root.child("dropout"))

    def loss():
        return model_mod.loss(model.forward(tokens, lengths, mode=mode), targets)

    zero_grads(params)
    with Tape() as tape:
        value = loss()
        tape.backward(value)
    # v is half the gradient's direction and half a random one: a purely
    # random v over millions of parameters makes g.v so small that
    # rounding in the loss swamps the difference quotient.
    gen = root.child("direction").generator()
    direction = [gen.standard_normal(p.shape) for p in params]
    r_norm = np.sqrt(sum(float((v * v).sum()) for v in direction))
    g_norm = np.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    direction = [v / r_norm + p.grad / g_norm for p, v in zip(params, direction)]
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction))
    direction = [v / norm for v in direction]
    analytic = sum(float((p.grad * v).sum()) for p, v in zip(params, direction))

    originals = [p.data.copy() for p in params]
    relu = autodiff.relu
    signs = []

    def recording_relu(x):
        signs.append(x.data > 0)
        return relu(x)

    def loss_along(k, step):
        """(loss, sign of every ReLU input) at ``k * step`` along v."""
        for p, v, orig in zip(params, direction, originals):
            p.data[...] = orig + k * step * v
        signs.clear()
        value = loss().item()
        return value, np.concatenate([s.ravel() for s in signs] or [np.empty(0, bool)])

    def difference(step):
        """(numeric g.v, interval kind) over a kink-free interval, or
        (None, reason) when ReLU inputs change sign on both sides."""
        at = {0: at_zero, **{k: loss_along(k, step) for k in (-1, 1)}}

        def smooth(ks):
            return all(np.array_equal(at[ks[0]][1], at[k][1]) for k in ks[1:])

        if smooth((-1, 0, 1)):
            return (at[1][0] - at[-1][0]) / (2 * step), "central"
        for side, kind in ((1, "forward"), (-1, "backward")):
            at[2 * side] = loss_along(2 * side, step)
            if smooth((0, side, 2 * side)):
                f0, f1, f2 = at[0][0], at[side][0], at[2 * side][0]
                return side * (-3 * f0 + 4 * f1 - f2) / (2 * step), kind
        return None, "ReLU kinks on both sides"

    errors, rel = [], float("inf")
    autodiff.relu = recording_relu
    try:
        at_zero = loss_along(0, 0.0)
        for step in GRAD_STEPS:
            numeric, kind = difference(step)
            if numeric is None:
                errors.append(f"{kind} at step {step:.0e}")
                continue
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            errors.append(f"{rel:.2e} at step {step:.0e} ({kind})")
            if rel <= GRAD_TOL:
                break
    finally:
        autodiff.relu = relu
        for p, orig in zip(params, originals):
            p.data[...] = orig
    summary = (f"directional grad rel err {', '.join(errors)} "
               f"(g.v {analytic:.6e}, tol {GRAD_TOL:.0e})")
    if not rel <= GRAD_TOL:
        return [summary], summary
    return [], summary


def check_eval_logits(run: Run) -> tuple[list[str], str]:
    """Logits ``evaluate_model`` computes without a tape, captured by
    wrapping this model's forward, against a taped forward of the same
    two held-out samples (two keeps the tape small at every shape)."""
    batch = run.eval_set[:2]
    captured = []
    forward = run.model.forward

    def capture(*args, **kwargs):
        out = forward(*args, **kwargs)
        captured.append(out.logits.data.copy())
        return out

    run.model.forward = capture
    try:
        train.evaluate_model(run.model, batch, run.vocab)
    finally:
        del run.model.forward
    tokens, lengths, _ = train.encode_batch(batch, run.vocab)
    with Tape():
        taped = run.model.forward(tokens, lengths).logits.data
    if len(captured) != 1:
        return [f"evaluate_model ran {len(captured)} forwards on one batch"], "eval logits: no capture"
    diff = float(np.abs(captured[0] - taped).max())
    scale = max(1.0, float(np.abs(taped).max()))
    summary = f"eval logits max |no-tape - taped| {diff:.2e} (tol {LOGIT_TOL:.0e} x {scale:.2f})"
    if not diff <= LOGIT_TOL * scale:
        return [summary], summary
    return [], summary


def run_all(run: Run, tests_dir: Path) -> tuple[list[str], list[str]]:
    errors, summaries = [], []
    oracles = load_oracles(tests_dir)
    for check in (lambda r: check_dataset(r, oracles), check_gradient, check_eval_logits):
        try:
            errs, summary = check(run)
        except Exception as exc:  # a crashing check fails the run
            errs, summary = [f"{type(exc).__name__}: {exc}"], f"check raised {type(exc).__name__}"
        errors += errs
        summaries.append(summary)
    return errors, summaries
