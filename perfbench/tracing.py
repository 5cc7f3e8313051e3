"""Outside-in tracing: wrap module-level functions of the package, record
spans, and reduce them to per-layer metrics.

A span is (name, start, end, parent, step, kind, origin). Spans of one
train step share its step id. ``kind`` is ``module`` for a layer
boundary, ``op`` for a forward autodiff op and ``bwd`` for a backward
closure. A backward closure is attributed by wrapping ``Tape.record``: its
span carries the op that was innermost, and in ``origin`` the module span
that was innermost, when the closure was recorded.

Every wrapper is removed by ``uninstall``, which reports any attribute
that is not back to its original object. A target the package no longer
has is skipped and listed in ``skipped``; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from seqrouter import attention, autodiff, layers, model, optim, rng, tasks, train
from seqrouter.tasks import ctl, listops

OPS = ("matmul", "take_along", "dropout", "layernorm", "logsigmoid", "add", "mul", "sigmoid",
       "where_mask", "masked_fill", "cumsum", "concat", "split", "exp", "relu", "embedding")
# Every other differentiable op, timed under "other".
OTHER_OPS = ("scale", "shift", "transpose", "reshape", "tanh", "log", "log1p", "softmax",
             "sum_", "cross_entropy", "sub", "mean_")

# (owner, attribute, span name) of the plain layer boundaries. Forward,
# backward, _ffn and Tape.record get wrappers of their own in ``install``.
MODULE_SPANS = (
    (tasks, "generate", "tasks.gen"),
    (tasks, "write_dataset", "tasks.io"),
    (tasks, "load_split", "tasks.io"),
    (train, "encode_batch", "train.encode"),
    (train, "evaluate_model", "train.eval"),
    (model, "loss", "model.loss"),
    (model, "encoder_step", "layers.step"),
    (attention, "attend", "attention"),
    (attention, "_geometric_logits", "attention.scores"),
    (attention, "_weights_from_logs", "attention.weights"),
    (optim, "clip_gradients", "optim.clip"),
    (optim, "grad_norm", "optim.clip"),
    (optim, "adamw_step", "optim.adamw"),
    (rng.RngTree, "generator", "rng"),
)

MB = 1 << 20
# Units of the per-layer metrics that are not milliseconds.
UNITS = {"tasks.gen_s": "s", "tasks.io_s": "s", "tasks.accept_ratio": "ratio",
         "autodiff.tape_nodes": "count", "rng.generators": "count",
         "model.fwd_held_mb": "MB", "autodiff.bwd_peak_mb": "MB", "trace.overhead": "ratio"}


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1
        self.records: Counter = Counter()     # tape records per step
        self.attempts: Counter = Counter()    # task generator attempts / accepts
        self.memory: dict[str, float] = {}
        self._mem_base = 0
        self._patches: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, kind: str, origin: int = -1) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.step, kind, origin])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _innermost(self, kind: str) -> int:
        for idx in reversed(self.stack):
            if self.spans[idx][5] == kind:
                return idx
        return -1

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper, *args) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.skipped.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original, *args)))

    def _span_wrapper(self, fn, name: str, kind: str):
        def wrapper(*args, **kwargs):
            idx = self._open(name, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def install(self) -> None:
        for owner, attr, name in MODULE_SPANS:
            self._patch(owner, attr, self._span_wrapper, name, "module")
        for op in OPS + OTHER_OPS:
            self._patch(autodiff, op, self._span_wrapper, op if op in OPS else "other", "op")
        self._patch(layers, "_ffn", self._ffn_wrapper)
        self._patch(model.EncoderModel, "forward", self._forward_wrapper)
        self._patch(autodiff.Tape, "backward", self._backward_wrapper)
        self._patch(autodiff.Tape, "record", self._record_wrapper)
        for module in (ctl, listops):
            self._patch(module, "_attempt", self._attempt_wrapper)

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; returns those not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{owner.__name__}.{attr}"
               for owner, attr, original in self._patches if owner.__dict__[attr] is not original]
        self._patches.clear()
        return bad

    def _ffn_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            site = args[7] if len(args) > 7 else kwargs["site"]
            idx = self._open("layers.ffn" if site == "ffn" else "layers.gate", "module")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _forward_wrapper(self, fn):
        """model.fwd span; under the memory probe, also bytes held at its end."""
        def wrapper(*args, **kwargs):
            probing = tracemalloc.is_tracing()
            if probing:
                self._mem_base = tracemalloc.get_traced_memory()[0]
            idx = self._open("model.fwd", "module")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if probing:
                    held = tracemalloc.get_traced_memory()[0] - self._mem_base
                    self.memory["model.fwd_held_mb"] = held / MB
        return wrapper

    def _backward_wrapper(self, fn):
        """autodiff.bwd span; under the memory probe, also its peak bytes
        above the level at the start of forward."""
        def wrapper(*args, **kwargs):
            probing = tracemalloc.is_tracing()
            if probing:
                tracemalloc.reset_peak()
            idx = self._open("autodiff.bwd", "module")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if probing:
                    peak = tracemalloc.get_traced_memory()[1] - self._mem_base
                    self.memory["autodiff.bwd_peak_mb"] = peak / MB
        return wrapper

    def _record_wrapper(self, fn):
        tracer = self

        def record(tape, backward_fn):
            tracer.records[tracer.step] += 1
            op_idx = tracer._innermost("op")
            op = tracer.spans[op_idx][0] if op_idx >= 0 else "other"
            origin = tracer._innermost("module")

            def timed():
                idx = tracer._open(op, "bwd", origin)
                try:
                    backward_fn()
                finally:
                    tracer._close(idx)

            fn(tape, timed)
        return record

    def _attempt_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            sample = fn(*args, **kwargs)
            self.attempts["attempted"] += 1
            self.attempts["accepted"] += sample is not None
            return sample
        return wrapper

    @contextlib.contextmanager
    def memory_probe(self):
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as rows of [name, start_us, end_us, parent, step, kind, origin]."""
        rows = [[s[0], round((s[1] - self.t0) * 1e6, 1), round((s[2] - self.t0) * 1e6, 1)]
                + s[3:] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_us", "end_us", "parent", "step", "kind",
                                   "origin"], "spans": rows}, fh, separators=(",", ":"))


def per_layer_metrics(tracer: Tracer, steps: set, eval_step, n_eval_batches: int) -> dict:
    """Per-step means over ``steps`` (and per eval batch for eval spans).

    A module span's time is counted once even when it nests in a span of
    the same name; its self time excludes its direct module children. A
    backward closure counts toward every module span enclosing its origin.
    """
    spans = tracer.spans
    n = max(len(steps), 1)

    def dur(s):
        return s[2] - s[1]

    def module_parent(i):
        p = spans[i][3]
        while p >= 0 and spans[p][5] != "module":
            p = spans[p][3]
        return p

    def ancestry(i):
        names = []
        while i >= 0:
            if spans[i][5] == "module":
                names.append(spans[i][0])
            i = spans[i][3]
        return names

    total = defaultdict(float)     # inclusive module time by name
    self_time = defaultdict(float)  # module self time by name
    fwd_op = defaultdict(float)
    bwd_op = defaultdict(float)
    bwd_site = defaultdict(float)   # backward time by enclosing module name
    bwd_self = defaultdict(float)   # backward time by innermost module name
    eval_fwd = 0.0
    rng_calls = 0
    for i, s in enumerate(spans):
        name, step, kind = s[0], s[4], s[5]
        if step == eval_step and kind == "module" and name == "model.fwd":
            eval_fwd += dur(s)
        if step not in steps:
            continue
        if kind == "module":
            mp = module_parent(i)
            if name not in ancestry(s[3]):
                total[name] += dur(s)
            self_time[name] += dur(s)
            if mp >= 0:
                self_time[spans[mp][0]] -= dur(s)
            rng_calls += name == "rng"
        elif kind == "op":
            if s[3] < 0 or spans[s[3]][0] != name:
                fwd_op[name] += dur(s)
        else:
            bwd_op[name] += dur(s)
            names = ancestry(s[6])
            for site in set(names):
                bwd_site[site] += dur(s)
            if names:
                bwd_self[names[0]] += dur(s)

    ms = 1e3 / n
    m = {
        "train.encode_ms": total["train.encode"] * ms,
        "model.fwd_ms": total["model.fwd"] * ms,
        "model.loss_ms": total["model.loss"] * ms,
        "model.eval_fwd_ms": eval_fwd * 1e3 / max(n_eval_batches, 1),
        "autodiff.tape_nodes": sum(tracer.records[k] for k in steps) / n,
        "autodiff.bwd_ms": total["autodiff.bwd"] * ms,
        "attention.fwd_ms": total["attention"] * ms,
        "attention.bwd_ms": bwd_site["attention"] * ms,
        "attention.fwd_self_ms": self_time["attention"] * ms,
        "attention.bwd_self_ms": bwd_self["attention"] * ms,
        "attention.scores_fwd_ms": total["attention.scores"] * ms,
        "attention.scores_bwd_ms": bwd_site["attention.scores"] * ms,
        "attention.weights_fwd_ms": total["attention.weights"] * ms,
        "attention.weights_bwd_ms": bwd_site["attention.weights"] * ms,
        "layers.step_fwd_ms": total["layers.step"] * ms,
        "layers.step_bwd_ms": bwd_site["layers.step"] * ms,
        "layers.step_fwd_self_ms": self_time["layers.step"] * ms,
        "layers.step_bwd_self_ms": bwd_self["layers.step"] * ms,
        "layers.ffn_fwd_ms": total["layers.ffn"] * ms,
        "layers.ffn_bwd_ms": bwd_site["layers.ffn"] * ms,
        "layers.gate_fwd_ms": total["layers.gate"] * ms,
        "layers.gate_bwd_ms": bwd_site["layers.gate"] * ms,
        "optim.clip_ms": total["optim.clip"] * ms,
        "optim.adamw_ms": total["optim.adamw"] * ms,
        "rng.generators": rng_calls / n,
        "rng.ms": total["rng"] * ms,
    }
    for op in OPS + ("other",):
        m[f"autodiff.fwd_ms.{op}"] = fwd_op[op] * ms
        m[f"autodiff.bwd_ms.{op}"] = bwd_op[op] * ms
    return m


def setup_metrics(tracer: Tracer, setup_step) -> dict:
    """Task-layer figures of one traced set-up (seconds, not per step)."""
    gen = io = 0.0
    for s in tracer.spans:
        if s[4] == setup_step and s[5] == "module":
            if s[0] == "tasks.gen":
                gen += s[2] - s[1]
            elif s[0] == "tasks.io":
                io += s[2] - s[1]
    attempted = tracer.attempts["attempted"]
    return {"tasks.gen_s": gen, "tasks.io_s": io,
            "tasks.accept_ratio": tracer.attempts["accepted"] / attempted if attempted else 1.0}
