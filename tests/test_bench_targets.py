"""The benchmark's traced run wraps package functions by name from
outside. A renamed or removed target is skipped there and its metrics
silently read 0, so this pins every name it wraps. Its workloads also
read package names at import time and build configs and plans from them;
a change there would fail every benchmark run, so this builds them all."""

import importlib.util
import inspect
import sys
from pathlib import Path

from seqrouter import layers, tasks
from seqrouter.autodiff import Tape
from seqrouter.model import EncoderModel
from seqrouter.tasks import ctl, listops

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_module_spans_resolve():
    tracing = load_perfbench("tracing")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.MODULE_SPANS
               if owner.__dict__.get(attr) is None]
    assert not missing


def test_own_wrapper_targets_resolve():
    targets = [(layers, "_ffn"), (EncoderModel, "forward"), (Tape, "backward"),
               (Tape, "record"), (ctl, "_attempt"), (listops, "_attempt")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if owner.__dict__.get(attr) is None]
    assert not missing
    # The FFN wrapper reads the site name positionally, as args[7].
    assert list(inspect.signature(layers._ffn).parameters)[7] == "site"
    # The record wrapper takes (tape, backward_fn) and passes both on positionally.
    assert list(inspect.signature(Tape.record).parameters) == ["self", "backward_fn"]


def test_workloads_build_their_configs_and_plans():
    for wl in load_perfbench("workloads").WORKLOADS.values():
        assert wl.model_config(tasks.vocab_for_task(wl.task)).n_layers == wl.model["n_layers"]
        assert wl.plan()["train"].size == wl.train_size
