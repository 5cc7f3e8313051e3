import copy
import dataclasses
import json
import os
import re
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from seqrouter import autodiff as ad
from seqrouter import checkpoint, tasks
from seqrouter import train as train_mod
from seqrouter.checkpoint import load_checkpoint, save_checkpoint
from seqrouter.config import RunConfig, apply_overrides, default_config, load_config
from seqrouter.layers import ACTConfig
from seqrouter.model import EncoderModel, ModelConfig
from seqrouter.optim import OptimizerState
from seqrouter.rng import RngTree
from seqrouter.tasks.data import SplitPlan, SplitSpec
from seqrouter.train import (TrainingDiverged, encode_batch, evaluate_checkpoint,
                             evaluate_model, sweep, train)


@pytest.fixture(scope="module")
def ctl_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("ctl_data")
    plan = SplitPlan((
        SplitSpec("train", (1, 2, 3), 300),
        SplitSpec("valid_iid", (1, 2, 3), 48),
        SplitSpec("valid_ood", (4, 5), 48),
        SplitSpec("test", (4, 5), 48),
    ))
    tasks.generate_to_dir("ctl_fwd", seed=0, out_dir=out, plan=plan)
    return out


def tiny_run_config(data_dir, out_dir, **kw) -> RunConfig:
    cfg = RunConfig(task="ctl_fwd", d_model=16, d_ff=32, n_heads=2, n_layers=2,
                    kind="geometric", gated=True, dropout=0.0, att_dropout=0.0,
                    batch_size=16, lr=1e-3, weight_decay=0.01, grad_clip=5.0,
                    n_iters=6, eval_every=3, seed=1,
                    data_dir=str(data_dir), out_dir=str(out_dir))
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


def test_default_configs_match_hyperparameter_tables():
    ctl = default_config("ctl_fwd")
    assert (ctl.d_model, ctl.d_ff, ctl.n_heads, ctl.n_layers) == (256, 512, 1, 14)
    assert (ctl.batch_size, ctl.lr, ctl.weight_decay, ctl.dropout) == (512, 1.5e-4, 0.01, 0.5)
    assert (ctl.n_iters, ctl.grad_clip) == (30_000, 5.0)
    arith = default_config("arith")
    assert (arith.d_model, arith.d_ff, arith.n_heads, arith.n_layers) == (256, 1024, 4, 15)
    assert (arith.n_iters, arith.grad_clip) == (100_000, 1.0)
    lo = default_config("listops")
    assert (lo.d_model, lo.d_ff, lo.n_heads, lo.n_layers, lo.test_steps) == (512, 1024, 16, 20, 24)
    assert (lo.lr, lo.weight_decay, lo.dropout, lo.n_iters) == (2e-4, 0.09, 0.1, 100_000)
    assert lo.grad_clip == 1.0


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("task = arith\nn_layers = 4  # shallow\nlr = 3e-4\ntest_steps = none\ngated = false\n")
    cfg = load_config(path)
    assert cfg.task == "arith"
    assert cfg.n_layers == 4
    assert cfg.lr == pytest.approx(3e-4)
    assert cfg.test_steps is None
    assert cfg.gated is False
    # unspecified fields keep the task defaults
    assert cfg.grad_clip == 1.0


def test_shipped_configs_load_and_ndr_files_equal_task_defaults():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert any(p.stem.endswith("_ndr") for p in paths)
    for path in paths:
        cfg = load_config(path)
        if path.stem.endswith("_ndr"):
            assert cfg.to_dict() == default_config(cfg.task).to_dict(), path.name


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("task = arith\nbogus = 3\n")
    with pytest.raises(ValueError, match="bogus"):
        load_config(path)
    for key, raw, want in (("n_iters", "1e5", "int"), ("lr", "fast", "float"),
                           ("test_steps", "many", "int")):
        message = re.escape(f"config key {key!r} expects {want}, got {raw!r}")
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(ValueError, match=message):
            load_config(path)
        with pytest.raises(ValueError, match=message):
            apply_overrides(default_config("ctl_fwd"), [f"{key}={raw}"])


def test_overrides():
    cfg = apply_overrides(default_config("ctl_fwd"), ["n_iters=7", "act=U"])
    assert cfg.n_iters == 7 and cfg.act == "U"
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["nonsense"])


def test_encode_batch_pads_and_wraps(ctl_data):
    vocab = tasks.vocab_for_task("ctl_fwd")
    samples = tasks.load_split(ctl_data, "train")[:3]
    tokens, lengths, targets = encode_batch(samples, vocab)
    assert tokens.shape[0] == 3
    for i, s in enumerate(samples):
        assert lengths[i] == len(s.tokens) + 2
        assert tokens[i, 0] == 1 and tokens[i, lengths[i] - 1] == 2
        assert (tokens[i, lengths[i]:] == 0).all()
        assert targets[i] == vocab.class_id(s.target)


def test_untrained_accuracy_near_chance(ctl_data):
    vocab = tasks.vocab_for_task("ctl_fwd")
    model = EncoderModel.build(
        ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16, d_ff=32,
                    n_heads=2, n_layers=2), RngTree(0))
    samples = tasks.load_split(ctl_data, "train")
    acc = evaluate_model(model, samples, vocab)
    assert 0.0 <= acc <= 0.45  # chance is 1/8


def test_evaluate_deterministic(ctl_data):
    vocab = tasks.vocab_for_task("ctl_fwd")
    model = EncoderModel.build(
        ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16, d_ff=32,
                    n_heads=2, n_layers=2), RngTree(1))
    samples = tasks.load_split(ctl_data, "valid_ood")
    assert evaluate_model(model, samples, vocab) == evaluate_model(model, samples, vocab)


def test_evaluate_rejects_fewer_steps_than_layers(ctl_data):
    vocab = tasks.vocab_for_task("ctl_fwd")
    model = EncoderModel.build(
        ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16, d_ff=32,
                    n_heads=2, n_layers=4), RngTree(0))
    with pytest.raises(ValueError, match="below trained"):
        evaluate_model(model, tasks.load_split(ctl_data, "test"), vocab, steps=2)


def test_evaluate_rejects_empty_split():
    vocab = tasks.vocab_for_task("ctl_fwd")
    model = EncoderModel.build(
        ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16, d_ff=32,
                    n_heads=2, n_layers=2), RngTree(0))
    with pytest.raises(ValueError, match="empty split"):
        evaluate_model(model, [], vocab)


def test_zero_lr_leaves_parameters(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run", lr=0.0, n_iters=3, eval_every=10)
    result = train(cfg)
    fresh = EncoderModel.build(result.model.cfg, RngTree(cfg.seed).child("model"))
    for before, after in zip(fresh.parameters(), result.model.parameters()):
        np.testing.assert_array_equal(before.data, after.data)


def test_training_writes_metrics_and_checkpoints(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run")
    result = train(cfg)
    lines = [json.loads(l) for l in open(result.metrics_path)]
    step_records = [l for l in lines if "loss" in l]
    eval_records = [l for l in lines if "accuracy" in l]
    assert len(step_records) == cfg.n_iters
    assert {r["split"] for r in eval_records} == {"valid_ood", "valid_iid"}
    assert Path(result.best_path).exists() and Path(result.last_path).exists()
    # first-batch loss of a fresh model is near ln(8)
    assert abs(step_records[0]["loss"] - np.log(8.0)) < 0.1
    # post-clip norms respect the threshold
    assert all(r["grad_norm"] <= cfg.grad_clip + 1e-6 for r in step_records)


def test_two_runs_identical_logs(ctl_data, tmp_path):
    cfg_a = tiny_run_config(ctl_data, tmp_path / "a")
    cfg_b = tiny_run_config(ctl_data, tmp_path / "b")
    ra, rb = train(cfg_a), train(cfg_b)
    assert Path(ra.metrics_path).read_bytes() == Path(rb.metrics_path).read_bytes()


def test_checkpoint_roundtrip_bitwise(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run")
    result = train(cfg)
    model, opt, header = load_checkpoint(result.last_path)
    for p_orig, p_loaded in zip(result.model.parameters(), model.parameters()):
        assert p_orig.name == p_loaded.name
        np.testing.assert_array_equal(p_orig.data, p_loaded.data)
        np.testing.assert_array_equal(result.opt.m[p_orig.name], opt.m[p_orig.name])
    vocab = tasks.vocab_for_task("ctl_fwd")
    samples = tasks.load_split(ctl_data, "valid_ood")
    assert evaluate_model(model, samples, vocab) == evaluate_model(result.model, samples, vocab)


def test_checkpoint_roundtrip_restores_act_config_and_optimizer_fields(tmp_path):
    cfg = ModelConfig(vocab_size=9, n_classes=4, d_model=8, d_ff=16, n_heads=2, n_layers=3,
                      kind="abs_rel_gated", act=ACTConfig(variant="U", epsilon=0.05, reg_weight=0.1))
    model = EncoderModel.build(cfg, RngTree(3))
    opt = OptimizerState(lr=3e-4, weight_decay=0.05, beta1=0.8, beta2=0.99, eps=1e-7,
                         step_count=7)
    for p in model.parameters():
        opt.m[p.name] = np.full_like(p.data, 0.25)
        opt.v[p.name] = np.full_like(p.data, 0.5)
    save_checkpoint(tmp_path / "act.ckpt", model, opt)
    loaded, opt2, _ = load_checkpoint(tmp_path / "act.ckpt")
    assert loaded.cfg == cfg
    assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
    for p, q in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(p.data, q.data)
    for f in dataclasses.fields(OptimizerState):
        if f.name in ("m", "v"):
            continue
        assert getattr(opt2, f.name) == getattr(opt, f.name), f.name
    for name in opt.m:
        np.testing.assert_array_equal(opt2.m[name], opt.m[name])
        np.testing.assert_array_equal(opt2.v[name], opt.v[name])


def test_run_config_model_config_copies_shared_fields():
    cfg = RunConfig(d_model=32, d_ff=48, n_heads=4, n_layers=5, test_steps=7, kind="relative",
                    gated=False, readout="first", act="A", act_epsilon=0.02,
                    act_reg_weight=0.3, dropout=0.2, att_dropout=0.05)
    assert cfg.model_config(11, 3) == ModelConfig(
        vocab_size=11, n_classes=3, d_model=32, d_ff=48, n_heads=4, n_layers=5, test_steps=7,
        kind="relative", gated=False, readout="first",
        act=ACTConfig(variant="A", epsilon=0.02, reg_weight=0.3),
        dropout=0.2, att_dropout=0.05)
    assert RunConfig(act="none").model_config(11, 3).act is None


def test_resume_reproduces_trajectory(ctl_data, tmp_path):
    full_cfg = tiny_run_config(ctl_data, tmp_path / "full", n_iters=6, eval_every=100)
    full = train(full_cfg)
    head_cfg = tiny_run_config(ctl_data, tmp_path / "head", n_iters=3, eval_every=100)
    head = train(head_cfg)
    tail_cfg = tiny_run_config(ctl_data, tmp_path / "tail", n_iters=6, eval_every=100)
    tail = train(tail_cfg, resume=head.last_path)
    full_losses = [json.loads(l)["loss"] for l in open(full.metrics_path) if "loss" in l]
    tail_losses = [json.loads(l)["loss"] for l in open(tail.metrics_path) if "loss" in l]
    assert tail_losses == full_losses[3:]
    for a, b in zip(full.model.parameters(), tail.model.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_state_dump(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run", lr=1e25, n_iters=50, eval_every=100)
    with pytest.raises(TrainingDiverged, match="diverged.ckpt"):
        train(cfg)
    assert (tmp_path / "run" / "diverged.ckpt").exists()


def test_nonfinite_gradient_dumps_state_and_closes_log(ctl_data, tmp_path, monkeypatch):
    real_clip = train_mod.clip_gradients
    calls = []

    def clip_then_poison(params, max_norm):
        calls.append(1)
        if len(calls) == 3:
            params[0].grad[...] = np.nan
        return real_clip(params, max_norm)

    monkeypatch.setattr(train_mod, "clip_gradients", clip_then_poison)
    cfg = tiny_run_config(ctl_data, tmp_path / "run", n_iters=6, eval_every=100)
    with pytest.raises(TrainingDiverged, match="non-finite gradient.*iteration 2.*diverged.ckpt"):
        train(cfg)
    _, _, header = load_checkpoint(tmp_path / "run" / "diverged.ckpt")
    assert header["iteration"] == 2
    text = (tmp_path / "run" / "metrics.ndjson").read_text()
    assert text.endswith("\n")
    assert [json.loads(l)["iter"] for l in text.splitlines()] == [1, 2]


def test_diverged_checkpoint_replays_its_iteration(ctl_data, tmp_path, monkeypatch):
    real_loss = train_mod.model_loss
    calls = []

    def nan_at_iteration_2(out, targets):
        calls.append(1)
        step_loss = real_loss(out, targets)
        return ad.scale(step_loss, np.nan) if len(calls) == 3 else step_loss

    run = tmp_path / "run"
    monkeypatch.setattr(train_mod, "model_loss", nan_at_iteration_2)
    with pytest.raises(TrainingDiverged, match="non-finite loss.*iteration 2"):
        train(tiny_run_config(ctl_data, run, n_iters=6, eval_every=2))
    monkeypatch.setattr(train_mod, "model_loss", real_loss)
    resumed = train(tiny_run_config(ctl_data, run, n_iters=6, eval_every=2),
                    resume=str(run / "diverged.ckpt"))
    straight = train(tiny_run_config(ctl_data, tmp_path / "straight", n_iters=6, eval_every=2))
    assert Path(resumed.metrics_path).read_bytes() == Path(straight.metrics_path).read_bytes()


def test_checkpoint_is_fsynced_before_and_after_its_rename(tmp_path, monkeypatch):
    cfg = ModelConfig(vocab_size=9, n_classes=4, d_model=8, d_ff=16, n_heads=2, n_layers=2)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(src).name, Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(tmp_path / "last.ckpt", EncoderModel.build(cfg, RngTree(0)))
    # The temp file is flushed and synced whole, renamed, then the directory synced.
    size = (tmp_path / "last.ckpt").stat().st_size
    assert events == [("fsync", size), ("replace", "last.ckpt.tmp", "last.ckpt"), ("fsync", "dir")]


def test_hard_kill_after_best_checkpoint_keeps_its_records(ctl_data, tmp_path):
    # A child process dies without cleanup right after its first best.ckpt,
    # as under an OOM kill; resuming from that checkpoint must rebuild the log.
    code = textwrap.dedent("""
        import json, os, sys
        from seqrouter import train as train_mod
        from seqrouter.config import RunConfig

        real_save = train_mod.save_checkpoint

        def save_then_die(path, *args):
            real_save(path, *args)
            if path.name == "best.ckpt":
                os._exit(0)

        train_mod.save_checkpoint = save_then_die
        train_mod.train(RunConfig(**json.loads(sys.argv[1])))
    """)
    run = tmp_path / "run"
    cfg = tiny_run_config(ctl_data, run, n_iters=8, eval_every=4)
    src = str(Path(train_mod.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code, json.dumps(cfg.to_dict())], check=True,
                   timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert not (run / "last.ckpt").exists()
    resumed = train(cfg, resume=str(run / "best.ckpt"))
    straight = train(tiny_run_config(ctl_data, tmp_path / "straight", n_iters=8, eval_every=4))
    assert Path(resumed.metrics_path).read_bytes() == Path(straight.metrics_path).read_bytes()


def test_resume_into_new_dir_labels_best_checkpoint_truly(ctl_data, tmp_path):
    first = train(tiny_run_config(ctl_data, tmp_path / "first", n_iters=4, eval_every=2))
    assert first.best_iteration == 2  # the resumed evals must beat the checkpoint to move it
    resumed = train(tiny_run_config(ctl_data, tmp_path / "resumed", n_iters=8, eval_every=2),
                    resume=first.best_path)
    model, _, header = load_checkpoint(resumed.best_path)
    assert header["iteration"] == header["best_iteration"] == resumed.best_iteration
    ood = tasks.load_split(ctl_data, "valid_ood")
    acc = evaluate_model(model, ood, tasks.vocab_for_task("ctl_fwd"), 16)
    assert acc == header["best_accuracy"] == resumed.best_accuracy


def test_resume_keeps_log_through_checkpoint_iteration(ctl_data, tmp_path):
    run = tmp_path / "run"
    train(tiny_run_config(ctl_data, run, n_iters=2, eval_every=2))
    early = tmp_path / "early.ckpt"
    early.write_bytes((run / "last.ckpt").read_bytes())
    train(tiny_run_config(ctl_data, run, n_iters=4, eval_every=2), resume=str(early))
    with open(run / "metrics.ndjson", "a") as fh:
        fh.write('{"iter": 5, "lo')  # a record cut short by a crash
    result = train(tiny_run_config(ctl_data, run, n_iters=6, eval_every=2), resume=str(early))
    iters = [json.loads(l)["iter"] for l in open(result.metrics_path) if "loss" in l]
    assert iters == [1, 2, 3, 4, 5, 6]
    straight = train(tiny_run_config(ctl_data, tmp_path / "straight", n_iters=6, eval_every=2))
    assert Path(result.metrics_path).read_bytes() == Path(straight.metrics_path).read_bytes()


def test_resume_refuses_changed_config(ctl_data, tmp_path):
    run = tmp_path / "run"
    head = train(tiny_run_config(ctl_data, run, n_iters=2, eval_every=2))
    log = Path(head.metrics_path).read_bytes()
    changed = apply_overrides(tiny_run_config(ctl_data, run, n_iters=4), ["lr=0.002"])
    with pytest.raises(ValueError, match=r"differs from the checkpoint's in lr \(0\.001 -> 0\.002\)$"):
        train(changed, resume=head.last_path)
    assert Path(head.metrics_path).read_bytes() == log
    # A checkpoint written before headers carried run_config resumes as before;
    # one that still carries a batch generator's state resumes without it.
    model, opt, header = load_checkpoint(head.last_path)
    del header["run_config"]
    header["batch_gen_state"] = {"bit_generator": "Philox"}
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, model, opt, header)
    assert train(changed, resume=str(legacy)).iteration == 4


def test_failed_checkpoint_write_keeps_previous(ctl_data, tmp_path, monkeypatch):
    result = train(tiny_run_config(ctl_data, tmp_path / "run", n_iters=2, eval_every=2))
    before = Path(result.best_path).read_bytes()
    real_write = checkpoint._write_array
    calls = []

    def write_then_crash(zf, name, arr):
        calls.append(name)
        if len(calls) == 3:
            raise OSError("disk full")
        return real_write(zf, name, arr)

    monkeypatch.setattr(checkpoint, "_write_array", write_then_crash)
    saved = [p.data.copy() for p in result.model.parameters()]
    for p in result.model.parameters():
        p.data += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(result.best_path, result.model, result.opt, {"iteration": 99})
    assert Path(result.best_path).read_bytes() == before
    assert sorted(f.name for f in (tmp_path / "run").iterdir()) == [
        "best.ckpt", "last.ckpt", "metrics.ndjson"]
    model, _, header = load_checkpoint(result.best_path)
    assert header["iteration"] == 2
    for p_loaded, want in zip(model.parameters(), saved):
        np.testing.assert_array_equal(p_loaded.data, want)


def test_task_mismatch_rejected(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run")
    cfg.task = "arith"
    with pytest.raises(ValueError, match="task"):
        train(cfg)


def test_vocab_mismatch_on_eval(ctl_data, tmp_path):
    arith_dir = tmp_path / "arith_data"
    plan = SplitPlan((SplitSpec("train", (0, 1), 20), SplitSpec("valid_ood", (2,), 10)))
    tasks.generate_to_dir("arith", seed=0, out_dir=arith_dir, plan=plan)
    cfg = tiny_run_config(ctl_data, tmp_path / "run", n_iters=2, eval_every=10)
    result = train(cfg)
    with pytest.raises(ValueError, match="mismatch"):
        evaluate_checkpoint(result.best_path, "valid_ood", data_dir=arith_dir)


def test_evaluate_checkpoint_uses_recorded_data_dir(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run", n_iters=2, eval_every=2)
    result = train(cfg)
    acc = evaluate_checkpoint(result.best_path, "valid_ood")
    assert 0.0 <= acc <= 1.0


def test_best_checkpoint_policy(ctl_data, tmp_path):
    cfg = tiny_run_config(ctl_data, tmp_path / "run", n_iters=6, eval_every=2)
    result = train(cfg)
    _, _, header = load_checkpoint(result.best_path)
    assert header["best_accuracy"] == result.best_accuracy
    assert header["best_iteration"] == result.best_iteration
    lines = [json.loads(l) for l in open(result.metrics_path)]
    ood = [r["accuracy"] for r in lines if r.get("split") == "valid_ood"]
    assert result.best_accuracy == max(ood)


def test_sweep_rows_independent_of_order(ctl_data, tmp_path):
    base = tiny_run_config(ctl_data, tmp_path / "sweep_a", n_iters=3, eval_every=3)
    rows_a = sweep(copy.deepcopy(base), "n_layers", [1, 2])
    base_b = tiny_run_config(ctl_data, tmp_path / "sweep_b", n_iters=3, eval_every=3)
    rows_b = sweep(copy.deepcopy(base_b), "n_layers", [2, 1])
    by_value_a = {r["value"]: (r["valid_ood"], r["test"]) for r in rows_a}
    by_value_b = {r["value"]: (r["valid_ood"], r["test"]) for r in rows_b}
    assert by_value_a == by_value_b
    assert (tmp_path / "sweep_a" / "sweep.json").exists()


def test_sweep_single_value_degenerates_to_train_eval(ctl_data, tmp_path):
    base = tiny_run_config(ctl_data, tmp_path / "sweep_one", n_iters=3, eval_every=3)
    rows = sweep(base, "readout", ["last"])
    assert len(rows) == 1
    assert 0.0 <= rows[0]["test"] <= 1.0
