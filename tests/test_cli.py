import json
import shutil

import pytest

from seqrouter import gradchecks, tasks
from seqrouter.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data -> train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["gen-data", "--task", "ctl_fwd", "--seed", "0", "--out", str(data),
               "--train-size", "500", "--eval-size", "40"])
    assert rc == 0
    cfg = root / "tiny.cfg"
    cfg.write_text(
        "task = ctl_fwd\nd_model = 16\nd_ff = 32\nn_heads = 2\nn_layers = 2\n"
        "dropout = 0\natt_dropout = 0\nbatch_size = 16\nlr = 1e-3\n"
        f"n_iters = 4\neval_every = 2\ndata_dir = {data}\n")
    run = root / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(run)])
    assert rc == 0
    return root


def test_gen_data_writes_all_splits(workspace):
    data = workspace / "data"
    for split in ("train", "valid_iid", "valid_ood", "test"):
        assert (data / f"{split}.jsonl").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["task"] == "ctl_fwd"
    assert sum(1 for _ in open(data / "train.jsonl")) == 500


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_gen_data_rejects_workers_below_one(tmp_path, pool_sizes, capsys, workers):
    rc = main(["gen-data", "--task", "arith", "--out", str(tmp_path / "d"), "--workers", workers])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --workers must be at least 1")
    assert pool_sizes == []
    assert not (tmp_path / "d").exists()


def test_gen_data_rejects_sizes_below_one(tmp_path, capsys):
    rc = main(["gen-data", "--task", "arith", "--out", str(tmp_path / "d"),
               "--train-size", "-3", "--eval-size", "-1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: split 'train' needs a size of at least 1") and err.count("\n") == 1
    assert "got size -3" in err
    assert not (tmp_path / "d").exists()


def test_gen_data_rejects_unknown_task(capsys):
    with pytest.raises(SystemExit):
        main(["gen-data", "--task", "nope", "--out", "/tmp/x"])


def test_train_artifacts(workspace):
    run = workspace / "run"
    assert (run / "best.ckpt").exists()
    assert (run / "metrics.ndjson").exists()


def test_train_override(workspace, capsys):
    out = workspace / "run_override"
    cfg = workspace / "tiny.cfg"
    rc = main(["train", "--config", str(cfg), "--out", str(out),
               "--override", "n_iters=2", "--override", "eval_every=2"])
    assert rc == 0
    lines = [json.loads(l) for l in open(out / "metrics.ndjson")]
    assert sum(1 for l in lines if "loss" in l) == 2


@pytest.mark.parametrize("key, value", [("eval_every", "0"), ("eval_every", "-1"),
                                        ("n_iters", "-5"), ("batch_size", "0")])
def test_train_rejects_run_values_below_one(workspace, tmp_path, capsys, key, value):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(workspace / "tiny.cfg"), "--out", str(out),
               "--override", f"{key}={value}"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {key} must be at least 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("n_heads", "0", "n_heads must be at least 1, got 0"),
    ("n_layers", "0", "n_layers must be at least 1, got 0"),
    ("kind", "bogus", "unknown attention kind 'bogus'; expected one of standard_abs, relative, "
                      "abs_rel_gated, geometric"),
    ("dropout", "-0.2", "dropout must be in [0, 1), got -0.2"),
    ("dropout", "1.0", "dropout must be in [0, 1), got 1.0"),
    ("att_dropout", "-0.5", "att_dropout must be in [0, 1), got -0.5"),
    ("lr", "-0.001", "lr must be at least 0, got -0.001"),
    ("lr", "nan", "lr must be at least 0, got nan"),
    ("weight_decay", "-0.01", "weight_decay must be at least 0, got -0.01"),
    ("grad_clip", "0", "grad_clip must be positive, got 0.0"),
    ("grad_clip", "-1", "grad_clip must be positive, got -1.0"),
])
def test_train_rejects_values_that_train_another_model(workspace, tmp_path, capsys, key, value, message):
    out = tmp_path / "run"
    rc = main(["train", "--config", str(workspace / "tiny.cfg"), "--out", str(out),
               "--override", f"{key}={value}"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_resume_rejects_n_iters_below_the_checkpoint_and_writes_nothing(workspace, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(workspace / "run", run)
    before = {f.name: f.read_bytes() for f in run.iterdir()}
    rc = main(["train", "--config", str(workspace / "tiny.cfg"), "--out", str(run),
               "--resume", str(run / "last.ckpt"), "--override", "n_iters=1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: n_iters 1 is below the checkpoint's iteration 4\n"
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before


def test_eval_command(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "best.ckpt"),
               "--split", "valid_ood"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "valid_ood accuracy" in out


def test_eval_honors_test_steps(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "best.ckpt"),
               "--split", "test", "--test-steps", "5"])
    assert rc == 0
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "best.ckpt"),
               "--split", "test", "--test-steps", "1"])
    assert rc == 1
    assert "below trained" in capsys.readouterr().err


def test_trace_command(workspace, capsys):
    out = workspace / "traces"
    rc = main(["trace", "--checkpoint", str(workspace / "run" / "best.ckpt"),
               "--input", "101 a b", "--out", str(out)])
    assert rc == 0
    assert (out / "trace.json").exists()
    assert (out / "gates.pgm").exists()
    index = json.loads((out / "index.json").read_text())
    assert index["steps"] == 2


def test_sweep_command(workspace, capsys):
    cfg = workspace / "tiny.cfg"
    rc = main(["sweep", "--config", str(cfg), "--axis", "readout=last,first",
               "--out", str(workspace / "sweep")])
    assert rc == 0
    rows = json.loads((workspace / "sweep" / "sweep.json").read_text())
    assert {r["value"] for r in rows} == {"last", "first"}
    assert "valid_ood" in capsys.readouterr().out


def test_sweep_rejects_an_axis_without_values(workspace, capsys):
    out = workspace / "sweep_empty"
    rc = main(["sweep", "--config", str(workspace / "tiny.cfg"), "--axis", "d_model=",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: sweep axis 'd_model' lists no values\n"
    assert not out.exists()


def test_grad_check_command(capsys):
    rc = main(["grad-check", "--module", "substrate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "substrate/composite" in out and "PASS" in out


def test_choices_come_from_the_task_and_check_tables():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    choices = {(name, a.dest): a.choices for name, sub in subcommands.items() for a in sub._actions}
    assert choices["gen-data", "task"] == tasks.TASKS
    assert choices["grad-check", "module"] == gradchecks.MODULES
    with pytest.raises(ValueError, match=r"^unknown module 'nope'; expected one of substrate, attention, layer$"):
        gradchecks.run_checks("nope")


def test_error_is_one_line_nonzero(capsys):
    rc = main(["eval", "--checkpoint", "/nonexistent.ckpt", "--split", "test"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
