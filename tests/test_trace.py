import json

import numpy as np
import pytest

from seqrouter import tasks, trace as tr
from seqrouter.layers import ACTConfig
from seqrouter.model import EncoderModel, ModelConfig
from seqrouter.rng import RngTree


def tiny_model(task="ctl_fwd", seed=0, **kw):
    vocab = tasks.vocab_for_task(task)
    defaults = dict(vocab_size=len(vocab), n_classes=vocab.n_classes, d_model=16,
                    d_ff=32, n_heads=2, n_layers=3, kind="geometric", gated=True)
    defaults.update(kw)
    return EncoderModel.build(ModelConfig(**defaults), RngTree(seed)), vocab


TOKENS = ["101", "d", "a", "b"]


def test_tracing_does_not_perturb_logits():
    model, vocab = tiny_model()
    ids = np.array([vocab.encode(TOKENS)])
    lengths = np.array([ids.shape[1]])
    plain = model.forward(ids, lengths).logits.data
    traced = model.forward(ids, lengths, trace=True)
    np.testing.assert_array_equal(traced.logits.data, plain)
    assert traced.trace is not None


def test_trace_shapes():
    model, vocab = tiny_model()
    t = tr.capture(model, TOKENS, vocab)
    n = len(TOKENS) + 2
    assert len(t.attention.steps) == 3
    assert all(step.shape == (2, n, n) for step in t.attention.steps)
    assert len(t.gates.steps) == 3
    assert all(g.shape == (n, 16) for g in t.gates.steps)
    assert t.gates.means().shape == (3, n)


def test_attention_rows_within_kind_invariant():
    gated_geom, vocab = tiny_model(seed=1)
    t = tr.capture(gated_geom, TOKENS, vocab)
    for step in t.attention.steps:
        assert step.sum(-1).max() <= 1.0 + 1e-5
    softmax_model, _ = tiny_model(kind="relative", gated=False, seed=2)
    t2 = tr.capture(softmax_model, TOKENS, vocab)
    for step in t2.attention.steps:
        np.testing.assert_allclose(step.sum(-1), 1.0, atol=1e-5)


def test_fresh_gate_trace_near_sigmoid_minus_three():
    model, vocab = tiny_model(seed=3)
    t = tr.capture(model, TOKENS, vocab)
    assert abs(t.gates.means().mean() - 0.0474) < 0.02
    assert t.gates.means().min() >= 0.0
    assert t.gates.means().max() <= 1.0


def test_export_roundtrip_and_heatmaps(tmp_path):
    model, vocab = tiny_model(seed=4)
    t = tr.capture(model, TOKENS, vocab)
    index = tr.export(t, tmp_path)
    n = len(TOKENS) + 2

    payload = tr.load_trace_json(tmp_path / "trace.json")
    for got, want in zip(payload["attention"], t.attention.steps):
        np.testing.assert_array_equal(got.astype(np.float32), want.astype(np.float32))
    for got, want in zip(payload["gates"], t.gates.steps):
        np.testing.assert_array_equal(got.astype(np.float32), want.astype(np.float32))

    assert index["steps"] == 3 and index["heads"] == 2 and index["n"] == n
    for step in range(3):
        per_head = []
        for head in range(2):
            img = tr.read_pgm(tmp_path / f"att_t{step}_h{head}.pgm")
            assert img.shape == (n, n)
            per_head.append(img)
        head_max = tr.read_pgm(tmp_path / f"att_t{step}_max.pgm")
        np.testing.assert_array_equal(head_max, np.max(np.stack(per_head), axis=0))
    gates = tr.read_pgm(tmp_path / "gates.pgm")
    assert gates.shape == (3, n)
    with open(tmp_path / "index.json") as fh:
        assert json.load(fh)["files"]


def test_pgm_scaling_black_to_max(tmp_path):
    arr = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "check.pgm"
    tr.write_pgm(path, tr.quantize(arr))
    img = tr.read_pgm(path)
    assert img[0, 0] == 0 and img[1, 0] == 255
    assert img[0, 1] == 128  # 0.5 of max scales to mid-gray


def test_pgm_all_zero_image(tmp_path):
    path = tmp_path / "zero.pgm"
    tr.write_pgm(path, tr.quantize(np.zeros((3, 3))))
    assert (tr.read_pgm(path) == 0).all()


def test_ponder_report_requires_act():
    model, vocab = tiny_model(seed=5)
    with pytest.raises(ValueError, match="ACT"):
        tr.ponder_report(model, [], vocab)


def test_ponder_report_constant_halting_is_one():
    model, vocab = tiny_model(seed=6, act=ACTConfig(variant="A"))
    model.act_w.data[:] = 0.0
    model.act_b.data[:] = 1e9  # p_hat == 1 at every step
    plan_samples = tasks.generate(
        "ctl_fwd", seed=7,
        plan=tasks.SplitPlan((tasks.SplitSpec("probe", (1, 2, 3), 24),)))["probe"]
    report = tr.ponder_report(model, plan_samples, vocab)
    assert report
    for row in report:
        assert row["mean_steps"] == 1.0
        assert row["std_steps"] == 0.0


def test_ponder_report_bounded_by_t_max():
    model, vocab = tiny_model(seed=8, act=ACTConfig(variant="U"))
    samples = tasks.generate(
        "ctl_fwd", seed=9,
        plan=tasks.SplitPlan((tasks.SplitSpec("probe", (1, 2), 16),)))["probe"]
    report = tr.ponder_report(model, samples, vocab)
    assert all(row["mean_steps"] <= model.cfg.n_layers for row in report)
    again = tr.ponder_report(model, samples, vocab)
    assert report == again


def test_gate_frontier_mechanics():
    # Columns open at steps 1, 2, 3 and one never opens.
    gates = np.array([
        [0.6, 0.3, 0.1, 0.0],
        [0.1, 0.4, 0.2, 0.0],
        [0.1, 0.1, 0.4, 0.1],
    ])
    frontier = tr.gate_frontier(gates)
    np.testing.assert_array_equal(frontier, [1, 2, 3, 4])
    assert tr.frontier_monotonicity(gates) == 1.0
    reversed_gates = gates[:, ::-1]
    assert tr.frontier_monotonicity(reversed_gates) == 0.0


def test_act_trace_includes_ponder():
    model, vocab = tiny_model(seed=10, act=ACTConfig(variant="A"))
    t = tr.capture(model, TOKENS, vocab)
    assert t.ponder is not None
    assert t.ponder.shape == (len(TOKENS) + 2,)
    assert (1 <= t.ponder).all() and (t.ponder <= 3).all()
