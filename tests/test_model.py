import numpy as np
import pytest

from seqrouter import autodiff as ad
from seqrouter import model as model_mod
from seqrouter import tasks
from seqrouter.attention import Mode
from seqrouter.autodiff import Tape, Tensor
from seqrouter.layers import ACTConfig
from seqrouter.model import EncoderModel, ModelConfig, depth_heuristic, loss
from seqrouter.rng import RngTree
from seqrouter.tasks.data import Sample
from seqrouter.train import evaluate_model


def tiny_config(task="ctl_fwd", **kw):
    vocab = tasks.vocab_for_task(task)
    defaults = dict(vocab_size=len(vocab), n_classes=vocab.n_classes, d_model=16,
                    d_ff=32, n_heads=2, n_layers=3, kind="geometric", gated=True)
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_model(task="ctl_fwd", seed=0, **kw):
    return EncoderModel.build(tiny_config(task, **kw), RngTree(seed))


def batch_for(task, texts, vocab=None):
    vocab = vocab or tasks.vocab_for_task(task)
    encoded = [vocab.encode(t) for t in texts]
    lengths = np.array([len(e) for e in encoded])
    tokens = np.zeros((len(texts), lengths.max()), dtype=np.int64)
    for i, e in enumerate(encoded):
        tokens[i, :len(e)] = e
    return tokens, lengths


def test_logits_shape_all_tasks():
    cases = {"ctl_fwd": ["101 d a b".split(), ["000"]],
             "arith": [list("((4*7)+2)"), ["7"]],
             "listops": ["[ MAX 1 2 ]".split(), ["3"]]}
    for task, texts in cases.items():
        model = tiny_model(task)
        tokens, lengths = batch_for(task, texts)
        out = model.forward(tokens, lengths)
        vocab = tasks.vocab_for_task(task)
        assert out.logits.shape == (2, vocab.n_classes)


def test_param_count_invariant_in_depth():
    counts = {EncoderModel.build(tiny_config(n_layers=n, test_steps=n + 4), RngTree(0)).param_count()
              for n in (2, 5, 9)}
    assert len(counts) == 1


def test_more_test_steps_runs_without_new_shapes():
    model = tiny_model(test_steps=8)
    tokens, lengths = batch_for("ctl_fwd", [["000", "a", "b"]])
    out_train_depth = model.forward(tokens, lengths, steps=3)
    out_deep = model.forward(tokens, lengths, steps=11)
    assert out_train_depth.logits.shape == out_deep.logits.shape


def test_eval_mode_uses_test_steps():
    model = tiny_model(test_steps=6)
    assert model.steps_for(Mode(train=True)) == 3
    assert model.steps_for(Mode(train=False)) == 6


@pytest.mark.parametrize("variant", ["A", "U"])
def test_act_eval_runs_the_model_step_count(monkeypatch, variant):
    # ACT has no step count of its own: eval runs test_steps, or the steps asked for.
    steps_run = []
    step = model_mod.encoder_step
    monkeypatch.setattr(model_mod, "encoder_step",
                        lambda *args, **kw: steps_run.append(1) or step(*args, **kw))
    model = tiny_model(test_steps=6, act=ACTConfig(variant=variant))
    tokens, lengths = batch_for("ctl_fwd", [["000", "a", "b"]])
    vocab = tasks.vocab_for_task("ctl_fwd")
    samples = [Sample(("000", "a", "b"), vocab.classes[0], 2)]
    for run, want in [(lambda: model.forward(tokens, lengths), 6),
                      (lambda: model.forward(tokens, lengths, steps=9), 9),
                      (lambda: evaluate_model(model, samples, vocab), 6),
                      (lambda: evaluate_model(model, samples, vocab, steps=9), 9)]:
        steps_run.clear()
        run()
        assert len(steps_run) == want


def test_empty_sequence_rejected():
    model = tiny_model()
    with pytest.raises(ValueError, match="empty"):
        model.forward(np.zeros((1, 4), dtype=np.int64), np.array([0]))


def test_out_of_vocab_rejected():
    model = tiny_model()
    with pytest.raises(ValueError, match="vocab"):
        model.forward(np.full((1, 3), 99, dtype=np.int64), np.array([3]))


def test_trace_requires_single_example():
    model = tiny_model()
    tokens, lengths = batch_for("ctl_fwd", [["000", "a"], ["001", "b"]])
    with pytest.raises(ValueError, match="single"):
        model.forward(tokens, lengths, trace=True)


def test_batch_invariance_under_padding():
    model = tiny_model(seed=3)
    short = ["101", "d", "a"]
    long = ["000", "a", "b", "c", "d", "e"]
    tokens_alone, lengths_alone = batch_for("ctl_fwd", [short])
    alone = model.forward(tokens_alone, lengths_alone).logits.data
    tokens_mix, lengths_mix = batch_for("ctl_fwd", [short, long])
    mixed = model.forward(tokens_mix, lengths_mix).logits.data
    np.testing.assert_allclose(mixed[0], alone[0], atol=1e-5)


def test_readout_depends_only_on_readout_column():
    model = tiny_model(seed=4)
    b, d = 1, model.cfg.d_model
    final = np.random.default_rng(0).normal(size=(b, 5, d)).astype(np.float32)
    lengths = np.array([4])  # readout column 3; columns 4 is padding

    def project(states):
        picked = states[np.arange(b), lengths - 1]
        return picked @ model.out_w.data + model.out_b.data

    base = project(final)
    perturbed = final.copy()
    perturbed[:, [0, 1, 2, 4], :] += 7.0
    np.testing.assert_array_equal(project(perturbed), base)


def test_readout_first_uses_begin_column():
    model = tiny_model(readout="first", seed=5)
    tokens, lengths = batch_for("ctl_fwd", [["000", "a", "b"]])
    out = model.forward(tokens, lengths)
    assert out.logits.shape == (1, 8)


def test_standard_abs_adds_positions():
    model = tiny_model(kind="standard_abs", gated=False, seed=6)
    tokens, lengths = batch_for("ctl_fwd", [["000", "a"], ["000", "a"]])
    out = model.forward(tokens, lengths)
    np.testing.assert_array_equal(out.logits.data[0], out.logits.data[1])


@pytest.mark.parametrize("kind", ["standard_abs", "relative", "abs_rel_gated"])
def test_odd_d_model_forward_and_backward(kind):
    # Sinusoid tables of odd width fill d // 2 pairs and leave the last column 0.
    model = tiny_model(d_model=7, d_ff=10, n_heads=1, kind=kind, gated=kind == "abs_rel_gated")
    tokens, lengths = batch_for("ctl_fwd", [["000", "a", "b"], ["111"]])
    with Tape() as tape:
        out = model.forward(tokens, lengths)
        tape.backward(loss(out, np.array([0, 1])))
    assert np.isfinite(out.logits.data).all()
    assert all(np.isfinite(p.grad).all() for p in model.parameters())


def test_loss_uniform_logits_is_log_classes():
    out_logits = Tensor(np.zeros((4, 8), dtype=np.float32))
    from seqrouter.model import ForwardOut
    val = loss(ForwardOut(logits=out_logits), np.array([0, 1, 2, 3])).item()
    assert val == pytest.approx(np.log(8.0), rel=1e-6)


def test_act_loss_added_exactly():
    model = tiny_model(act=ACTConfig(variant="A", reg_weight=0.05), seed=7)
    tokens, lengths = batch_for("ctl_fwd", [["000", "a", "b"]])
    out = model.forward(tokens, lengths)
    targets = np.array([0])
    total = loss(out, targets).item()
    ce = ad.cross_entropy(out.logits, targets).item()
    valid_cols = lengths[0]
    expected_reg = 0.05 * out.act.remainder[:valid_cols].mean()
    assert total == pytest.approx(ce + expected_reg, rel=1e-6)


def test_act_model_gradients_flow():
    model = tiny_model(act=ACTConfig(variant="U"), seed=8)
    tokens, lengths = batch_for("ctl_fwd", [["000", "a"]])
    with Tape() as tape:
        out = model.forward(tokens, lengths, mode=Mode(train=True, rng=RngTree(0, "m")))
        tape.backward(loss(out, np.array([0])))
    assert model.act_w.grad is not None
    assert np.abs(model.act_w.grad).sum() > 0


@pytest.mark.parametrize("act", ["A", "U"])
def test_act_adds_two_nodes_per_step_and_three_to_a_train_step(act):
    # A ctl_small-shape train step. Per step: the halting unit's product
    # and sigmoid; then the readout fold, the regularizer and its add to
    # the loss.
    shape = dict(d_model=64, d_ff=128, n_layers=6, dropout=0.1)
    cfg = tiny_config(**shape)
    gen = np.random.default_rng(26)
    lengths = gen.integers(1, 9, size=64)
    tokens = gen.integers(0, cfg.vocab_size, size=(64, 8))
    targets = gen.integers(0, cfg.n_classes, size=64)
    nodes = {}
    for variant in (None, act):
        model = tiny_model(act=ACTConfig(variant=variant) if variant else None, **shape)
        with Tape() as tape:
            loss(model.forward(tokens, lengths, mode=Mode(train=True, rng=RngTree(26, "m"))), targets)
            nodes[variant] = len(tape._nodes)
    assert nodes[act] == nodes[None] + 2 * 6 + 3


def test_weight_sharing_same_objects_each_step():
    model = tiny_model(seed=9)
    names = [p.name for p in model.parameters()]
    assert len(names) == len(set(names))
    tokens, lengths = batch_for("ctl_fwd", [["000", "a", "b", "c"]])
    out3 = model.forward(tokens, lengths, steps=3)
    out7 = model.forward(tokens, lengths, steps=7)
    assert out3.logits.shape == out7.logits.shape
    assert model.param_count() == tiny_model(seed=9).param_count()


def test_depth_heuristic_examples():
    assert depth_heuristic(10, 1, 2) == 12
    assert depth_heuristic(8, 2, 4) == 20
    assert depth_heuristic(0, 3, 5) == 5
    with pytest.raises(ValueError):
        depth_heuristic(4, 0, 1)


def test_model_config_validation():
    with pytest.raises(ValueError, match="test_steps"):
        tiny_config(test_steps=1)
    with pytest.raises(ValueError, match="readout"):
        tiny_config(readout="middle")
    with pytest.raises(ValueError, match="unknown attention kind 'bogus'"):
        tiny_config(kind="bogus")


def test_model_config_dict_roundtrip():
    cfg = tiny_config(act=ACTConfig(variant="U", epsilon=0.05))
    back = ModelConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_model_config_from_dict_without_act_key():
    # Checkpoint headers written before to_dict became dataclasses.asdict have
    # no "act" key when adaptive depth is off.
    cfg = tiny_config(test_steps=5, kind="relative", gated=False, readout="first", dropout=0.1)
    old = {"vocab_size": cfg.vocab_size, "n_classes": cfg.n_classes, "d_model": 16, "d_ff": 32,
           "n_heads": 2, "n_layers": 3, "test_steps": 5, "kind": "relative", "gated": False,
           "readout": "first", "dropout": 0.1, "att_dropout": 0.0}
    assert ModelConfig.from_dict(old) == cfg
    # Their ACT config also holds a step cap, null unless it was set.
    act = {"variant": "A", "t_max": None, "epsilon": 0.02, "reg_weight": 0.1}
    assert ModelConfig.from_dict({**old, "act": act}) == tiny_config(
        test_steps=5, kind="relative", gated=False, readout="first", dropout=0.1,
        act=ACTConfig(variant="A", epsilon=0.02, reg_weight=0.1))
    with pytest.raises(ValueError, match="ACT t_max=4 is no longer supported"):
        ModelConfig.from_dict({**old, "act": {**act, "t_max": 4}})


# Parameter order is the field declaration order. It is load-bearing:
# grad_norm sums in list order, so the clip factor and every loss depend on it.
PINNED_PARAMETER_NAMES = {
    ("geometric", True, None): [
        "embed", "layer.att.w_q", "layer.att.b_q", "layer.att.w_ke", "layer.att.w_lr",
        "layer.att.b_lr", "layer.att.w_rl", "layer.att.b_rl", "layer.att.alpha",
        "layer.att.beta", "layer.att.gamma", "layer.att.w_v", "layer.att.w_o",
        "layer.ffn_w1", "layer.ffn_b1", "layer.ffn_w2", "layer.ffn_b2", "layer.ln_att_g",
        "layer.ln_att_b", "layer.gate_w1", "layer.gate_b1", "layer.gate_w2", "layer.gate_b2",
        "layer.ln_ffn_g", "layer.ln_ffn_b", "out_w", "out_b"],
    ("abs_rel_gated", True, "U"): [
        "embed", "layer.att.w_q", "layer.att.w_ke", "layer.att.w_kp", "layer.att.b_qe",
        "layer.att.b_qp", "layer.att.w_v", "layer.att.w_o", "layer.att.w_ar", "layer.att.b_ar",
        "layer.ffn_w1", "layer.ffn_b1", "layer.ffn_w2", "layer.ffn_b2", "layer.ln_att_g",
        "layer.ln_att_b", "layer.gate_w1", "layer.gate_b1", "layer.gate_w2", "layer.gate_b2",
        "out_w", "out_b", "act_w", "act_b"],
    ("standard_abs", False, "A"): [
        "embed", "layer.att.w_q", "layer.att.w_k", "layer.att.w_v", "layer.att.w_o",
        "layer.ffn_w1", "layer.ffn_b1", "layer.ffn_w2", "layer.ffn_b2", "layer.ln_att_g",
        "layer.ln_att_b", "layer.ln_ffn_g", "layer.ln_ffn_b", "out_w", "out_b", "act_w", "act_b"],
}


@pytest.mark.parametrize("kind,gated,act", list(PINNED_PARAMETER_NAMES))
def test_parameter_order_is_pinned(kind, gated, act):
    model = tiny_model(kind=kind, gated=gated, act=ACTConfig(variant=act) if act else None)
    assert [p.name for p in model.parameters()] == PINNED_PARAMETER_NAMES[kind, gated, act]
    assert [p.name for p in ad.parameters(model.layer)] == [
        n for n in PINNED_PARAMETER_NAMES[kind, gated, act] if n.startswith("layer.")]


INVARIANCE_VARIANTS = [("geometric", True), ("relative", False), ("abs_rel_gated", True)]


@pytest.mark.parametrize("act", ["A", "U"])
@pytest.mark.parametrize("kind,gated", INVARIANCE_VARIANTS)
def test_eval_logits_do_not_depend_on_the_batch(kind, gated, act):
    # Pad columns never enter the packed state, so one sample's logits are
    # the same however it is batched, padded or filled, up to float64 rounding.
    model = EncoderModel.build(tiny_config(kind=kind, gated=gated, act=ACTConfig(variant=act)),
                               RngTree(11), dtype=np.float64)
    sample = ["101", "d", "a"]
    alone_tokens, length = batch_for("ctl_fwd", [sample])
    alone = model.forward(alone_tokens, length).logits.data[0]
    batched, lengths = batch_for("ctl_fwd", [["000", "a", "b", "c", "d", "e"], sample,
                                             ["111", "b", "c", "d"]])
    padded = np.pad(alone_tokens, ((0, 0), (0, 9)))
    filled = padded.copy()
    filled[0, length[0]:] = np.random.default_rng(12).integers(1, model.cfg.vocab_size, 9)
    cases = {"batched with longer samples": (batched, lengths, 1),
             "padded with extra columns": (padded, length, 0),
             "random token ids in pad columns": (filled, length, 0)}
    for case, (tokens, lens, row) in cases.items():
        got = model.forward(tokens, lens).logits.data[row]
        np.testing.assert_allclose(got, alone, rtol=0, atol=1e-10, err_msg=case)


def test_act_loss_averages_each_sequence_then_the_batch():
    model = tiny_model(act=ACTConfig(variant="A", reg_weight=0.05), seed=14)
    tokens, lengths = batch_for("ctl_fwd", [["000", "a"], ["101", "d", "a", "b", "c"]])
    out = model.forward(tokens, lengths)
    remainder = out.act.remainder
    assert remainder.shape == (lengths.sum(),)
    per_sequence = [remainder[:lengths[0]].mean(), remainder[lengths[0]:].mean()]
    assert out.act.act_loss.item() == pytest.approx(0.05 * np.mean(per_sequence), rel=1e-6)


@pytest.mark.parametrize("kind,gated,act", [("geometric", True, None), ("standard_abs", False, "A"),
                                            ("relative", True, None), ("abs_rel_gated", True, "U")])
def test_no_weight_product_sees_a_pad_row(monkeypatch, kind, gated, act):
    # Every product of a state with a weight (a matmul with a 2-D right
    # operand) folds exactly M = lengths.sum() rows, forward and backward;
    # only the readout folds one row per sequence. The constant position
    # tables of the relative kinds are not states and are not counted.
    model = tiny_model(kind=kind, gated=gated, act=ACTConfig(variant=act) if act else None,
                       dropout=0.1, att_dropout=0.1)
    tokens, lengths = batch_for("ctl_fwd", [["101", "d", "a"], ["000", "a", "b", "c", "d", "e"],
                                            ["111"]])
    matmul = ad.matmul
    products = []

    def recording(a, b, bias=None):
        out = matmul(a, b, bias)
        if a.requires_grad:
            products.append(out)
        return out

    monkeypatch.setattr(ad, "matmul", recording)
    with Tape() as tape:
        out = model.forward(tokens, lengths, mode=Mode(train=True, rng=RngTree(13)))
        tape.backward(loss(out, np.array([0, 1, 2])))
    m, b = int(lengths.sum()), len(lengths)
    rows = [p.data.reshape(-1, p.shape[-1]).shape[0] for p in products]
    assert rows[-1] == b and set(rows[:-1]) == {m}, rows
    assert all(p.grad.reshape(-1, p.shape[-1]).shape[0] == r for p, r in zip(products, rows))


def test_lengths_must_fit_the_token_columns():
    model = tiny_model()
    with pytest.raises(ValueError, match="exceeds"):
        model.forward(np.ones((2, 3), dtype=np.int64), np.array([3, 4]))
    with pytest.raises(ValueError, match="lengths shape"):
        model.forward(np.ones((2, 3), dtype=np.int64), np.array([3]))
