"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The smoke-training
criterion dominates the runtime (a few minutes); everything else is
seconds.
"""

import json
from pathlib import Path

import numpy as np

from seqrouter import tasks, trace as tr
from seqrouter.attention import geometric_ordering, geometric_weights
from seqrouter.autodiff import Tensor
from seqrouter.checkpoint import load_checkpoint
from seqrouter.config import RunConfig
from seqrouter.gradchecks import TOLERANCE, run_checks
from seqrouter.layers import ACTConfig, act_schedule
from seqrouter.model import EncoderModel, ModelConfig
from seqrouter.rng import RngTree
from seqrouter.tasks import arithmetic, ctl, listops
from seqrouter.tasks.data import SplitPlan, SplitSpec
from seqrouter.train import evaluate_model, train

from oracles import eval_arith, eval_ctl, eval_listops, geometric_weights_direct


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def test_01_geometric_row_mass_identity_and_log_space():
    gen = np.random.default_rng(0)
    worst_identity = 0.0
    for trial in range(1000):
        n = int(gen.integers(1, 65))
        p = gen.random((n, n))
        if n >= 2:
            p[gen.integers(0, n), gen.integers(0, n)] = 1e-8
            p[gen.integers(0, n), gen.integers(0, n)] = 1.0 - 1e-8
        a = geometric_weights(Tensor(p, dtype=np.float64)).data
        off_diag = ~np.eye(n, dtype=bool)
        escape = np.prod(np.where(off_diag, 1.0 - p, 1.0), axis=-1)
        worst_identity = max(worst_identity, np.abs(a.sum(-1) + escape - 1.0).max())
    assert worst_identity < 1e-6

    worst_agreement = 0.0
    for n in (2, 16, 64, 256):
        p = gen.random((n, n))
        p[0, -1] = 1e-8
        p[-1, 0] = 1.0 - 1e-8
        log_a = geometric_weights(Tensor(p, dtype=np.float64)).data
        worst_agreement = max(worst_agreement, np.abs(log_a - geometric_weights_direct(p)).max())
    assert worst_agreement < 1e-5
    report(1, f"row-mass identity within {worst_identity:.2e} over 1000 matrices; "
              f"log-space vs direct product within {worst_agreement:.2e} up to N=256")


def test_02_ordering_and_tie_break():
    assert geometric_ordering(3, 5) == [4, 2, 5, 1]
    for n, i, p in ((5, 2, 0.37), (9, 4, 0.8), (3, 1, 0.05)):
        probs = np.zeros((n, n))
        probs[i, i + 1] = p
        probs[i, i - 1] = p
        a = geometric_weights_direct(probs)
        assert a[i, i + 1] == p
        assert a[i, i - 1] == p * (1 - p)
        log_a = geometric_weights(Tensor(probs, dtype=np.float64)).data
        assert abs(log_a[i, i + 1] - p) < 1e-12
        assert abs(log_a[i, i - 1] - p * (1 - p)) < 1e-12
    report(2, "ordering(3,5) = [4,2,5,1]; two-neighbour shadowing exact")


def test_03_gradient_checks_all_variants():
    results = run_checks("layer")
    for name, err in results.items():
        assert err < TOLERANCE, f"{name}: {err:.3e}"
    worst = max(results.values())
    report(3, f"8 layer variants pass grad check at d=8 on a ragged batch of lengths (4, 2); "
              f"worst {worst:.2e} < {TOLERANCE:g}")


def test_04_copy_gate_exactness_and_init_level():
    from seqrouter.attention import AttentionConfig
    from seqrouter.autodiff import Init
    from seqrouter.layers import encoder_step, init_layer

    cfg = AttentionConfig(16, 2, "geometric")
    lp = init_layer(Init(RngTree(7), np.float32, prefix="acc"), cfg, True, 32)
    gen = np.random.default_rng(7)
    h = Tensor(gen.normal(size=(4 * 6, 16)).astype(np.float32))
    valid = np.ones((4, 6), dtype=bool)

    _, _, gate = encoder_step(h, lp, valid)
    mean_gate = float(gate.data.mean())
    assert abs(mean_gate - 0.0474) < 0.02

    lp.gate_b2.data[:] = -1e9
    out, _, forced = encoder_step(h, lp, valid)
    assert (forced.data == 0.0).all()
    assert (out.data == h.data).all()
    report(4, f"forced-closed gate is bitwise passthrough; fresh-init mean gate {mean_gate:.4f}")


def test_05_oracle_equivalence_10k_per_task():
    assert arithmetic.arith_eval(list("((4*7)+2)")) == 0
    tree = ("MED", [4, 8, 5, ("MAX", [8, 4, 9])])
    assert listops.listops_eval(tree) == 6
    assert eval_listops(listops.tree_tokens(tree)) == 6

    n_per_task = 10_000

    spec = ctl.make_spec(21, "forward")
    ctl_splits = tasks.generate("ctl_fwd", seed=21, plan=SplitPlan((
        SplitSpec("probe", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), n_per_task),)))
    mismatches = sum(
        eval_ctl(list(s.tokens), spec.tables, spec.symbols, reverse=False) != s.target
        for s in ctl_splits["probe"])
    assert len(ctl_splits["probe"]) == n_per_task and mismatches == 0

    arith_splits = tasks.generate("arith", seed=22, plan=SplitPlan((
        SplitSpec("probe", (0, 1, 2, 3, 4, 5), n_per_task),)))
    mismatches = sum(eval_arith("".join(s.tokens)) != int(s.target)
                     for s in arith_splits["probe"])
    assert len(arith_splits["probe"]) == n_per_task and mismatches == 0

    listops_splits = tasks.generate("listops", seed=23, plan=SplitPlan((
        SplitSpec("probe", (0, 1, 2, 3, 4, 5), n_per_task),)))
    mismatches = sum(eval_listops(list(s.tokens)) != int(s.target)
                     for s in listops_splits["probe"])
    assert len(listops_splits["probe"]) == n_per_task and mismatches == 0
    report(5, "10,000 samples per task match independent interpreters with 0 mismatches; "
              "((4*7)+2)=0 and [MED 4 8 5 [MAX 8 4 9]]=6 verified literally")


def test_06_split_integrity():
    ctl_splits = tasks.generate("ctl_fwd", seed=0)
    assert len(ctl_splits["train"]) == 53_704
    assert {s.depth for s in ctl_splits["train"]} == {1, 2, 3, 4, 5}
    assert {s.depth for s in ctl_splits["valid_ood"]} == {6, 7, 8}
    assert {s.depth for s in ctl_splits["test"]} == {9, 10}
    unit_pairs = {s.tokens for s in ctl_splits["train"] if s.depth == 1}
    assert len(unit_pairs) == 72

    for task in ("arith", "listops"):
        plan = tasks.default_plan(task)
        assert plan["train"].depths == (0, 1, 2, 3, 4, 5)
        assert plan["valid_ood"].depths == (6,)
        assert plan["test"].depths == (7, 8)
    assert tasks.default_plan("arith")["train"].size == 100_000
    assert tasks.default_plan("listops")["train"].size == 1_000_000

    # Depth-range and balance contract, checked on generated data at reduced size.
    scaled = SplitPlan((SplitSpec("train", (0, 1, 2, 3, 4, 5), 605),
                        SplitSpec("valid_ood", (6,), 40),
                        SplitSpec("test", (7, 8), 41)))
    lo = tasks.generate("listops", seed=31, plan=scaled)
    counts: dict[int, int] = {}
    for s in lo["train"]:
        assert s.dep_depth == s.depth <= 5
        counts[s.dep_depth] = counts.get(s.dep_depth, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1
    assert {s.dep_depth for s in lo["valid_ood"]} == {6}
    assert {s.dep_depth for s in lo["test"]} == {7, 8}
    test_counts = [sum(1 for s in lo["test"] if s.dep_depth == d) for d in (7, 8)]
    assert abs(test_counts[0] - test_counts[1]) <= 1
    ar = tasks.generate("arith", seed=32, plan=scaled)
    assert {s.depth for s in ar["train"]} == {0, 1, 2, 3, 4, 5}
    assert {s.depth for s in ar["valid_ood"]} == {6}
    assert {s.depth for s in ar["test"]} == {7, 8}
    report(6, "CTL train is exactly 53,704 with depths 1-5 / 6-8 / 9-10 and all 72 unit "
              "pairs; arithmetic/ListOps ranges 0-5/6/7-8 with per-depth balance <= 1")


def test_07_act_remainder_property():
    gen = np.random.default_rng(40)
    t_max = 8
    p_hats = gen.random((t_max, 1000))
    halt, weights, remainder = act_schedule(p_hats, epsilon=0.01)
    halted_early = halt < t_max
    assert halted_early.any()
    sums = weights.sum(axis=0)
    assert np.abs(sums[halted_early] - 1.0).max() < 1e-6
    assert (halt >= 1).all() and (halt <= t_max).all()
    assert (remainder > 0).all()

    vocab = tasks.vocab_for_task("ctl_fwd")
    model = EncoderModel.build(
        ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16, d_ff=32, n_heads=2,
                    n_layers=3, act=ACTConfig(variant="A")), RngTree(41))
    model.act_w.data[:] = 0.0
    model.act_b.data[:] = 1e9
    probe = tasks.generate("ctl_fwd", seed=42,
                           plan=SplitPlan((SplitSpec("probe", (1, 2, 3), 30),)))["probe"]
    rows = tr.ponder_report(model, probe, vocab)
    assert rows and all(r["mean_steps"] == 1.0 and r["std_steps"] == 0.0 for r in rows)
    report(7, "halting mass sums to 1 (+-1e-6) for 1000 random schedules; "
              "constant-halting ponder report is identically 1")


SMOKE_PLAN = SplitPlan((
    SplitSpec("train", (1, 2, 3), 8000),
    SplitSpec("valid_iid", (1, 2, 3), 500),
    SplitSpec("valid_ood", (4, 5), 500),
    SplitSpec("test", (4, 5), 500),
))


def smoke_config(data_dir, out_dir, n_iters=5000) -> RunConfig:
    return RunConfig(task="ctl_fwd", d_model=64, d_ff=128, n_heads=2, n_layers=6,
                     kind="geometric", gated=True, dropout=0.1, att_dropout=0.0,
                     batch_size=64, lr=1e-3, weight_decay=0.01, grad_clip=5.0,
                     n_iters=n_iters, eval_every=500, seed=0,
                     data_dir=str(data_dir), out_dir=str(out_dir))


def test_08_smoke_training(tmp_path):
    data_dir = tmp_path / "data"
    tasks.generate_to_dir("ctl_fwd", seed=0, out_dir=data_dir, plan=SMOKE_PLAN)
    cfg = smoke_config(data_dir, tmp_path / "run")
    result = train(cfg)
    iid = [(json.loads(l)["iter"], json.loads(l)["accuracy"])
           for l in open(result.metrics_path) if '"valid_iid"' in l]
    best_iter, best = max(iid, key=lambda t: t[1])
    crossed = [it for it, acc in iid if acc >= 0.95]
    assert crossed and crossed[0] <= 5000, f"IID accuracy never reached 0.95: {iid}"
    report(8, f"tiny gated geometric model reached IID accuracy {best:.3f} "
              f"(first >=0.95 at iteration {crossed[0]} of <=5000)")


def assert_reruns_and_checkpoint_match(tmp_path, act: str = "none") -> None:
    """Two 8-iteration smoke runs give byte-identical metric logs, and the
    last checkpoint loads back bitwise."""
    data_dir = tmp_path / "data"
    plan = SplitPlan((SplitSpec("train", (1, 2), 200),
                      SplitSpec("valid_ood", (3,), 30)))
    tasks.generate_to_dir("ctl_fwd", seed=1, out_dir=data_dir, plan=plan)
    cfg_a = smoke_config(data_dir, tmp_path / "a", n_iters=8)
    cfg_b = smoke_config(data_dir, tmp_path / "b", n_iters=8)
    cfg_a.eval_every = cfg_b.eval_every = 4
    cfg_a.act = cfg_b.act = act
    ra, rb = train(cfg_a), train(cfg_b)
    assert Path(ra.metrics_path).read_bytes() == Path(rb.metrics_path).read_bytes()

    model, opt, _ = load_checkpoint(ra.last_path)
    for orig, loaded in zip(ra.model.parameters(), model.parameters()):
        assert (orig.data == loaded.data).all()
        assert (ra.opt.m[orig.name] == opt.m[orig.name]).all()
        assert (ra.opt.v[orig.name] == opt.v[orig.name]).all()
    vocab = tasks.vocab_for_task("ctl_fwd")
    split = tasks.load_split(data_dir, "valid_ood")
    assert evaluate_model(model, split, vocab) == evaluate_model(ra.model, split, vocab)


def test_09_determinism_and_checkpoint_roundtrip(tmp_path):
    assert_reruns_and_checkpoint_match(tmp_path)
    report(9, "identical seeds give byte-identical metric logs; checkpoint "
              "round-trip is bitwise")


def test_determinism_and_checkpoint_roundtrip_with_act(tmp_path):
    assert_reruns_and_checkpoint_match(tmp_path, act="A")


def test_10_trace_fidelity(tmp_path):
    vocab = tasks.vocab_for_task("ctl_fwd")
    model = EncoderModel.build(
        ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16, d_ff=32,
                    n_heads=2, n_layers=3), RngTree(50))
    tokens = ["101", "d", "a", "b"]
    ids = np.array([vocab.encode(tokens)])
    lengths = np.array([ids.shape[1]])
    plain = model.forward(ids, lengths).logits.data
    traced = model.forward(ids, lengths, trace=True)
    assert (traced.logits.data == plain).all()

    t = tr.capture(model, tokens, vocab)
    tr.export(t, tmp_path)
    payload = tr.load_trace_json(tmp_path / "trace.json")
    for got, want in zip(payload["attention"], t.attention.steps):
        assert (got.astype(np.float32) == want).all()
    n = len(tokens) + 2
    for step in range(3):
        for head in range(2):
            img = tr.read_pgm(tmp_path / f"att_t{step}_h{head}.pgm")
            assert img.shape == (n, n)
    report(10, "tracing leaves logits bit-identical; JSON round-trips losslessly; "
               f"heatmaps are exactly {n}x{n}")
