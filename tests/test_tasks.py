import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrouter import tasks
from seqrouter.rng import RngTree
from seqrouter.tasks import arithmetic, ctl, listops
from seqrouter.tasks import data
from seqrouter.tasks.data import Sample, SplitPlan, SplitSpec, sample_from_json, sample_to_json

from oracles import eval_arith, eval_ctl, eval_listops


def small_ctl_plan():
    return SplitPlan((
        SplitSpec("train", (1, 2, 3, 4, 5), 500),
        SplitSpec("valid_iid", (1, 2, 3, 4, 5), 50),
        SplitSpec("valid_ood", (6, 7, 8), 60),
        SplitSpec("test", (9, 10), 40),
    ))


def small_plan(train_depths, ood, test_depths, n_train=120, n_eval=30):
    return SplitPlan((
        SplitSpec("train", train_depths, n_train),
        SplitSpec("valid_ood", ood, n_eval),
        SplitSpec("test", test_depths, n_eval),
    ))


# ---------------------------------------------------------------------------
# compositional table lookup


def test_ctl_tables_are_bijections():
    spec = ctl.make_spec(0)
    for table in spec.tables.values():
        assert sorted(table) == sorted(spec.symbols)


def test_ctl_eval_applies_in_listed_order():
    spec = ctl.make_spec(1)
    # "101 d a b" evaluates b(a(d(101))).
    want = spec.tables["b"][spec.symbols.index(
        spec.tables["a"][spec.symbols.index(
            spec.tables["d"][spec.symbols.index("101")])])]
    assert ctl.ctl_eval("101", ("d", "a", "b"), spec) == want


def test_ctl_eval_identity_tables():
    spec = ctl.CtlSpec(ctl.SYMBOLS, ctl.LETTERS,
                       {letter: ctl.SYMBOLS for letter in ctl.LETTERS})
    for sym in ctl.SYMBOLS:
        assert ctl.ctl_eval(sym, ("a", "b", "c"), spec) == sym


def test_ctl_eval_inverse_roundtrip():
    spec = ctl.make_spec(2)
    table = spec.tables["c"]
    inverse = tuple(spec.symbols[table.index(s)] for s in spec.symbols)
    spec2 = ctl.CtlSpec(spec.symbols, spec.letters, dict(spec.tables, d=inverse))
    for sym in spec.symbols:
        assert ctl.ctl_eval(sym, ("c", "d"), spec2) == sym


def test_ctl_eval_unknown_letter():
    spec = ctl.make_spec(3)
    with pytest.raises(ValueError, match="unknown function"):
        ctl.ctl_eval("000", ("z",), spec)


def test_ctl_train_covers_all_unit_pairs():
    splits = tasks.generate("ctl_fwd", seed=0, plan=small_ctl_plan())
    unit = {s.tokens for s in splits["train"] if s.depth == 1}
    assert len(unit) == 72


def test_ctl_default_plan_sizes():
    plan = ctl.default_plan()
    assert plan["train"].size == 53704
    assert plan["train"].depths == (1, 2, 3, 4, 5)
    assert plan["valid_ood"].depths == (6, 7, 8)
    assert plan["test"].depths == (9, 10)


def test_ctl_backward_is_reversal_of_forward():
    fwd = tasks.generate("ctl_fwd", seed=4, plan=small_ctl_plan())
    bwd = tasks.generate("ctl_bwd", seed=4, plan=small_ctl_plan())
    for name in ("train", "valid_ood", "test"):
        assert len(fwd[name]) == len(bwd[name])
        for f, b in zip(fwd[name], bwd[name]):
            assert tuple(reversed(f.tokens)) == b.tokens
            assert f.target == b.target


def test_ctl_targets_match_independent_oracle():
    spec = ctl.make_spec(5)
    splits = tasks.generate("ctl_fwd", seed=5, plan=small_ctl_plan())
    for s in splits["train"] + splits["test"]:
        assert eval_ctl(list(s.tokens), spec.tables, spec.symbols, reverse=False) == s.target
    bwd = tasks.generate("ctl_bwd", seed=5, plan=small_ctl_plan())
    for s in bwd["test"]:
        assert eval_ctl(list(s.tokens), spec.tables, spec.symbols, reverse=True) == s.target


def test_ctl_quota_too_small_for_units():
    plan = SplitPlan((SplitSpec("train", (1,), 10),))
    with pytest.raises(ValueError, match="unit pairs"):
        tasks.generate("ctl_fwd", seed=0, plan=plan)


# ---------------------------------------------------------------------------
# arithmetic


def test_arith_paper_example():
    assert arithmetic.arith_eval(list("((4*7)+2)")) == 0


def test_arith_zero_product():
    assert arithmetic.arith_eval(list("(0*9)")) == 0


def test_arith_depth_of_paper_example():
    tree = ("+", [("*", [4, 7]), 2])
    assert data.tree_depth(tree) == 2
    assert arithmetic.tree_tokens(tree) == list("((4*7)+2)")


def test_arith_parse_errors():
    with pytest.raises(arithmetic.ParseError):
        arithmetic.arith_eval(list("(4*7"))
    with pytest.raises(arithmetic.ParseError):
        arithmetic.arith_eval(list("4)"))
    with pytest.raises(arithmetic.ParseError):
        arithmetic.arith_eval(["x"])


def test_arith_random_match_independent_interpreter():
    splits = tasks.generate("arith", seed=6, plan=small_plan((0, 1, 2, 3, 4, 5), (6,), (7, 8)))
    n_checked = 0
    for name, samples in splits.items():
        for s in samples:
            assert eval_arith("".join(s.tokens)) == int(s.target)
            n_checked += 1
    assert n_checked >= 180


def test_arith_split_depths_and_length():
    splits = tasks.generate("arith", seed=7, plan=small_plan((0, 1, 2, 3, 4, 5), (6,), (7, 8)))
    assert {s.depth for s in splits["train"]} == {0, 1, 2, 3, 4, 5}
    assert {s.depth for s in splits["valid_ood"]} == {6}
    assert {s.depth for s in splits["test"]} <= {7, 8}
    for samples in splits.values():
        assert max(len(s.tokens) for s in samples) <= 50


def test_arith_depth_counts_balanced():
    plan = small_plan((0, 1, 2, 3), (6,), (7, 8), n_train=122)
    splits = tasks.generate("arith", seed=8, plan=plan)
    counts = {}
    for s in splits["train"]:
        counts[s.depth] = counts.get(s.depth, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1
    assert sum(counts.values()) == 122


@pytest.mark.parametrize("depths, size", [((1, 2), 0), ((1, 2), -1), ((), 10)])
def test_split_spec_rejects_empty_splits(depths, size):
    with pytest.raises(ValueError, match=f"split 'valid_ood' needs .* got size {size}, depths"):
        SplitSpec("valid_ood", depths, size)


# ---------------------------------------------------------------------------
# list operations


def test_listops_paper_example():
    tree = ("MED", [4, 8, 5, ("MAX", [8, 4, 9])])
    assert listops.listops_eval(tree) == 6
    assert listops.tree_tokens(tree) == ["[", "MED", "4", "8", "5", "[", "MAX", "8", "4", "9", "]", "]"]
    assert eval_listops(listops.tree_tokens(tree)) == 6


def test_listops_sum_modulo():
    assert listops.listops_eval(("SM", [5, 7])) == 2


def test_listops_median_floor():
    assert listops.listops_eval(("MED", [1, 2])) == 1


def test_listops_empty_op_rejected():
    with pytest.raises(ValueError, match="no arguments"):
        listops.listops_eval(("MIN", []))


def test_dependency_depth_digit():
    assert listops.dependency_depth(7) == 0


def test_dependency_depth_pruning():
    selected = ("MAX", [1, ("SM", [2, 3])])     # SM=5 wins -> kept
    pruned = ("MAX", [9, ("SM", [2, 3])])       # 9 wins -> SM branch pruned
    assert listops.dependency_depth(selected) == 2
    assert listops.dependency_depth(pruned) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6))
def test_dependency_depth_never_exceeds_parse_depth(seed, depth):
    draws = RngTree(seed, "prop").draws()
    tree = None
    while tree is None:
        tree = data.draw_tree(draws, depth, listops.OP_PROB, listops.OPS, listops._n_args)
    assert listops.dependency_depth(tree) <= data.tree_depth(tree) == depth


def test_listops_generation_depth_contract():
    splits = tasks.generate("listops", seed=9,
                            plan=small_plan((0, 1, 2, 3), (4,), (5,), n_train=80, n_eval=20))
    for s in splits["train"]:
        assert s.dep_depth == s.depth <= 3
        assert listops.listops_eval(_parse_listops(list(s.tokens))) == int(s.target)
        assert eval_listops(list(s.tokens)) == int(s.target)
    assert {s.dep_depth for s in splits["test"]} == {5}
    for samples in splits.values():
        assert max(len(s.tokens) for s in samples) <= 50


def _parse_listops(tokens):
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        if tok == "[":
            op = tokens[pos + 1]
            pos += 2
            children = []
            while tokens[pos] != "]":
                children.append(parse())
            pos += 1
            return (op, children)
        pos += 1
        return int(tok)

    return parse()


def test_listops_regeneration_is_bit_identical():
    plan = small_plan((0, 1, 2), (3,), (4,), n_train=60, n_eval=15)
    a = tasks.generate("listops", seed=10, plan=plan)
    b = tasks.generate("listops", seed=10, plan=plan)
    for name in a:
        assert [sample_to_json(s) for s in a[name]] == [sample_to_json(s) for s in b[name]]


@pytest.mark.parametrize("task, depths, digest", [
    ("ctl_fwd", range(1, 9), "149cf8b4022604b8b0295feeca16d1c03ecdca93a59429054cd0bd203421638e"),
    ("ctl_bwd", range(1, 9), "41bab4d686021552044e84332a97c5849924e341d2ebc27e759e7249de735f53"),
    ("arith", range(0, 7), "c1a54e1f03653f5b99b3273bb7d9e19eb87ef01bb69e2695025cb5317db3fedd"),
    ("listops", range(0, 7), "85935da4f9576dcc3341859f9026888d2c0fec877896d08a0fa4a44a85ddbebe"),
])
def test_generated_bytes_are_pinned(task, depths, digest):
    # Pins every task's RNG stream and sampler draw order: a refactor of
    # the generators must leave these samples byte-identical.
    plan = SplitPlan((SplitSpec("probe", tuple(depths), 300),))
    samples = tasks.generate(task, seed=3, plan=plan)["probe"]
    text = "".join(sample_to_json(s) + "\n" for s in samples)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generation_independent_of_worker_count():
    plan = SplitPlan((SplitSpec("train", (0, 1, 2), 24), SplitSpec("test", (3,), 8)))
    seq = tasks.generate("arith", seed=11, plan=plan, workers=1)
    par = tasks.generate("arith", seed=11, plan=plan, workers=3)
    for name in seq:
        assert [sample_to_json(s) for s in seq[name]] == [sample_to_json(s) for s in par[name]]


def test_pool_is_no_larger_than_the_chunk_count(pool_sizes):
    sample = Sample(("a",), "x", 1)
    out = data.fill_quota(lambda draws: sample, RngTree(0), data.CHUNK_SIZE + 1, workers=8)
    assert len(out) == data.CHUNK_SIZE + 1
    assert pool_sizes == [2]


# ---------------------------------------------------------------------------
# shared plumbing


def test_sample_json_roundtrip():
    s = Sample(("(", "4", "*", "7", ")"), "8", 1, None)
    back = sample_from_json(sample_to_json(s))
    assert back == s
    record = json.loads(sample_to_json(s))
    assert set(record) == {"tokens", "target", "depth", "dep_depth"}


def test_split_disjointness_of_default_plans():
    for task in tasks.TASKS:
        plan = tasks.default_plan(task)
        train = plan["train"].depths
        ood = plan["valid_ood"].depths
        test = plan["test"].depths
        assert max(train) < min(ood) <= max(ood) < min(test)


def test_vocab_encode_wraps_begin_end():
    v = tasks.vocab_for_task("arith")
    ids = v.encode(["4", "*", "7"])
    assert ids[0] == 1 and ids[-1] == 2
    assert len(ids) == 5
    with pytest.raises(ValueError, match="not in vocabulary"):
        v.encode(["Q"])


def test_dataset_write_read_roundtrip(tmp_path):
    plan = SplitPlan((SplitSpec("train", (0, 1), 20), SplitSpec("test", (2,), 6)))
    splits = tasks.generate_to_dir("arith", seed=12, out_dir=tmp_path, plan=plan)
    loaded = tasks.load_split(tmp_path, "train")
    assert loaded == splits["train"]
    manifest = tasks.read_manifest(tmp_path)
    assert manifest["task"] == "arith"
    assert tasks.dataset_task(tmp_path) == "arith"


def test_ctl_manifest_records_tables(tmp_path):
    plan = small_ctl_plan()
    tasks.generate_to_dir("ctl_fwd", seed=13, out_dir=tmp_path, plan=plan)
    manifest = tasks.read_manifest(tmp_path)
    assert set(manifest["ctl"]["tables"]) == set("abcdefghi")
