import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrouter import attention as att
from seqrouter import autodiff as ad
from seqrouter.attention import AttentionConfig, Mode, geometric_ordering, geometric_weights
from seqrouter.autodiff import Init, Tape, Tensor
from seqrouter.gradchecks import band_op, check_match_weights, project
from seqrouter.layers import encoder_step, init_layer
from seqrouter.rng import RngTree

from oracles import geometric_weights_direct, naive_match_probs, naive_geometric_weights


def geo_params(d=8, heads=2, seed=0, dtype=np.float64):
    cfg = AttentionConfig(d_model=d, n_heads=heads, kind="geometric")
    return att.init_attention(Init(RngTree(seed), dtype=dtype, prefix="geo"), cfg)


def logits_op(valid, n_heads, dtype=np.float64):
    """The fused weights (match_op) as a function of match logits z (B, H, N, N),
    fed as packed rows q = att.Band(valid).join(z): with unit-vector k
    rows, alpha = 1 and beta = gamma = 0, q.k^T is z exactly, so q's
    gradient is z's at the valid targets."""
    (b, n), band = valid.shape, att.Band(valid)
    p = geo_params(d=n_heads * n, heads=n_heads, dtype=dtype)
    p.alpha.data[:], p.beta.data[:], p.gamma.data[:] = 1.0, 0.0, 0.0
    k = Tensor(band.join(np.broadcast_to(np.eye(n, dtype=dtype), (b, n_heads, n, n))))
    d = Tensor(np.zeros((k.shape[0], n_heads), dtype=dtype))
    return lambda q: match_op(p, (q, k, d, d), band)


def match_op(p, rows, band):
    """_match_weights of the packed row Tensors (q, k, d_lr, d_rl) as one tape node."""
    return band_op(lambda data, b: att._match_weights(*data, p, b), list(rows), band)


def test_ordering_forced_example():
    assert geometric_ordering(3, 5) == [4, 2, 5, 1]


def test_ordering_edges():
    assert geometric_ordering(1, 5) == [2, 3, 4, 5]
    assert geometric_ordering(5, 5) == [4, 3, 2, 1]


def test_ordering_rejects_out_of_range():
    with pytest.raises(ValueError):
        geometric_ordering(0, 5)
    with pytest.raises(ValueError):
        geometric_ordering(6, 5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40))
def test_ordering_is_permutation(n):
    for i in range(1, n + 1):
        order = geometric_ordering(i, n)
        assert sorted(order) == [k for k in range(1, n + 1) if k != i]


def test_weights_hand_example():
    # Row i=2 (1-based) with neighbours at 0.5: right neighbour is closer.
    p = np.zeros((3, 3))
    p[1, 0] = 0.5
    p[1, 2] = 0.5
    a = geometric_weights(Tensor(p, dtype=np.float64)).data
    assert a[1, 2] == pytest.approx(0.5)
    assert a[1, 0] == pytest.approx(0.25)


def test_weights_single_source_certain_match():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = geometric_weights(Tensor(p, dtype=np.float64)).data
    np.testing.assert_allclose(a, [[0.0, 1.0], [1.0, 0.0]])


def test_weights_diagonal_always_zero():
    gen = np.random.default_rng(0)
    p = gen.random((4, 6, 6))
    a = geometric_weights(Tensor(p, dtype=np.float64)).data
    assert (np.diagonal(a, axis1=-2, axis2=-1) == 0).all()


def test_weights_domain_error():
    with pytest.raises(ValueError, match="0, 1"):
        geometric_weights(Tensor(np.array([[0.0, 1.2], [0.3, 0.0]]), dtype=np.float64))
    with pytest.raises(ValueError, match="0, 1"):
        geometric_weights(Tensor(np.array([[0.0, np.nan], [0.3, 0.0]]), dtype=np.float64))


def test_row_mass_identity_random():
    gen = np.random.default_rng(1)
    for n in (1, 2, 3, 7, 16):
        p = gen.random((2, n, n))
        np.fill_diagonal(p[0], gen.random(n))
        a = geometric_weights(Tensor(p, dtype=np.float64)).data
        mask = ~np.eye(n, dtype=bool)
        escape = np.prod(np.where(mask, 1.0 - p, 1.0), axis=-1)
        np.testing.assert_allclose(a.sum(-1) + escape, 1.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2 ** 31 - 1))
def test_tie_break_two_neighbours(n, seed):
    gen = np.random.default_rng(seed)
    i = int(gen.integers(1, n - 1))
    prob = float(gen.random())
    p = np.zeros((n, n))
    p[i, i + 1] = prob
    p[i, i - 1] = prob
    a = geometric_weights(Tensor(p, dtype=np.float64)).data
    assert a[i, i + 1] == pytest.approx(prob)
    assert a[i, i - 1] == pytest.approx(prob * (1 - prob))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.9))
def test_monotone_shadowing(n, seed, bump):
    gen = np.random.default_rng(seed)
    p = gen.random((n, n))
    i = int(gen.integers(0, n))
    order = [k - 1 for k in geometric_ordering(i + 1, n)]
    if len(order) < 2:
        return
    pos = int(gen.integers(0, len(order) - 1))
    k = order[pos]
    p[i, k] = min(p[i, k], 1.0 - bump)
    before = geometric_weights(Tensor(p.copy(), dtype=np.float64)).data
    p2 = p.copy()
    p2[i, k] += bump * (1.0 - p[i, k])
    after = geometric_weights(Tensor(p2, dtype=np.float64)).data
    farther = order[pos + 1:]
    assert (after[i, farther] <= before[i, farther] + 1e-12).all()


def test_log_space_agrees_with_direct_product_extremes():
    gen = np.random.default_rng(2)
    for n in (2, 17, 64, 256):
        p = gen.random((n, n))
        p[0, -1] = 1e-8
        p[-1, 0] = 1.0 - 1e-8
        log_a = geometric_weights(Tensor(p, dtype=np.float64)).data
        direct = geometric_weights_direct(p)
        np.testing.assert_allclose(log_a, direct, atol=1e-5)


def test_direct_product_matches_pairwise_oracle():
    gen = np.random.default_rng(3)
    p = gen.random((7, 7))
    np.testing.assert_allclose(geometric_weights_direct(p), naive_geometric_weights(p), atol=1e-12)


def test_probs_all_zero_states_are_half():
    p = geo_params()
    for param in ad.parameters(p):
        if param.name.endswith(("alpha",)):
            continue
        param.data[:] = 0.0
    _, (weights,) = att.attend(Tensor(np.zeros((4, 8))), p, np.ones((1, 4), dtype=bool))
    want = geometric_weights(Tensor(np.full((1, 2, 4, 4), 0.5))).data
    np.testing.assert_allclose(weights, want, atol=1e-15)


def test_probs_direction_bias_blocks_left():
    p = geo_params(seed=4)
    p.b_rl.data[:] = -50.0
    p.w_rl.data[:] = 0.0
    p.beta.data[:] = 1.0
    h = Tensor(np.random.default_rng(5).normal(size=(5, 8)) * 0.1, dtype=np.float64)
    _, (weights,) = att.attend(h, p, np.ones((1, 5), dtype=bool))
    i_idx, j_idx = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
    assert weights[0][:, i_idx > j_idx].max() < 1e-6


def naive_probs(h, p):
    return naive_match_probs(
        h, p.w_q.data, p.b_q.data, p.w_ke.data, p.w_lr.data, p.b_lr.data,
        p.w_rl.data, p.b_rl.data, p.alpha.data, p.beta.data, p.gamma.data, 2)


def test_probs_match_pairwise_oracle():
    p = geo_params(d=8, heads=2, seed=6)
    h = np.random.default_rng(7).normal(size=(5, 8))
    _, (weights,) = att.attend(Tensor(h), p, np.ones((1, 5), dtype=bool))
    for head, probs in enumerate(naive_probs(h, p)):
        np.testing.assert_allclose(weights[0, head], naive_geometric_weights(probs), atol=1e-6)


def test_probs_padded_sources_are_zero():
    p = geo_params(seed=8)
    h = np.random.default_rng(9).normal(size=(5, 8))
    # A longer second sequence keeps the first one's pad sources in its band.
    valid = np.array([[True, True, True, False, False], [True] * 5])
    # Pad sources neither receive mass nor shadow closer matches.
    _, (weights,) = att.attend(Tensor(np.concatenate([h[:3], h])), p, valid)
    assert (weights[0, ..., 3:] == 0).all()
    want = naive_geometric_weights(np.pad(naive_probs(h[:3], p)[0], ((0, 2), (0, 2))))
    np.testing.assert_allclose(weights[0, 0, :3], want[:3], atol=1e-12)


def test_attend_one_hot_rows_select_values():
    p = geo_params(seed=10)
    gen = np.random.default_rng(11)
    h = gen.normal(size=(1, 4, 8))
    valid = np.ones((1, 4), dtype=bool)
    # Saturate matches to the right neighbour: P=1 there shadows everything.
    p.alpha.data[:] = 0.0
    p.gamma.data[:] = 0.0
    p.beta.data[:] = 1.0
    p.w_lr.data[:] = 0.0
    p.w_rl.data[:] = 0.0
    p.b_lr.data[:] = 500.0
    p.b_rl.data[:] = -500.0
    out, (weights,) = att.attend(Tensor(h[0], dtype=np.float64), p, valid)
    # Every target except the last picks exactly its right neighbour.
    picks = weights[0, 0].argmax(-1)
    np.testing.assert_array_equal(picks[:-1], np.arange(1, 4))
    v = h[0] @ p.w_v.data
    dh = 4
    for head in range(2):
        np.testing.assert_allclose(
            (weights[0, head] @ v[:, head * dh:(head + 1) * dh])[0],
            v[1, head * dh:(head + 1) * dh], atol=1e-8)
    np.testing.assert_allclose(out.data[:-1], (v[1:] @ p.w_o.data), atol=1e-6)


def test_attend_padded_equals_unpadded_prefix():
    p = geo_params(seed=12)
    gen = np.random.default_rng(13)
    h = gen.normal(size=(11, 8))
    # A longer second sequence keeps the first one's pad columns in its band.
    padded, _ = att.attend(Tensor(h), p, np.array([[True] * 4 + [False] * 3, [True] * 7]))
    for rows in (slice(0, 4), slice(4, 11)):
        exact, _ = att.attend(Tensor(h[rows]), p, np.ones((1, rows.stop - rows.start), dtype=bool))
        np.testing.assert_allclose(padded.data[rows], exact.data, atol=1e-6)


def test_attend_row_mass_bounded_by_one():
    p = geo_params(seed=14)
    h = Tensor(np.random.default_rng(15).normal(size=(12, 8)), dtype=np.float64)
    valid = np.ones((2, 6), dtype=bool)
    _, (weights,) = att.attend(h, p, valid)
    assert weights.min() >= 0.0
    assert weights.sum(-1).max() <= 1.0 + 1e-6


def test_geometric_weights_grad_vs_fd():
    gen = np.random.default_rng(16)
    z = gen.normal(size=(2, 1, 3, 3))
    r = gen.normal(size=z.shape)
    valid = np.array([[True, True, True], [True, True, False]])
    op = logits_op(valid, 1)

    def f(points):
        return project(op(points[0]), r)

    assert ad.grad_check(f, [Tensor(att.Band(valid).join(z))], step=1e-6) < 1e-3


def test_closeness_mask_reproduces_ordering():
    for n in range(1, 65):
        # Source j's rank is the number of sources that come before it.
        rank = att._closeness_mask(n, np.float64).sum(axis=1)
        for i in range(n):
            order = [k - 1 for k in geometric_ordering(i + 1, n)]
            assert rank[i, order].tolist() == list(range(n - 1))
            assert rank[i, i] == n - 1


def test_weights_op_matches_oracle_on_padded_batch():
    gen = np.random.default_rng(17)
    lengths = [6, 4, 1]
    z = gen.normal(scale=2.0, size=(3, 2, 6, 6))
    valid = np.arange(6)[None, :] < np.array(lengths)[:, None]
    a = logits_op(valid, 2)(Tensor(att.Band(valid).join(z))).data
    for b, n in enumerate(lengths):
        assert (a[b, :, :, n:] == 0).all()
        for head in range(2):
            p = 1.0 / (1.0 + np.exp(-z[b, head]))
            p[:, n:] = 0.0  # pads neither receive mass nor shadow
            np.testing.assert_allclose(a[b, head, :n], naive_geometric_weights(p)[:n], atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weights_op_extreme_logits_stay_finite(dtype):
    gen = np.random.default_rng(18)
    z = np.where(gen.random((2, 2, 7, 7)) < 0.5, -1e9, 1e9).astype(dtype)
    valid = np.ones((2, 7), dtype=bool)
    x = Tensor(att.Band(valid).join(z), requires_grad=True)
    r = gen.normal(size=z.shape).astype(dtype)
    with Tape() as tape:
        a = logits_op(valid, 2, dtype)(x)
        tape.backward(project(a, r))
    assert np.isfinite(a.data).all() and np.isfinite(x.grad).all()
    # p is 0 or 1: each row puts weight 1 on its nearest certain match.
    want = geometric_weights_direct((z > 0).astype(np.float64))
    np.testing.assert_array_equal(a.data, want)


def test_weights_op_holds_only_weights_and_mask():
    b, nh, n, d = 4, 8, 64, 64
    p = geo_params(d=d, heads=nh, seed=24, dtype=np.float32)
    valid = np.ones((b, n), dtype=bool)
    valid[1, 40:] = False
    m = np.count_nonzero(valid)
    gen = np.random.default_rng(24)
    q, k = (Tensor(gen.normal(size=(m, d)).astype(np.float32), requires_grad=True) for _ in range(2))
    d_lr, d_rl = (Tensor(gen.normal(size=(m, nh)).astype(np.float32), requires_grad=True)
                  for _ in range(2))
    att._closeness_mask(n, np.dtype(np.float32))  # one shared array, made before measuring
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            a = match_op(p, (q, k, d_lr, d_rl), att.Band(valid))
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(project(a))
    finally:
        tracemalloc.stop()
    # The weights, the direction columns and the mask, with slack: the
    # (B, H, N, N) logits, another 512 KB, are recomputed, not kept.
    rows = sum(t.data.nbytes for t in (q, k, d_lr, d_rl))
    assert a.shape == (b, nh, n, n)
    assert held <= a.data.nbytes + rows + 64 * 1024, held
    assert all(t.grad is not None for t in (q, k, d_lr, d_rl, p.alpha, p.beta, p.gamma))


@pytest.mark.parametrize("n", [1, 2, 3, 52])
def test_weights_op_grad_matches_direct_product_fd(n):
    gen = np.random.default_rng(n)
    z = gen.normal(size=(2, 3, n, n))
    r = gen.normal(size=z.shape)
    v = gen.normal(size=z.shape)
    valid = np.ones((2, n), dtype=bool)
    x = Tensor(att.Band(valid).join(z), requires_grad=True)
    with Tape() as tape:
        a = logits_op(valid, 3)(x)
        tape.backward(project(a, r))

    def direct_loss(zz):
        return float((r * geometric_weights_direct(1.0 / (1.0 + np.exp(-zz)))).sum())

    np.testing.assert_allclose(a.data, geometric_weights_direct(1.0 / (1.0 + np.exp(-z))), atol=1e-14)
    h = 1e-6
    numeric = (direct_loss(z + h * v) - direct_loss(z - h * v)) / (2 * h)
    analytic = float((att.Band(valid).split(x.grad, 3) * v).sum())
    assert abs(analytic - numeric) <= 1e-7 * (1.0 + abs(numeric))


def test_match_weights_grad_check():
    assert check_match_weights() < 1e-9


def test_geometric_attend_records_few_nodes():
    p = geo_params(d=16, heads=2, seed=23, dtype=np.float32)
    p.cfg.content_dropout = 0.1
    lengths = np.array([6, 3, 5])
    valid = np.arange(6)[None, :] < lengths[:, None]
    gen = np.random.default_rng(23)
    h = Tensor(gen.normal(size=(lengths.sum(), 16)).astype(np.float32), requires_grad=True)
    mode = Mode(train=True, rng=RngTree(23, "drop"))
    with Tape() as tape:
        rows = att._project(h, p, mode)[0]
        att._geometric_logits([t.data for t in rows], p, att.Band(valid))
        logits_nodes = len(tape._nodes)
    with Tape() as tape:
        att.attend(h, p, valid, mode)
        attend_nodes = len(tape._nodes)
    lp = init_layer(Init(RngTree(23), np.float32, prefix="geo"), p.cfg, gated=True, d_ff=32)
    with Tape() as tape:
        encoder_step(h, lp, valid, mode, drop=0.1)
        step_nodes = len(tape._nodes)
    # Four biased projections and q's dropout; the logits and weights are no
    # op of their own. Then v's projection, one op for all pair work and the
    # output product.
    assert logits_nodes <= 5
    assert attend_nodes <= 8
    # attend, the residual and its layernorm, the FFN (two products, ReLU,
    # dropout) and its layernorm, the gate (two products, ReLU, sigmoid)
    # and the blend.
    assert step_nodes <= 20


@pytest.mark.parametrize("kind, most", [("standard_abs", 7), ("relative", 11), ("abs_rel_gated", 17)])
def test_relative_attend_records_few_nodes(kind, most):
    cfg = AttentionConfig(d_model=16, n_heads=2, kind=kind)
    p = att.init_attention(Init(RngTree(25), np.float32, prefix="rel"), cfg)
    valid = np.arange(5)[None, :] < np.array([5, 3])[:, None]
    h = Tensor(np.random.default_rng(25).normal(size=(8, 16)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        att.attend(h, p, valid)
        # The q and k products (relative: one q product, two bias adds and
        # the offsets key table's product), v's product, one op for all
        # pair work and the output product: 5 nodes, relative 8. The gate
        # adds the absolute table's product, its own product, the sigmoid
        # and two blends: 13.
        assert len(tape._nodes) <= most


def test_closeness_mask_is_one_read_only_array():
    c = att._closeness_mask(7, np.dtype(np.float32))
    assert att._closeness_mask(7, np.dtype(np.float32)).base is c.base
    assert not c.flags.writeable


def test_narrower_closeness_mask_is_a_view_equal_to_a_fresh_build(monkeypatch):
    monkeypatch.setattr(att, "_widest_closeness", None)
    wide = att._closeness_mask(40, np.dtype(np.float32))
    narrow = att._closeness_mask(9, np.dtype(np.float32))
    assert narrow.base is wide.base
    monkeypatch.setattr(att, "_widest_closeness", None)
    fresh = att._closeness_mask(9, np.dtype(np.float32))
    assert fresh.base is not wide.base and fresh.shape == (9, 9, 9)
    np.testing.assert_array_equal(narrow, fresh)
