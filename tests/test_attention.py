import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrouter import attention as att
from seqrouter import autodiff as ad
from seqrouter.attention import AttentionConfig, Mode
from seqrouter.autodiff import Init, Tape, Tensor
from seqrouter.gradchecks import TOLERANCE, band_op, check_scores, project, run_checks
from seqrouter.rng import RngTree

from oracles import naive_mha, naive_rel_scores, sinusoid


def make_params(kind, d=8, heads=2, seed=0, dtype=np.float64):
    cfg = AttentionConfig(d_model=d, n_heads=heads, kind=kind)
    init = Init(RngTree(seed), dtype=dtype, prefix=kind)
    return att.init_attention(init, cfg)


def rand_states(m, d, seed=0, dtype=np.float64):
    """Packed states: m rows, one per valid cell."""
    gen = np.random.default_rng(seed)
    return Tensor(gen.normal(size=(m, d)).astype(dtype))


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        AttentionConfig(d_model=10, n_heads=3)


def test_sinusoid_matches_reference():
    table = att.sinusoid_table(np.array([-3, 0, 7]), 8, np.float64)
    for row, pos in zip(table, [-3, 0, 7]):
        np.testing.assert_allclose(row, sinusoid(pos, 8), atol=1e-12)


def test_sinusoid_odd_width_leaves_last_column_zero():
    positions = np.array([-4, 0, 1, 5, 12])
    table = att.sinusoid_table(positions, 7, np.float64)
    for row, pos in zip(table, positions):
        np.testing.assert_allclose(row, sinusoid(pos, 7), atol=1e-12)
    assert (table[:, 6] == 0).all()


def test_mha_single_column_is_value_projection():
    p = make_params("standard_abs", d=8, heads=2)
    h = rand_states(1, 8)
    out, (weights,) = att.attend(h, p, np.ones((1, 1), dtype=bool))
    expect = h.data @ p.w_v.data @ p.w_o.data
    np.testing.assert_allclose(out.data, expect, atol=1e-10)
    np.testing.assert_allclose(weights, 1.0)


def test_mha_identical_keys_give_uniform_weights():
    p = make_params("standard_abs")
    h = Tensor(np.tile(np.linspace(-1, 1, 8), (5, 1)).astype(np.float64))
    _, (weights,) = att.attend(h, p, np.ones((1, 5), dtype=bool))
    np.testing.assert_allclose(weights, 0.2, atol=1e-12)


def test_mha_matches_naive_reference():
    p = make_params("standard_abs", d=12, heads=3, seed=1)
    gen = np.random.default_rng(2)
    h = gen.normal(size=(6, 12))
    valid = np.ones(6, dtype=bool)
    got, _ = att.attend(Tensor(h), p, valid[None])
    want = naive_mha(h, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data, 3, valid)
    np.testing.assert_allclose(got.data, want, atol=1e-5)


def test_mha_masked_sources_get_zero_weight():
    p = make_params("standard_abs")
    # A longer second sequence keeps the first one's pad sources in its band.
    h = rand_states(8, 8, seed=3)
    valid = np.array([[True, True, True, False, False], [True] * 5])
    _, (weights,) = att.attend(h, p, valid)
    assert (weights[0, ..., 3:] == 0).all()
    np.testing.assert_allclose(weights.sum(-1), 1.0, atol=1e-6)


def test_mha_all_masked_raises():
    p = make_params("standard_abs")
    h = rand_states(0, 8)
    with pytest.raises(ValueError, match="masked"):
        att.attend(h, p, np.zeros((1, 3), dtype=bool))


def test_attend_rejects_padded_states():
    p = make_params("standard_abs")
    valid = np.array([[True, True, False]])
    with pytest.raises(ad.DimensionError, match="packed"):
        att.attend(Tensor(np.zeros((1, 3, 8))), p, valid)
    with pytest.raises(ad.DimensionError, match="packed"):
        att.attend(rand_states(3, 8), p, valid)


@pytest.mark.parametrize("kind", ["standard_abs", "relative", "abs_rel_gated"])
def test_masked_sources_contribute_zero_gradient(kind):
    # A pad column of the padded (B, N) layout feeds nothing back: every
    # packed row's gradient equals that of the same sequence alone. A longer
    # second sequence keeps the first one's pad columns in its band. The
    # absolute sinusoid table's rows 0..N-1 do not depend on N, and the
    # relative table's extra offsets meet only the pad columns.
    p = make_params(kind)
    gen = np.random.default_rng(4)
    h = gen.normal(size=(11, 8))

    def grad(rows, valid):
        x = Tensor(h[rows], requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            out, _ = att.attend(x, p, valid)
            tape.backward(project(out))
        return x.grad

    padded = grad(slice(0, 11), np.array([[True] * 4 + [False] * 3, [True] * 7]))
    for rows in (slice(0, 4), slice(4, 11)):
        alone = grad(rows, np.ones((1, rows.stop - rows.start), dtype=bool))
        np.testing.assert_allclose(padded[rows], alone, rtol=1e-12, atol=1e-14)


def scores_op(rows, valid, n_heads, c, tables=()):
    """_scores of packed q, k and each table term's queries as one tape
    node, over valid as one band; a table term is (queries, table, view)."""
    def weights(data, band):
        return att._scores(*data[:2], band, n_heads, c,
                           [(u, t, view) for u, (_, t, view) in zip(data[2:], tables)])

    return band_op(weights, list(rows) + [u for u, _, _ in tables], att.Band(valid))


def test_scores_zero_the_gradient_at_pad_sources():
    # Column 2 is a pad source of both sequences, and column 1 of the second.
    gen = np.random.default_rng(5)
    valid = np.array([[True, True, False], [True, False, False]])
    q, k, u = (Tensor(gen.normal(size=(3, 4))) for _ in range(3))
    table = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
    r = gen.normal(size=(2, 2, 3, 3))
    with Tape() as tape:
        w = scores_op((q, k), valid, 2, 0.5, ((u, table, None),))
        tape.backward(project(w, r))
    assert (w.data[np.broadcast_to(~valid[:, None, None, :], w.shape)] == 0).all()
    # Key-table row j scores source j only, so row 2 gets no gradient.
    assert (table.grad[2] == 0).all() and (table.grad[:2] != 0).all()


def rel_weights(h, p, valid):
    """The relative kinds' softmax weights (B, H, N, N) of packed states h
    (M, d) over the N columns of valid, as one band."""
    rows, band_weights = att._project(h, p, att.EVAL)
    return band_weights([t.data for t in rows], att.Band(valid))[0]


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_rel_scores_match_naive_relative_only():
    p = make_params("relative", d=8, heads=2, seed=5)
    gen = np.random.default_rng(6)
    h = gen.normal(size=(4, 8))
    weights = rel_weights(Tensor(h), p, np.ones((1, 4), dtype=bool))
    want = naive_rel_scores(h, p.w_q.data, p.w_ke.data, p.w_kp.data, p.b_qe.data, p.b_qp.data, 2)
    np.testing.assert_allclose(weights[0], softmax(want), atol=1e-6)


def test_rel_scores_match_naive_gated():
    p = make_params("abs_rel_gated", d=8, heads=2, seed=7)
    gen = np.random.default_rng(8)
    h = gen.normal(size=(5, 8))
    weights = rel_weights(Tensor(h), p, np.ones((1, 5), dtype=bool))
    r = 1.0 / (1.0 + np.exp(-(h @ p.w_ar.data[:, 0] + p.b_ar.data[0])))
    want = naive_rel_scores(h, p.w_q.data, p.w_ke.data, p.w_kp.data, p.b_qe.data, p.b_qp.data, 2, r=r)
    np.testing.assert_allclose(weights[0], softmax(want), atol=1e-6)


def test_gate_one_reduces_to_relative_only():
    p = make_params("abs_rel_gated", seed=9)
    # Saturate the gate open so the blended term collapses to offsets only.
    p.b_ar.data[:] = 50.0
    p.w_ar.data[:] = 0.0
    h = rand_states(5, 8, seed=10)
    valid = np.ones((1, 5), dtype=bool)
    gated = rel_weights(h, p, valid)
    rel = rel_weights(h, dataclasses.replace(p, w_ar=None, b_ar=None), valid)
    np.testing.assert_allclose(gated, rel, atol=1e-6)


def shifted_weights(h, p, shift):
    """Weights of h (n, d) as one sequence, and as the same sequence placed
    ``shift`` columns further right behind pad sources, cut to h's pairs."""
    n = h.shape[0]
    alone = rel_weights(h, p, np.ones((1, n), dtype=bool))
    behind = rel_weights(h, p, np.arange(n + shift)[None, :] >= shift)
    return alone, behind[:, :, shift:, shift:]


def test_gate_zero_uses_absolute_positions_only():
    p = make_params("abs_rel_gated", seed=11)
    p.b_ar.data[:] = -50.0
    p.w_ar.data[:] = 0.0
    h = rand_states(5, 8, seed=12)
    base0, shifted = shifted_weights(h, p, 9)
    # With r=0 the positional term depends on absolute p_j, so shifting moves it.
    assert np.abs(base0 - shifted).max() > 1e-4
    # And it no longer depends on the target/source offset structure beyond p_j:
    # each column j contributes the same positional score to every target i.
    d = 8
    q = h.data @ p.w_q.data + p.b_qp.data
    k_abs = att.sinusoid_table(np.arange(5), d, np.float64) @ p.w_kp.data
    per_head_pos = np.stack([
        q[:, hd * 4:(hd + 1) * 4] @ k_abs[:, hd * 4:(hd + 1) * 4].T for hd in range(2)
    ])
    content = np.stack([
        (h.data @ p.w_q.data[:, hd * 4:(hd + 1) * 4] + p.b_qe.data[hd * 4:(hd + 1) * 4])
        @ (h.data @ p.w_ke.data[:, hd * 4:(hd + 1) * 4]).T for hd in range(2)
    ])
    want = softmax((content + per_head_pos) / np.sqrt(4.0))
    np.testing.assert_allclose(base0[0], want, atol=1e-6)


def test_relative_scores_shift_invariant():
    p = make_params("relative", seed=13)
    a, b = shifted_weights(rand_states(6, 8, seed=14), p, 17)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_relative_attend_rows_sum_to_one():
    p = make_params("relative", seed=15)
    h = rand_states(8, 8, seed=16)
    valid = np.array([[True] * 5, [True, True, True, False, False]])
    _, (weights,) = att.attend(h, p, valid)
    np.testing.assert_allclose(weights.sum(-1), 1.0, atol=1e-6)
    assert (weights[1, :, :, 3:] == 0).all()


def test_attention_dropout_only_in_train_mode():
    p = make_params("relative", seed=17)
    p.cfg.content_dropout = 0.5
    h = rand_states(4, 8, seed=18)
    valid = np.ones((1, 4), dtype=bool)
    eval_a = att.attend(h, p, valid)[0]
    eval_b = att.attend(h, p, valid)[0]
    np.testing.assert_array_equal(eval_a.data, eval_b.data)
    train = att.attend(h, p, valid, Mode(train=True, rng=RngTree(0, "drop")))[0]
    assert np.abs(train.data - eval_a.data).max() > 1e-6


def test_table_scores_grad_check(monkeypatch):
    # The key tables' gradient flows through no other op, so a wrong factor
    # shows only in the scores check: a factor of 1.001 on either table's
    # gradient must fail it.
    op = ad._op

    def scores_with_fault(table):
        def faulty(data, operands, vjp):
            if len(operands) == 6:  # q, k, two terms' queries, then their tables
                return op(data, operands, lambda g: tuple(x * 1.001 if i == table else x
                                                          for i, x in enumerate(vjp(g))))
            return op(data, operands, vjp)

        with monkeypatch.context() as patched:
            patched.setattr(ad, "_op", faulty)
            return check_scores()

    for table in (4, 5):  # the offsets table, then the absolute one
        assert scores_with_fault(table) > 1e-5
    assert check_scores() < 1e-9


def test_scores_grad_check():
    assert check_scores() < 1e-9


@pytest.mark.parametrize("kind, one_band, tables", [
    ("standard_abs", 5, 0), ("relative", 8, 1), ("abs_rel_gated", 13, 2), ("geometric", 7, 0)])
def test_one_attention_op_per_layer_step(kind, one_band, tables):
    p = make_params(kind, d=16, seed=26)

    def nodes(lengths):
        valid = np.arange(lengths.max() + 3)[None, :] < lengths[:, None]
        h = rand_states(lengths.sum(), 16, seed=27)
        h.requires_grad = True
        with Tape() as tape:
            att.attend(h, p, valid)
        return len(tape._nodes)

    # The projections, one op for all pair work and w_o's product; the
    # relative kinds also project their key tables (offsets, and gated,
    # absolute positions) at the band's width.
    assert nodes(np.array([6, 3, 5])) == one_band
    # Three bands: the same one pair op; each band adds only its key-table
    # projections.
    assert nodes(np.array([6, 20, 3, 40])) == one_band + 2 * tables


def _held_bytes(op):
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = op()
            held = tracemalloc.get_traced_memory()[0] - before
            tape.backward(project(out))
    finally:
        tracemalloc.stop()
    return out, held


def test_attend_holds_only_its_rows_weights_and_output():
    b, nh, n, d = 4, 8, 64, 64
    valid = np.ones((b, n), dtype=bool)
    valid[1, 40:] = False
    m = np.count_nonzero(valid)
    p = make_params("standard_abs", d=d, heads=nh, seed=31, dtype=np.float32)
    h = rand_states(m, d, seed=31, dtype=np.float32)
    h.requires_grad = True
    att._bands(valid)  # np.unique's first call imports numpy.ma, which attend does not hold
    weights = []

    def run():
        out, band_weights = att.attend(h, p, valid)
        weights.extend(band_weights)
        return out

    out, held = _held_bytes(run)
    # Two bands, of widths 40 and 64. q, k, v, the pair op's output, the
    # output and each band's weights, with slack below the 64 KB of
    # zero-padded per-head v or (B, H, N, d_h) product, neither of which is kept.
    assert [w.shape for w in weights] == [(1, nh, 40, 40), (3, nh, n, n)]
    assert held <= 5 * out.data.nbytes + sum(w.nbytes for w in weights) + 16 * 1024, held


def test_scores_hold_only_their_output():
    b, nh, n, d = 4, 8, 64, 64
    valid = np.ones((b, n), dtype=bool)
    valid[1, 40:] = False
    m = np.count_nonzero(valid)
    gen = np.random.default_rng(32)
    q, k = (Tensor(gen.normal(size=(m, d)).astype(np.float32), requires_grad=True) for _ in range(2))
    out, held = _held_bytes(lambda: scores_op((q, k), valid, nh, 0.125))
    # The weights, with slack below the 128 KB of per-head q and k or the
    # 512 KB q.k product and pre-softmax scores, none of which is kept.
    assert out.shape == (b, nh, n, n)
    assert held <= out.data.nbytes + 64 * 1024, held


def test_table_scores_hold_only_their_output():
    b, nh, n, d = 4, 8, 64, 64
    valid = np.ones((b, n), dtype=bool)
    valid[1, 40:] = False
    m = np.count_nonzero(valid)
    gen = np.random.default_rng(33)
    q, k, u = (Tensor(gen.normal(size=(m, d)).astype(np.float32), requires_grad=True) for _ in range(3))
    table = Tensor(gen.normal(size=(2 * n - 1, d)).astype(np.float32), requires_grad=True)
    out, held = _held_bytes(lambda: scores_op((q, k), valid, nh, 0.125, ((u, table, att._offsets),)))
    # The (B, H, N, N) weights, with slack below the 64 KB of per-head
    # queries; the 1 MB (B, H, N, 2N - 1) table product is not kept either.
    assert out.shape == (b, nh, n, n) and out.data.flags.c_contiguous
    assert held <= out.data.nbytes + 32 * 1024, held


@pytest.mark.parametrize("n", [1, 2, 7])
def test_offsets_view_matches_gather(n):
    x = np.random.default_rng(n).normal(size=(2, 3, n, 2 * n - 1))
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1
    np.testing.assert_array_equal(att._offsets(x), np.take_along_axis(x, idx[None, None], axis=-1))
    # Every cell of the view is a distinct cell of x.
    hits = np.zeros_like(x)
    cells = att._offsets(hits)
    cells += 1.0
    assert hits.sum() == x.size // (2 * n - 1) * n and hits.max() == 1.0


def test_every_attention_gradient_check_passes():
    results = run_checks("attention")
    kinds = ("standard_abs", "relative", "abs_rel_gated", "geometric")
    ops = ("scores", "match_weights")
    bands = tuple(f"{kind}-bands" for kind in kinds)
    assert {f"attention/{name}" for name in kinds + ops + bands} <= set(results)
    for name, err in results.items():
        assert err < TOLERANCE, f"{name}: {err:.3e}"
    # The longdouble checks over two bands read far below TOLERANCE.
    for name in bands:
        assert results[f"attention/{name}"] < 1e-9, name


def test_split_and_join_heads_are_exact_inverses():
    gen = np.random.default_rng(30)
    lengths = np.array([5, 1, 3])
    valid = np.arange(6)[None, :] < lengths[:, None]
    rows, band = gen.normal(size=(9, 6)), att.Band(valid)
    heads = band.split(rows, 2)
    assert heads.shape == (3, 2, 6, 3)
    assert (heads.transpose(0, 2, 1, 3)[~valid] == 0).all()
    # Rows fill valid in row-major order: sequence by sequence, column by column.
    np.testing.assert_array_equal(heads[1, :, 0].reshape(-1), rows[5])
    np.testing.assert_array_equal(heads[0, 1, 4], rows[4, 3:])
    np.testing.assert_array_equal(band.join(heads), rows)
    layout = gen.normal(size=(3, 2, 6, 3))
    round_trip = band.split(band.join(layout), 2)
    np.testing.assert_array_equal(round_trip, np.where(valid[:, None, :, None], layout, 0.0))
    # The same band as packed rows 1, 2, 4, ... of a 12-row operand: split
    # reads those rows, and join gives them back in the same order.
    idx = np.array([1, 2, 4, 5, 6, 7, 8, 10, 11])
    wider, sub = gen.normal(size=(12, 6)), att.Band(valid, idx)
    np.testing.assert_array_equal(sub.split(wider, 2), band.split(wider[idx], 2))
    np.testing.assert_array_equal(sub.join(sub.split(wider, 2)), wider[idx])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 70), min_size=1, max_size=8), st.integers(0, 4))
def test_bands_partition_the_packed_rows(lengths, pad):
    # attend's VJP writes each band's gradient rows into one uninitialized
    # array, so every packed row must fall in exactly one band.
    lengths = np.array(lengths)
    valid = np.arange(lengths.max() + pad)[None, :] < lengths[:, None]
    seq_band = -(-lengths // att.BAND)
    row_band, m = np.repeat(seq_band, lengths), lengths.sum()
    bands = att._bands(valid)
    assert len(bands) == len(np.unique(seq_band))
    covered = np.zeros(m, dtype=int)
    for b, band in zip(np.unique(seq_band), bands):
        rows = np.arange(m)[band.rows]
        assert (np.diff(rows) > 0).all()  # packed order
        assert (row_band[rows] == b).all()  # band = ceil(L / BAND)
        # The band's mask: its sequences, to the longest of them.
        np.testing.assert_array_equal(band.valid, valid[seq_band == b, :lengths[seq_band == b].max()])
        covered[rows] += 1
    assert (covered == 1).all()
