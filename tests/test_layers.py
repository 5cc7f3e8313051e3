import numpy as np
import pytest

from seqrouter import attention as att
from seqrouter import autodiff as ad
from seqrouter import layers
from seqrouter.attention import AttentionConfig, Mode
from seqrouter.autodiff import Init, Tape, Tensor
from seqrouter.gradchecks import TOLERANCE, check_act_readout, project, run_checks
from seqrouter.layers import encoder_step, init_layer
from seqrouter.optim import grad_norm
from seqrouter.rng import RngTree


def build_layer(kind="geometric", gated=True, d=8, heads=2, d_ff=16, seed=0, dtype=np.float64):
    cfg = AttentionConfig(d_model=d, n_heads=heads, kind=kind)
    return init_layer(Init(RngTree(seed), dtype=dtype, prefix="layer"), cfg, gated, d_ff)


def states(m, d, seed=0, dtype=np.float64):
    """Packed states: m rows, one per valid cell."""
    gen = np.random.default_rng(seed)
    return Tensor(gen.normal(size=(m, d)).astype(dtype))


def test_ffn_norm_choice_per_variant():
    # A layer has ln_ffn parameters exactly when its update is layernormed;
    # gated non-geometric layers squash it with tanh instead.
    for kind in ("standard_abs", "relative", "abs_rel_gated", "geometric"):
        for gated in (False, True):
            lp = build_layer(kind=kind, gated=gated)
            layernormed = not gated or kind == "geometric"
            assert (lp.ln_ffn_g is not None) == layernormed, (kind, gated)
            assert (lp.ln_ffn_b is not None) == layernormed, (kind, gated)
            assert (lp.gate_w1 is not None) == gated, (kind, gated)


def test_gate_bias_initialized_to_minus_three():
    lp = build_layer()
    assert (lp.gate_b2.data == -3.0).all()


def test_gate_forced_closed_is_bitwise_passthrough():
    lp = build_layer(seed=1)
    lp.gate_b2.data[:] = -1e9
    h = states(10, 8, seed=2)
    out, _, gate = encoder_step(h, lp, np.ones((2, 5), dtype=bool))
    assert (gate.data == 0.0).all()
    assert (out.data == h.data).all()


def test_gate_forced_open_gives_update_exactly():
    lp = build_layer(seed=3)
    lp.gate_b2.data[:] = 1e9
    h = states(4, 8, seed=4)
    valid = np.ones((1, 4), dtype=bool)
    out, _, gate = encoder_step(h, lp, valid)
    assert (gate.data == 1.0).all()
    # Recompute the update head by hand: LN(att + h) -> FFN -> LN.
    a_in, _ = att.attend(h, lp.attn, valid)
    a = ad.layernorm(ad.add(a_in, h), lp.ln_att_g, lp.ln_att_b)
    f = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(a, lp.ffn_w1), lp.ffn_b1)), lp.ffn_w2), lp.ffn_b2)
    u = ad.layernorm(f, lp.ln_ffn_g, lp.ln_ffn_b)
    np.testing.assert_allclose(out.data, u.data, atol=1e-12)


def test_fresh_init_mean_gate_near_sigmoid_minus_three():
    lp = build_layer(seed=5, dtype=np.float32)
    h = states(48, 8, seed=6, dtype=np.float32)
    _, _, gate = encoder_step(h, lp, np.ones((8, 6), dtype=bool))
    assert abs(gate.data.mean() - 0.0474) < 0.02


def test_gated_tanh_update_without_ffn_layernorm():
    lp = build_layer(kind="relative", gated=True, seed=24)
    lp.gate_b2.data[:] = 1e9
    h = states(4, 8, seed=25)
    valid = np.ones((1, 4), dtype=bool)
    out, _, gate = encoder_step(h, lp, valid)
    assert (gate.data == 1.0).all()
    a_in, _ = att.attend(h, lp.attn, valid)
    a = ad.layernorm(ad.add(a_in, h), lp.ln_att_g, lp.ln_att_b)
    f = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(a, lp.ffn_w1), lp.ffn_b1)), lp.ffn_w2), lp.ffn_b2)
    np.testing.assert_allclose(out.data, np.tanh(f.data), atol=1e-12)


def test_ragged_step_rows_match_each_sequence_alone():
    lp = build_layer(seed=7)
    h = states(10, 8, seed=8)
    valid = np.array([[True] * 4 + [False] * 2, [True] * 6])
    out, _, _ = encoder_step(h, lp, valid)
    assert out.shape == (10, 8)
    for rows, n in ((slice(0, 4), 4), (slice(4, 10), 6)):
        alone, _, _ = encoder_step(Tensor(h.data[rows]), lp, np.ones((1, n), dtype=bool))
        np.testing.assert_allclose(out.data[rows], alone.data, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", att.KINDS)
def test_band_rows_match_each_sequence_alone(kind):
    # Bands 1, 2, 3, 1, 2 of widths 12, 20 and 33, in a batch 36 columns wide.
    lengths = np.array([5, 17, 33, 12, 20])
    valid = np.arange(36)[None, :] < lengths[:, None]
    lp = build_layer(kind=kind, seed=30)
    h = states(lengths.sum(), 8, seed=31)
    out, weights, _ = encoder_step(h, lp, valid)
    att_out, att_weights = att.attend(h, lp.attn, valid)
    assert [w.shape for w in weights] == [(2, 2, 12, 12), (2, 2, 20, 20), (1, 2, 33, 33)]
    band = -(-lengths // att.BAND)
    for s, (start, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
        rows, one = slice(start, start + n), np.ones((1, n), dtype=bool)
        alone, (alone_weights,), _ = encoder_step(Tensor(h.data[rows]), lp, one)
        np.testing.assert_allclose(out.data[rows], alone.data, rtol=0, atol=1e-12)
        attended, _ = att.attend(Tensor(h.data[rows]), lp.attn, one)
        np.testing.assert_allclose(att_out.data[rows], attended.data, rtol=0, atol=1e-12)
        w = weights[band[s] - 1][np.count_nonzero(band[:s] == band[s])]
        np.testing.assert_allclose(w[:, :n, :n], alone_weights[0], rtol=0, atol=1e-12)
        assert not w[:, :, n:].any()
        np.testing.assert_array_equal(w, att_weights[band[s] - 1][np.count_nonzero(band[:s] == band[s])])


def test_ungated_matches_manual_reference():
    lp = build_layer(kind="relative", gated=False, seed=9)
    h = states(5, 8, seed=10)
    valid = np.ones((1, 5), dtype=bool)
    out, _, _ = encoder_step(h, lp, valid)
    a_in, _ = att.attend(h, lp.attn, valid)
    a = ad.layernorm(ad.add(a_in, h), lp.ln_att_g, lp.ln_att_b)
    f = ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(a, lp.ffn_w1), lp.ffn_b1)), lp.ffn_w2), lp.ffn_b2)
    want = ad.layernorm(ad.add(f, a), lp.ln_ffn_g, lp.ln_ffn_b)
    np.testing.assert_allclose(out.data, want.data, atol=1e-5)


def test_ungated_single_column_sequence():
    lp = build_layer(kind="standard_abs", gated=False, seed=11)
    out, _, gate = encoder_step(states(1, 8, seed=12), lp, np.ones((1, 1), dtype=bool))
    assert out.shape == (1, 8)
    assert gate is None


def test_weight_sharing_has_no_per_step_params():
    lp = build_layer(seed=13)
    names = [p.name for p in ad.parameters(lp)]
    assert len(names) == len(set(names))
    h = states(4, 8, seed=14)
    valid = np.ones((1, 4), dtype=bool)
    for _ in range(3):
        h, _, _ = encoder_step(h, lp, valid)
    assert h.shape == (4, 8)


def test_gate_gradient_reaches_update_ffn():
    lp = build_layer(seed=15)
    h = states(8, 8, seed=16)
    valid = np.ones((2, 4), dtype=bool)
    with Tape() as tape:
        out, _, _ = encoder_step(h, lp, valid)
        tape.backward(project(out))
    assert grad_norm([lp.ffn_w1]) > 0
    assert grad_norm([lp.ffn_w2]) > 0


def test_act_halting_zero_params_is_half():
    w_h = layers.Parameter(np.zeros((8, 1)), "w_h", decay=True, dtype=np.float64)
    b_h = layers.Parameter(np.zeros(1), "b_h", decay=False, dtype=np.float64)
    p = layers.act_halting(states(6, 8, seed=17), w_h, b_h)
    np.testing.assert_allclose(p.data, 0.5)
    assert p.shape == (6, 1)


def test_act_schedule_termination_rule():
    phat = np.array([[0.3], [0.5], [0.4], [0.9]])
    halt, weights, rem = layers.act_schedule(phat, epsilon=0.01)
    # Cumulative sums: 0.3, 0.8, 1.2 -> crosses 0.99 at step 3.
    assert halt[0] == 3
    np.testing.assert_allclose(weights[:, 0], [0.3, 0.5, 1 - 0.8, 0.0])
    np.testing.assert_allclose(rem[0], 0.2)


def test_act_schedule_immediate_halt():
    halt, weights, rem = layers.act_schedule(np.ones((4, 2)), epsilon=0.01)
    np.testing.assert_array_equal(halt, 1)
    np.testing.assert_allclose(weights[0], 1.0)
    np.testing.assert_allclose(weights[1:], 0.0)
    np.testing.assert_allclose(rem, 1.0)


def test_act_schedule_never_halts_runs_to_tmax():
    phat = np.full((5, 3), 0.1)
    halt, weights, rem = layers.act_schedule(phat, epsilon=0.01)
    np.testing.assert_array_equal(halt, 5)
    np.testing.assert_allclose(weights[:4], 0.1)
    np.testing.assert_allclose(weights[4], 1 - 0.4)
    np.testing.assert_allclose(weights.sum(axis=0), 1.0)


def test_act_config_validation():
    with pytest.raises(ValueError):
        layers.ACTConfig(variant="X")
    with pytest.raises(ValueError):
        layers.ACTConfig(epsilon=0.0)


def _act_inputs(t_max, m, d, seed, phat_rows):
    gen = np.random.default_rng(seed)
    states_list = [Tensor(gen.normal(size=(m, d))) for _ in range(t_max)]
    p_hats = [Tensor(np.full((m, 1), row, dtype=np.float64)) for row in phat_rows]
    return states_list, p_hats


def test_act_readout_variant_a_weights_states():
    states_list, p_hats = _act_inputs(3, 2, 4, 18, [0.6, 0.6, 0.2])
    cfg = layers.ACTConfig(variant="A")
    res = layers.act_readout(states_list, p_hats, cfg, np.array([2]))
    # Halts at step 2 (0.6 + 0.6 >= 0.99); weights are [0.6, 0.4, 0].
    np.testing.assert_array_equal(res.ponder, 2)
    want = 0.6 * states_list[0].data + 0.4 * states_list[1].data
    np.testing.assert_allclose(res.readout.data, want, atol=1e-12)
    np.testing.assert_allclose(res.remainder, 0.4, atol=1e-12)
    np.testing.assert_allclose(res.act_loss.item(), 0.03 * 0.4, atol=1e-9)


def test_act_readout_variant_u_blends_states():
    states_list, p_hats = _act_inputs(2, 1, 3, 19, [0.3, 0.2])
    cfg = layers.ACTConfig(variant="U")
    res = layers.act_readout(states_list, p_hats, cfg, np.array([1]))
    # Never crosses: o = 0.2*h2 + 0.8*(0.3*h1); remainder left at zero.
    np.testing.assert_array_equal(res.ponder, 2)
    want = 0.2 * states_list[1].data + 0.8 * 0.3 * states_list[0].data
    np.testing.assert_allclose(res.readout.data, want, atol=1e-12)
    np.testing.assert_allclose(res.remainder, 0.0)


def test_act_readout_variant_u_halted_column_keeps_remainder():
    states_list, p_hats = _act_inputs(3, 1, 3, 20, [0.7, 0.5, 0.9])
    cfg = layers.ACTConfig(variant="U")
    res = layers.act_readout(states_list, p_hats, cfg, np.array([1]))
    # Crosses at step 2: weights [0.7, 0.3, 0]; U blend keeps halted readout.
    np.testing.assert_array_equal(res.ponder, 2)
    want = 0.3 * states_list[1].data + 0.7 * 0.7 * states_list[0].data
    np.testing.assert_allclose(res.readout.data, want, atol=1e-12)
    np.testing.assert_allclose(res.remainder, 0.3, atol=1e-12)


def test_act_readout_uses_float64_schedule_for_never_crossing_columns():
    # The float32 sum of these halting units reaches 0.99, the float64 sum
    # does not, so by act_schedule the column never crosses the threshold.
    rows = np.array([0.2944336533546448, 0.37925174832344055, 0.31631457805633545], dtype=np.float32)
    halt, _, _ = layers.act_schedule(rows[:, None], epsilon=0.01)
    assert halt[0] == 3
    states_list = [Tensor(np.full((1, 1), t, dtype=np.float32)) for t in (1.0, 2.0, 3.0)]
    p_hats = [Tensor(np.full((1, 1), r, dtype=np.float32)) for r in rows]
    lengths = np.array([1])
    res = layers.act_readout(states_list, p_hats, layers.ACTConfig(variant="U"), lengths)
    # U gives a never-crossing column no remainder: step 3 is weighted by p_3.
    assert res.remainder[0] == 0.0
    p1, p2, p3 = rows
    want = p3 * 3.0 + (1 - p3) * (p2 * 2.0 + (1 - p2) * (p1 * 1.0))
    np.testing.assert_allclose(res.readout.data[0, 0], want, rtol=1e-6)
    np.testing.assert_allclose(res.readout.data[0, 0], 1.5925, atol=1e-4)
    # Variant A always reads the remainder out at the halt step.
    res_a = layers.act_readout(states_list, p_hats, layers.ACTConfig(variant="A"), lengths)
    np.testing.assert_allclose(res_a.remainder[0], 1.0 - p1 - p2, rtol=1e-6)


def test_act_halting_mass_sums_to_one_when_halted():
    gen = np.random.default_rng(21)
    phat = gen.random((6, 100))
    halt, weights, _ = layers.act_schedule(phat, epsilon=0.01)
    sums = weights.sum(axis=0)
    halted = halt < 6
    np.testing.assert_allclose(sums[halted], 1.0, atol=1e-6)
    assert (halt <= 6).all() and (halt >= 1).all()


@pytest.mark.parametrize("variant", ["A", "U"])
def test_act_readout_grad_check(variant):
    assert check_act_readout(variant) < 1e-9


def test_layer_checks_catch_a_weight_gradient_off_by_a_thousandth(monkeypatch):
    # Every product with a weight gets its weight gradient scaled by 1.001.
    matmul, op = ad.matmul, ad._op

    def skewed_op(data, operands, vjp):
        def skewed_vjp(g):
            g_a, g_w, *g_bias = vjp(g)
            return (g_a, g_w * 1.001, *g_bias)

        return op(data, operands, skewed_vjp)

    def skewed(a, b, bias=None):
        ad._op = skewed_op
        try:
            return matmul(a, b, bias)
        finally:
            ad._op = op

    monkeypatch.setattr(ad, "matmul", skewed)
    assert max(run_checks("layer").values()) >= TOLERANCE


def test_gated_encoder_step_train_mode_dropout_changes_output():
    lp = build_layer(seed=22, dtype=np.float32)
    h = states(4, 8, seed=23, dtype=np.float32)
    valid = np.ones((1, 4), dtype=bool)
    eval_out, _, _ = encoder_step(h, lp, valid)
    train_out, _, _ = encoder_step(h, lp, valid, Mode(train=True, rng=RngTree(1, "d")), drop=0.5)
    assert np.abs(train_out.data - eval_out.data).max() > 1e-6
