import ctypes
import os
import subprocess
import sys
import textwrap
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqrouter
from seqrouter import attention as att
from seqrouter import autodiff as ad
from seqrouter.attention import Mode
from seqrouter.autodiff import Tape, Tensor, zero_grads
from seqrouter.gradchecks import project
from seqrouter.layers import ACTConfig
from seqrouter.model import EncoderModel, ModelConfig, loss as model_loss
from seqrouter.optim import clip_gradients
from seqrouter.rng import RngTree

from oracles import numeric_grad


def t64(x, rq=True):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=rq)


def tld(x, rq=True):
    return Tensor(np.asarray(x, dtype=np.longdouble), requires_grad=rq)


def test_layernorm_constant_vector_is_bias():
    gain = t64(np.ones(5), rq=False)
    bias = t64(np.zeros(5), rq=False)
    out = ad.layernorm(t64(np.full(5, 3.7)), gain, bias)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-3)


def test_layernorm_moments():
    gen = np.random.default_rng(1)
    x = t64(gen.normal(size=(6, 16)), rq=False)
    gain = t64(np.ones(16), rq=False)
    bias = t64(np.zeros(16), rq=False)
    y = ad.layernorm(x, gain, bias).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-6
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4


def test_sigmoid_grad_at_zero():
    w = t64(0.0)
    x = np.array([1.0, -2.0, 3.0])
    with Tape() as tape:
        loss = project(ad.sigmoid(w), x.sum())
        tape.backward(loss)
    np.testing.assert_allclose(w.grad, 0.25 * x.sum(), rtol=1e-12)


def test_backward_twice_raises():
    x = t64([1.0, 2.0])
    with Tape() as tape:
        loss = project(x)
        tape.backward(loss)
        with pytest.raises(ad.TapeError):
            tape.backward(loss)


def test_backward_frees_each_node_after_it_runs():
    x = t64(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        h = ad.relu(ad.scale(x, 2.0))
        held = weakref.ref(h.data)
        loss = project(ad.matmul(h, t64(np.ones((3, 1)), rq=False)))
        del h
        assert held() is not None  # the tape's closures still hold it
        tape.backward(loss)
        assert held() is None
        assert tape._nodes == []
        with pytest.raises(ad.TapeError):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * (x.data > 0))


def test_an_array_no_vjp_reads_dies_when_forward_drops_it():
    x = t64(np.arange(6.0).reshape(2, 3))
    arrays = []

    def forward():
        s = ad.add(x, x)  # read by no VJP: add and relu keep shapes and a mask
        arrays.append(weakref.ref(s.data))
        return project(ad.relu(s))

    with Tape() as tape:
        loss = forward()
        assert arrays[0]() is None
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * (x.data > 0))


def _reachable(node, kind=Tensor) -> list:
    """Every object of type kind reachable from a tape node through closure
    cells, functions (cached ones included), tuples and lists."""
    found, seen, todo = [], set(), [node]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif hasattr(obj, "__wrapped__"):
            todo.append(obj.__wrapped__)
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return found


def test_no_tape_node_reaches_a_tensor_through_any_public_op():
    gen = np.random.default_rng(5)
    x = t64(gen.normal(size=(6, 4)))
    w, bias, gain = t64(gen.normal(size=(4, 4))), t64(gen.normal(size=4)), t64(gen.normal(size=4))
    table, w_out = t64(gen.normal(size=(5, 3))), t64(gen.normal(size=(4, 3)))
    p = att.init_attention(ad.Init(RngTree(5), np.float64, prefix="t"), att.AttentionConfig(4, 2, "abs_rel_gated"))
    valid = np.arange(17)[None, :] < np.array([17, 3])[:, None]
    with Tape() as tape:
        h = ad.layernorm(ad.matmul(x, w, bias), gain, bias)
        h = ad.blend(ad.sigmoid(h), ad.tanh(h), ad.relu(h))
        h = ad.add(h, ad.scale(h, 2.0))
        rows = ad.embedding(h, np.arange(20) % 6)
        # Two bands, each with its own key tables; one attention op over both.
        values, _ = att.attend(rows, p, valid)
        firsts = ad.embedding(values, np.array([17, 0]))  # the first row of each sequence
        logits = ad.dropout(ad.add(ad.matmul(firsts, w_out), ad.embedding(table, np.array([0, 3]))), 0.5, gen)
        loss = ad.cross_entropy(logits, np.array([2, 0]))
        assert [t for node in tape._nodes for t in _reachable(node)] == []
        tape.backward(loss)
    assert all(t.grad is not None for t in (x, w, bias, gain, table, w_out, *ad.parameters(p)))


@pytest.mark.parametrize("kind, act", [("standard_abs", "U"), ("relative", None),
                                       ("abs_rel_gated", "A"), ("geometric", "U"),
                                       ("geometric", None)])
def test_no_tape_node_of_a_train_step_reaches_a_tensor(kind, act):
    cfg = ModelConfig(vocab_size=12, n_classes=5, d_model=16, d_ff=32, n_heads=2, n_layers=2,
                      kind=kind, gated=True, act=ACTConfig(act) if act else None,
                      dropout=0.1, att_dropout=0.1)
    model = EncoderModel.build(cfg, RngTree(0))
    gen = np.random.default_rng(1)
    # One band, then two: the 20-token sequence has a band of its own.
    for lengths in ([6, 2, 4], [6, 20, 4]):
        zero_grads(model.parameters())
        with Tape() as tape:
            out = model.forward(gen.integers(0, 12, size=(3, max(lengths))), np.array(lengths),
                                mode=Mode(train=True, rng=RngTree(2)))
            loss = model_loss(out, np.array([0, 4, 2]))
            assert [t for node in tape._nodes for t in _reachable(node)] == []
            tape.backward(loss)
        assert all(p.grad is not None for p in model.parameters())


def test_blend_node_keeps_only_its_operands():
    gen = np.random.default_rng(41)
    w, a, b = t64(gen.random((3, 1))), t64(gen.normal(size=(3, 4))), t64(gen.normal(size=(3, 4)))
    with Tape() as tape:
        ad.blend(w, a, b)
        (node,) = tape._nodes
        # No 1 - w: b's VJP forms it again.
        held = {id(x) for x in _reachable(node, np.ndarray)}
    assert held == {id(w.data), id(a.data), id(b.data)}


@pytest.mark.parametrize("kind", att.KINDS)
def test_tape_holds_one_pair_array_per_layer_step(kind):
    cfg = ModelConfig(vocab_size=12, n_classes=5, d_model=16, d_ff=32, n_heads=2, n_layers=3,
                      kind=kind, gated=True, dropout=0.1, att_dropout=0.1)
    model = EncoderModel.build(cfg, RngTree(0))
    gen = np.random.default_rng(1)
    # One band (3 sequences over 6 columns), then two: lengths 6 and 4 over
    # 6 columns, and 20 over 20.
    for lengths, shapes in (([6, 2, 4], [(3, 6)]), ([6, 20, 4], [(2, 6), (1, 20)])):
        tokens = gen.integers(0, 12, size=(3, max(lengths)))
        pair_shapes = {(b, cfg.n_heads, n, n) for b, n in shapes}
        with Tape() as tape:
            model.forward(tokens, np.array(lengths), mode=Mode(train=True, rng=RngTree(2)))
            # The weights, shared by the weights op and the values op; the
            # scores and match logits are not held.
            pair_arrays = {id(x) for node in tape._nodes for x in _reachable(node, np.ndarray)
                           if x.shape in pair_shapes}
        assert len(pair_arrays) == cfg.n_layers * len(shapes)


def test_shared_first_gradient_survives_accumulation_and_clip():
    a, b, c = t64(np.ones(3)), t64(np.ones(3)), t64(np.ones(3))
    w = np.array([1.0, -2.0, 3.0])
    with Tape() as tape:
        u = ad.scale(a, 3.0)  # recorded first, so it accumulates into a last
        s = ad.add(ad.add(a, b), c)
        tape.backward(project(ad.add(s, u), w))
    # add hands one gradient array to both operands: a, b and c all
    # adopted it before scale's backward added a second term into a.
    assert b.grad is c.grad
    np.testing.assert_array_equal(a.grad, 4.0 * w)
    np.testing.assert_array_equal(b.grad, w)
    factor = clip_gradients([a, b, c], 1.0)
    assert factor < 1.0
    np.testing.assert_array_equal(a.grad, 4.0 * w * factor)
    np.testing.assert_array_equal(b.grad, w * factor)
    np.testing.assert_array_equal(c.grad, w * factor)


def test_transposed_first_gradient_is_stored_c_contiguous():
    gen = np.random.default_rng(3)
    x = t64(gen.normal(size=(2, 3, 4)))
    r = gen.normal(size=(2, 4, 3))
    with Tape() as tape:
        # An op whose gradient is a transposed view of the output's.
        y = ad._op(x.data.transpose(0, 2, 1), (x,), lambda g: (g.transpose(0, 2, 1),))
        tape.backward(project(y, r))
    assert x.grad.flags.c_contiguous
    np.testing.assert_array_equal(x.grad, r.transpose(0, 2, 1))


def test_backward_peak_stays_near_forward_activations():
    cfg = ModelConfig(vocab_size=12, n_classes=5, d_model=32, d_ff=64, n_heads=2, n_layers=6,
                      kind="geometric", gated=True, dropout=0.1, att_dropout=0.1)
    model = EncoderModel.build(cfg, RngTree(0))
    gen = np.random.default_rng(1)
    tokens = gen.integers(0, 12, size=(16, 20))
    lengths = gen.integers(10, 21, size=16)
    targets = gen.integers(0, 5, size=16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = model.forward(tokens, lengths, mode=Mode(train=True, rng=RngTree(2)))
            loss = model_loss(out, targets)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held, f"backward peak {peak / held:.2f}x the forward-held bytes"


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_repeated_eval_pass_reuses_freed_memory():
    # A fresh process, so no earlier test has already grown the heap.
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from seqrouter.model import EncoderModel, ModelConfig
        from seqrouter.rng import RngTree

        cfg = ModelConfig(vocab_size=12, n_classes=5, d_model=64, d_ff=128, n_heads=2, n_layers=6)
        model = EncoderModel.build(cfg, RngTree(0))
        gen = np.random.default_rng(1)
        tokens, lengths = gen.integers(0, 12, size=(256, 6)), gen.integers(3, 7, size=256)
        model.forward(tokens, lengths)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward(tokens, lengths)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(seqrouter.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    # glibc's default unmaps what the first pass freed: about 2.7k faults here.
    assert int(proc.stdout) < 1000, proc.stdout


def test_keep_freed_memory_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert ad._keep_freed_memory() is False


def test_backward_needs_scalar():
    x = t64([1.0, 2.0])
    with Tape() as tape:
        y = ad.scale(x, 2.0)
        with pytest.raises(ad.DimensionError):
            tape.backward(y)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(ad.DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_column_matmul_input_gradient_has_the_gemm_bytes(dtype):
    # The product, not a GEMM with inner dimension 1, forms this gradient.
    gen = np.random.default_rng(6)
    x = Tensor(gen.normal(size=(5, 129, 256)).astype(dtype), requires_grad=True)
    w = Tensor(gen.normal(size=(256, 1)).astype(dtype), requires_grad=True)
    g = gen.normal(size=(5, 129, 1)).astype(dtype)
    with Tape() as tape:
        tape.backward(project(ad.matmul(x, w), g))
    want = np.matmul(g.reshape(-1, 1), w.data.T).reshape(x.shape)
    assert x.grad.dtype == dtype and x.grad.tobytes() == want.tobytes()


def test_relu_matmul_composite_grad():
    gen = np.random.default_rng(2)
    x = t64(gen.normal(size=(4, 5)))
    w = gen.normal(size=(5, 3))

    def f(points):
        (xx,) = points
        return project(ad.relu(ad.matmul(xx, Tensor(w, dtype=np.float64))))

    assert ad.grad_check(f, [x], step=1e-6) < 1e-4


def test_three_layer_composite_grad_vs_fd():
    gen = np.random.default_rng(3)
    w1 = gen.normal(size=(6, 8))
    w2 = gen.normal(size=(8, 8))
    w3 = gen.normal(size=(8, 2))
    x0 = gen.normal(size=(3, 6))

    def torch_like(x):
        h1 = np.tanh(x @ w1)
        h2 = np.maximum(h1 @ w2, 0)
        return (1 / (1 + np.exp(-(h2 @ w3)))).sum()

    x = t64(x0)
    with Tape() as tape:
        h1 = ad.tanh(ad.matmul(x, Tensor(w1, dtype=np.float64)))
        h2 = ad.relu(ad.matmul(h1, Tensor(w2, dtype=np.float64)))
        loss = project(ad.sigmoid(ad.matmul(h2, Tensor(w3, dtype=np.float64))))
        tape.backward(loss)
    numeric = numeric_grad(torch_like, x0.copy())
    rel = np.abs(x.grad - numeric) / (np.abs(x.grad) + np.abs(numeric) + 1e-12)
    assert rel.max() < 1e-3


def test_grad_check_identity_near_zero():
    x = t64(np.array([1.0, -2.0, 0.5]))
    err = ad.grad_check(lambda pts: project(pts[0]), [x])
    assert err < 1e-9


def test_cross_entropy_uniform_is_log_c():
    logits = Tensor(np.zeros((5, 8), dtype=np.float64))
    loss = ad.cross_entropy(logits, np.arange(5) % 8)
    np.testing.assert_allclose(loss.item(), np.log(8.0), rtol=1e-12)


def test_cross_entropy_perfect_prediction():
    logits = np.full((3, 4), -100.0)
    logits[np.arange(3), [1, 2, 0]] = 100.0
    loss = ad.cross_entropy(Tensor(logits, dtype=np.float64), np.array([1, 2, 0]))
    assert loss.item() < 1e-6


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_embedding_lookup_and_grad():
    table = t64(np.arange(12.0).reshape(4, 3))
    ids = np.array([[0, 2], [2, 3]])
    with Tape() as tape:
        out = ad.embedding(table, ids)
        tape.backward(project(out))
    np.testing.assert_array_equal(out.data, table.data[ids])
    counts = np.array([1, 0, 2, 1])[:, None] * np.ones(3)
    np.testing.assert_array_equal(table.grad, counts)


def test_dropout_inverted_scaling():
    gen = np.random.default_rng(5)
    x = Tensor(np.ones((2000,), dtype=np.float64))
    y = ad.dropout(x, 0.25, gen).data
    kept = y != 0
    np.testing.assert_allclose(y[kept], 1.0 / 0.75, rtol=1e-12)
    assert abs(kept.mean() - 0.75) < 0.05


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_matches_float_mask_bitwise(dtype):
    gen = np.random.default_rng(6)
    x = Tensor(gen.normal(size=(8, 33)).astype(dtype), requires_grad=True)
    r = gen.normal(size=(8, 33)).astype(dtype)
    with Tape() as tape:
        y = ad.dropout(x, 0.3, np.random.default_rng(7))
        tape.backward(project(y, r))
    factor = (np.random.default_rng(7).random(x.shape) >= 0.3).astype(dtype) / dtype(1.0 - 0.3)
    assert y.data.dtype == dtype and x.grad.dtype == dtype
    assert y.data.tobytes() == (x.data * factor).tobytes()
    assert x.grad.tobytes() == (r * factor).tobytes()


# In float64 a central difference on a gradient coordinate near 5e-5 carries
# rounding noise of a few 1e-6 relative (seed 5152 below: 2.9e-6); extended
# precision brings that point to 8e-10, so the property runs in longdouble.
@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
@example(n=4, m=4, seed=5152)
def test_matmul_grad_property(n, m, seed):
    gen = np.random.default_rng(seed)
    a = tld(gen.normal(size=(n, m)))
    b = tld(gen.normal(size=(m, n)))
    r = gen.normal(size=(n, n))

    def f(points):
        return project(ad.matmul(points[0], points[1]), r)

    assert ad.grad_check(f, [a, b], step=1e-6) < 1e-6


@pytest.mark.parametrize("a_shape", [(3, 4, 5), (2, 3, 4, 5)])
@pytest.mark.parametrize("wrt", ["a", "b", "both"])
def test_matmul_weight_product_grad(a_shape, wrt):
    gen = np.random.default_rng(8)
    a = tld(gen.normal(size=a_shape), rq=False)
    b = tld(gen.normal(size=(5, 3)), rq=False)
    r = gen.normal(size=a_shape[:-1] + (3,))
    points = {"a": [a], "b": [b], "both": [a, b]}[wrt]

    def f(_):
        return project(ad.matmul(a, b), r)

    assert ad.grad_check(f, points, step=1e-6) < 1e-6
    for t in (a, b):
        assert (t.grad is None) == (t not in points)


@pytest.mark.parametrize("a_shape", [(4, 9, 16), (2, 3, 5, 16)])
def test_matmul_weight_product_float32_vs_einsum(a_shape):
    # Each entry below is a float32 dot product of L terms. Its rounding error
    # is at most gamma_L * sum|terms| with gamma_L ~ L * eps / 2, so
    # L * eps * (|x| @ |y|) bounds it for any summation order.
    eps = np.finfo(np.float32).eps
    gen = np.random.default_rng(9)
    a0 = gen.normal(size=a_shape).astype(np.float32)
    b0 = gen.normal(size=(16, 6)).astype(np.float32)
    r0 = gen.normal(size=a_shape[:-1] + (6,)).astype(np.float32)
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    with Tape() as tape:
        out = ad.matmul(a, b)
        tape.backward(project(out, r0))
    a64, b64, r64 = (x.astype(np.float64) for x in (a0, b0, r0))
    cases = [
        (out.data, "...k,kn->...n", a64, b64, 16),
        (a.grad, "...n,kn->...k", r64, b64, 6),
        (b.grad, "mk,mn->kn", a64.reshape(-1, 16), r64.reshape(-1, 6), r0.size // 6),
    ]
    for got, spec, x, y, length in cases:
        assert got.dtype == np.float32
        want = np.einsum(spec, x, y)
        bound = length * eps * np.einsum(spec, np.abs(x), np.abs(y))
        assert (np.abs(got - want) <= bound).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_logsigmoid_matches_log_of_sigmoid(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(scale=4.0, size=n)
    logp, log1mp = ad._log_sigmoids(x)
    np.testing.assert_allclose(logp, np.log(1.0 / (1.0 + np.exp(-x))), atol=1e-12)
    np.testing.assert_allclose(log1mp, np.log(1.0 / (1.0 + np.exp(x))), atol=1e-12)


def test_logsigmoid_extreme_values_stay_finite_and_exact():
    logp, log1mp = ad._log_sigmoids(np.array([-1e9, 1e9]))
    assert logp.tolist() == [-1e9, 0.0]
    assert log1mp.tolist() == [0.0, -1e9]


def test_no_tape_means_no_recording():
    x = t64([1.0])
    y = ad.scale(x, 2.0)
    assert y.grad is None
    with Tape() as tape:
        z = ad.scale(x, 3.0)
        tape.backward(project(z))
    np.testing.assert_array_equal(x.grad, [3.0])


def test_op_accumulates_only_into_operands_needing_grad():
    a, b, frozen, const = t64([1.0, 2.0]), t64([3.0, 4.0]), t64([5.0, 6.0]), t64([7.0, 8.0], rq=False)
    calls = []

    def vjp(g):
        calls.append(g)
        return g * 2.0, g * 3.0, g * 5.0, g * 7.0

    with Tape() as tape:
        out = ad._op(a.data + b.data + frozen.data + const.data, (b, const, frozen, a), vjp)
        frozen.requires_grad = False  # read when backward runs, not when the op ran
        tape.backward(project(out, [1.0, 10.0]))
    assert len(calls) == 1  # one VJP call for every operand
    assert const.grad is None and frozen.grad is None
    np.testing.assert_array_equal(b.grad, [2.0, 20.0])
    np.testing.assert_array_equal(a.grad, [7.0, 70.0])


@pytest.mark.parametrize("n_grads", [1, 3])
def test_op_vjp_returning_too_few_or_too_many_gradients_raises(n_grads):
    a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
    with Tape() as tape:
        out = ad._op(a.data + b.data, (a, b), lambda g: (g,) * n_grads)
        with pytest.raises(ValueError, match="zip"):
            tape.backward(project(out))


def test_constant_operands_of_public_ops_get_no_grad():
    x, c = t64([[1.0, -2.0]]), t64([[3.0, 4.0]], rq=False)
    w = t64([[0.5], [0.25]], rq=False)
    with Tape() as tape:
        tape.backward(project(ad.matmul(ad.add(x, c), w)))
    assert c.grad is None and w.grad is None
    np.testing.assert_array_equal(x.grad, [[0.5, 0.25]])


def test_branch_that_misses_the_loss_leaves_its_inputs_without_grad():
    x, y, w = t64([[1.0, 2.0]]), t64([[3.0, 4.0]]), t64([[1.0], [2.0]])
    with Tape() as tape:
        loss = project(ad.scale(x, 2.0), x.data)
        ad.matmul(ad.add(x, y), w)  # taped, never reaches the loss
        tape.backward(loss)
    assert y.grad is None and w.grad is None
    np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])


@pytest.mark.parametrize("w_shape", [(2, 1, 3, 1), (2, 2, 3, 3)])
def test_blend_is_bitwise_the_spelled_out_mix(w_shape):
    gen = np.random.default_rng(41)
    u = (1.0 / (1.0 + np.exp(-gen.normal(size=w_shape)))).astype(np.float32)
    x, y, g = (gen.normal(size=(2, 2, 3, 3)).astype(np.float32) for _ in range(3))
    w, a, b = (Tensor(v.copy(), requires_grad=True) for v in (u, x, y))
    with Tape() as tape:
        out = ad.blend(w, a, b)
        tape.backward(project(out, g))
    # w's gradient: two reductions over its broadcast axes, then a difference.
    axes, one = tuple(i for i, n in enumerate(w_shape) if n == 1), np.float32(1)
    spelled = [u * x + (one - u) * y,
               (g * x).sum(axis=axes, keepdims=True) - (g * y).sum(axis=axes, keepdims=True),
               g * u, g * (one - u)]
    for got, want in zip([out.data, w.grad, a.grad, b.grad], spelled):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("a_shape", [(7, 5), (2, 3, 5)])
def test_matmul_bias_is_bitwise_a_separate_add(a_shape):
    gen = np.random.default_rng(42)
    a0 = gen.normal(size=a_shape).astype(np.float32)
    w0, bias0 = gen.normal(size=(5, 4)).astype(np.float32), gen.normal(size=4).astype(np.float32)
    r0 = gen.normal(size=a_shape[:-1] + (4,)).astype(np.float32)
    results = []
    for product in (ad.matmul, lambda a, w, bias: ad.add(ad.matmul(a, w), bias)):
        a, w, bias = (Tensor(x.copy(), requires_grad=True) for x in (a0, w0, bias0))
        with Tape() as tape:
            out = product(a, w, bias)
            tape.backward(project(out, r0))
        results.append([out.data, a.grad, w.grad, bias.grad])
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_matmul_bias_needs_a_weight_operand():
    # The right operand is always a 2-D weight, with a bias or without.
    a, b = t64(np.ones((2, 3, 4))), t64(np.ones((2, 4, 5)))
    for bias in (None, t64(np.zeros(5))):
        with pytest.raises(ad.DimensionError, match=r"2-d weight.*\(2, 3, 4\).*\(2, 4, 5\)"):
            ad.matmul(a, b, bias)
