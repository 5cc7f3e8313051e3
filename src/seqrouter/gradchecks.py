"""Named gradient checks, all against central finite differences in
extended (80-bit) precision, which keeps the difference quotient
meaningful on structurally tiny gradient coordinates.

- Per-op checks (``OP_CHECKS``): every function of autodiff, attention and
  layers that records a tape node, alone on a small input, and every
  per-band weight function of attend's one node. These are the autodiff
  ops (``substrate/<op>``), the ACT readout, attention's one op,
  ``attend``, whose checks run each attention kind over three sequences in
  two length bands (``attention/<kind>-bands``), and each per-band weight
  function alone (``_scores``, the softmax weights of the content scores
  with both key-table terms, and ``_match_weights``, the fused geometric
  logits-and-weights), recorded by ``band_op`` as ``attend`` records them.
  Each reads below 1e-9.
- Composites: an op chain, every attention kind and every layer variant.

Attention and layer checks run a two-sequence batch of lengths (n, n - 2),
so pad columns and the boundary between packed rows and the padded
attention layout, both ways (each band's per-head split and its packed
gradient rows), are covered. The per-band checks run that batch as a band
of only some rows of the packed operands.

The layer checks of the relative kinds read 8e-6 to 6e-5, the others
below 1e-8. The worst coordinates are in row 7 of ``w_kp``: ``layer/rel``
reads 1.47e-5 at ``w_kp[56]`` and ``layer/abs/rel+gate`` 5.53e-5 at
``w_kp[57]``, where |grad| is 3.4e-9 and 4.7e-10 and the absolute error
about 1e-13. At d = 8 that row meets the sinusoid's ``cos(pos / 1000)``
column, nearly constant over the offsets, so the softmax cancels its score
term and leaves a gradient near the difference quotient's rounding. Over
the coordinates with |grad| > 1e-3 the two read 7.2e-10 and 1.0e-10, and
no ReLU input is within 5e-3 of its kink."""

from __future__ import annotations

import functools

import numpy as np

from . import attention as att
from . import autodiff as ad
from .attention import AttentionConfig
from .autodiff import Init, Tensor, grad_check
from .layers import ACTConfig, act_readout, encoder_step, init_layer
from .model import EncoderModel, ModelConfig, loss
from .rng import RngTree

TOLERANCE = 1e-4

LAYER_VARIANTS = {
    "baseline": ("standard_abs", False, None),
    "rel": ("relative", False, None),
    "rel+gate": ("relative", True, None),
    "abs/rel+gate": ("abs_rel_gated", True, None),
    "geom": ("geometric", False, None),
    "geom+gate": ("geometric", True, None),
    "act-a": ("relative", False, "A"),
    "act-u": ("geometric", False, "U"),
}


def project(t: Tensor, r=1.0) -> Tensor:
    """The scalar sum(t * r), r cast to t's dtype and broadcast to t's shape:
    a check's loss, whose one VJP seeds t's gradient with g * r."""
    r = np.broadcast_to(np.asarray(r, dtype=t.dtype), t.shape)
    return ad._op((t.data * r).sum(), (t,), lambda g: (g * r,))


def _normal(gen: np.random.Generator, *shapes) -> list[Tensor]:
    return [Tensor(gen.normal(size=shape), dtype=np.longdouble) for shape in shapes]


# Each autodiff op on small longdouble points: (op, points) from a generator.
SUBSTRATE_OPS = {
    "add": lambda gen: (ad.add, _normal(gen, (2, 3, 4), (3, 1))),  # both operands broadcast
    "scale": lambda gen: (lambda a: ad.scale(a, 0.7), _normal(gen, (3, 4))),
    # A per-target gate (B, 1, N, 1) mixing two (B, H, N, N) score tensors.
    "blend": lambda gen: (ad.blend, [ad.sigmoid(*_normal(gen, (2, 1, 3, 1)))]
                          + _normal(gen, (2, 2, 3, 3), (2, 2, 3, 3))),
    "matmul": lambda gen: (ad.matmul, _normal(gen, (2, 3, 4), (4, 5), (5,))),  # 3-D left operand, bias
    # Entries at least 0.1 from the kink at 0.
    "relu": lambda gen: (ad.relu, [Tensor(gen.uniform(0.1, 2.0, (3, 4)) * gen.choice((-1.0, 1.0), (3, 4)),
                                          dtype=np.longdouble)]),
    "sigmoid": lambda gen: (ad.sigmoid, _normal(gen, (3, 4))),
    "tanh": lambda gen: (ad.tanh, _normal(gen, (3, 4))),
    "layernorm": lambda gen: (ad.layernorm, _normal(gen, (3, 5), (5,), (5,))),  # input, gain, bias
    # A repeated id: the gradient rows of one table row add up.
    "embedding": lambda gen: (lambda t: ad.embedding(t, np.array([[0, 2, 2], [4, 0, 2]])),
                              _normal(gen, (5, 3))),
    # A fresh generator per call, so every evaluation drops the same cells.
    "dropout": lambda gen: (lambda a: ad.dropout(a, 0.3, np.random.default_rng(0)), _normal(gen, (4, 5))),
    "cross_entropy": lambda gen: (lambda x: ad.cross_entropy(x, np.array([1, 0, 3])), _normal(gen, (3, 4))),
}


def check_substrate_op(name: str, seed: int = 40) -> float:
    """One autodiff op alone, projected on a random direction of its output's shape."""
    gen = np.random.default_rng(seed)
    op, points = SUBSTRATE_OPS[name](gen)
    r = gen.normal(size=op(*points).shape)
    return grad_check(lambda pts: project(op(*pts), r), points, step=1e-6)


def check_composite_ops(seed: int = 0) -> float:
    gen = np.random.default_rng(seed)
    x = Tensor(gen.normal(size=(3, 6)), dtype=np.longdouble)
    w1 = Tensor(gen.normal(size=(6, 8)), dtype=np.longdouble)
    gain = Tensor(np.ones(8), dtype=np.longdouble)
    bias = Tensor(np.zeros(8), dtype=np.longdouble)
    w2 = Tensor(gen.normal(size=(8, 4)), dtype=np.longdouble)
    targets = np.array([1, 0, 3])

    def fn(points):
        xx, ww, g, b, w_out = points
        h = ad.relu(ad.matmul(xx, ww))
        h = ad.layernorm(h, g, b)
        h = ad.tanh(h)
        return ad.cross_entropy(ad.matmul(h, w_out), targets)

    return grad_check(fn, [x, w1, gain, bias, w2], step=1e-5)


def _ragged(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lengths (n, n - 2) and their (2, n) validity mask."""
    lengths = np.array([n, n - 2])
    return lengths, np.arange(n)[None, :] < lengths[:, None]


def _ragged_band(n: int) -> att.Band:
    """The ragged batch (see _ragged) as a band of 2n + 1 packed rows: all but
    rows 1, n + 1 and 2n, which another band would hold."""
    return att.Band(_ragged(n)[1], np.setdiff1d(np.arange(2 * n + 1), [1, n + 1, 2 * n]))


def band_op(band_weights, rows: list[Tensor], band: att.Band) -> Tensor:
    """The weights (B_b, H, N_b, N_b) of band_weights(arrays, band) (see
    attention._project) of the packed row Tensors, recorded as one op whose
    operands are the rows and the shared operands, as ``attend`` records
    them; the rows outside the band get zero gradient."""
    w, shared, band_vjp = band_weights([t.data for t in rows], band)
    shapes = [t.shape for t in rows]

    def vjp(g):
        g_rows, g_shared = band_vjp(g)
        grads = [np.zeros(shape, g.dtype) for shape in shapes]
        for full, part in zip(grads, g_rows, strict=True):
            full[band.rows] = part
        return (*grads, *g_shared)

    return ad._op(w, (*rows, *shared), vjp)


def check_match_weights(seed: int = 6, n: int = 4, d: int = 4) -> float:
    """The fused geometric weights of a ragged band's rows of packed q, k and
    direction scores, with random alpha, beta and gamma."""
    p = att.init_attention(Init(RngTree(seed), np.longdouble, prefix="gc"), AttentionConfig(d, 2, "geometric"))
    gen = np.random.default_rng(seed + 100)
    gains = [p.alpha, p.beta, p.gamma]
    for gain in gains:
        gain.data[:] = gen.normal(size=gain.shape)
    band = _ragged_band(n)
    # q and k (M, d), then the direction scores d_lr and d_rl (M, H).
    rows = [Tensor(gen.normal(size=(2 * n + 1, c)), dtype=np.longdouble) for c in (d, d, 2, 2)]
    r = gen.normal(size=(2, 2, n, n))

    def fn(points):
        return project(band_op(lambda data, b: att._match_weights(*data, p, b), points[:4], band), r)

    # A smaller step than the other checks' keeps the O(step^2) truncation
    # error of this nonlinear op well below 1e-9 (3e-11 here, 2.5e-10 at 1e-5).
    return grad_check(fn, rows + gains, step=1e-6)


def check_scores(seed: int = 9, n: int = 4, d: int = 4) -> float:
    """Softmax weights of a ragged band's rows of packed q and k with both
    key-table terms: queries against a (2n - 1, d) table read through the
    relative-offset view, and against an (n, d) one read whole. The pad
    sources weigh 0."""
    gen, band, m = np.random.default_rng(seed), _ragged_band(n), 2 * n + 1
    rows = [Tensor(gen.normal(size=shape), dtype=np.longdouble)
            for shape in [(m, d)] * 3 + [(2 * n - 1, d), (m, d), (n, d)]]
    r = gen.normal(size=(2, 2, n, n))

    def fn(points):
        q, k, u_rel, t_rel, u_abs, t_abs = points

        def weights(data, b):
            return att._scores(*data[:2], b, 2, 0.7, ((data[2], t_rel, att._offsets), (data[3], t_abs, None)))

        return project(band_op(weights, [q, k, u_rel, u_abs], band), r)

    # At a step of 1e-5 the O(step^2) truncation error reads 1.6e-9 at
    # t_abs[0], whose |grad| is 1.8e-4; at 1e-6 the worst coordinate reads 4.5e-10.
    return grad_check(fn, rows, step=1e-6)


def check_attention_kind(kind: str, seed: int = 3, d: int = 8, lengths=(4, 2)) -> float:
    """attend over a batch of the given sequence lengths."""
    cfg = AttentionConfig(d, 2, kind)
    params = att.init_attention(Init(RngTree(seed), np.longdouble, prefix="gc"), cfg)
    gen = np.random.default_rng(seed + 100)
    lengths = np.asarray(lengths)
    valid = np.arange(lengths.max())[None, :] < lengths[:, None]
    h = Tensor(gen.normal(size=(lengths.sum(), d)), dtype=np.longdouble)
    r = gen.normal(size=h.shape)

    def fn(points):
        out, _ = att.attend(points[0], params, valid)
        return project(out, r)

    return grad_check(fn, [h] + ad.parameters(params), step=1e-5)


def check_act_readout(variant: str, seed: int = 8, d: int = 3) -> float:
    """The readout and regularizer of ACT variant A or U over T = 4 states
    and halting columns of two sequences of lengths (1, 3). The columns halt
    at step 1, 3, T and never, each p_hat at least 5e-3 from a crossing."""
    gen = np.random.default_rng(seed)
    rows = [[0.995, 0.4, 0.2, 0.1], [0.3, 0.3, 0.3, 0.2], [0.2, 0.5, 0.1, 0.15], [0.4, 0.2, 0.5, 0.1]]
    p_hats = [Tensor(np.array(row)[:, None], dtype=np.longdouble) for row in rows]
    states = [Tensor(gen.normal(size=(4, d)), dtype=np.longdouble) for _ in rows]
    r = gen.normal(size=(4, d))
    cfg = ACTConfig(variant=variant, reg_weight=0.5)

    def fn(points):
        res = act_readout(points[:4], points[4:], cfg, np.array([1, 3]))
        return ad.add(project(res.readout, r), res.act_loss)

    return grad_check(fn, states + p_hats, step=1e-5)


def check_layer_variant(name: str, seed: int = 4, d: int = 8, n: int = 4) -> float:
    """One encoder step, or for the ACT variants a two-step model run
    through EncoderModel.forward and model.loss."""
    kind, gated, act_variant = LAYER_VARIANTS[name]
    gen = np.random.default_rng(seed + 200)
    if act_variant is not None:
        cfg = ModelConfig(vocab_size=5, n_classes=3, d_model=d, d_ff=2 * d, n_heads=2,
                          n_layers=2, kind=kind, gated=gated,
                          act=ACTConfig(variant=act_variant, epsilon=0.01, reg_weight=0.03))
        model = EncoderModel.build(cfg, RngTree(seed), dtype=np.longdouble)
        # Small halting logits keep the cumulative mass far from the
        # threshold, so finite differences cannot flip the halt step.
        model.act_w.data *= 0.1
        model.act_b.data[:] = -2.0
        tokens = gen.integers(0, cfg.vocab_size, size=(2, n))
        lengths, _ = _ragged(n)
        targets = np.array([1, 0])
        return grad_check(lambda pts: loss(model.forward(tokens, lengths), targets),
                          model.parameters(), step=1e-5)

    cfg = AttentionConfig(d, 2, kind)
    lp = init_layer(Init(RngTree(seed), np.longdouble, prefix="gc"), cfg, gated, 2 * d)
    lengths, valid = _ragged(n)
    h = Tensor(gen.normal(size=(lengths.sum(), d)), dtype=np.longdouble)
    r = gen.normal(size=h.shape)

    def fn(pts):
        out, _, _ = encoder_step(pts[0], lp, valid)
        return project(out, r)

    return grad_check(fn, [h] + ad.parameters(lp), step=1e-5)


# Every function of autodiff, attention and layers that records a tape node
# (calls ``_op``) or forms a band's part of attend's one node (returns a
# ``band_vjp``), keyed "module.function", with its per-op checks by name.
OP_CHECKS = {
    **{f"autodiff.{op}": {f"substrate/{op}": functools.partial(check_substrate_op, op)}
       for op in SUBSTRATE_OPS},
    "attention._scores": {"attention/scores": check_scores},
    "attention._match_weights": {"attention/match_weights": check_match_weights},
    "attention.attend": {
        # Bands of widths 6 (lengths 3 and 6) and 18: each band's rows,
        # widths, tables and masks, in one op.
        **{f"attention/{kind}-bands": functools.partial(check_attention_kind, kind, d=4, lengths=(3, 18, 6))
           for kind in att.KINDS},
    },
    "layers.act_readout": {f"layer/act_readout-{v.lower()}": functools.partial(check_act_readout, v)
                           for v in "AU"},
}
MODULES = ("substrate", "attention", "layer")


def run_checks(module: str | None = None) -> dict[str, float]:
    """All named checks, optionally filtered by module (substrate,
    attention, layer); grouped by module."""
    checks = {"substrate/composite": check_composite_ops}
    for named in OP_CHECKS.values():
        checks.update(named)
    for kind in att.KINDS:
        checks[f"attention/{kind}"] = functools.partial(check_attention_kind, kind)
    for name in LAYER_VARIANTS:
        checks[f"layer/{name}"] = functools.partial(check_layer_variant, name)
    if module not in (None,) + MODULES:
        raise ValueError(f"unknown module {module!r}; expected one of {', '.join(MODULES)}")
    order = sorted(checks, key=lambda name: MODULES.index(name.split("/")[0]))
    return {name: checks[name]() for name in order if module in (None, name.split("/")[0])}
