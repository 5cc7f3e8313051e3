"""Named gradient checks: every layer variant, the geometric weight
transform, and representative op composites, all checked against central
finite differences in extended (80-bit) precision, which keeps the
difference quotient meaningful on structurally tiny gradient coordinates."""

from __future__ import annotations

import numpy as np

from . import attention as att
from . import autodiff as ad
from .attention import AttentionConfig
from .autodiff import Init, Parameter, Tensor, grad_check
from .layers import ACTConfig, LayerVariant, act_halting, act_readout, encoder_step, init_layer
from .rng import RngTree

TOLERANCE = 1e-3

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


def check_softmax_chain(seed: int = 1) -> float:
    gen = np.random.default_rng(seed)
    x = Tensor(gen.normal(size=(4, 5)), dtype=np.longdouble)
    r = gen.normal(size=(4, 5))

    def fn(points):
        (xx,) = points
        y = ad.softmax(ad.sigmoid(xx))
        c = ad.cumsum(y, axis=1)
        return ad.sum_(ad.mul(c, Tensor(r, dtype=np.longdouble)))

    return grad_check(fn, [x], step=1e-5)


def check_geometric_weights(seed: int = 2, n: int = 4) -> float:
    gen = np.random.default_rng(seed)
    logits = Tensor(gen.normal(size=(n, n)), dtype=np.longdouble)
    r = gen.normal(size=(n, n))

    def fn(points):
        (lg,) = points
        a = att._weights_from_logs(ad.logsigmoid(lg), ad.logsigmoid(ad.scale(lg, -1.0)))
        return ad.sum_(ad.mul(a, Tensor(r, dtype=np.longdouble)))

    return grad_check(fn, [logits], step=1e-5)


def check_attention_kind(kind: str, seed: int = 3, d: int = 8, n: int = 4) -> float:
    cfg = AttentionConfig(d, 2, kind)
    params = att.init_attention(Init(RngTree(seed), np.longdouble, prefix="gc"), cfg)
    gen = np.random.default_rng(seed + 100)
    h = Tensor(gen.normal(size=(1, n, d)), dtype=np.longdouble)
    r = gen.normal(size=(1, n, d))
    valid = np.ones((1, n), dtype=bool)

    def fn(points):
        out, _ = att.attend(points[0], params, valid)
        return ad.sum_(ad.mul(out, Tensor(r, dtype=np.longdouble)))

    return grad_check(fn, [h] + ad.parameters(params), step=1e-5)


def check_layer_variant(name: str, seed: int = 4, d: int = 8, n: int = 4) -> float:
    kind, gated, act_variant = LAYER_VARIANTS[name]
    variant = LayerVariant(kind, gated)
    cfg = AttentionConfig(d, 2, kind)
    lp = init_layer(Init(RngTree(seed), np.longdouble, prefix="gc"), cfg, variant, 2 * d)
    gen = np.random.default_rng(seed + 200)
    h = Tensor(gen.normal(size=(1, n, d)), dtype=np.longdouble)
    r = gen.normal(size=(1, n, d))
    valid = np.ones((1, n), dtype=bool)
    points = [h] + ad.parameters(lp)

    if act_variant is None:
        def fn(pts):
            out, _, _ = encoder_step(pts[0], lp, valid)
            return ad.sum_(ad.mul(out, Tensor(r, dtype=np.longdouble)))
    else:
        # Small halting logits keep the cumulative mass far from the
        # threshold, so finite differences cannot flip the halt step.
        act_w = Parameter(gen.normal(size=(d, 1)) * 0.1, "gc.act_w", dtype=np.longdouble)
        act_b = Parameter(np.full(1, -2.0), "gc.act_b", decay=False, dtype=np.longdouble)
        act_cfg = ACTConfig(variant=act_variant, epsilon=0.01, reg_weight=0.03)
        points = points + [act_w, act_b]

        def fn(pts):
            state = pts[0]
            states, p_hats = [], []
            for _ in range(2):
                if act_cfg.variant == "U":
                    p_hats.append(act_halting(state, act_w, act_b))
                state, _, _ = encoder_step(state, lp, valid)
                if act_cfg.variant == "A":
                    p_hats.append(act_halting(state, act_w, act_b))
                states.append(state)
            res = act_readout(states, p_hats, act_cfg, valid)
            mix = ad.sum_(ad.mul(res.readout, Tensor(r, dtype=np.longdouble)))
            return ad.add(mix, res.act_loss)

    return grad_check(fn, points, step=1e-5)


def run_checks(module: str | None = None) -> dict[str, float]:
    """All named checks, optionally filtered by module prefix
    (substrate, attention, layer)."""
    checks = {}
    if module in (None, "substrate"):
        checks["substrate/composite"] = check_composite_ops
        checks["substrate/softmax_chain"] = check_softmax_chain
    if module in (None, "attention"):
        checks["attention/geometric_weights"] = check_geometric_weights
        for kind in ("standard_abs", "relative", "abs_rel_gated", "geometric"):
            checks[f"attention/{kind}"] = lambda k=kind: check_attention_kind(k)
    if module in (None, "layer"):
        for name in LAYER_VARIANTS:
            checks[f"layer/{name}"] = lambda v=name: check_layer_variant(v)
    if not checks:
        raise ValueError(f"unknown module {module!r}; expected substrate, attention, or layer")
    return {name: fn() for name, fn in checks.items()}
