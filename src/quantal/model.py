"""From-scratch transformer encoder: forward, backward, Adam, MLM masking.

Everything is plain numpy.  The encoder is the post-layer-norm variant:
each sublayer computes x = LayerNorm(x + Dropout(Sublayer(x))), with
learned absolute position embeddings, a layer-normed embedding sum, GELU
feed-forward blocks, and the output projection tied to the input
embedding matrix (separate output bias).

Arrays inherit the dtype of the parameters, so the same code runs float32
for training and float64 for finite-difference gradient checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import make_rng

IGNORE_INDEX = -100
LN_EPS = 1e-5
INIT_STD = 0.02
NEG_INF = -1e30  # additive mask; exp() underflows to exactly 0

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


@dataclass(kw_only=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 8
    n_heads: int = 8
    hidden: int = 256
    intermediate: int = 1024
    max_positions: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden % self.n_heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the three specials plus content")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_positions < 1 or self.n_layers < 1:
            raise ValueError("max_positions and n_layers must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads


@dataclass(kw_only=True)
class TrainConfig:
    epochs: int
    seed: int
    learning_rate: float = 1e-4
    batch_size: int = 16
    mask_probability: float = 0.15

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.mask_probability < 1.0:
            raise ValueError(f"mask_probability must be in (0, 1), got {self.mask_probability}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init kind) in checkpoint order; kinds: normal/zeros/ones."""
    h, i, v, p = cfg.hidden, cfg.intermediate, cfg.vocab_size, cfg.max_positions
    specs = [
        ("tok_emb", (v, h), "normal"),
        ("pos_emb", (p, h), "normal"),
        ("emb_ln_scale", (h,), "ones"),
        ("emb_ln_offset", (h,), "zeros"),
    ]
    for n in range(cfg.n_layers):
        specs += [
            (f"l{n}.qkv_w", (h, 3 * h), "normal"),
            (f"l{n}.qkv_b", (3 * h,), "zeros"),
            (f"l{n}.attn_out_w", (h, h), "normal"),
            (f"l{n}.attn_out_b", (h,), "zeros"),
            (f"l{n}.ln1_scale", (h,), "ones"),
            (f"l{n}.ln1_offset", (h,), "zeros"),
            (f"l{n}.ff1_w", (h, i), "normal"),
            (f"l{n}.ff1_b", (i,), "zeros"),
            (f"l{n}.ff2_w", (i, h), "normal"),
            (f"l{n}.ff2_b", (h,), "zeros"),
            (f"l{n}.ln2_scale", (h,), "ones"),
            (f"l{n}.ln2_offset", (h,), "zeros"),
        ]
    specs.append(("out_bias", (v,), "zeros"))
    return specs


@dataclass
class ModelState:
    config: ModelConfig
    params: dict[str, np.ndarray]
    opt_m: dict[str, np.ndarray] | None  # None: loaded from a checkpoint
    opt_v: dict[str, np.ndarray] | None
    step: int = 0
    loss_history: list[float] = field(default_factory=list)

    @property
    def dtype(self):
        return self.params["tok_emb"].dtype


def init_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelState:
    """Weights ~ Normal(0, 0.02^2); norm scales 1, every bias/offset 0."""
    rng = make_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape, kind in param_specs(cfg):
        if kind == "normal":
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        elif kind == "ones":
            params[name] = np.ones(shape, dtype=dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    zeros = {name: np.zeros_like(p) for name, p in params.items()}
    return ModelState(
        config=cfg,
        params=params,
        opt_m=zeros,
        opt_v={name: np.zeros_like(p) for name, p in params.items()},
    )


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _softmax_inplace(x: np.ndarray) -> np.ndarray:
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


_GELU_BLOCK = 1 << 16  # elements per block; keeps temporaries cache-resident


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU via exp (libm tanh is several times slower).

    Returns (gelu(x), s) where s = 1 - tanh(c*(x + a*x^3)) is cached for
    the backward pass.  The clip only guards exp overflow; tanh is fully
    saturated well inside the clipped range.  Work proceeds in row blocks
    so the many elementwise passes stay in cache on large inputs.
    """
    y = np.empty_like(x)
    s = np.empty_like(x)
    rows = max(1, _GELU_BLOCK // x.shape[-1])
    for i in range(0, x.shape[0], rows):
        xb = x[i : i + rows]
        u = s[i : i + rows]
        np.multiply(xb, xb, out=u)
        u *= _GELU_A
        u += 1.0
        u *= xb
        u *= 2.0 * _GELU_C
        np.clip(u, -60.0, 60.0, out=u)
        np.exp(u, out=u)
        u += 1.0
        np.divide(2.0, u, out=u)  # s in (0, 2)
        yb = y[i : i + rows]
        np.multiply(xb, u, out=yb)
        yb *= -0.5
        yb += xb  # x * (1 - s/2) = 0.5 * x * (1 + tanh)
    return y, s


def _gelu_inplace(x: np.ndarray) -> tuple[np.ndarray, None]:
    """_gelu without the backward's s, overwriting x; returns (x, None).

    Uses the sigmoid form x / (1 + exp(-2c*x*(1 + a*x^2))) of the same
    tanh approximation, which takes fewer passes.  For large negative x
    the exp overflows to inf and the quotient is the correct -0.
    """
    rows = max(1, _GELU_BLOCK // x.shape[-1])
    u = np.empty_like(x[:rows])
    with np.errstate(over="ignore"):
        for i in range(0, x.shape[0], rows):
            xb = x[i : i + rows]
            ub = u[: xb.shape[0]]
            np.multiply(xb, xb, out=ub)
            ub *= -2.0 * _GELU_C * _GELU_A
            ub -= 2.0 * _GELU_C
            ub *= xb
            np.exp(ub, out=ub)
            ub += 1.0
            xb /= ub
    return x, None


def _gelu_backward(dy: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    # d/dx [0.5x(1+t)] with t = 1 - s:  1 - s/2 + 0.5*x*s*(2-s)*c*(1+3a*x^2)
    # dy is consumed and returned.
    rows = max(1, _GELU_BLOCK // x.shape[-1])
    for i in range(0, x.shape[0], rows):
        xb = x[i : i + rows]
        sb = s[i : i + rows]
        w = xb * xb
        w *= 3.0 * _GELU_A
        w += 1.0
        w *= _GELU_C
        w *= xb
        v = 2.0 - sb
        v *= sb
        v *= w
        v -= sb
        v *= 0.5
        v += 1.0
        dy[i : i + rows] *= v
    return dy


def _layer_norm(x, scale, offset):
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.einsum("blh,blh->bl", xhat, xhat) / x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)[:, :, None]
    xhat *= inv_std
    y = xhat * scale
    y += offset
    return y, (xhat, inv_std)


def _layer_norm_inplace(x, scale, offset):
    """_layer_norm without the backward cache, overwriting x; returns (x, None).

    The same arithmetic in the same order, so the output is bit-identical.
    """
    x -= x.mean(axis=-1, keepdims=True)
    var = np.einsum("blh,blh->bl", x, x) / x.shape[-1]
    x *= 1.0 / np.sqrt(var + LN_EPS)[:, :, None]
    x *= scale
    x += offset
    return x, None


def _layer_norm_backward(dy, cache, scale):
    xhat, inv_std = cache
    n = dy.shape[-1]
    dscale = np.einsum("blh,blh->h", dy, xhat)
    doffset = dy.sum(axis=(0, 1))
    dxhat = dy * scale
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.einsum("blh,blh->bl", dxhat, xhat)[:, :, None] / n
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= inv_std
    return dxhat, dscale, doffset


def _dropout(x, p, rng):
    if rng is None or p <= 0.0:
        return x, None
    keep = (rng.random(x.shape, dtype=np.float32) >= p).astype(x.dtype)
    keep *= 1.0 / (1.0 - p)
    return x * keep, keep


def forward_batch(
    state: ModelState, ids: np.ndarray, attn_mask: np.ndarray, dropout_rng=None, *, keep_cache=True
):
    """Hidden states (B, L, H) for a padded batch, plus backward caches.

    attn_mask is True at real positions; padded keys are excluded from
    every attention row, so real positions never read padded ones.

    keep_cache=False is the inference pass: LayerNorm and GELU overwrite
    their inputs, nothing is kept for the backward pass, and the cache
    returned is None.  Its hidden states equal the cached pass's up to
    rounding, because its GELU is the sigmoid form of the same formula.
    """
    cfg = state.config
    p = state.params
    ids = np.asarray(ids)
    attn_mask = np.asarray(attn_mask, dtype=bool)
    B, L = ids.shape
    if L > cfg.max_positions:
        raise ValueError(f"sequence length {L} exceeds max_positions {cfg.max_positions}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    layer_norm, gelu = (_layer_norm, _gelu) if keep_cache else (_layer_norm_inplace, _gelu_inplace)
    drop_p = cfg.dropout if dropout_rng is not None else 0.0
    nh, dh = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    if attn_mask.all():
        attn_bias = None
    else:
        attn_bias = np.zeros((B, 1, 1, L), dtype=state.dtype)
        attn_bias[:, 0, 0, :][~attn_mask] = NEG_INF

    emb_sum = p["tok_emb"][ids]
    emb_sum += p["pos_emb"][:L]
    x, emb_ln_cache = layer_norm(emb_sum, p["emb_ln_scale"], p["emb_ln_offset"])
    x, emb_keep = _dropout(x, drop_p, dropout_rng)

    layer_caches = []
    for n in range(cfg.n_layers):
        x_in = x
        qkv = x.reshape(B * L, -1) @ p[f"l{n}.qkv_w"]
        qkv += p[f"l{n}.qkv_b"]
        qkv = qkv.reshape(B, L, 3, nh, dh).transpose(2, 0, 3, 1, 4)  # (3, B, nh, L, dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = np.matmul(q, k.swapaxes(-1, -2))
        scores *= scale
        if attn_bias is not None:
            scores += attn_bias
        probs = _softmax_inplace(scores)
        ctx = np.matmul(probs, v)  # (B, nh, L, dh)
        ctx2d = ctx.transpose(0, 2, 1, 3).reshape(B * L, -1)
        attn = ctx2d @ p[f"l{n}.attn_out_w"]
        attn += p[f"l{n}.attn_out_b"]
        attn, attn_keep = _dropout(attn.reshape(B, L, -1), drop_p, dropout_rng)
        attn += x
        h1, ln1_cache = layer_norm(attn, p[f"l{n}.ln1_scale"], p[f"l{n}.ln1_offset"])

        h1_2d = h1.reshape(B * L, -1)
        f1 = h1_2d @ p[f"l{n}.ff1_w"]
        f1 += p[f"l{n}.ff1_b"]
        g, tanh_t = gelu(f1)
        f2 = g @ p[f"l{n}.ff2_w"]
        f2 += p[f"l{n}.ff2_b"]
        f2, ff_keep = _dropout(f2.reshape(B, L, -1), drop_p, dropout_rng)
        f2 += h1
        x, ln2_cache = layer_norm(f2, p[f"l{n}.ln2_scale"], p[f"l{n}.ln2_offset"])

        if keep_cache:
            layer_caches.append(
                dict(
                    x_in=x_in, q=q, k=k, v=v, probs=probs, ctx2d=ctx2d,
                    attn_keep=attn_keep, ln1_cache=ln1_cache, h1_2d=h1_2d,
                    f1=f1, tanh_t=tanh_t, g=g, ff_keep=ff_keep, ln2_cache=ln2_cache,
                )
            )

    if not keep_cache:
        return x, None
    cache = dict(
        ids=ids, attn_mask=attn_mask, emb_ln_cache=emb_ln_cache,
        emb_keep=emb_keep, layers=layer_caches, shape=(B, L),
    )
    return x, cache


def backward_batch(state: ModelState, d_hidden: np.ndarray, cache) -> dict[str, np.ndarray]:
    """Gradients for every parameter given d(loss)/d(final hidden states)."""
    cfg = state.config
    p = state.params
    B, L = cache["shape"]
    nh, dh = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}

    dx = d_hidden
    for n in reversed(range(cfg.n_layers)):
        c = cache["layers"][n]
        dr2, dscale2, doffset2 = _layer_norm_backward(dx, c["ln2_cache"], p[f"l{n}.ln2_scale"])
        grads[f"l{n}.ln2_scale"] += dscale2
        grads[f"l{n}.ln2_offset"] += doffset2
        df2 = dr2 if c["ff_keep"] is None else dr2 * c["ff_keep"]
        df2_2d = df2.reshape(B * L, -1)
        grads[f"l{n}.ff2_w"] += c["g"].T @ df2_2d
        grads[f"l{n}.ff2_b"] += df2_2d.sum(axis=0)
        dg = df2_2d @ p[f"l{n}.ff2_w"].T
        df1 = _gelu_backward(dg, c["f1"], c["tanh_t"])
        grads[f"l{n}.ff1_w"] += c["h1_2d"].T @ df1
        grads[f"l{n}.ff1_b"] += df1.sum(axis=0)
        dh1 = dr2 + (df1 @ p[f"l{n}.ff1_w"].T).reshape(B, L, -1)

        dr1, dscale1, doffset1 = _layer_norm_backward(dh1, c["ln1_cache"], p[f"l{n}.ln1_scale"])
        grads[f"l{n}.ln1_scale"] += dscale1
        grads[f"l{n}.ln1_offset"] += doffset1
        dattn = dr1 if c["attn_keep"] is None else dr1 * c["attn_keep"]
        dattn_2d = dattn.reshape(B * L, -1)
        grads[f"l{n}.attn_out_w"] += c["ctx2d"].T @ dattn_2d
        grads[f"l{n}.attn_out_b"] += dattn_2d.sum(axis=0)
        dctx = (dattn_2d @ p[f"l{n}.attn_out_w"].T).reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        dprobs = np.matmul(dctx, c["v"].swapaxes(-1, -2))
        dv = np.matmul(c["probs"].swapaxes(-1, -2), dctx)
        probs = c["probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = np.matmul(dscores, c["k"]) * scale
        dk = np.matmul(dscores.swapaxes(-1, -2), c["q"]) * scale
        dqkv = np.empty((B, L, 3 * nh * dh), dtype=dx.dtype)
        h = nh * dh
        dqkv[:, :, 0:h] = dq.transpose(0, 2, 1, 3).reshape(B, L, h)
        dqkv[:, :, h : 2 * h] = dk.transpose(0, 2, 1, 3).reshape(B, L, h)
        dqkv[:, :, 2 * h :] = dv.transpose(0, 2, 1, 3).reshape(B, L, h)
        dqkv_2d = dqkv.reshape(B * L, -1)
        grads[f"l{n}.qkv_w"] += c["x_in"].reshape(B * L, -1).T @ dqkv_2d
        grads[f"l{n}.qkv_b"] += dqkv_2d.sum(axis=0)
        dx = dr1 + (dqkv_2d @ p[f"l{n}.qkv_w"].T).reshape(B, L, -1)

    if cache["emb_keep"] is not None:
        dx = dx * cache["emb_keep"]
    demb, dscale_e, doffset_e = _layer_norm_backward(dx, cache["emb_ln_cache"], p["emb_ln_scale"])
    grads["emb_ln_scale"] += dscale_e
    grads["emb_ln_offset"] += doffset_e
    grads["pos_emb"][:L] += demb.sum(axis=0)
    np.add.at(grads["tok_emb"], cache["ids"].reshape(-1), demb.reshape(B * L, -1))
    return grads


def forward(state: ModelState, token_ids, attention_mask=None) -> np.ndarray:
    """Full-vocabulary logits (positions x vocab) for one sequence, no dropout."""
    ids = np.asarray(token_ids, dtype=np.int64)[None, :]
    if attention_mask is None:
        mask = np.ones_like(ids, dtype=bool)
    else:
        mask = np.asarray(attention_mask, dtype=bool)[None, :]
    hidden, _ = forward_batch(state, ids, mask, keep_cache=False)
    h2d = hidden.reshape(-1, state.config.hidden)
    return h2d @ state.params["tok_emb"].T + state.params["out_bias"]


def apply_masking(token_ids, p: float, rng, mask_id: int):
    """Independently replace each position by MASK with probability p.

    Labels carry the original id at replaced positions and IGNORE_INDEX
    elsewhere; loss is computed only where labels are not IGNORE_INDEX.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"mask probability must be in (0, 1), got {p}")
    ids = np.asarray(token_ids, dtype=np.int64)
    selected = rng.random(ids.shape) < p
    masked = np.where(selected, mask_id, ids)
    labels = np.where(selected, ids, IGNORE_INDEX)
    return masked, labels


def loss_and_grads(state: ModelState, ids, attn_mask, labels, dropout_rng=None):
    """Mean masked-token cross-entropy and gradients for one padded batch.

    The output projection runs only at labeled positions; everything else
    contributes zero loss gradient there.  Returns (loss, grads, n_masked);
    grads is None when the batch has no labeled positions.
    """
    ids = np.asarray(ids)
    labels = np.asarray(labels)
    hidden, cache = forward_batch(state, ids, attn_mask, dropout_rng=dropout_rng)
    B, L = ids.shape
    sel = labels != IGNORE_INDEX
    n_masked = int(sel.sum())
    if n_masked == 0:
        return 0.0, None, 0
    h_sel = hidden[sel]  # (M, H)
    logits = h_sel @ state.params["tok_emb"].T + state.params["out_bias"]
    logp = log_softmax(logits, axis=-1)
    true_ids = labels[sel]
    rows = np.arange(n_masked)
    loss = float(-logp[rows, true_ids].mean())

    dlogits = np.exp(logp)
    dlogits[rows, true_ids] -= 1.0
    dlogits /= n_masked
    d_hidden = np.zeros_like(hidden)
    d_hidden[sel] = dlogits @ state.params["tok_emb"]
    grads = backward_batch(state, d_hidden, cache)
    grads["tok_emb"] += dlogits.T @ h_sel
    grads["out_bias"] += dlogits.sum(axis=0)
    return loss, grads, n_masked


def adam_step(state: ModelState, grads: dict[str, np.ndarray], lr: float) -> None:
    """One Adam update with bias correction, in place.

    The update is computed as lr*sqrt(c2)/c1 * m / (sqrt(v) + eps*sqrt(c2)),
    algebraically identical to m_hat / (sqrt(v_hat) + eps) but with one
    temporary per tensor.
    """
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    sqrt_c2 = np.sqrt(1.0 - ADAM_BETA2**t)
    step_size = lr * sqrt_c2 / correct1
    for name, g in grads.items():
        m = state.opt_m[name]
        v = state.opt_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        g *= g  # grads buffer is consumed by the update
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g
        denom = np.sqrt(v)
        denom += ADAM_EPS * sqrt_c2
        np.divide(m, denom, out=denom)
        denom *= step_size
        state.params[name] -= denom
