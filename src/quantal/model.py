"""From-scratch transformer encoder: forward, backward, Adam, MLM masking.

Everything is plain numpy.  The encoder is the post-layer-norm variant:
each sublayer computes x = LayerNorm(x + Dropout(Sublayer(x))), with
learned absolute position embeddings, a layer-normed embedding sum, GELU
feed-forward blocks, and the output projection tied to the input
embedding matrix (separate output bias).

Arrays inherit the dtype of the parameters, so the same code runs float32
for training and float64 for finite-difference gradient checks.

Row layout.  A batch arrives padded, as (B, L) ids with a mask of real
positions.  Every op that treats positions independently (the
embedding sum and LayerNorm, the QKV, attention-output and feed-forward
matmuls, GELU, the other LayerNorms, dropout and the residual adds, and
their backward) runs on an (N, H) matrix of rows.  Only attention needs
the padded layout: Q, K and V are scattered into zero-padded
(B, heads, L, head_dim) arrays for the scores and the context, and the
context is gathered back into rows.

loss_and_grads and the inference pass (forward_batch with
keep_cache=False) make only the real positions rows: padded positions
take no part in the loss or the scores, and attention masks them out as
keys, so dropping them leaves every real row's values unchanged.  The
cached pass, plain forward_batch, which returns (B, L, H) and the caches
backward_batch reads, makes every one of the B*L positions a row.
Dropout draws its uniforms for all B*L positions whichever rows are
real, so the generator's stream is what a padded pass consumes.  Both
passes run one LayerNorm and one GELU kernel; keep_cache only chooses
whether a kernel keeps what the backward reads or overwrites its input,
so the inference pass's rows equal the training forward's bit for bit.

Training: the loss and every gradient but one group are bit-identical to
the padded pass's.  That group is each layer's qkv_w, attn_out_w, ff1_w
and ff2_w: their matmuls sum over the real rows only, and a BLAS that
blocks that sum by row count may round it differently (about 1e-6 of the
largest entry in float32).

Scoring runs the inference pass.  PLL asks for one query position per
batch row (at=) and reads only those rows, so the last layer is pruned:
it computes keys and values for every real row, and the queries,
attention, output projection, both LayerNorms and the FF block for the B
query rows only.  Rows up to the last layer are bit-identical to the
unpruned pass's.  The last layer's one-row attention matmuls round
differently from the (L, L) ones (BLAS picks another kernel), so a
pruned row moves by about 1e-7 relative in float32 and 1e-15 in float64.
Where every batch row has one real token, softmax over that one key is
exactly 1 and the pruned rows are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import finite, make_rng, whole

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
        # Checked first, so n_heads 0 or max_positions 8.0 (say, from a
        # checkpoint header) is refused here, not by a division or a reshape.
        for name in ("vocab_size", "n_layers", "n_heads", "hidden", "intermediate", "max_positions"):
            setattr(self, name, whole(name, getattr(self, name), 1))
        if self.hidden % self.n_heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the three specials plus content")
        self.dropout = float(finite("dropout", self.dropout))  # asdict() feeds json and state_digest
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads


@dataclass(kw_only=True)
class TrainConfig:
    """Epochs and seed of a run; the recipe itself is training's constants."""

    epochs: int
    seed: int

    def __post_init__(self):
        self.epochs = whole("epochs", self.epochs, 1)
        self.seed = whole("seed", self.seed, 0)


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


def _gelu(x: np.ndarray, keep_cache=True):
    """(gelu(x), d) with d = 1 + exp(-2c*x*(1 + a*x^2)) kept for the backward.

    This is the sigmoid form x / d of the tanh approximation 0.5*x*(1 +
    tanh(c*(x + a*x^3))).  For large negative x the exp overflows to inf
    (silenced) and x / d is the correct -0.  Row blocks stay in cache.
    With keep_cache=False the result overwrites x, one block-sized d
    serves every block, and the cache returned is None.
    """
    rows = max(1, _GELU_BLOCK // x.shape[-1])
    y, d = (np.empty_like(x), np.empty_like(x)) if keep_cache else (x, np.empty_like(x[:rows]))
    with np.errstate(over="ignore"):
        for i in range(0, x.shape[0], rows):
            xb = x[i : i + rows]
            db = d[i : i + rows] if keep_cache else d[: xb.shape[0]]
            np.multiply(xb, xb, out=db)
            db *= -2.0 * _GELU_C * _GELU_A
            db -= 2.0 * _GELU_C
            db *= xb
            np.exp(db, out=db)
            db += 1.0
            np.divide(xb, db, out=y[i : i + rows])
    return y, (d if keep_cache else None)


def _gelu_backward(dy: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    # gelu(x) = x*p with p = 1/d = sigmoid(2c*x*(1 + a*x^2)), so
    # gelu'(x) = p*(1 + x*(1 - p)*2c*(1 + 3a*x^2)), exactly 0 where d = inf.
    # dy is consumed and returned; two block-sized temporaries serve every block.
    rows = max(1, _GELU_BLOCK // x.shape[-1])
    w = np.empty_like(x[:rows])
    p = np.empty_like(d[:rows])
    for i in range(0, x.shape[0], rows):
        xb = x[i : i + rows]
        dyb = dy[i : i + rows]
        wb = w[: xb.shape[0]]
        pb = p[: xb.shape[0]]
        np.multiply(xb, xb, out=wb)
        wb *= 3.0 * _GELU_A
        wb += 1.0
        wb *= 2.0 * _GELU_C
        wb *= xb
        np.divide(1.0, d[i : i + rows], out=pb)
        dyb *= pb
        np.subtract(1.0, pb, out=pb)
        wb *= pb
        wb += 1.0
        dyb *= wb
    return dy


def _layer_norm(x, scale, offset, keep_cache=True):
    """(y, (xhat, inv_std)); x is normalized in place into xhat, y is new.

    With keep_cache=False, y overwrites x and the cache returned is None.
    """
    x -= x.mean(axis=-1, keepdims=True)
    var = np.einsum("...h,...h->...", x, x) / x.shape[-1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)[..., None]
    x *= inv_std
    if not keep_cache:
        x *= scale
        x += offset
        return x, None
    y = x * scale
    y += offset
    return y, (x, inv_std)


def _layer_norm_backward(dy, cache, scale):
    """(dx, dscale, doffset); dy is consumed and returned as dx."""
    xhat, inv_std = cache
    n = dy.shape[-1]
    dscale = np.einsum("nh,nh->h", dy.reshape(-1, n), xhat.reshape(-1, n))
    doffset = dy.reshape(-1, n).sum(axis=0)
    dy *= scale
    m1 = dy.mean(axis=-1, keepdims=True)
    m2 = np.einsum("...h,...h->...", dy, xhat)[..., None] / n
    dy -= m1
    dy -= xhat * m2
    dy *= inv_std
    return dy, dscale, doffset


class _Rows:
    """The positions of a padded (B, L) batch that the row-wise ops run on.

    With real_only, the rows are the real (True) positions of mask, else
    every position.  index holds the flat position b*L + l of each row,
    ascending, or is None when every position is a row.  take gathers
    rows out of a padded array and put scatters (N, C) rows into a
    zero-padded (B, L, C) one.
    """

    def __init__(self, mask: np.ndarray, real_only: bool):
        self.B, self.L = mask.shape
        real = mask.reshape(-1)
        self.index = np.flatnonzero(real) if real_only and not real.all() else None
        if self.index is None:
            self.n = self.B * self.L
        else:
            self.n = self.index.size
            self.b, self.l = np.divmod(self.index, self.L)
            self.pad = np.flatnonzero(~real)

    def take(self, a: np.ndarray) -> np.ndarray:
        """(B, L, ...) -> (N, ...); a copy unless a reshape can view it."""
        if self.index is None:
            return a.reshape(self.B * self.L, *a.shape[2:])
        return a[self.b, self.l]

    def put(self, rows: np.ndarray) -> np.ndarray:
        """(N, C) -> (B, L, C), zero at padded positions.

        Padded keys and values must be finite: attention gives them
        weight exactly 0, and 0 * inf or 0 * nan would not be 0.
        """
        if self.index is None:
            return rows.reshape(self.B, self.L, -1)
        full = np.empty((self.B * self.L, rows.shape[1]), dtype=rows.dtype)
        full[self.index] = rows
        full[self.pad] = 0.0
        return full.reshape(self.B, self.L, -1)


def _dropout(x, p, rng, rows: _Rows):
    """Inverted dropout of the (N, H) rows x, in place; returns (x, keep).

    The uniform draw covers every (B, L, H) position, padded ones too, so
    the generator's stream does not depend on which rows are computed.
    """
    if rng is None or p <= 0.0:
        return x, None
    draw = rng.random((rows.B * rows.L, x.shape[1]), dtype=np.float32)
    if rows.index is not None:
        draw = draw[rows.index]
    keep = (draw >= p).astype(x.dtype)
    keep *= 1.0 / (1.0 - p)
    x *= keep
    return x, keep


def forward_batch(
    state: ModelState,
    ids: np.ndarray,
    attn_mask: np.ndarray,
    dropout_rng=None,
    *,
    keep_cache=True,
    at=None,
):
    """Hidden states for a padded batch, plus backward caches.

    attn_mask is True at real positions; padded keys are excluded from
    every attention row, so real positions never read padded ones.  The
    default cached pass returns (B, L, H), every position a row, padded
    ones too, and the caches backward_batch reads.

    keep_cache=False is the inference pass: it takes no dropout_rng, runs
    the cached pass's kernels without their backward caches (LayerNorm
    and GELU then write their results over their inputs), and the cache
    returned is None.  It returns the (N, H) rows of the real positions
    only, in the order np.nonzero(attn_mask) lists them, bit-identical
    to the cached pass's rows there.

    at, a (B,) int array of one real position per batch row, asks the
    inference pass for the (B, H) rows at (b, at[b]) only, and the last
    layer is pruned to them (module docstring).
    """
    ids = np.asarray(ids)
    attn_mask = np.asarray(attn_mask, dtype=bool)
    if keep_cache:
        if at is not None:
            raise ValueError("at= runs the inference pass only; pass keep_cache=False")
        x, cache = _forward(state, ids, attn_mask, dropout_rng, keep_cache=True, real_only=False)
        return x.reshape(*ids.shape, -1), cache
    if dropout_rng is not None:
        raise ValueError("the inference pass (keep_cache=False) takes no dropout_rng")
    if at is not None:
        at = np.asarray(at)
        B, L = attn_mask.shape
        if at.shape != (B,) or at.dtype.kind not in "iu":
            raise ValueError("at must be a (B,) int array, one query position per batch row")
        if (at < 0).any() or (at >= L).any():
            raise ValueError("query position outside the batch")
        if not attn_mask[np.arange(B), at].all():
            raise ValueError("query at a padded position")
    return _forward(state, ids, attn_mask, None, keep_cache=False, real_only=True, at=at)


def _forward(state: ModelState, ids, attn_mask, dropout_rng, keep_cache, real_only, at=None):
    """Hidden states (N, H) of the rows _Rows(attn_mask, real_only) picks,
    or with at the (B, H) rows at (b, at[b])."""
    cfg = state.config
    p = state.params
    B, L = ids.shape
    if L > cfg.max_positions:
        raise ValueError(f"sequence length {L} exceeds max_positions {cfg.max_positions}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")

    rows = _Rows(attn_mask, real_only)
    if at is not None:  # each query's index among the rows
        flat = np.arange(B) * L + at
        query_rows = flat if rows.index is None else np.searchsorted(rows.index, flat)
    drop_p = cfg.dropout if dropout_rng is not None else 0.0
    H, nh, dh = cfg.hidden, cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    if attn_mask.all():
        attn_bias = None
    else:
        attn_bias = np.zeros((B, 1, 1, L), dtype=state.dtype)
        attn_bias[:, 0, 0, :][~attn_mask] = NEG_INF

    row_ids = rows.take(ids)
    emb_sum = p["tok_emb"][row_ids]
    if rows.index is None:  # every position is a row: add the (L, H) table across the batch
        by_position = emb_sum.reshape(B, L, -1)
        by_position += p["pos_emb"][:L]
    else:
        emb_sum += p["pos_emb"][rows.l]
    x, emb_ln_cache = _layer_norm(emb_sum, p["emb_ln_scale"], p["emb_ln_offset"], keep_cache)
    x, emb_keep = _dropout(x, drop_p, dropout_rng, rows)

    layer_caches = []
    for n in range(cfg.n_layers):
        x_in = x
        qkv_w, qkv_b = p[f"l{n}.qkv_w"], p[f"l{n}.qkv_b"]
        pruned = at is not None and n == cfg.n_layers - 1
        if pruned:
            # Only the query rows are read: keys and values of every row,
            # all else for the query rows, which are x from here on.
            kv = x_in @ qkv_w[:, H:]
            kv += qkv_b[H:]
            k, v = rows.put(kv).reshape(B, L, 2, nh, dh).transpose(2, 0, 3, 1, 4)
            x = x_in[query_rows]
            q = x @ qkv_w[:, :H]
            q += qkv_b[:H]
            q = q.reshape(B, 1, nh, dh).transpose(0, 2, 1, 3)  # (B, nh, 1, dh)
        else:
            qkv = x @ qkv_w
            qkv += qkv_b
            qkv = rows.put(qkv).reshape(B, L, 3, nh, dh).transpose(2, 0, 3, 1, 4)  # (3, B, nh, L, dh)
            q, k, v = qkv[0], qkv[1], qkv[2]
        scores = np.matmul(q, k.swapaxes(-1, -2))
        scores *= scale
        if attn_bias is not None:
            scores += attn_bias
        probs = _softmax_inplace(scores)
        ctx = np.matmul(probs, v).transpose(0, 2, 1, 3)
        ctx = ctx.reshape(B, H) if pruned else rows.take(ctx).reshape(rows.n, -1)
        attn = ctx @ p[f"l{n}.attn_out_w"]
        attn += p[f"l{n}.attn_out_b"]
        attn, attn_keep = _dropout(attn, drop_p, dropout_rng, rows)
        attn += x
        h1, ln1_cache = _layer_norm(attn, p[f"l{n}.ln1_scale"], p[f"l{n}.ln1_offset"], keep_cache)

        f1 = h1 @ p[f"l{n}.ff1_w"]
        f1 += p[f"l{n}.ff1_b"]
        g, gelu_d = _gelu(f1, keep_cache)
        f2 = g @ p[f"l{n}.ff2_w"]
        f2 += p[f"l{n}.ff2_b"]
        f2, ff_keep = _dropout(f2, drop_p, dropout_rng, rows)
        f2 += h1
        x, ln2_cache = _layer_norm(f2, p[f"l{n}.ln2_scale"], p[f"l{n}.ln2_offset"], keep_cache)

        if keep_cache:
            layer_caches.append(
                dict(
                    x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx,
                    attn_keep=attn_keep, ln1_cache=ln1_cache, h1=h1,
                    f1=f1, gelu_d=gelu_d, g=g, ff_keep=ff_keep, ln2_cache=ln2_cache,
                )
            )

    if not keep_cache:
        return x, None
    cache = dict(
        rows=rows, row_ids=row_ids, emb_ln_cache=emb_ln_cache,
        emb_keep=emb_keep, layers=layer_caches,
    )
    return x, cache


def backward_batch(state: ModelState, d_hidden: np.ndarray, cache) -> dict[str, np.ndarray]:
    """Gradients for every parameter given d(loss)/d(final hidden states).

    d_hidden is (B, L, H), like forward_batch's hidden states; it is not
    modified.  out_bias, which the hidden states do not depend on, gets a
    zero gradient.
    """
    dx = np.array(d_hidden).reshape(-1, state.config.hidden)  # a copy, which _backward consumes
    grads = _backward(state, dx, cache)
    grads["out_bias"] = np.zeros_like(state.params["out_bias"])
    return grads


def _backward(state: ModelState, dx: np.ndarray, cache) -> dict[str, np.ndarray]:
    """Gradients of every parameter but out_bias from the (N, H) rows dx.

    dx is consumed.  Each gradient is assigned where it is first computed;
    only tok_emb and pos_emb, which collect rows by token and position,
    start from zeroed buffers.
    """
    cfg = state.config
    p = state.params
    rows = cache["rows"]
    B, L = rows.B, rows.L
    nh, dh = cfg.n_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    grads = {}

    for n in reversed(range(cfg.n_layers)):
        c = cache["layers"][n]
        dr2, grads[f"l{n}.ln2_scale"], grads[f"l{n}.ln2_offset"] = _layer_norm_backward(
            dx, c["ln2_cache"], p[f"l{n}.ln2_scale"]
        )
        # dr2 also flows down the residual path, so dropout gets a copy
        df2 = dr2 if c["ff_keep"] is None else dr2 * c["ff_keep"]
        grads[f"l{n}.ff2_w"] = c["g"].T @ df2
        grads[f"l{n}.ff2_b"] = df2.sum(axis=0)
        df1 = _gelu_backward(df2 @ p[f"l{n}.ff2_w"].T, c["f1"], c["gelu_d"])
        grads[f"l{n}.ff1_w"] = c["h1"].T @ df1
        grads[f"l{n}.ff1_b"] = df1.sum(axis=0)
        dh1 = df1 @ p[f"l{n}.ff1_w"].T
        dh1 += dr2

        dr1, grads[f"l{n}.ln1_scale"], grads[f"l{n}.ln1_offset"] = _layer_norm_backward(
            dh1, c["ln1_cache"], p[f"l{n}.ln1_scale"]
        )
        dattn = dr1 if c["attn_keep"] is None else dr1 * c["attn_keep"]
        grads[f"l{n}.attn_out_w"] = c["ctx"].T @ dattn
        grads[f"l{n}.attn_out_b"] = dattn.sum(axis=0)
        dctx = rows.put(dattn @ p[f"l{n}.attn_out_w"].T).reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        probs = c["probs"]
        dqkv = np.empty((3, *dctx.shape), dtype=dctx.dtype)  # dq, dk, dv: (3, B, nh, L, dh)
        np.matmul(probs.swapaxes(-1, -2), dctx, out=dqkv[2])
        dscores = np.matmul(dctx, c["v"].swapaxes(-1, -2))
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        np.matmul(dscores, c["k"], out=dqkv[0])
        np.matmul(dscores.swapaxes(-1, -2), c["q"], out=dqkv[1])
        dqkv[:2] *= scale
        dqkv = rows.take(dqkv.transpose(1, 3, 0, 2, 4)).reshape(rows.n, -1)  # (N, 3H)
        grads[f"l{n}.qkv_w"] = c["x_in"].T @ dqkv
        grads[f"l{n}.qkv_b"] = dqkv.sum(axis=0)
        dx = dqkv @ p[f"l{n}.qkv_w"].T
        dx += dr1

    if cache["emb_keep"] is not None:
        dx *= cache["emb_keep"]
    demb, grads["emb_ln_scale"], grads["emb_ln_offset"] = _layer_norm_backward(
        dx, cache["emb_ln_cache"], p["emb_ln_scale"]
    )
    grads["pos_emb"] = np.zeros_like(p["pos_emb"])
    grads["pos_emb"][:L] += rows.put(demb).sum(axis=0)
    grads["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(grads["tok_emb"], cache["row_ids"], demb)
    return grads


def output_head(state: ModelState, h: np.ndarray) -> np.ndarray:
    """Vocabulary logits of hidden rows h: the output head tied to tok_emb."""
    return h @ state.params["tok_emb"].T + state.params["out_bias"]


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

    Only real positions are rows: padded ones take part in attention as
    masked-out keys and nothing else.  Labels must be IGNORE_INDEX at
    padded positions.  The output projection runs only at labeled
    positions.  Returns (loss, grads, n_masked); grads is None when the
    batch has no labeled positions.
    """
    ids = np.asarray(ids)
    attn_mask = np.asarray(attn_mask, dtype=bool)
    labels = np.asarray(labels)
    if (labels[~attn_mask] != IGNORE_INDEX).any():
        raise ValueError("labels at padded positions")
    hidden, cache = _forward(state, ids, attn_mask, dropout_rng, keep_cache=True, real_only=True)  # (N, H)
    labels = cache["rows"].take(labels)
    sel = labels != IGNORE_INDEX
    n_masked = int(sel.sum())
    if n_masked == 0:
        return 0.0, None, 0
    h_sel = hidden[sel]  # (M, H)
    logp = log_softmax(output_head(state, h_sel), axis=-1)
    true_ids = labels[sel]
    rows = np.arange(n_masked)
    loss = float(-logp[rows, true_ids].mean())

    dlogits = np.exp(logp)
    dlogits[rows, true_ids] -= 1.0
    dlogits /= n_masked
    d_hidden = np.zeros_like(hidden)
    d_hidden[sel] = dlogits @ state.params["tok_emb"]
    grads = _backward(state, d_hidden, cache)
    grads["tok_emb"] += dlogits.T @ h_sel
    grads["out_bias"] = dlogits.sum(axis=0)
    return loss, grads, n_masked


_ADAM_BLOCK = 1 << 14  # elements per block; keeps m, v, the weights and temporaries in cache


def adam_step(state: ModelState, grads: dict[str, np.ndarray], lr: float) -> None:
    """One Adam update with bias correction, in place.

    The update is computed as lr*sqrt(c2)/c1 * m / (sqrt(v) + eps*sqrt(c2)),
    algebraically identical to m_hat / (sqrt(v_hat) + eps).  Each tensor
    is updated in row blocks of about _ADAM_BLOCK elements, every block
    through the whole formula before the next, with two block-sized
    temporaries; the per-element operations are those of one pass over
    the tensor.  The two step scalars are rounded to the tensor's dtype,
    so a float32 tensor is updated in float32 arithmetic throughout.  The
    grads buffers are consumed.
    """
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    sqrt_c2 = np.sqrt(1.0 - ADAM_BETA2**t)
    step_size = lr * sqrt_c2 / correct1
    for name, g in grads.items():
        m = state.opt_m[name]
        v = state.opt_v[name]
        w = state.params[name]
        eps, lr_t = w.dtype.type(ADAM_EPS * sqrt_c2), w.dtype.type(step_size)
        rows = max(1, _ADAM_BLOCK * g.shape[0] // g.size)
        scaled = np.empty_like(g[:rows])  # (1 - beta) * g, in g's dtype
        denom = np.empty_like(v[:rows])
        for i in range(0, g.shape[0], rows):
            gb, mb, vb = g[i : i + rows], m[i : i + rows], v[i : i + rows]
            sb, db = scaled[: gb.shape[0]], denom[: gb.shape[0]]
            mb *= ADAM_BETA1
            np.multiply(gb, 1.0 - ADAM_BETA1, out=sb)
            mb += sb
            gb *= gb
            vb *= ADAM_BETA2
            np.multiply(gb, 1.0 - ADAM_BETA2, out=sb)
            vb += sb
            np.sqrt(vb, out=db)
            db += eps
            np.divide(mb, db, out=db)
            db *= lr_t
            w[i : i + rows] -= db
