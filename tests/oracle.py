"""The per-pair forward pass, kept as the oracle for the batched encoder.

One drug and one protein at a time, with no padding on the atom axis and
one small op per step: the towers on a single 2-d sample, each protein level
lifted on its own, the bilinear attention head by head with the residue
mask added to the scores, the fusion unit on the pair's [levels, d] stack
and the head on one row.  `DTIEncoder.interact` must agree with it to
rounding on outputs, attention maps and gradients.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from dtikit import tensor as T
from dtikit.encoder import JOINT_POOL
from dtikit.tensor import Tensor


def mask_relu(z):
    """relu as its own small op, a product with the 0/1 mask of z > 0: to
    the bit, forward and backward, the relu that products fuse."""
    return T.mul(z, Tensor((z.data > 0).astype(z.data.dtype)))


def protein_levels(enc, ids, true_length):
    x = T.index_select(enc.embedding, 0, ids)
    for conv in enc.p_stem:
        x = conv(x)  # every convolution layer applies its own relu
    real = min(true_length, ids.shape[0])
    levels = []
    for spec in enc.p_levels:
        x = T.maxpool1d(spec["ex_bn"](spec["ex"](x)))
        real = -(-real // 2)
        out = spec["out_bn"](spec["out"](x))
        levels.append((out, real))
    return levels


def drug_levels(enc, feats, adj_norm):
    adj = Tensor(adj_norm)
    h = Tensor(feats)
    for lin in enc.d_stem:
        h = mask_relu(lin(h))
    levels = []
    for spec in enc.d_levels:
        h = spec["ex_bn"](mask_relu(T.matmul(adj, spec["ex"](h))))
        levels.append(spec["out_bn"](mask_relu(T.matmul(adj, spec["out"](h)))))
    return levels


def joint_vector(enc, level, drug_out, protein_out, real_cols):
    spec = enc.joint[level]
    v = mask_relu(spec["drug"](drug_out))
    u = mask_relu(spec["protein"](protein_out))
    m, l = v.data.shape[0], u.data.shape[0]
    mask = np.zeros(l)
    mask[real_cols:] = T.PAD_MASK_BIAS
    joint = None
    maps = []
    for q in spec["q"]:
        scores = T.add(
            T.matmul(v * T.expand(q, 0, m), T.transpose(u)), T.expand(Tensor(mask), 0, m)
        )
        attn = T.reshape(T.softmax(T.reshape(scores, (1, m * l)), axis=1), (m, l))
        head = T.tsum(v * T.matmul(attn, u), axis=0)
        joint = head if joint is None else joint + head
        maps.append(attn.data[:, :real_cols].copy())
    pooled = T.tmean(T.reshape(joint, (-1, JOINT_POOL)), axis=1)
    return pooled, np.stack(maps)


def fuse(enc, level_vectors):
    gau = enc.gau
    d = enc.config.fused_dim
    n = len(level_vectors)
    x = T.concat([T.reshape(f, (1, d)) for f in level_vectors], axis=0)
    mu = T.expand(T.tmean(x, axis=1), 1, d)
    centred = x - mu
    var = T.expand(T.tmean(T.square(centred), axis=1), 1, d)
    unit = centred / T.sqrt(var + 1e-5)
    x = unit * T.expand(gau["norm_scale"], 0, n) + T.expand(gau["norm_shift"], 0, n)
    gate = T.silu(gau["gate"](x))
    value = T.silu(gau["value"](x))
    shared = T.silu(gau["shared"](x))
    p = enc.store
    q = shared * T.expand(p["gau/q_scale"], 0, n) + T.expand(p["gau/q_shift"], 0, n)
    k = shared * T.expand(p["gau/k_scale"], 0, n) + T.expand(p["gau/k_shift"], 0, n)
    attn = T.square(mask_relu(T.matmul(q, T.transpose(k)))) * (1.0 / n)
    pooled = T.tsum(T.matmul(attn, value) * gate, axis=0)
    return T.reshape(gau["out"](T.reshape(pooled, (1, pooled.data.shape[0]))), (d,))


def pair_forward(enc, drug, protein):
    """One pair end to end.  `drug` is (atom features, normalized
    adjacency), `protein` (token ids, true residue count).  Returns the
    fused vector, the per-level [heads, atoms, real
    residues] attention maps and the encoder head's scalar output, if any."""
    d_levels = drug_levels(enc, *drug)
    p_levels = protein_levels(enc, *protein)
    vectors, maps = [], []
    for i, (d_out, (p_out, real)) in enumerate(zip(d_levels, p_levels)):
        f, level_maps = joint_vector(enc, i, d_out, p_out, real)
        vectors.append(f)
        maps.append(level_maps)
    fused = fuse(enc, vectors)
    score = None
    if enc.head is not None:
        hidden, final = enc.head_layers.hidden, enc.head_layers.out
        h = mask_relu(hidden(T.reshape(fused, (1, fused.data.shape[0]))))
        score = T.reshape(final(h), (1,))
    return SimpleNamespace(fused=fused, attention=maps, score=score)
