"""The einsum formulation of the attention inside ``tensor.encoding_block``,
the reference its batched matmuls are checked against: the same gathers,
masked softmax and backward rules, with every contraction an
``np.einsum(..., optimize=True)`` and the gradients scattered with
``np.add.at``."""

import math

import numpy as np


def attention_reference(qp, kvp, n_heads, queries, keys):
    """(output [*, d], softmax [S, heads, Lq, Lk], backward rule) of the
    query rows qp at the slots of the row ids ``queries`` [S, Lq] over the
    key/value rows kvp at those of ``keys`` [S, Lk] (-1 pads). The backward
    rule maps the upstream gradient of the output to the gradients of qp
    and kvp."""
    (n_q, d), n_kv = qp.shape, kvp.shape[0]
    q_ids, k_ids = (np.asarray(ids, dtype=np.intp) for ids in (queries, keys))
    q_pad, k_pad = q_ids < 0, k_ids < 0
    heads = (n_heads, d // n_heads)
    kv = kvp.reshape((n_kv, 2) + heads)
    q = qp.reshape((n_q,) + heads)[np.where(q_pad, 0, q_ids)]
    k, v = (kv[np.where(k_pad, 0, k_ids), j] for j in range(2))
    q[q_pad] = k[k_pad] = v[k_pad] = 0.0
    s = 1.0 / math.sqrt(d)
    scores = np.einsum("slhe,smhe->shlm", q, k, optimize=True) * s
    scores = np.where(k_pad[:, None, None, :], -np.inf, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("shlm,smhe->slhe", attn, v, optimize=True)

    def bwd(g):
        g_out = np.zeros(out.shape)
        g_out[~q_pad] += g.reshape((-1,) + heads)
        g_attn = np.einsum("slhe,smhe->shlm", g_out, v, optimize=True)
        g_v = np.einsum("slhe,shlm->smhe", g_out, attn, optimize=True)
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * s
        g_q = np.einsum("shlm,smhe->slhe", g_scores, k, optimize=True)
        g_k = np.einsum("shlm,slhe->smhe", g_scores, q, optimize=True)
        g_qp = np.zeros((n_q,) + heads)
        np.add.at(g_qp, q_ids[~q_pad], g_q[~q_pad])
        g_kv = np.zeros(kv.shape)
        np.add.at(g_kv, k_ids[~k_pad], np.stack((g_k, g_v), axis=2)[~k_pad])
        return g_qp.reshape(n_q, d), g_kv.reshape(n_kv, 2 * d)

    return out[~q_pad].reshape(-1, d), attn, bwd
