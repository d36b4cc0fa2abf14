import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import episode_reference
import oov_forge.tensor as tc
from chain_reference import encoder_tail_reference, encoding_block_reference, layer_norm
from fd import mul, rel_err
from episode_reference import reordered
from oov_forge.corpus import EmbeddingTable, SentenceStore, build_vocab, contexts_of
from oov_forge.episode import (MASK_ID, MAX_LEN, MAX_WORD_LEN, MASK_TOKEN, UNK_ID,
                               char_sequence, episode_from_masked, sample_episode)
from oov_forge.errors import InputError
from oov_forge.model import (AttentionBlockParams, HiceConfig, HiceModel,
                             Segments, encoding_block)
from oov_forge.tensor import Graph, backward, constant, cosine, parameter, sum_all
from vectors import assert_on_vectors

DIM = 8


def make_table(n_words=30, dim=DIM, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        dim=dim,
        vectors={f"w{i:02d}": rng.normal(size=dim).astype(np.float32)
                 for i in range(n_words)},
    )


def make_corpus(n_sentences=40, n_words=30, seed=1):
    rng = np.random.default_rng(seed)
    sentences = [
        [f"w{int(rng.integers(n_words)):02d}" for _ in range(int(rng.integers(4, 9)))]
        for _ in range(n_sentences)
    ]
    vocab = build_vocab(sentences, min_count=1)
    return vocab, SentenceStore.from_tokens(sentences, vocab)


def make_model(table=None, vocab=None, **overrides):
    table = table or make_table()
    config = HiceConfig(embed_dim=table.dim, n_heads=2, char_emb_dim=4,
                        char_filters=3, seed=3, **overrides)
    return HiceModel.from_table(config, table, vocab), table


def episode_of(contexts, word="w03"):
    """An oracle-free episode with the given context token ids."""
    return episode_reference.episode_of(word, contexts)


def morph_features(model, *words):
    batch = model.batch([episode_of([[MASK_ID]], w) for w in words])
    return model.encode_morphology(batch)


# ---------------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------------

def fresh_block(d_model, n_heads, d_ff, rng):
    """A block of weights drawn as a fresh model draws them."""
    return AttentionBlockParams(lambda name, init, *shape: parameter(init(rng, shape)), "b",
                                d_model, n_heads, d_ff)


def head_blocks(block):
    """Per head, its (query, key, value) weights [d_model, d_head]: column
    blocks of wq, and of wkv's key half and value half."""
    d_model, n = block.d_model, block.n_heads
    cols = [slice(h * d_model // n, (h + 1) * d_model // n) for h in range(n)]
    wq, wkv = block.wq.data, block.wkv.data
    return [(wq[:, c], wkv[:, :d_model][:, c], wkv[:, d_model:][:, c]) for c in cols]


def block_tail(x, att, block):
    """The block's output for the rows x whose attention output, before wo,
    is att: the chain's tail."""
    tail = (block.ln1_g, block.ln1_b, block.w1, block.b1, block.w2, block.b2, block.ln2_g,
            block.ln2_b)
    return encoder_tail_reference(x, att @ block.wo.data, *(p.data for p in tail),
                                  np.zeros(x.shape))[0]


def test_self_attention_single_position(rng):
    block = fresh_block(6, 2, 12, rng)
    x = constant(rng.normal(size=(1, 6)))
    sink = []
    out = encoding_block(x, block, Segments([1]), sink=sink)
    assert sink[0].shape == (1, 2, 1, 1)
    assert np.allclose(sink[0], 1.0, atol=1e-12)
    values = np.concatenate([x.data @ wv for _, _, wv in head_blocks(block)], axis=1)
    assert np.allclose(out.data, block_tail(x.data, values, block), atol=1e-12)


def test_attention_weights_are_the_per_head_draws_joined(rng):
    # one draw of every head's query, key and value blocks, in head order,
    # gives the same numbers as drawing them one [d_model, d_head] at a time
    d_model, n_heads, seed = 12, 3, 17
    block = fresh_block(d_model, n_heads, 8, np.random.default_rng(seed))
    draw = np.random.default_rng(seed)
    s_in = 1.0 / math.sqrt(d_model)
    per_head = [[draw.normal(size=(d_model, d_model // n_heads)) * s_in
                 for _ in range(3)] for _ in range(n_heads)]
    assert block.wq.data.shape == (d_model, d_model)
    assert block.wkv.data.shape == (d_model, 2 * d_model)
    assert np.array_equal(block.wq.data, np.concatenate([q for q, _, _ in per_head], 1))
    assert np.array_equal(block.wkv.data, np.concatenate(
        [k for _, k, _ in per_head] + [v for _, _, v in per_head], 1))
    # the draws after the projections are unchanged too
    assert np.array_equal(block.wo.data, draw.normal(size=(d_model, d_model)) * s_in)


def test_self_attention_identical_rows_attend_uniformly(rng):
    block = fresh_block(6, 2, 12, rng)
    row = rng.normal(size=6)
    x = constant(np.stack([row, row]))
    sink = []
    encoding_block(x, block, Segments([2]), sink=sink)
    assert sink[0].shape == (1, 2, 2, 2)
    assert np.abs(sink[0] - 0.5).max() < 1e-9


def _naive_self_attention(x, block):
    """Straight-loop reimplementation of the attention formula, before wo."""
    d_model = block.d_model
    outs = []
    for wq, wk, wv in head_blocks(block):
        q = x @ wq
        k = x @ wk
        v = x @ wv
        n = x.shape[0]
        att = np.zeros((n, n))
        for i in range(n):
            scores = np.array([float(q[i] @ k[j]) for j in range(n)])
            scores /= math.sqrt(d_model)
            e = np.exp(scores - scores.max())
            att[i] = e / e.sum()
        outs.append(att @ v)
    return np.concatenate(outs, axis=1)


def test_self_attention_matches_naive_loop(rng):
    # packed sequences of different lengths attend only within themselves
    block = fresh_block(8, 4, 16, rng)
    lengths = [5, 1, 3]
    x = rng.normal(size=(sum(lengths), 8))
    seqs = Segments(lengths)
    got = encoding_block(constant(x), block, seqs).data
    for start, n in zip(seqs.starts, lengths):
        rows = slice(start, start + n)
        want = block_tail(x[rows], _naive_self_attention(x[rows], block), block)
        assert np.abs(got[rows] - want).max() < 1e-10


# ---------------------------------------------------------------------------
# encoding block
# ---------------------------------------------------------------------------

def test_encoding_block_residual_path_only(rng):
    block = fresh_block(6, 2, 12, rng)
    block.wo.data[:] = 0.0
    block.w2.data[:] = 0.0
    block.b2.data[:] = 0.0
    x = constant(rng.normal(size=(3, 6)))
    got = encoding_block(x, block, Segments([2, 1])).data
    ln1 = layer_norm(x.data, block.ln1_g.data, block.ln1_b.data)[0]
    expected = layer_norm(ln1, block.ln2_g.data, block.ln2_b.data)[0]
    assert np.abs(got - expected).max() < 1e-12


def test_encoding_block_is_position_wise(rng):
    # with attention output silenced the block acts per position, so it
    # commutes with any permutation of the rows
    block = fresh_block(6, 2, 12, rng)
    block.wo.data[:] = 0.0
    x = rng.normal(size=(4, 6))
    perm = [2, 0, 3, 1]
    direct = encoding_block(constant(x[perm]), block, Segments([4])).data
    swapped = encoding_block(constant(x), block, Segments([4])).data[perm]
    assert np.abs(direct - swapped).max() < 1e-12


def _block_and_chain(rng, d_model, n_heads, lengths, pool):
    """The output and the gradients of x and of every weight of
    ``encoding_block``, once as the model runs it and once as the op chain
    it folds (``chain_reference``); with ``pool``, one query row per
    sequence, as the last context block reads them."""
    block = fresh_block(d_model, n_heads, 4 * d_model, rng)
    seqs = Segments(lengths)
    rows = (seqs.starts + rng.integers(0, seqs.lengths))[:, None] if pool else None
    x_arr = rng.normal(size=(int(seqs.lengths.sum()), d_model))
    g = rng.normal(size=(len(lengths) if pool else len(x_arr), d_model))
    weights = [block.wq, block.wkv, block.wo, block.ln1_g, block.ln1_b, block.w1, block.b1,
               block.w2, block.b2, block.ln2_g, block.ln2_b]
    x = parameter(x_arr)
    with Graph():
        y = encoding_block(x, block, seqs, rows)
        backward(sum_all(mul(y, constant(g))))
    want, _, grads = encoding_block_reference(x_arr, n_heads, seqs.mask, rows,
                                              *(p.data for p in weights), g)
    return [y.data, x.grad] + [p.grad for p in weights], [want, *grads]


@pytest.mark.parametrize("d_model, n_heads, pool", [
    (16, 4, True),    # the d=16 context block, one pool row per context
    (16, 4, False),   # the d=16 aggregator block, every row
    (300, 4, True),   # a d=300 context block
    (16, 1, False),   # one head
])
def test_encoding_block_equals_the_chain_it_folds(rng, d_model, n_heads, pool):
    for lengths in ([1], [3, 1, 5], rng.integers(1, 13 if pool else 7, size=24 if pool else 8)):
        fused, chain = _block_and_chain(rng, d_model, n_heads, lengths, pool)
        for a, b in zip(fused, chain):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def test_encoding_block_gradients(rng):
    from fd import check_grads
    block = fresh_block(4, 2, 8, rng)
    x = parameter(rng.normal(size=(3, 4)))
    w = constant(rng.normal(size=(3, 4)))
    params = [x] + [p for p in vars(block).values() if isinstance(p, tc.Tensor)]
    seqs = Segments([2, 1])
    err = check_grads(lambda: sum_all(mul(encoding_block(x, block, seqs), w)), params)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# context encoder
# ---------------------------------------------------------------------------

def test_encode_context_unit_positional_weights_are_identity():
    model, _ = make_model()
    vocab, store = make_corpus()
    model.bind_vocab(vocab)
    ep = sample_episode("w03", 1, np.random.default_rng(0), store)
    ids = ep.contexts[0]
    batch = model.batch([ep])
    got = model.encode_context(batch).data[0]

    # manual forward without the positional weighting (a_pos is all ones)
    x = model.embed_tokens(batch)
    for block in model.ctx_blocks:
        x = encoding_block(x, block, batch.contexts)
    expected = x.data[ids.index(MASK_ID)]
    assert np.abs(got - expected).max() < 1e-12

    model.a_pos.data[:] = 2.0  # scaling now changes the encoding
    assert np.abs(model.encode_context(batch).data[0] - expected).max() > 1e-8


@st.composite
def _masked_contexts(draw, max_len=HiceConfig.max_len):
    """1-4 contexts of 1..max_len ids of ``make_corpus`` words, each with
    MASK_ID at a drawn position or, for position -1, no mask at all."""
    contexts = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, max_len))
        ids = draw(st.lists(st.integers(0, 19), min_size=n, max_size=n))
        at = draw(st.integers(-1, n - 1))
        if at >= 0:
            ids[at] = MASK_ID
        contexts.append(ids)
    return contexts


@pytest.mark.parametrize("blocks", [1, 2])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(contexts=_masked_contexts())
@example(contexts=[[MASK_ID], [1], [2, MASK_ID], [4, 5]])  # one-token, unmasked
def test_mask_pool_last_block_matches_full_block_rows(blocks, contexts):
    # the pruned last block gives the pool rows of the full block stack;
    # an unmasked context pools at position 0
    model, _ = make_model(n_context_blocks=blocks)
    vocab, _ = make_corpus()
    batch = model.batch([episode_of(contexts)], vocab)
    got = model.encode_context(batch).data

    x = model.embed_tokens(batch)
    x = tc.scale_rows(x, tc.gather_rows(model.a_pos, batch.contexts.positions))
    for block in model.ctx_blocks:
        x = encoding_block(x, block, batch.contexts)
    want = tc.gather_rows(x, batch.pool_rows).data
    assert got.shape == want.shape == (len(contexts), model.config.d_model)
    assert np.abs(got - want).max() < 1e-12


def test_encode_context_single_mask_token_is_finite():
    model, _ = make_model()
    vocab, _ = make_corpus()
    out = model.encode_context(model.batch([episode_of([[MASK_ID]])], vocab))
    assert out.data.shape == (1, model.config.d_model)
    assert np.isfinite(out.data).all()


def test_encode_context_length_contracts():
    model, _ = make_model()
    vocab, _ = make_corpus()
    with pytest.raises(InputError):
        model.batch([episode_of([[MASK_ID], []])], vocab)
    with pytest.raises(InputError):
        model.batch([episode_of([[MASK_ID] * (model.config.max_len + 1)])], vocab)
    with pytest.raises(InputError):
        model.batch([], vocab)
    with pytest.raises(InputError):  # the mask pool reads the last block
        make_model(n_context_blocks=0)


@pytest.mark.parametrize("pool", ["Mean", "mean ", "MASK", "max", "", "mask", "mean"])
def test_config_rejects_an_unknown_context_pool(pool):
    # the mask pool is the only one: the config takes no pool argument
    with pytest.raises(TypeError, match="context_pool"):
        HiceConfig(embed_dim=8, context_pool=pool)


def test_config_derives_the_episode_shape_and_widths():
    for name in ("max_len", "max_word_len", "d_model", "d_ff"):
        with pytest.raises(TypeError):
            HiceConfig(embed_dim=8, **{name: 11})
    config = HiceConfig(embed_dim=6, n_heads=4)
    assert (config.d_model, config.d_ff) == (8, 32)
    assert (config.max_len, config.max_word_len) == (MAX_LEN, MAX_WORD_LEN) == (25, 20)


@pytest.mark.parametrize("edit", [
    {"embed_dim": 0}, {"n_heads": 0}, {"n_heads": -2}, {"n_context_blocks": 0},
    {"char_emb_dim": -1}, {"char_filters": -1}, {"filter_widths": (-2, 3, 4)},
    {"n_agg_blocks": -1}, {"seed": -1},
], ids=lambda edit: "{}={}".format(*next(iter(edit.items()))))
def test_config_rejects_a_size_below_its_minimum(edit):
    with pytest.raises(InputError, match="must be >= "):
        HiceConfig(**{"embed_dim": 8, **edit})


def test_config_rejects_a_repeated_filter_width():
    # a model would hold one conv{w} pair for both, and its checkpoint two
    with pytest.raises(InputError, match="filter widths repeat"):
        HiceConfig(embed_dim=8, filter_widths=(2, 3, 2))


def test_a_model_holds_the_arrays_it_is_given():
    model, table = make_model()
    arrays = {name: p.data.copy() for name, p in model.parameters()}
    bound = HiceModel.from_arrays(model.config, table, arrays)
    # the arrays are copied into consecutive slices of one vector, in the order given
    assert [name for name, _ in bound.parameters()] == list(arrays)
    assert np.array_equal(bound.parameters().data,
                          np.concatenate([arr.ravel() for arr in arrays.values()]))
    assert all(p.data.base is bound.parameters().data and np.array_equal(p.data, arrays[name])
               for name, p in bound.parameters())
    # the bound model owns its vector: it shares no memory with the arrays' source
    assert not np.shares_memory(bound.parameters().data, model.parameters().data)
    assert bound.table is table


def test_a_fresh_model_keeps_every_parameter_on_the_vectors():
    vocab, store = make_corpus()
    table = make_table()
    model, _ = make_model(table, vocab)
    assert model.parameters().grad is None
    model.predict([episode_of([[vocab.id_of("w01"), MASK_ID]])])
    assert model.parameters().grad is None  # inference allocates no gradient vector
    words = [w for w in vocab.words if w in table and len(contexts_of(w, store))]
    rng = np.random.default_rng(0)
    assert_on_vectors(model, [sample_episode(w, 2, rng, store, table) for w in words[:3]])


def test_a_dropped_model_frees_its_vectors_at_once():
    # no reference cycle waits for the cyclic collector to free the values
    vocab, store = make_corpus()
    model, table = make_model(vocab=vocab)
    with Graph():
        backward(sum_all(model.predict([episode_of([[vocab.id_of("w01"), MASK_ID]])])))
    params = weakref.ref(model.parameters())
    assert model.parameters().grad is not None
    gc.disable()
    try:
        del model
        assert params() is None
    finally:
        gc.enable()


def test_from_table_binds_the_table_it_is_given():
    # one table object, so the model's batches reuse the row map that the
    # vocabulary keeps for the table
    model, table = make_model()
    assert model.table is table
    vocab, _ = make_corpus()
    rows = vocab.rows_in(table)
    model.batch([episode_of([[MASK_ID, 1, 2]])], vocab)
    assert vocab.rows_in(table) is rows


def test_model_shares_the_table_rows():
    model, table = make_model()
    assert np.shares_memory(model.frozen, table.matrix)
    assert not model.frozen.flags.writeable
    assert model.frozen_words == table.words()
    assert model.table.words() == table.words() and model.table.matrix is model.frozen
    # the MASK/UNK rows start at the float64 mean of the frozen rows
    mean = table.matrix.astype(np.float64).mean(axis=0)
    assert np.array_equal(model.special_embed.data, np.stack([mean, mean]))


def test_gradient_reaches_positional_weights():
    model, table = make_model()
    vocab, store = make_corpus()
    model.bind_vocab(vocab)
    ep = sample_episode("w03", 2, np.random.default_rng(0), store, table)
    with Graph():
        pred = model.predict([ep])
        backward(sum_all(cosine(pred, constant(ep.oracle[None].astype(np.float64)))))
    assert model.a_pos.grad is not None
    assert np.abs(model.a_pos.grad).max() > 0.0


# ---------------------------------------------------------------------------
# aggregator
# ---------------------------------------------------------------------------

def test_aggregate_k1_equals_block_on_single_row(rng):
    model, _ = make_model()
    v = constant(rng.normal(size=(1, model.config.d_model)))
    got = model.aggregate(v, Segments([1])).data
    x = v
    for block in model.agg_blocks:
        x = encoding_block(x, block, Segments([1]))
    assert np.abs(got - x.data).max() < 1e-12


def test_aggregate_permutation_invariant(rng):
    model, _ = make_model()
    d = model.config.d_model
    vecs = rng.normal(size=(5, d))
    shots = Segments([5])
    base = model.aggregate(constant(vecs), shots).data
    for perm in ([4, 3, 2, 1, 0], [1, 0, 3, 2, 4], [2, 4, 0, 1, 3]):
        other = model.aggregate(constant(vecs[perm]), shots).data
        assert np.abs(base - other).max() < 1e-6


def test_aggregate_duplicate_equals_singleton(rng):
    model, _ = make_model()
    v = rng.normal(size=(1, model.config.d_model))
    one = model.aggregate(constant(v), Segments([1])).data
    two = model.aggregate(constant(np.concatenate([v, v])), Segments([2])).data
    assert np.abs(one - two).max() < 1e-6


# ---------------------------------------------------------------------------
# morphology
# ---------------------------------------------------------------------------

def test_morphology_is_word_determined():
    model, _ = make_model()
    a = morph_features(model, "scooter").data
    b = morph_features(model, "scooter", "cat").data
    assert np.array_equal(a[0], b[0])


def test_morphology_distinguishes_words():
    model, _ = make_model()
    a, b = morph_features(model, "scooter", "cooter").data
    assert not np.array_equal(a, b)


def test_morphology_gradients(rng):
    from fd import check_grads
    model, _ = make_model()
    # a padded batch: "a" (3 characters) is shorter than the widest filter
    w = constant(rng.normal(size=(2, model.config.c_morph)))
    params = [model.char_embed] + [model.conv_filters[i] for i in (2, 3, 4)] \
        + [model.conv_bias[i] for i in (2, 3, 4)]
    err = check_grads(lambda: sum_all(mul(morph_features(model, "word", "a"), w)),
                      params)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def _training_episode(seed=0, k=3, **overrides):
    model, table = make_model(**overrides)
    vocab, store = make_corpus()
    model.bind_vocab(vocab)
    ep = sample_episode("w03", k, np.random.default_rng(seed), store, table)
    return model, table, vocab, store, ep


def test_predict_shape_and_finiteness_for_every_shot_count():
    model, table = make_model()
    vocab, store = make_corpus()
    model.bind_vocab(vocab)
    for k in range(1, 7):
        ep = sample_episode("w03", k, np.random.default_rng(k), store, table)
        out = model.predict_vector(ep)
        assert out.shape == (table.dim,)
        assert np.isfinite(out).all()


def test_predict_morph_flag_changes_output_only_via_morph_slot():
    model, table, vocab, store, ep = _training_episode()
    off, *_ = _training_episode(use_morph=False)
    assert all(np.array_equal(a.data, b.data)
               for (_, a), (_, b) in zip(model.parameters(), off.parameters()))
    with_morph = model.predict_vector(ep)
    without = off.predict_vector(ep)
    assert not np.array_equal(with_morph, without)
    # zero morphology slot equals fusing [agg | zeros]
    batch = off.batch([ep])
    agg = off.aggregate(off.encode_context(batch), batch.shots)
    fused = np.concatenate([agg.data[0], np.zeros(off.config.c_morph)])
    expected = fused @ off.fuse_w.data + off.fuse_b.data
    assert np.abs(without - expected).max() < 1e-12


def test_predict_permutation_invariance():
    model, table, vocab, store, ep = _training_episode(k=4)
    base = model.predict_vector(ep)
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
        ep = reordered(ep, perm)
        assert np.abs(model.predict_vector(ep) - base).max() < 1e-6


def test_predict_deterministic_across_constructions():
    a, table = make_model()
    b, _ = make_model(table=table)
    vocab, store = make_corpus()
    ep = sample_episode("w03", 3, np.random.default_rng(1), store, table)
    assert np.array_equal(a.predict_vector(ep, vocab), b.predict_vector(ep, vocab))


def test_overfit_single_episode():
    from oov_forge.training import Adam, episode_loss
    model, table, vocab, store, ep = _training_episode(seed=5, k=2)
    opt = Adam(model.parameters(), lr=5e-3)
    for _ in range(500):
        with Graph():
            loss, _ = episode_loss(model, [ep])
            backward(loss)
        opt.step()
        model.zero_grads()
    pred = model.predict_vector(ep)
    oracle = ep.oracle.astype(np.float64)
    cos = float(pred @ oracle / (np.linalg.norm(pred) * np.linalg.norm(oracle)))
    assert cos > 0.99


def test_embed_tokens_gradient_only_reaches_special_rows(rng):
    # a frozen token reads its table row exactly, MASK and UNK read the
    # learned rows, and only those learned rows take a gradient
    vocab, _ = make_corpus()
    model, table = make_model(vocab=vocab)
    model.special_embed.data[...] = rng.normal(size=(2, DIM))
    a, b = vocab.words[:2]
    batch = model.batch([episode_of([[vocab.id_of(a), MASK_ID, UNK_ID,
                                      vocab.id_of(b), MASK_ID]])])
    w = constant(rng.normal(size=(5, DIM)))
    with Graph():
        out = model.embed_tokens(batch)
        backward(sum_all(mul(out, w)))
    special = model.special_embed.data
    assert np.array_equal(out.data[[0, 3]], np.stack([table[a], table[b]]).astype(np.float64))
    assert np.array_equal(out.data[[1, 4]], special[[model.MASK_ROW] * 2])
    assert np.array_equal(out.data[2], special[model.UNK_ROW])
    assert [n for n, p in model.parameters() if p.grad is not None] == ["special_embed"]
    grad = model.special_embed.grad
    assert np.array_equal(grad[model.MASK_ROW], w.data[1] + w.data[4])
    assert np.array_equal(grad[model.UNK_ROW], w.data[2])


def test_batch_rows_equal_a_lookup_of_each_token():
    def per_token(model, episodes, vocab):
        return [model.table.index.get(vocab.words[t], -1) if t >= 0 else -1
                for ep in episodes for ids in ep.contexts for t in ids]

    vocab = build_vocab([["w01", "zz", "w05", "w29", "yy", "w00"]], min_count=1)
    small, _ = make_model(make_table(n_words=6))
    large, _ = make_model(make_table(n_words=30, seed=4))
    ids = [vocab.id_of(w) for w in vocab.words]
    episodes = [episode_of([ids + [MASK_ID, UNK_ID], [MASK_ID], [UNK_ID, MASK_ID]]),
                episode_of([ids[::-1], [vocab.id_of("zz"), MASK_ID]])]
    # one vocabulary with two tables, alternately: each keeps its own rows
    for model in (small, large, small, large):
        rows = model.batch(episodes, vocab).frozen_rows
        assert rows.tolist() == per_token(model, episodes, vocab)
    assert large.batch(episodes, vocab).frozen_rows[:6].tolist() == [1, -1, 5, 29, -1, 0]
    assert small.batch(episodes, vocab).frozen_rows[:6].tolist() == [1, -1, 5, -1, -1, 0]
    # contexts of sentinels only resolve no vocabulary at all
    sentinels = [episode_of([[MASK_ID], [UNK_ID, MASK_ID, UNK_ID]])]
    assert small.batch(sentinels).frozen_rows.tolist() == [-1] * 4
    # the transient vocabulary of an inference episode
    ep, transient = episode_from_masked("w03", [["w02", MASK_TOKEN, "qq"],
                                                [MASK_TOKEN, "w05", "w02", "w40"]])
    for model in (small, large):
        assert model.batch([ep], transient).frozen_rows.tolist() == per_token(model, [ep],
                                                                              transient)


def test_frozen_rows_never_receive_gradient():
    model, table, vocab, store, ep = _training_episode()
    frozen_before = model.frozen.copy()
    names = [name for name, _ in model.parameters()]
    assert "frozen_rows" not in names
    from oov_forge.training import Adam, episode_loss
    opt = Adam(model.parameters(), lr=0.1)
    with Graph():
        loss, _ = episode_loss(model, [ep])
        backward(loss)
    opt.step()
    assert np.array_equal(model.frozen, frozen_before)
    # the learned special rows do receive gradient and move
    assert model.special_embed.grad is not None
    assert not np.array_equal(model.special_embed.data,
                              np.stack([model.frozen.astype(np.float64).mean(0)] * 2))


def test_up_projection_when_dim_not_divisible():
    table = make_table(dim=6)  # 6 not divisible by 4 heads
    config = HiceConfig(embed_dim=6, n_heads=4, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(config, table)
    assert model.config.d_model == 8
    assert model.input_proj_w is not None
    vocab, store = make_corpus()
    ep = sample_episode("w03", 2, np.random.default_rng(0), store, table)
    out = model.predict_vector(ep, vocab)
    assert out.shape == (6,)


# ---------------------------------------------------------------------------
# tiny-config full-model gradient check
# ---------------------------------------------------------------------------

def test_full_model_gradient_check_tiny_config(rng):
    # the default, then two context blocks (a full block under a pruned one)
    for overrides in ({}, dict(n_context_blocks=2)):
        _check_full_model_gradients(rng, **overrides)


def _check_full_model_gradients(rng, **overrides):
    model, table, vocab, store, ep = _training_episode(k=2, **overrides)
    oracle = constant(ep.oracle[None].astype(np.float64))

    def build():
        return sum_all(cosine(model.predict([ep]), oracle))

    with Graph():
        backward(build())
    pairs = []
    h = 1e-5
    for name, p in model.parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.ravel()
        aflat = analytic.ravel()
        take = min(6, flat.size)
        for i in rng.choice(flat.size, size=take, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(build().data)
            flat[i] = orig - h
            fm = float(build().data)
            flat[i] = orig
            pairs.append((aflat[i], (fp - fm) / (2 * h)))
    analytic = np.array([p[0] for p in pairs])
    numeric = np.array([p[1] for p in pairs])
    assert rel_err(analytic, numeric) < 1e-4
    model.zero_grads()


def test_padded_batch_matches_episodes_one_at_a_time():
    from oov_forge.training import episode_loss
    model, table = make_model()
    vocab, store = make_corpus()
    model.bind_vocab(vocab)
    rng = np.random.default_rng(11)
    words = [w for w in vocab.words if w in table]
    episodes = [sample_episode(words[i % len(words)], 2 + i % 5, rng, store, table)
                for i in range(32)]
    three = episodes[3]                                   # a single-token context:
    episodes[3] = episode_reference.episode_of(
        three.target_word, [three.contexts[0], [MASK_ID]] + three.contexts[2:], three.oracle)
    episodes[7].char_seq = char_sequence("a")             # shorter than every filter
    episodes[8].char_seq = char_sequence("a-much-longer-word")
    assert len({len(ids) for ep in episodes for ids in ep.contexts}) > 3
    assert {ep.k for ep in episodes} == {2, 3, 4, 5, 6}

    batched = model.predict(episodes).data
    single = np.stack([model.predict([ep]).data[0] for ep in episodes])
    assert np.abs(batched - single).max() < 1e-10

    def grads(batch):
        model.zero_grads()
        with Graph():
            loss, _ = episode_loss(model, batch)
            backward(loss)
        out = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
               for name, p in model.parameters()}
        model.zero_grads()
        return out

    together = grads(episodes)
    apart = [grads([ep]) for ep in episodes]
    for name, g in together.items():
        mean_single = sum(a[name] for a in apart) / len(episodes)
        assert np.abs(g - mean_single).max() < 1e-10, name
