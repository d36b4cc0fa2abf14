from dataclasses import replace

import numpy as np
import pytest

import synthetic_task
from episode_reference import reordered
from fd import mul
from finetune import finetune_step
from oov_forge import adaptation
from oov_forge.adaptation import AdaptConfig, adapt, maml_step, maml_update
from oov_forge.corpus import EmbeddingTable
from oov_forge.episode import eligible_targets, episode_stream, sample_episode
from oov_forge.errors import AdaptationError
from oov_forge.model import HiceConfig, HiceModel
from oov_forge.tensor import ParamVector, add, constant, sum_all
from oov_forge.training import TrainConfig, evaluate_cosine, train
from vectors import assert_on_vectors


def quadratic_losses(theta, a, b):
    """L_T(x) = (x - a)^2, L_N(x) = (x - b)^2 on a scalar parameter."""
    minus_a, minus_b = constant(-np.array(a)), constant(-np.array(b))

    def loss_t():
        d = add(theta, minus_a)
        return sum_all(mul(d, d))

    def loss_n():
        d = add(theta, minus_b)
        return sum_all(mul(d, d))

    return loss_t, loss_n


def hand_solution(theta0, a, b, alpha, beta, first_order):
    theta_star = theta0 - 2 * alpha * (theta0 - a)
    if first_order:
        return theta0 - 2 * beta * (theta_star - b)
    return theta0 - 2 * beta * (1 - 2 * alpha) * (theta_star - b)


@pytest.mark.parametrize("first_order", [True, False])
@pytest.mark.parametrize("theta0,a,b,alpha,beta", [
    (0.7, 2.0, -1.0, 0.1, 0.05),
    (-3.0, 1.5, 4.0, 0.3, 0.2),
    (5.0, 5.0, 5.0, 0.25, 0.1),
    (1.0, -2.0, 3.0, 0.0, 0.5),    # alpha = 0: plain step on the target loss
    (1.0, -2.0, 3.0, 0.2, 0.0),    # beta = 0: no update at all
])
def test_maml_matches_hand_derived_quadratic(theta0, a, b, alpha, beta, first_order):
    params = ParamVector(1)
    theta = params.add("theta", np.array(theta0))
    loss_t, loss_n = quadratic_losses(theta, a, b)
    cfg = AdaptConfig(alpha=alpha, beta=beta, first_order=first_order,
                      adapt_steps=1)
    maml_update(params, loss_t, loss_n, cfg)
    expected = hand_solution(theta0, a, b, alpha, beta, first_order)
    assert abs(float(theta.data) - expected) < 1e-10


@pytest.mark.parametrize("first_order", [True, False])
def test_alpha_zero_never_evaluates_the_source_loss(first_order):
    """Plain fine-tuning (alpha = 0) costs one target gradient per update."""
    params = ParamVector(1)
    theta = params.add("theta", np.array(0.7))
    _, loss_n = quadratic_losses(theta, 2.0, -1.0)

    def loss_source():
        raise AssertionError("the source loss was evaluated at alpha = 0")

    maml_update(params, loss_source, loss_n,
                AdaptConfig(alpha=0.0, beta=0.05, first_order=first_order))
    assert float(theta.data) == pytest.approx(0.7 - 2 * 0.05 * (0.7 + 1.0), abs=1e-12)


def test_beta_zero_leaves_theta_unchanged():
    params = ParamVector(1)
    theta = params.add("theta", np.array(1.234))
    loss_t, loss_n = quadratic_losses(theta, 0.3, -0.7)
    maml_update(params, loss_t, loss_n, AdaptConfig(alpha=0.2, beta=0.0))
    assert float(theta.data) == 1.234


def test_alpha_zero_equals_finetune_step_exactly():
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=5, words_per_topic=6, n_sentences=400, dim=8, seed=1, min_count=2)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    beta = 3e-3
    stream = episode_stream(vocab, store, oracle, (2, 3), seed=9, batch=3)
    batch_t = next(stream)
    batch_n = next(stream)

    m1 = HiceModel.from_table(mc, oracle, vocab)
    maml_step(m1, batch_t, batch_n, AdaptConfig(alpha=0.0, beta=beta))
    m2 = HiceModel.from_table(mc, oracle, vocab)
    finetune_step(m2, batch_n, beta)

    for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
        assert np.abs(p1.data - p2.data).max() < 1e-12


def test_maml_step_rejects_empty_batches():
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=4, words_per_topic=5, n_sentences=200, dim=8, seed=2, min_count=2)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(mc, oracle, vocab)
    with pytest.raises(AdaptationError):
        maml_step(model, [], [], AdaptConfig())


def test_adapt_config_refuses_batches_below_one():
    for n in (0, -1):
        with pytest.raises(AdaptationError, match="batch_episodes"):
            AdaptConfig(batch_episodes=n)
    assert AdaptConfig(batch_episodes=1).batch_episodes == 1


def test_a_second_order_update_records_60_nodes(monkeypatch):
    # four gradient evaluations: the source and target losses and the two
    # source gradients of the Hessian-vector product, 15 nodes each
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=4, words_per_topic=5, n_sentences=200, dim=8, seed=2, min_count=2)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    stream = episode_stream(vocab, store, oracle, (2, 6), seed=9, batch=8)
    batch_t, batch_n = next(stream), next(stream)
    nodes, real = [], adaptation.backward

    def counting(loss):
        nodes.append(len(loss.node.graph.nodes))
        return real(loss)

    monkeypatch.setattr(adaptation, "backward", counting)
    maml_step(HiceModel.from_table(mc, oracle, vocab), batch_t, batch_n,
              AdaptConfig(alpha=1e-3, first_order=False))
    assert nodes == [15] * 4


def test_maml_step_reads_no_source_batch_at_alpha_zero():
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=4, words_per_topic=5, n_sentences=200, dim=8, seed=2, min_count=2)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    stream = episode_stream(vocab, store, oracle, (2, 3), seed=9, batch=3)
    batch_t = next(stream)
    batch_n = next(stream)
    m1 = HiceModel.from_table(mc, oracle, vocab)
    maml_step(m1, batch_t, batch_n, AdaptConfig(alpha=0.0, first_order=False))
    m2 = HiceModel.from_table(mc, oracle, vocab)
    maml_step(m2, [], batch_n, AdaptConfig(alpha=0.0, first_order=False))
    for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1.data, p2.data)
    with pytest.raises(AdaptationError, match="source batch"):
        maml_step(m2, [], batch_n, AdaptConfig(alpha=1e-3))


def _shift_setup(seed=4):
    """Source task plus a target corpus whose oracles are rotated."""
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=6, words_per_topic=8, n_sentences=800, dim=8, seed=seed,
        min_count=2)
    rot = synthetic_task.partial_rotation(8, angle=0.9, seed=seed)
    vocab_n, store_n, _, oracle_n0, _ = synthetic_task.planted_task(
        n_topics=6, words_per_topic=8, n_sentences=500, dim=8, seed=seed,
        min_count=2)
    oracle_n = synthetic_task.rotate_table(oracle_n0, rot)
    return vocab, store, oracle, vocab_n, store_n, oracle_n


def test_adapt_zero_steps_is_identity():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(mc, oracle, vocab)
    before = {n: p.data.copy() for n, p in model.parameters()}
    adapt(model, AdaptConfig(adapt_steps=0), (vocab, store, oracle),
          (vocab_n, store_n, oracle_n))
    for n, p in model.parameters():
        assert np.array_equal(p.data, before[n])


def test_adapt_requires_eligible_words():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(mc, oracle, vocab)
    empty = EmbeddingTable(dim=8)
    # an empty table has no row to read a norm from, so it gives no targets
    assert eligible_targets(vocab_n, store_n, empty, min_count=4) == []
    assert eligible_targets(vocab_n, store_n, empty) == []
    with pytest.raises(AdaptationError, match="no eligible adaptation words"):
        adapt(model, AdaptConfig(adapt_steps=1), (vocab, store, oracle),
              (vocab_n, store_n, empty))


def test_adapt_takes_no_source_corpus_at_alpha_zero():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    cfg = AdaptConfig(alpha=0.0, beta=1e-3, adapt_steps=2, seed=5)
    m1, m2 = HiceModel.from_table(mc, oracle, vocab), HiceModel.from_table(mc, oracle, vocab)
    adapt(m1, cfg, (vocab, store, oracle), (vocab_n, store_n, oracle_n))
    adapt(m2, cfg, None, (vocab_n, store_n, oracle_n))
    for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1.data, p2.data)
    with pytest.raises(AdaptationError, match="needs a source corpus"):
        adapt(m2, replace(cfg, alpha=1e-3), None, (vocab_n, store_n, oracle_n))


@pytest.mark.parametrize("first_order", [True, False])
def test_adapt_keeps_every_parameter_on_the_vectors(first_order):
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(mc, oracle, vocab)
    before = model.parameters().data.copy()
    adapt(model, AdaptConfig(alpha=1e-3, beta=1e-2, first_order=first_order,
                             adapt_steps=2, seed=3),
          (vocab, store, oracle), (vocab_n, store_n, oracle_n))
    assert not np.array_equal(model.parameters().data, before)
    rng = np.random.default_rng(0)
    probes = [sample_episode(w, 2, rng, store_n, oracle_n)
              for w in eligible_targets(vocab_n, store_n, oracle_n, min_count=4)[:3]]
    assert_on_vectors(model, probes, vocab_n)


def test_pseudo_targets_threshold():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    words = eligible_targets(vocab_n, store_n, oracle_n, min_count=4)
    assert words
    for w in words:
        assert vocab_n.counts[vocab_n.id_of(w)] > 4
        assert w in oracle_n


def test_adapt_improves_on_shifted_domain_and_keeps_invariances():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup(seed=6)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    tc_ = TrainConfig(steps=150, batch_episodes=8, validation_every=50,
                      k_min=2, k_max=4, seed=0, patience=20)
    model, _ = train(tc_, vocab, store, oracle, model=HiceModel.from_table(mc, oracle))
    frozen_before = model.frozen.copy()

    holdout_words = eligible_targets(vocab_n, store_n, oracle_n, min_count=4)[:12]
    rng = np.random.default_rng(0)
    holdout = [sample_episode(w, 3, rng, store_n, oracle_n) for w in holdout_words]
    before = evaluate_cosine(model, holdout, vocab=vocab_n)

    cfg = AdaptConfig(alpha=1e-3, beta=5e-3, adapt_steps=60, seed=1,
                      batch_episodes=8)
    adapt(model, cfg, (vocab, store, oracle), (vocab_n, store_n, oracle_n))
    after = evaluate_cosine(model, holdout, vocab=vocab_n)
    assert after > before
    assert np.array_equal(model.frozen, frozen_before)

    # architecture unchanged: permutation invariance survives adaptation
    ep = holdout[0]
    base = model.predict_vector(ep, vocab_n)
    ep = reordered(ep, range(ep.k)[::-1])
    assert np.abs(model.predict_vector(ep, vocab_n) - base).max() < 1e-6


def test_finetune_overfits_tiny_target_set():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup(seed=8)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    tc_ = TrainConfig(steps=120, batch_episodes=8, validation_every=40,
                      k_min=2, k_max=4, seed=0, patience=20)
    model, _ = train(tc_, vocab, store, oracle, model=HiceModel.from_table(mc, oracle))

    words = eligible_targets(vocab_n, store_n, oracle_n, min_count=4)
    rng = np.random.default_rng(1)
    train_eps = [sample_episode(w, 3, rng, store_n, oracle_n) for w in words[:10]]
    holdout = [sample_episode(w, 3, rng, store_n, oracle_n) for w in words[10:22]]

    for _ in range(150):
        finetune_step(model, train_eps, 5e-3, vocab=vocab_n)
    train_cos = evaluate_cosine(model, train_eps, vocab=vocab_n)
    holdout_cos = evaluate_cosine(model, holdout, vocab=vocab_n)
    assert train_cos >= holdout_cos


def test_finetune_lr_zero_is_identity():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(mc, oracle, vocab)
    before = {n: p.data.copy() for n, p in model.parameters()}
    cfg = AdaptConfig(alpha=0.0, beta=0.0, adapt_steps=5, seed=0)
    adapt(model, cfg, (vocab, store, oracle), (vocab_n, store_n, oracle_n))
    for n, p in model.parameters():
        assert np.array_equal(p.data, before[n])


def test_finetune_deterministic_replay():
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)

    def run():
        model = HiceModel.from_table(mc, oracle, vocab)
        adapt(model, AdaptConfig(alpha=0.0, beta=1e-3, adapt_steps=10, seed=5),
              (vocab, store, oracle), (vocab_n, store_n, oracle_n))
        return {n: p.data.copy() for n, p in model.parameters()}

    s1, s2 = run(), run()
    for n in s1:
        assert np.array_equal(s1[n], s2[n])


def test_adapt_at_alpha_zero_draws_no_source_episode(monkeypatch):
    vocab, store, oracle, vocab_n, store_n, oracle_n = _shift_setup()
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    drawn_from = []

    def counted_stream(vocab, store, table, k, seed, batch, words=None):
        for episodes in episode_stream(vocab, store, table, k, seed, batch, words=words):
            drawn_from.extend([store] * len(episodes))
            yield episodes

    monkeypatch.setattr(adaptation, "episode_stream", counted_stream)
    cfg = AdaptConfig(alpha=0.0, beta=1e-3, adapt_steps=3, batch_episodes=4, seed=5)
    adapt(HiceModel.from_table(mc, oracle, vocab), cfg, (vocab, store, oracle),
          (vocab_n, store_n, oracle_n))
    assert len(drawn_from) == 12 and all(s is store_n for s in drawn_from)
    drawn_from.clear()
    adapt(HiceModel.from_table(mc, oracle, vocab), replace(cfg, alpha=1e-3),
          (vocab, store, oracle), (vocab_n, store_n, oracle_n))
    assert sum(s is store for s in drawn_from) == 12
