"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s or -v to see them live).

Criterion 7 needs external data and is skipped unless these environment
variables point at real files:

    OOVFORGE_CHIMERA_L2 / _L4 / _L6   raw benchmark files (one per shot), or
    OOVFORGE_CHIMERA_TSV              one normalized benchmark TSV
    OOVFORGE_EMBEDDINGS               the reference embedding table
    OOVFORGE_FIT_DIR                  prepared corpus artifacts (transform fit)
"""

import inspect
import os
import time

import numpy as np
import pytest

import synthetic_task
from episode_reference import reordered
from fd import central_diff, mul, rel_err
from finetune import finetune_step
import oov_forge.tensor as tc
from oov_forge.adaptation import AdaptConfig, adapt, maml_step, maml_update
from oov_forge.baselines import additive, alacarte_fit, alacarte_infer
from oov_forge.corpus import (EmbeddingTable, load_embeddings,
                              save_embeddings, split_words)
from oov_forge.episode import (decode_context, eligible_targets,
                               episode_stream, sample_episode)
from oov_forge.errors import FormatError
from oov_forge.evaluation import (cosine_np, evaluate_method,
                                  load_benchmark_tsv, save_benchmark_tsv,
                                  spearman)
from oov_forge.model import HiceConfig, HiceModel
from oov_forge.tensor import Graph, ParamVector, backward, constant, parameter, sum_all
from oov_forge.training import (TrainConfig, build_validation_episodes,
                                evaluate_cosine, load_checkpoint,
                                save_checkpoint, train)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

LINEAR_TASK = dict(n_topics=50, words_per_topic=40, n_sentences=50_000,
                   dim=16, seed=0)
# 600 steps sits well inside the 2000-step budget; the target cosine is
# already reached around step 250
TRAIN_CFG = dict(steps=600, batch_episodes=32, validation_every=100,
                 k_min=2, k_max=6, seed=0, patience=5)


def _report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared slow fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_setup():
    vocab, store, table, oracle, _ = synthetic_task.planted_task(**LINEAR_TASK)
    start = time.monotonic()
    model, report = train(TrainConfig(**TRAIN_CFG), vocab, store, oracle,
                          model=HiceModel.from_table(HiceConfig(embed_dim=16, seed=0), oracle))
    elapsed = time.monotonic() - start
    return vocab, store, table, oracle, model, report, elapsed


def _additive_mean_cos(episodes, vocab, input_table):
    total = 0.0
    for ep in episodes:
        ctxs = [decode_context(ids, vocab) for ids in ep.contexts]
        vec = additive(ctxs, input_table).vector
        total += cosine_np(vec, ep.oracle.astype(np.float64))
    return total / len(episodes)


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity, every op + full model, < 60 s
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """Builders for every registered op: (name, build_scalar, params). A name
    is an op of oov_forge.tensor, optionally followed by ':variant'."""
    n = rng.normal

    def c(*shape):
        return constant(n(size=shape))

    def p(*shape):
        return parameter(n(size=shape))

    x, y = p(4, 3), p(4, 3)
    b, s = p(3), p(4)
    seqs, filt2, filt3, cb2, cb3 = p(3, 5, 3), p(2, 3, 4), p(3, 3, 2), p(4), p(2)
    # an encoding block over two sequences of 2 and 4 rows, 2 heads; every
    # row is a query, or the rows of ``rows``, one of them asked twice. One
    # gain and bias serve both norms, so each gets two gradient terms.
    x6, wq, wkv, wo = p(6, 6), p(6, 6), p(6, 12), p(6, 6)
    ln_g, ln_b, w65, ffn_b1, w56, ffn_b2 = p(6), p(6), p(6, 5), p(5), p(5, 6), p(6)
    block = [wq, wkv, wo, ln_g, ln_b, w65, ffn_b1, w56, ffn_b2, ln_g, ln_b]
    k_mask = np.array([[True, True, False, False], [True, True, True, True]])
    rows = np.array([[1, -1, -1], [3, 5, 3]])
    mat = p(5, 3)
    u1, u2 = p(3, 5), p(3, 5)
    w43, w3, w23, w46, w36 = c(4, 3), c(3), c(2, 3), c(4, 6), c(3, 6)
    w233, w66 = c(2, 3, 3), c(6, 6)
    m45, m53 = p(4, 5), p(5, 3)
    w45out = c(4, 3)

    def wrap(out, w):
        return sum_all(mul(out, w))

    return [
        ("matmul", lambda: wrap(tc.matmul(m45, m53), w45out), [m45, m53]),
        ("encoding_block",
         lambda: wrap(tc.encoding_block(x6, 2, k_mask, *block), w66), [x6] + block[:9]),
        ("encoding_block:rows",
         lambda: wrap(tc.encoding_block(x6, 2, k_mask, *block, rows=rows), w46),
         [x6] + block[:9]),
        ("char_cnn",
         lambda: wrap(tc.char_cnn(seqs, [filt2, filt3], [cb2, cb3], [5, 2, 1]), w36),
         [seqs, filt2, filt3, cb2, cb3]),
        ("cosine", lambda: wrap(tc.cosine(u1, u2), w3), [u1, u2]),
        ("add", lambda: wrap(tc.add(x, y), w43), [x, y]),
        ("scale", lambda: wrap(tc.scale(x, -1.7), w43), [x]),
        ("add_bias", lambda: wrap(tc.add_bias(x, b), w43), [x, b]),
        ("scale_rows", lambda: wrap(tc.scale_rows(x, s), w43), [x, s]),
        ("sum_all", lambda: tc.sum_all(mul(x, y)), [x, y]),
        ("segment_mean", lambda: wrap(tc.segment_mean(x, [1, 3]), w23), [x]),
        ("concat_cols", lambda: wrap(tc.concat_cols([x, y]), w46), [x, y]),
        ("gather_rows",
         lambda: wrap(tc.gather_rows(mat, [[0, 4, -1], [0, 2, 4]]), w233), [mat]),
    ]


def test_criterion_1_covers_every_tensor_op():
    # an op is a public function of oov_forge.tensor that records a tape node
    ops = {name for name, fn in vars(tc).items()
           if inspect.isfunction(fn) and fn.__module__ == tc.__name__
           and not name.startswith("_") and "_record" in fn.__code__.co_names}
    cases = {name.split(":")[0] for name, _, _ in _op_cases(np.random.default_rng(0))}
    assert "encoding_block" in ops and "matmul" in ops
    assert ops - cases == set(), f"ops without a gradient case: {sorted(ops - cases)}"
    assert cases - ops == set(), f"cases for missing ops: {sorted(cases - ops)}"


def _grad_check(build, params, h=1e-5):
    for p_ in params:
        p_.grad = None
    with Graph():
        backward(build())
    analytic = [p_.grad.copy() if p_.grad is not None else np.zeros_like(p_.data)
                for p_ in params]
    for p_ in params:
        p_.grad = None
    numeric = central_diff(lambda: float(build().data),
                           [p_.data for p_ in params], h)
    flat_a = np.concatenate([a.ravel() for a in analytic])
    flat_n = np.concatenate([g.ravel() for g in numeric])
    return rel_err(flat_a, flat_n)


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    worst = {}
    for instance in range(100):
        rng = np.random.default_rng(1000 + instance)
        for name, build, params in _op_cases(rng):
            err = _grad_check(build, params)
            worst[name] = max(worst.get(name, 0.0), err)

    # full tiny-config forward pass: all parameters, sampled coordinates
    rng = np.random.default_rng(5)
    table = EmbeddingTable(dim=8, vectors={
        f"w{i:02d}": rng.normal(size=8).astype(np.float32) for i in range(20)})
    sentences = [[f"w{int(rng.integers(20)):02d}" for _ in range(6)]
                 for _ in range(30)]
    from oov_forge.corpus import SentenceStore, build_vocab
    vocab = build_vocab(sentences, min_count=1)
    store = SentenceStore.from_tokens(sentences, vocab)
    config = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3,
                        seed=1)
    model = HiceModel.from_table(config, table)
    model_worst = 0.0
    for trial in range(2):
        # a padded batch: the episodes differ in K and in word length
        batch = [sample_episode(w, k, np.random.default_rng(trial), store, table)
                 for w, k in (("w03", 2), ("w11", 3))]
        oracle = constant(np.stack([ep.oracle for ep in batch]).astype(np.float64))

        def build():
            return tc.sum_all(tc.cosine(model.predict(batch), oracle))

        model.zero_grads()
        with Graph():
            backward(build())
        pairs = []
        h = 1e-5
        pick = np.random.default_rng(50 + trial)
        for name, p_ in model.parameters():
            grad = p_.grad if p_.grad is not None else np.zeros_like(p_.data)
            flat, gflat = p_.data.ravel(), grad.ravel()
            for i in pick.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(build().data)
                flat[i] = orig - h
                fm = float(build().data)
                flat[i] = orig
                pairs.append((gflat[i], (fp - fm) / (2 * h)))
        model.zero_grads()
        model_worst = max(model_worst, rel_err(
            np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])))

    elapsed = time.monotonic() - start
    overall = max(worst.values())
    assert overall < 1e-4, f"worst op error {overall} in {worst}"
    assert model_worst < 1e-4, f"full-model error {model_worst}"
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    _report(1, f"{len(worst)} ops x 100 instances, worst {overall:.2e}; "
               f"full model {model_worst:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: permutation invariance over 200 episodes
# ---------------------------------------------------------------------------

def test_criterion_2_permutation_invariance():
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=10, words_per_topic=12, n_sentences=3000, dim=16, seed=4,
        min_count=4)
    model = HiceModel.from_table(HiceConfig(embed_dim=16, seed=2), oracle)
    stream = episode_stream(store, oracle, (2, 6), seed=8, batch=200)
    rng = np.random.default_rng(9)
    worst = 0.0
    for ep in next(stream):
        base = model.predict_vector(ep)
        ep = reordered(ep, rng.permutation(ep.k))
        worst = max(worst, float(np.abs(model.predict_vector(ep) - base).max()))
    assert worst < 1e-6, f"max deviation {worst}"
    _report(2, f"200 episodes K in 2..6, max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: two-stage update fidelity
# ---------------------------------------------------------------------------

def test_criterion_3_update_rule_fidelity():
    from test_adaptation import hand_solution, quadratic_losses

    worst = 0.0
    for theta0, a, b, alpha, beta in [(0.7, 2.0, -1.0, 0.1, 0.05),
                                      (-3.0, 1.5, 4.0, 0.3, 0.2),
                                      (5.0, 5.0, 5.0, 0.25, 0.1)]:
        for first_order in (True, False):
            params = ParamVector(1)
            theta = params.add("theta", np.array(theta0))
            loss_t, loss_n = quadratic_losses(theta, a, b)
            maml_update(params, loss_t, loss_n,
                        AdaptConfig(alpha=alpha, beta=beta,
                                    first_order=first_order))
            expected = hand_solution(theta0, a, b, alpha, beta, first_order)
            worst = max(worst, abs(float(theta.data) - expected))
    assert worst < 1e-10, f"quadratic-toy deviation {worst}"

    # alpha = 0 equals one fine-tune step on the real model
    vocab, store, table, oracle, _ = synthetic_task.planted_task(
        n_topics=5, words_per_topic=6, n_sentences=400, dim=8, seed=1,
        min_count=2)
    mc = HiceConfig(embed_dim=8, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    stream = episode_stream(store, oracle, (2, 3), seed=6, batch=3)
    batch_t = next(stream)
    batch_n = next(stream)
    m1 = HiceModel.from_table(mc, oracle)
    m2 = HiceModel.from_table(mc, oracle)
    maml_step(m1, batch_t, batch_n, AdaptConfig(alpha=0.0, beta=2e-3))
    finetune_step(m2, batch_n, 2e-3)
    reduction = max(float(np.abs(p1.data - p2.data).max())
                    for (_, p1), (_, p2) in zip(m1.parameters(), m2.parameters()))
    assert reduction < 1e-12, f"alpha=0 deviation from fine-tune step {reduction}"
    _report(3, f"quadratic toy worst {worst:.2e} (both modes); "
               f"alpha=0 reduction {reduction:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: rank-correlation oracle
# ---------------------------------------------------------------------------

def test_criterion_4_spearman_oracle():
    from test_evaluation import brute_force_spearman

    assert spearman([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == 1.0
    assert spearman([1.0, 2.0, 3.0], [9.0, 5.0, 1.0]) == -1.0

    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 15))
        if rng.random() < 0.5:  # tied regime
            a = rng.integers(0, max(2, n // 2 + 1), size=n).astype(float)
            b = rng.integers(0, max(2, n // 2 + 1), size=n).astype(float)
        else:                   # untied regime
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        worst = max(worst, abs(spearman(a, b) - brute_force_spearman(a, b)))
        checked += 1
    assert worst < 1e-12, f"worst deviation {worst}"
    _report(4, f"1000 tied/untied pairs, worst deviation {worst:.2e}; "
               "identity/reversal exact")


# ---------------------------------------------------------------------------
# criterion 5: synthetic learning vs the averaging baseline
# ---------------------------------------------------------------------------

def test_criterion_5_synthetic_learning(linear_setup):
    vocab, store, table, oracle, model, report, elapsed = linear_setup
    assert report.best_val >= 0.95, f"held-out cosine {report.best_val:.4f}"
    assert elapsed <= 600.0, f"training took {elapsed:.0f}s"
    assert report.best_step <= 2000

    words = eligible_targets(vocab, store, oracle)
    _, val_words = split_words(words)
    probes = build_validation_episodes(val_words, store, oracle,
                                       TrainConfig(**TRAIN_CFG))
    hice_cos = evaluate_cosine(model, probes)
    add_cos = _additive_mean_cos(probes, vocab, table)
    assert hice_cos >= add_cos - 0.03, \
        f"hice {hice_cos:.4f} vs additive {add_cos:.4f}"

    # nonlinear oracle rule: averaging breaks, the trained encoder does not
    vocab2, store2, table2, oracle2, _ = synthetic_task.planted_task(
        **LINEAR_TASK, nonlinear=True)
    model2, report2 = train(TrainConfig(**TRAIN_CFG), vocab2, store2, oracle2,
                            model=HiceModel.from_table(HiceConfig(embed_dim=16, seed=0), oracle2))
    words2 = eligible_targets(vocab2, store2, oracle2)
    _, val_words2 = split_words(words2)
    probes2 = build_validation_episodes(val_words2, store2, oracle2,
                                        TrainConfig(**TRAIN_CFG))
    hice_nl = evaluate_cosine(model2, probes2)
    add_nl = _additive_mean_cos(probes2, vocab2, table2)
    assert hice_nl > add_nl, f"nonlinear: hice {hice_nl:.4f} vs additive {add_nl:.4f}"
    _report(5, f"linear: hice {hice_cos:.4f} vs additive {add_cos:.4f} "
               f"(best step {report.best_step}, {elapsed:.0f}s); "
               f"nonlinear: hice {hice_nl:.4f} vs additive {add_nl:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: domain shift, meta-update vs fine-tune collapse
# ---------------------------------------------------------------------------

def test_criterion_6_domain_shift(linear_setup, tmp_path):
    vocab, store, table, oracle, model, _, _ = linear_setup
    ckpt = tmp_path / "base.hice"
    save_checkpoint(model, ckpt)

    vocab_n, store_n, _, oracle_n0, _ = synthetic_task.planted_task(
        n_topics=50, words_per_topic=40, n_sentences=8000, dim=16, seed=99)
    rot = synthetic_task.partial_rotation(16, angle=0.9, seed=1)
    oracle_n = synthetic_task.rotate_table(oracle_n0, rot)

    words_n = eligible_targets(vocab_n, store_n, oracle_n, min_count=4)
    holdout_words = words_n[::20][:60]
    adapt_words = [w for w in words_n if w not in set(holdout_words)]
    rng = np.random.default_rng(0)
    holdout = [sample_episode(w, 4, rng, store_n, oracle_n)
               for w in holdout_words]
    adapt_probe = [sample_episode(w, 4, rng, store_n, oracle_n)
                   for w in adapt_words[::20][:60]]

    before = evaluate_cosine(model, holdout)

    m_maml = load_checkpoint(ckpt)
    adapt(m_maml, AdaptConfig(alpha=1e-3, beta=1e-2, adapt_steps=150, seed=3,
                              batch_episodes=8),
          (vocab, store, oracle), (vocab_n, store_n, oracle_n))
    maml_hold = evaluate_cosine(m_maml, holdout)
    maml_gap = evaluate_cosine(m_maml, adapt_probe) - maml_hold

    m_ft = load_checkpoint(ckpt)
    ft_eps = [sample_episode(w, 4, rng, store_n, oracle_n)
              for w in adapt_words[:10]]
    for _ in range(300):
        finetune_step(m_ft, ft_eps, 1e-2)
    ft_gap = evaluate_cosine(m_ft, ft_eps) - evaluate_cosine(m_ft, holdout)

    assert maml_hold - before >= 0.05, \
        f"adapted {maml_hold:.4f} vs unadapted {before:.4f}"
    assert ft_gap >= 2 * max(maml_gap, 0.0), \
        f"fine-tune gap {ft_gap:.4f} vs meta gap {maml_gap:.4f}"
    _report(6, f"unadapted {before:.4f} -> adapted {maml_hold:.4f}; "
               f"fine-tune gap {ft_gap:.4f} vs meta gap {maml_gap:.4f}")


# ---------------------------------------------------------------------------
# criterion 7: real benchmark reproduction (contingent on external data)
# ---------------------------------------------------------------------------

TABLE_ADDITIVE = {2: 0.3627, 4: 0.3701, 6: 0.3595}


def _external_items():
    from oov_forge.evaluation import import_chimera
    tsv = os.environ.get("OOVFORGE_CHIMERA_TSV")
    if tsv and os.path.exists(tsv):
        return load_benchmark_tsv(tsv)
    items = []
    for shot in (2, 4, 6):
        path = os.environ.get(f"OOVFORGE_CHIMERA_L{shot}")
        if not path or not os.path.exists(path):
            return None
        items.extend(import_chimera(path, shot=shot))
    return items


def reproduce_benchmark(items, table, fit_dir=None):
    """Criterion 7's two arms: the additive report of ``items`` and, given a
    prepared ``fit_dir``, the report of the a la carte transform fitted on
    its corpus (None without one)."""
    report = evaluate_method(
        items, lambda w, ctxs: additive(ctxs, table).vector, table,
        method="additive")
    if fit_dir is None:
        return report, None
    from oov_forge.cli import load_prepared
    store, _ = load_prepared(fit_dir)
    rng = np.random.default_rng(0)
    pairs = []
    for w in eligible_targets(store.vocab, store, table)[:2000]:
        ep = sample_episode(w, 6, rng, store, table)
        ctxs = [decode_context(ids, ep.vocab) for ids in ep.contexts]
        res = additive(ctxs, table)
        if not res.empty:
            pairs.append((res.vector, table[w].astype(np.float64)))
    alc = alacarte_fit(pairs)
    alc_report = evaluate_method(
        items, lambda w, ctxs: alacarte_infer(ctxs, alc, table), table,
        method="alacarte")
    return report, alc_report


def test_criterion_7_real_benchmark_reproduction():
    emb_path = os.environ.get("OOVFORGE_EMBEDDINGS")
    items = _external_items()
    if not items or not emb_path or not os.path.exists(emb_path):
        pytest.skip("external benchmark data not present "
                    "(set OOVFORGE_CHIMERA_* and OOVFORGE_EMBEDDINGS)")
    fit_dir = os.environ.get("OOVFORGE_FIT_DIR")
    report, alc_report = reproduce_benchmark(
        items, load_embeddings(emb_path),
        fit_dir if fit_dir and os.path.exists(fit_dir) else None)
    for shot, expected in TABLE_ADDITIVE.items():
        got = report.mean_by_shot.get(shot)
        assert got is not None, f"no items scored at {shot}-shot"
        assert abs(got - expected) <= 0.02, \
            f"{shot}-shot additive {got:.4f} vs published {expected:.4f}"
    detail = "; ".join(f"{s}-shot {report.mean_by_shot[s]:.4f}" for s in (2, 4, 6))
    if alc_report is not None:
        for shot in (4, 6):
            assert alc_report.mean_by_shot[shot] > report.mean_by_shot[shot], \
                f"{shot}-shot ordering violated"
        detail += "; alacarte ordering holds at 4/6-shot"
    _report(7, detail)


def test_criterion_7_runs_on_a_written_stand_in(tmp_path, monkeypatch):
    # the gated test's route on files this test writes: Chimera-format raw
    # files at 2, 4 and 6 shots, a small table and a prepared fit directory
    _, store, table, _, _ = synthetic_task.planted_task(
        n_topics=4, words_per_topic=6, n_sentences=600, dim=8, seed=3, min_count=4)
    corpus_path, emb_path = tmp_path / "corpus.txt", tmp_path / "emb.txt"
    corpus_path.write_text(synthetic_task.corpus_text(store), encoding="utf-8")
    save_embeddings(table, emb_path)
    from oov_forge.cli import main
    assert main(["prepare", str(corpus_path), str(emb_path), str(tmp_path / "fit"),
                 "--min-count", "4"]) == 0
    rng = np.random.default_rng(3)
    words = table.words()
    for shot in (2, 4, 6):
        lines = []
        for i in range(5):
            t = (shot + i) % 4
            passage = " @@ ".join(
                " ".join(f"t{t:02d}w{j:02d}" for j in rng.integers(0, 6, size=3)) + " ___ ."
                for _ in range(shot))
            probes = rng.choice(words, size=5, replace=False)
            ratings = rng.permutation(5) + 0.5
            lines.append(f"NONCE{shot}_{i}\t{passage}\t{', '.join(probes)}\t"
                         f"{','.join(map(str, ratings))}\n")
        (tmp_path / f"L{shot}.txt").write_text("".join(lines), encoding="utf-8")
        monkeypatch.setenv(f"OOVFORGE_CHIMERA_L{shot}", str(tmp_path / f"L{shot}.txt"))
    monkeypatch.delenv("OOVFORGE_CHIMERA_TSV", raising=False)
    items = _external_items()
    assert sorted({item.shot for item in items}) == [2, 4, 6] and len(items) == 15

    report, alc_report = reproduce_benchmark(items, load_embeddings(emb_path),
                                             tmp_path / "fit")
    for rep in (report, alc_report):
        assert rep.failed == 0 and rep.dropped_probes == 0
        assert sorted(rep.mean_by_shot) == [2, 4, 6]
        assert all(-1.0 <= rho <= 1.0 for rho in rep.mean_by_shot.values())
    assert alc_report.method == "alacarte" and len(alc_report.items) == 15


# ---------------------------------------------------------------------------
# criterion 8: every format round-trips; corruption is typed
# ---------------------------------------------------------------------------

def test_criterion_8_format_roundtrips(tmp_path, rng):
    checks = []

    # checkpoint: float32 fixed point, byte-identical second save
    table = EmbeddingTable(dim=6, vectors={
        f"w{i}": rng.normal(size=6).astype(np.float32) for i in range(12)})
    mc = HiceConfig(embed_dim=6, n_heads=2, char_emb_dim=4, char_filters=3, seed=0)
    model = HiceModel.from_table(mc, table)
    p1, p2 = tmp_path / "a.hice", tmp_path / "b.hice"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    checks.append("checkpoint")

    # embedding table text format
    ep = tmp_path / "emb.txt"
    save_embeddings(table, ep)
    back = load_embeddings(ep)
    assert all(np.array_equal(back[w], v) for w, v in table.items())
    checks.append("embeddings")

    # benchmark TSV
    from oov_forge.evaluation import EvalItem
    items = [EvalItem("nonce", ["a nonce here", "nonce again"],
                      ["w0", "w1"], [1.5, 0.25], 2)]
    bp = tmp_path / "bench.tsv"
    save_benchmark_tsv(items, bp)
    loaded_items = load_benchmark_tsv(bp)
    assert loaded_items[0].__dict__ == items[0].__dict__
    checks.append("benchmark TSV")

    # corruption: typed errors, never crashes
    blob = p1.read_bytes()
    for cut in (4, len(blob) // 3, len(blob) - 2):
        bad = tmp_path / "cut.hice"
        bad.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
    wrong = tmp_path / "wrong.hice"
    wrong.write_bytes(b"\x04ALC1" + blob[5:])
    with pytest.raises(FormatError):
        load_checkpoint(wrong)
    badtsv = tmp_path / "bad.tsv"
    badtsv.write_text("not\tenough\tfields\n")
    with pytest.raises(FormatError):
        load_benchmark_tsv(badtsv)
    badep = tmp_path / "bademb.txt"
    badep.write_text("2 3\nfoo 1 2 3\nbar 1 2\n")
    with pytest.raises(FormatError):
        load_embeddings(badep)
    checks.append("corruption is typed")

    _report(8, ", ".join(checks))
