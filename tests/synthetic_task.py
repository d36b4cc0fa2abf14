"""Planted-task generators shared by the trainer, adaptation, and
acceptance tests.

Words are grouped into topics; a sentence draws its words from one topic.
Each word's input vector is its topic center plus noise, and its oracle is
the exact mean of its topic's input vectors, so averaging the context
vectors is the Bayes predictor for the linear task. The nonlinear variant
pushes that mean through a fixed random rotation + ReLU, which averaging
cannot represent.
"""

import numpy as np

from oov_forge.corpus import EmbeddingTable, SentenceStore, build_vocab


def planted_task(n_topics=50, words_per_topic=40, n_sentences=50_000, dim=16,
                 seed=0, noise=0.35, sentence_len=(8, 12), nonlinear=False,
                 min_count=16):
    """-> (vocab, store, input_table, oracle_table, topic_of_word)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_topics, dim))
    words, vectors, topic_of = [], [], {}
    for t in range(n_topics):
        for j in range(words_per_topic):
            w = f"t{t:02d}w{j:02d}"
            words.append(w)
            vectors.append(centers[t] + noise * rng.normal(size=dim))
            topic_of[w] = t
    vectors = np.asarray(vectors)
    input_table = EmbeddingTable(
        dim=dim,
        vectors={w: vectors[i].astype(np.float32) for i, w in enumerate(words)},
        source="<planted>",
    )

    topic_means = np.stack([
        vectors[t * words_per_topic:(t + 1) * words_per_topic].mean(axis=0)
        for t in range(n_topics)
    ])
    oracles = topic_means
    if nonlinear:
        rot = _random_rotation(dim, rng)
        oracles = np.maximum(topic_means @ rot.T, 0.0) + 0.05
    oracle_table = EmbeddingTable(
        dim=dim,
        vectors={w: oracles[topic_of[w]].astype(np.float32) for w in words},
        source="<planted-oracle>",
    )

    sentences = []
    lo, hi = sentence_len
    for _ in range(n_sentences):
        t = int(rng.integers(n_topics))
        length = int(rng.integers(lo, hi + 1))
        members = rng.integers(0, words_per_topic, size=length)
        sentences.append([f"t{t:02d}w{j:02d}" for j in members])

    vocab = build_vocab(sentences, min_count=min_count)
    store = SentenceStore.from_tokens(sentences, vocab)
    return vocab, store, input_table, oracle_table, topic_of


def _random_rotation(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def partial_rotation(dim, angle, seed=0):
    """Orthogonal map rotating random coordinate pairs by ``angle``."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dim)
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, dim - 1, 2):
        a, b = perm[i], perm[i + 1]
        g = np.eye(dim)
        g[a, a] = c
        g[b, b] = c
        g[a, b] = -s
        g[b, a] = s
        rot = g @ rot
    return rot


def rotate_table(table: EmbeddingTable, rot) -> EmbeddingTable:
    return EmbeddingTable(
        dim=table.dim, source=table.source + "<rotated>",
        vectors={w: (rot @ v.astype(np.float64)).astype(np.float32)
                 for w, v in table.items()})


def sentences_of(store: SentenceStore) -> list[list[int]]:
    """The store's sentences as lists of vocabulary ids."""
    tokens, offsets = store.tokens.tolist(), store.offsets.tolist()
    return [tokens[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def corpus_text(store: SentenceStore) -> str:
    """Render a store back to one-sentence-per-line text (CLI fixtures)."""
    vocab = store.vocab
    lines = [" ".join(vocab.word_of(t) for t in sent) for sent in sentences_of(store)]
    return "\n".join(lines) + "\n"
