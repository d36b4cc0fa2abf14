import numpy as np
import pytest

from oov_forge.baselines import (AlaCarteModel, NgramTable, additive,
                                 alacarte_fit, alacarte_infer, ngram_fit,
                                 ngram_sum, word_ngrams)
from oov_forge.corpus import EmbeddingTable
from oov_forge.episode import MASK_TOKEN
from oov_forge.errors import FormatError, OovForgeError


def table_of(vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(
        dim=dim,
        vectors={w: np.asarray(v, dtype=np.float32) for w, v in vectors.items()},
    )


# ---------------------------------------------------------------------------
# additive
# ---------------------------------------------------------------------------

def test_additive_single_contributor_is_that_vector():
    table = table_of({"car": [1.0, 2.0]})
    res = additive([["car", MASK_TOKEN, "zzz"]], table)
    assert np.allclose(res.vector, [1.0, 2.0])
    assert not res.empty


def test_additive_means_of_context_means():
    table = table_of({"a": [2.0, 0.0], "b": [0.0, 2.0], "c": [4.0, 4.0]})
    res = additive([["a", "b"], ["c"]], table)
    m1 = np.array([1.0, 1.0])
    m2 = np.array([4.0, 4.0])
    assert np.allclose(res.vector, (m1 + m2) / 2)


def test_additive_skips_empty_contexts_and_flags_total_emptiness():
    table = table_of({"a": [1.0, 0.0]})
    res = additive([["a"], ["zzz", MASK_TOKEN]], table)
    assert np.allclose(res.vector, [1.0, 0.0])  # not halved by the empty context
    assert not res.empty
    empty = additive([[MASK_TOKEN, "zzz"]], table)
    assert empty.empty and np.array_equal(empty.vector, [0.0, 0.0])


def test_additive_is_permutation_invariant_exactly():
    rngl = np.random.default_rng(0)
    words = [f"w{i}" for i in range(6)]
    table = table_of({w: rngl.normal(size=3) for w in words})
    contexts = [["w0", "w1", "w2"], ["w3", "w4"], ["w5", "w0"]]
    base = additive(contexts, table).vector
    assert np.array_equal(base, additive(contexts[::-1], table).vector)
    # tokens within one context are summed, so order there is exact too
    shuffled = [list(reversed(c)) for c in contexts]
    assert np.array_equal(base, additive(shuffled, table).vector)


def test_additive_stopword_filter_uses_strict_subset():
    table = table_of({"the": [9.0, 9.0], "car": [1.0, 0.0], "of": [5.0, 5.0]})
    contexts = [["the", "car", "of"]]
    full = additive(contexts, table)
    filtered = additive(contexts, table, drop_stopwords=True)
    assert np.allclose(full.vector, [5.0, 14.0 / 3.0])
    assert np.allclose(filtered.vector, [1.0, 0.0])


def test_additive_and_alacarte_homogeneity():
    rngl = np.random.default_rng(1)
    words = [f"w{i}" for i in range(5)]
    vecs = {w: rngl.normal(size=4) for w in words}
    contexts = [["w0", "w1"], ["w2", "w3", "w4"]]
    base = additive(contexts, table_of(vecs)).vector
    scaled_table = table_of({w: 3.0 * v for w, v in vecs.items()})
    scaled = additive(contexts, scaled_table).vector
    assert np.allclose(scaled, 3.0 * base, rtol=1e-6)
    model = AlaCarteModel(matrix=rngl.normal(size=(4, 4)))
    assert np.allclose(alacarte_infer(contexts, model, scaled_table),
                       3.0 * alacarte_infer(contexts, model, table_of(vecs)),
                       rtol=1e-6)


def test_additive_requires_a_context():
    with pytest.raises(OovForgeError):
        additive([], table_of({"a": [1.0]}))


# ---------------------------------------------------------------------------
# a la carte
# ---------------------------------------------------------------------------

def test_alacarte_identity_solution(rng):
    # additive vectors already equal the oracles on a spanning sample
    xs = rng.normal(size=(40, 5))
    pairs = [(x, x.copy()) for x in xs]
    model = alacarte_fit(pairs, ridge=1e-10)
    assert np.abs(model.matrix - np.eye(5)).max() < 1e-8


def test_alacarte_fit_beats_identity_residual(rng):
    xs = rng.normal(size=(60, 4))
    m = rng.normal(size=(4, 4))
    pairs = [(x, m @ x + 0.01 * rng.normal(size=4)) for x in xs]
    model = alacarte_fit(pairs)
    res_identity = np.linalg.norm(
        np.stack([x for x, _ in pairs]) - np.stack([y for _, y in pairs]))
    assert model.residual <= res_identity


def test_alacarte_recovers_planted_matrix(rng):
    xs = rng.normal(size=(400, 6))
    m = rng.normal(size=(6, 6))
    noise = 0.01
    pairs = [(x, m @ x + noise * rng.normal(size=6)) for x in xs]
    model = alacarte_fit(pairs, ridge=1e-8)
    assert np.abs(model.matrix - m).max() < 10 * noise


def test_alacarte_singular_without_damping(rng):
    x = rng.normal(size=4)
    pairs = [(x, x)] * 3  # rank-1 sample
    from oov_forge.errors import NumericError
    with pytest.warns(UserWarning), pytest.raises(NumericError):
        alacarte_fit(pairs, ridge=0.0)


def test_alacarte_rank_warning(rng):
    pairs = [(rng.normal(size=8), rng.normal(size=8)) for _ in range(3)]
    with pytest.warns(UserWarning, match="rank"):
        alacarte_fit(pairs)


def test_alacarte_infer_identity_equals_additive(rng):
    words = [f"w{i}" for i in range(5)]
    table = table_of({w: rng.normal(size=3) for w in words})
    contexts = [["w0", "w1"], ["w2", "w3"]]
    base = additive(contexts, table).vector
    ident = AlaCarteModel(matrix=np.eye(3))
    assert np.allclose(alacarte_infer(contexts, ident, table), base)
    zero = AlaCarteModel(matrix=np.zeros((3, 3)))
    assert np.array_equal(alacarte_infer(contexts, zero, table), np.zeros(3))


def test_alacarte_unfitted_infer_raises():
    with pytest.raises(OovForgeError):
        alacarte_infer([["a"]], AlaCarteModel(), table_of({"a": [1.0]}))


def test_alacarte_roundtrip(tmp_path, rng):
    model = alacarte_fit([(rng.normal(size=4), rng.normal(size=4))
                          for _ in range(20)])
    path = tmp_path / "model.alc"
    model.save(path)
    loaded = AlaCarteModel.load(path)
    assert np.array_equal(loaded.matrix.astype(np.float32),
                          model.matrix.astype(np.float32))
    assert loaded.samples == model.samples
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(FormatError):
        AlaCarteModel.load(path)


# ---------------------------------------------------------------------------
# n-gram sum
# ---------------------------------------------------------------------------

def test_word_ngrams_enumeration():
    # "<ab>" has length 4: 3-grams "<ab", "ab>", one 4-gram "<ab>"
    assert word_ngrams("ab") == ["<ab", "ab>", "<ab>"]


def test_ngram_sum_single_covered_trigram():
    table = NgramTable(dim=2, vectors={"<ab": np.array([1.0, -1.0])})
    res = ngram_sum("ab", table)
    assert np.array_equal(res.vector, [1.0, -1.0])
    assert res.covered == 1 and not res.empty


def test_ngram_sum_matches_bruteforce_enumeration(rng):
    vocab = {}
    for word in ("scooter", "cooter", "footer", "potato"):
        for g in word_ngrams(word):
            vocab.setdefault(g, rng.normal(size=3))
    table = NgramTable(dim=3, vectors=vocab)
    for word in ("scooter", "root", "zzz"):
        res = ngram_sum(word, table)
        marked = f"<{word}>"
        expected = np.zeros(3)
        count = 0
        for n in range(3, 7):
            for i in range(len(marked) - n + 1):
                g = marked[i:i + n]
                if g in vocab:
                    expected += vocab[g]
                    count += 1
        assert np.allclose(res.vector, expected)
        assert res.covered == count
        assert res.empty == (count == 0)


def test_ngram_sum_shares_structure_with_lookalikes(rng):
    table = NgramTable(dim=4)
    for g in word_ngrams("cooter"):
        table.vectors[g] = rng.normal(size=4)
    res = ngram_sum("scooter", table)   # shares "oote"-style grams
    assert not res.empty
    assert np.linalg.norm(res.vector) > 0


def test_ngram_fit_reconstructs_training_words(rng):
    words = ["car", "cart", "care", "bike", "bird", "band", "cord", "core"]
    table = table_of({w: rng.normal(size=6) for w in words})
    ngrams = ngram_fit(words, table, ridge=1e-6)
    for w in words:
        rec = ngram_sum(w, ngrams).vector
        target = table[w].astype(np.float64)
        cos = rec @ target / (np.linalg.norm(rec) * np.linalg.norm(target))
        assert cos > 0.95


def test_ngram_table_roundtrip(tmp_path, rng):
    words = ["car", "bike", "band"]
    table = table_of({w: rng.normal(size=3) for w in words})
    ngrams = ngram_fit(words, table)
    path = tmp_path / "grams.ngr"
    ngrams.save(path)
    loaded = NgramTable.load(path)
    assert set(loaded.vectors) == set(ngrams.vectors)
    for g in ngrams.vectors:
        assert np.array_equal(loaded.vectors[g].astype(np.float32),
                              ngrams.vectors[g].astype(np.float32))
    with pytest.raises(FormatError):
        AlaCarteModel.load(path)  # wrong magic is a typed error
