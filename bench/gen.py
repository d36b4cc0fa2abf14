"""Seeded input generator for the benchmark workloads.

Writes the files the program ingests (corpus text, embedding tables in the
text format, a benchmark TSV and, for eval-d300, a seeded HICE1 checkpoint)
into an output directory. The same seed always produces the same bytes.

    python3 bench/gen.py --workload train-planted --seed 1 --out DIR

Words are grouped into planted topics: a sentence draws its words from one
topic, a word's vector is its topic centre plus noise, and the planted-task
oracle of a word is the mean vector of its topic.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

# train-planted: the acceptance planted task plus a criterion-6 shaped
# target corpus for adaptation
TRAIN_TOPICS, TRAIN_WORDS_PER_TOPIC, TRAIN_DIM = 50, 40, 16
TRAIN_SENTENCES, TARGET_SENTENCES = 50_000, 8_000
TRAIN_SENTENCE_LEN = (8, 12)
TARGET_ROTATION = 0.9

# eval-d300 and artifact-io: a 20k x 300 table (500 topics x 40 words)
BIG_TOPICS, BIG_WORDS_PER_TOPIC, BIG_DIM = 500, 40, 300
EVAL_SENTENCES = 24_000
EVAL_SENTENCE_LEN = (10, 20)
EVAL_ITEMS_PER_SHOT = 100
EVAL_SHOTS = (2, 4, 6)
EVAL_PROBES = 6

NOISE = 0.35


def word_name(topic: int, j: int, n_topics: int) -> str:
    return f"t{topic:0{len(str(n_topics - 1))}d}w{j:02d}"


def planted_vectors(rng, n_topics, words_per_topic, dim):
    """-> (words, vectors float64 [n_topics * words_per_topic, dim])."""
    centers = rng.normal(size=(n_topics, dim))
    noise = NOISE * rng.normal(size=(n_topics, words_per_topic, dim))
    vectors = (centers[:, None, :] + noise).reshape(-1, dim)
    words = [word_name(t, j, n_topics)
             for t in range(n_topics) for j in range(words_per_topic)]
    return words, vectors


def topic_means(vectors, words_per_topic):
    """Each word's oracle: the mean of its topic's vectors."""
    dim = vectors.shape[1]
    means = vectors.reshape(-1, words_per_topic, dim).mean(axis=1)
    return np.repeat(means, words_per_topic, axis=0)


def partial_rotation(rng, dim, angle):
    """Orthogonal map rotating random coordinate pairs by ``angle``."""
    perm = rng.permutation(dim)
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, dim - 1, 2):
        a, b = perm[i], perm[i + 1]
        g = np.eye(dim)
        g[a, a] = g[b, b] = c
        g[a, b], g[b, a] = -s, s
        rot = g @ rot
    return rot


def write_table(path, words, matrix) -> np.ndarray:
    """Text table; 9 significant digits parse back to the same float32.
    Returns the float32 matrix the program will load."""
    m32 = np.asarray(matrix, dtype=np.float32)
    fmt = "%s" + " %.9g" * m32.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {m32.shape[1]}\n")
        for word, row in zip(words, m32.tolist()):
            fh.write(fmt % (word, *row))
    return m32


def topic_sentences(rng, n, n_topics, words_per_topic, words, length):
    lo, hi = length
    topics = rng.integers(0, n_topics, size=n)
    lengths = rng.integers(lo, hi + 1, size=n)
    members = rng.integers(0, words_per_topic, size=int(lengths.sum()))
    out, pos = [], 0
    for t, n_tok in zip(topics.tolist(), lengths.tolist()):
        base = t * words_per_topic
        out.append(" ".join(words[base + j] for j in members[pos:pos + n_tok].tolist()))
        pos += n_tok
    return out


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cosine(u, v) -> float:
    """Same arithmetic as the evaluator's cosine, so ranks agree exactly."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    return float(np.clip(float(u @ v) / (nu * nv), -1.0, 1.0))


def gen_train_planted(out, rng) -> None:
    n_t, n_w, dim = TRAIN_TOPICS, TRAIN_WORDS_PER_TOPIC, TRAIN_DIM
    words, vectors = planted_vectors(rng, n_t, n_w, dim)
    write_table(os.path.join(out, "table.txt"), words, topic_means(vectors, n_w))
    write_lines(os.path.join(out, "corpus.txt"),
                topic_sentences(rng, TRAIN_SENTENCES, n_t, n_w, words,
                                TRAIN_SENTENCE_LEN))
    # criterion-6 shape: fresh topics, rotated oracles, same word strings
    _, target_vectors = planted_vectors(rng, n_t, n_w, dim)
    rot = partial_rotation(rng, dim, TARGET_ROTATION)
    target_oracle = topic_means(target_vectors, n_w) @ rot.T
    write_table(os.path.join(out, "target_table.txt"), words, target_oracle)
    write_lines(os.path.join(out, "target_corpus.txt"),
                topic_sentences(rng, TARGET_SENTENCES, n_t, n_w, words,
                                TRAIN_SENTENCE_LEN))


def big_table(out, rng):
    words, vectors = planted_vectors(rng, BIG_TOPICS, BIG_WORDS_PER_TOPIC, BIG_DIM)
    return words, write_table(os.path.join(out, "table.txt"), words, vectors)


def eval_items(rng, words, m32):
    """Chimera-shaped items: equal numbers at each shot, 6 probes each.

    The pseudo-word is a table word and the ratings are the table cosines,
    so the oracle method must score rho = 1 on every item. Two probes share
    the word's topic and the rest come from distinct other topics."""
    n_w = BIG_WORDS_PER_TOPIC
    lines = []
    for shot in EVAL_SHOTS:
        for _ in range(EVAL_ITEMS_PER_SHOT):
            idx = int(rng.integers(0, len(words)))
            topic, first = idx // n_w, idx - idx % n_w
            mates = np.delete(np.arange(first, first + n_w), idx % n_w)
            far = (topic + 1 + rng.choice(BIG_TOPICS - 1, size=EVAL_PROBES - 2,
                                          replace=False)) % BIG_TOPICS
            rows = [*rng.choice(mates, size=2, replace=False).tolist(),
                    *(far * n_w + rng.integers(0, n_w, size=len(far))).tolist()]
            contexts = [_insert(rng, ctx, words[idx]) for ctx in
                        topic_sentences(rng, shot, 1, n_w, words[first:first + n_w],
                                        EVAL_SENTENCE_LEN)]
            u = m32[idx].astype(np.float64)
            human = [cosine(u, m32[r]) for r in rows]
            lines.append("\t".join([words[idx], str(shot), "|||".join(contexts),
                                    ",".join(words[r] for r in rows),
                                    ",".join(repr(h) for h in human)]))
    return lines


def _insert(rng, sentence, word) -> str:
    toks = sentence.split()
    toks.insert(int(rng.integers(0, len(toks) + 1)), word)
    return " ".join(toks)


def gen_eval_d300(out, rng) -> None:
    from oov_forge.model import HiceConfig, HiceModel
    from oov_forge.training import save_checkpoint

    words, m32 = big_table(out, rng)
    write_lines(os.path.join(out, "corpus.txt"),
                topic_sentences(rng, EVAL_SENTENCES, BIG_TOPICS,
                                BIG_WORDS_PER_TOPIC, words, EVAL_SENTENCE_LEN))
    write_lines(os.path.join(out, "items.tsv"), eval_items(rng, words, m32))
    seed = int(rng.integers(0, 2**31))
    model = HiceModel(HiceConfig(embed_dim=BIG_DIM, seed=seed), m32, words)
    save_checkpoint(model, os.path.join(out, "hice.hice"))


def gen_artifact_io(out, rng) -> None:
    big_table(out, rng)


GENERATORS = {
    "train-planted": gen_train_planted,
    "eval-d300": gen_eval_d300,
    "artifact-io": gen_artifact_io,
}


def generate(workload: str, seed: int, out) -> None:
    os.makedirs(out, exist_ok=True)
    GENERATORS[workload](out, np.random.default_rng([seed, len(workload)]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
