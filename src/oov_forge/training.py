"""Episodic training of the context-encoder model against oracle embeddings.

The objective is the negative mean cosine similarity between predicted and
oracle vectors over a batch of episodes. Validation runs on a fixed probe
set of episodes built from held-out words; the best-validation parameters
are kept (and written to the checkpoint path when one is configured).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .container import read_container, unpack_text, write_container
from .corpus import EmbeddingTable, SentenceStore, Vocabulary, split_words
from .episode import Episode, episode_stream, eligible_targets, sample_episode
from .errors import FormatError, InputError, NumericError, TrainingError
from .evaluation import cosine_np
from .model import HiceConfig, HiceModel
from .tensor import Graph, Tensor, backward

CHECKPOINT_MAGIC = "HICE1"
GRAD_CLIP = 5.0  # global gradient-norm bound of a training step
# Adam's moment decays and denominator offset (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_episodes: int = 32
    learning_rate: float = 1e-3
    k_min: int = 2
    k_max: int = 6
    seed: int = 0
    validation_every: int = 100
    patience: int = 5
    checkpoint_path: str | None = None
    val_episodes: int = 200

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_episodes < 1:
            raise TrainingError(f"batch_episodes must be >= 1, got {self.batch_episodes}")
        if self.patience < 1:
            raise TrainingError(f"patience must be >= 1, got {self.patience}")


@dataclass
class TrainReport:
    points: list[tuple[int, float, float]] = field(default_factory=list)
    best_step: int = 0
    best_val: float = float("-inf")
    step_cosines: list[float] = field(default_factory=list)  # batch-mean per step

    def to_csv(self) -> str:
        lines = ["step,train_cos,val_cos"]
        for step, train_cos, val_cos in self.points:
            lines.append(f"{step},{train_cos!r},{val_cos!r}")
        return "\n".join(lines) + "\n"


class Adam:
    """Adam on a named parameter list, with global-norm gradient clipping."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float = 1e-3,
                 grad_clip: float = 0.0):
        self.params = params
        self.lr = lr
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params}
        self.v = {name: np.zeros_like(p.data) for name, p in params}

    def step(self) -> None:
        if self.grad_clip > 0:
            total = 0.0
            for _, p in self.params:
                if p.grad is not None:
                    total += float((p.grad * p.grad).sum())
            norm = total ** 0.5
            if norm > self.grad_clip:
                factor = self.grad_clip / norm
                for _, p in self.params:
                    if p.grad is not None:
                        p.grad *= factor
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def episode_loss(model: HiceModel, episodes: list[Episode],
                 vocab: Vocabulary | None = None) -> tuple[Tensor, float]:
    """Negative mean cosine over the batch -> (loss tensor, mean cosine)."""
    if not episodes:
        raise TrainingError("episode_loss: empty batch")
    for ep in episodes:
        if ep.oracle is None:
            raise TrainingError(f"episode for {ep.target_word!r} has no oracle")
        if not float(np.linalg.norm(ep.oracle)) > 0.0:
            raise TrainingError(f"zero-norm oracle for word {ep.target_word!r}")
    pred = model.predict(episodes, vocab)
    oracle = tc.constant(np.stack([ep.oracle for ep in episodes]).astype(np.float64))
    mean = tc.scale(tc.sum_all(tc.cosine(pred, oracle)), 1.0 / len(episodes))
    return tc.scale(mean, -1.0), float(mean.data)


def evaluate_cosine(model: HiceModel, episodes: list[Episode],
                    vocab: Vocabulary | None = None) -> float:
    """Mean cosine(predict, oracle) with no graph recording; a zero vector
    raises EvaluationError, as the tape's cosine raises NumericError."""
    preds = model.predict(episodes, vocab).data
    total = sum(cosine_np(pred, ep.oracle) for pred, ep in zip(preds, episodes))
    return total / len(episodes)


def build_validation_episodes(words: list[str], store: SentenceStore,
                              table: EmbeddingTable, config: TrainConfig) -> list[Episode]:
    """A fixed probe set: episodes cycle through the held-out words with
    shot counts cycling k_min..k_max."""
    rng = np.random.default_rng(config.seed + 1)
    episodes = []
    n = min(config.val_episodes, max(len(words), 0) * 4)
    k_span = config.k_max - config.k_min + 1
    for i in range(n):
        word = words[i % len(words)]
        k = config.k_min + (i % k_span)
        episodes.append(sample_episode(word, k, rng, store, table))
    return episodes


def train(config: TrainConfig, vocab: Vocabulary, store: SentenceStore,
          table: EmbeddingTable, model: HiceModel | None = None,
          model_config: HiceConfig | None = None) -> tuple[HiceModel, TrainReport]:
    """Run episodic training; returns the best-validation model and report."""
    if model is None:
        mc = model_config or HiceConfig(embed_dim=table.dim, seed=config.seed)
        model = HiceModel.from_table(mc, table, vocab)
    else:
        model.bind_vocab(vocab)

    words = eligible_targets(vocab, store, table)
    if len(words) < 2:
        raise TrainingError(
            f"need at least 2 eligible target words to split, have {len(words)}"
        )
    train_words, val_words = split_words(words)
    if not train_words:
        train_words, val_words = val_words, []
    if not val_words:
        # tiny corpora can hash everything into one bucket; hold out one word
        val_words = [train_words[-1]]
        train_words = train_words[:-1]
    assert not set(train_words) & set(val_words)

    report = TrainReport()
    if config.steps == 0:
        return model, report

    val_probes = build_validation_episodes(val_words, store, table, config)
    stream = episode_stream(vocab, store, table, (config.k_min, config.k_max),
                            config.seed, words=train_words)
    opt = Adam(model.parameters(), config.learning_rate, GRAD_CLIP)

    best_state: dict[str, np.ndarray] | None = None
    window_cos: list[float] = []
    misses = 0
    for step in range(1, config.steps + 1):
        batch = [next(stream) for _ in range(config.batch_episodes)]
        try:
            with Graph():
                loss, mean_cos = episode_loss(model, batch)
                backward(loss)
        except NumericError as e:
            raise TrainingError(f"divergence at step {step}: {e}") from e
        if not np.isfinite(loss.data):
            raise TrainingError(f"divergence at step {step}: non-finite loss")
        opt.step()
        model.zero_grads()
        window_cos.append(mean_cos)
        report.step_cosines.append(mean_cos)

        if step % config.validation_every == 0 or step == config.steps:
            val_cos = evaluate_cosine(model, val_probes)
            train_cos = float(np.mean(window_cos)) if window_cos else 0.0
            window_cos.clear()
            report.points.append((step, train_cos, val_cos))
            if val_cos > report.best_val:
                report.best_val = val_cos
                report.best_step = step
                best_state = {name: p.data.copy() for name, p in model.parameters()}
                misses = 0
                if config.checkpoint_path:
                    save_checkpoint(model, config.checkpoint_path,
                                    extra_config={"best_val": repr(val_cos),
                                                  "best_step": str(step)})
            else:
                misses += 1
                if misses >= config.patience:
                    break

    if best_state is not None:
        for name, p in model.parameters():
            p.data = best_state[name]
            p.grad = None
    return model, report


def save_checkpoint(model: HiceModel, path,
                    extra_config: dict[str, str] | None = None) -> None:
    config = dict(model.config.as_dict())
    config["format"] = "hice-checkpoint"
    if extra_config:
        config.update(extra_config)
    write_container(path, CHECKPOINT_MAGIC, config, model.state_arrays())


def load_checkpoint(path) -> HiceModel:
    config, arrays = read_container(path, CHECKPOINT_MAGIC)
    named = dict(arrays)
    if "frozen_rows" not in named or "frozen_words" not in named:
        raise FormatError(f"{path}: checkpoint missing frozen embedding block")
    text = unpack_text(named["frozen_words"])
    words = text.split("\n") if text else []
    if len(words) != len(named["frozen_rows"]):
        raise FormatError(f"{path}: checkpoint word list does not match frozen rows")
    try:
        model = HiceModel(HiceConfig.from_dict(config), named["frozen_rows"], words)
    except InputError as e:
        raise FormatError(f"{path}: {e}") from None
    model.load_state_arrays(named)
    return model
