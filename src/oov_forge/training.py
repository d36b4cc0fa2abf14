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
from .corpus import EmbeddingTable, SentenceStore, Vocabulary
from .episode import Episode, episode_stream, sample_episodes, split_targets
from .episode import sample_episode  # noqa: F401  (bench/spans.py wraps it here)
from .errors import EvaluationError, FormatError, InputError, NumericError, TrainingError
from .evaluation import cosine_np
from .model import Batch, HiceConfig, HiceModel
from .tensor import Graph, ParamVector, Tensor, backward

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
        for name in ("batch_episodes", "patience", "validation_every", "val_episodes"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.steps < 0:
            raise TrainingError(f"steps must be >= 0, got {self.steps}")
        if not 1 <= self.k_min <= self.k_max:
            raise TrainingError(f"need 1 <= k_min <= k_max, got k_min={self.k_min}, "
                                f"k_max={self.k_max}")


@dataclass
class TrainReport:
    points: list[tuple[int, float, float]] = field(default_factory=list)
    best_step: int = 0
    best_val: float = float("-inf")
    step_cosines: list[float] = field(default_factory=list)  # batch-mean per step
    grad_norms: list[float] = field(default_factory=list)    # per step, before clipping
    clip_factors: list[float] = field(default_factory=list)  # per step, 1.0 if unclipped

    def to_csv(self) -> str:
        lines = ["step,train_cos,val_cos"]
        for step, train_cos, val_cos in self.points:
            lines.append(f"{step},{train_cos!r},{val_cos!r}")
        return "\n".join(lines) + "\n"


class Adam:
    """Adam on a parameter vector, with global-norm gradient clipping. A
    parameter that has no gradient in a step is left as it is, moments and
    all."""

    def __init__(self, params: ParamVector, lr: float = 1e-3, grad_clip: float = 0.0):
        self.params = params
        self.lr = lr
        self.grad_clip = grad_clip
        self.t = 0
        self.m = np.zeros_like(params.data)
        self.v = np.zeros_like(params.data)
        self.sq = np.empty_like(params.data)  # squared gradients, for the norm

    def step(self) -> tuple[float, float]:
        """One update from the gradients in ``params.grad``; returns the
        global gradient norm and the clip factor applied (1.0 if none)."""
        runs = self.params.live_runs()
        g, sq, bounds = self.params.grad, self.sq, self.params.bounds
        for lo, hi in runs:
            np.multiply(g[lo:hi], g[lo:hi], out=sq[lo:hi])
        # the norm adds one sum per parameter, in parameter order
        total = 0.0
        for (_, p), lo, hi in zip(self.params, bounds, bounds[1:]):
            if p.grad is not None:
                total += float(sq[lo:hi].sum())
        norm, factor = total ** 0.5, 1.0
        if 0 < self.grad_clip < norm:
            factor = self.grad_clip / norm
            for lo, hi in runs:
                g[lo:hi] *= factor
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for lo, hi in runs:
            gs, m, v = g[lo:hi], self.m[lo:hi], self.v[lo:hi]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * gs
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * gs * gs
            self.params.data[lo:hi] -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
        return norm, factor


def layout(model: HiceModel, episodes: list[Episode],
           vocab: Vocabulary | None = None) -> Batch:
    """``model.batch`` of training episodes, each of which must carry an
    oracle with a nonzero norm; ``episode_loss`` takes it in their place."""
    if not episodes:
        raise TrainingError("episode_loss: empty batch")
    for ep in episodes:
        if ep.oracle is None:
            raise TrainingError(f"episode for {ep.target_word!r} has no oracle")
        if not float(np.linalg.norm(ep.oracle)) > 0.0:
            raise TrainingError(f"zero-norm oracle for word {ep.target_word!r}")
    return model.batch(episodes, vocab)


def episode_loss(model: HiceModel, episodes: list[Episode] | Batch,
                 vocab: Vocabulary | None = None) -> tuple[Tensor, float]:
    """Negative mean cosine over the batch -> (loss tensor, mean cosine).
    ``episodes`` may be their ``layout``."""
    batch = episodes if isinstance(episodes, Batch) else layout(model, episodes, vocab)
    pred = model.predict(batch)
    oracle = tc.constant(batch.oracles.astype(np.float64))
    # -1.0 / n is -(1.0 / n) exactly, so this is the negated mean to the bit
    loss = tc.scale(tc.sum_all(tc.cosine(pred, oracle)), -1.0 / len(batch.oracles))
    return loss, -float(loss.data)


def evaluate_cosine(model: HiceModel, episodes: list[Episode] | Batch,
                    vocab: Vocabulary | None = None) -> float:
    """Mean cosine(predict, oracle) with no graph recording, over episodes or
    their ``model.batch`` layout; a zero vector raises EvaluationError, as
    the tape's cosine raises NumericError."""
    batch = episodes if isinstance(episodes, Batch) else model.batch(episodes, vocab)
    if batch.oracles is None:
        raise EvaluationError("evaluate_cosine: an episode has no oracle")
    preds = model.predict(batch).data
    total = sum(cosine_np(pred, oracle) for pred, oracle in zip(preds, batch.oracles))
    return total / len(preds)


def build_validation_episodes(words: list[str], store: SentenceStore,
                              table: EmbeddingTable, config: TrainConfig) -> list[Episode]:
    """A fixed probe set: episodes cycle through the held-out words with
    shot counts cycling k_min..k_max."""
    rng = np.random.default_rng(config.seed + 1)
    n = min(config.val_episodes, len(words) * 4)
    k_span = config.k_max - config.k_min + 1
    return sample_episodes([(words[i % len(words)], config.k_min + (i % k_span))
                            for i in range(n)], rng, store, table)


def train(config: TrainConfig, vocab: Vocabulary, store: SentenceStore,
          table: EmbeddingTable, model: HiceModel | None = None
          ) -> tuple[HiceModel, TrainReport]:
    """Run episodic training of ``model``, by default a fresh model of the
    default config seeded with ``config.seed``; returns the best-validation
    model and report."""
    if model is None:
        model = HiceModel.from_table(HiceConfig(embed_dim=table.dim, seed=config.seed), table)
    model.bind_vocab(vocab)

    train_words, val_words = split_targets(vocab, store, table)
    if not (train_words and val_words):
        raise TrainingError("need at least 2 eligible target words to split, have "
                            f"{len(train_words) + len(val_words)}")

    report = TrainReport()
    if config.steps == 0:
        return model, report

    val_probes = model.batch(build_validation_episodes(val_words, store, table, config))
    stream = episode_stream(vocab, store, table, (config.k_min, config.k_max),
                            config.seed, batch=config.batch_episodes, words=train_words)
    opt = Adam(model.parameters(), config.learning_rate, GRAD_CLIP)

    best_state: np.ndarray | None = None
    window_cos: list[float] = []
    misses = 0
    for step in range(1, config.steps + 1):
        batch = next(stream)
        try:
            with Graph():
                loss, mean_cos = episode_loss(model, batch)
                backward(loss)
        except NumericError as e:
            raise TrainingError(f"divergence at step {step}: {e}") from e
        if not np.isfinite(loss.data):
            raise TrainingError(f"divergence at step {step}: non-finite loss")
        norm, factor = opt.step()
        model.zero_grads()
        report.grad_norms.append(norm)
        report.clip_factors.append(factor)
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
                best_state = model.parameters().data.copy()
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
        model.parameters().data[...] = best_state
    return model, report


def save_checkpoint(model: HiceModel, path,
                    extra_config: dict[str, str] | None = None) -> None:
    config = dict(model.config.as_dict())
    config["format"] = "hice-checkpoint"
    if extra_config:
        config.update(extra_config)
    write_container(path, CHECKPOINT_MAGIC, config, model.state_arrays())


def load_checkpoint(path) -> HiceModel:
    """The model a checkpoint holds, built from the file's arrays."""
    config, arrays = read_container(path, CHECKPOINT_MAGIC)
    named = dict(arrays)
    if "frozen_rows" not in named or "frozen_words" not in named:
        raise FormatError(f"{path}: checkpoint missing frozen embedding block")
    rows, text = named.pop("frozen_rows"), unpack_text(named.pop("frozen_words"))
    words = text.split("\n") if text else []
    if len(words) != len(rows):
        raise FormatError(f"{path}: checkpoint word list does not match frozen rows")
    try:
        return HiceModel.from_arrays(HiceConfig.from_dict(config),
                                     EmbeddingTable.from_rows(words, rows), named)
    except InputError as e:
        raise FormatError(f"{path}: {e}") from None
