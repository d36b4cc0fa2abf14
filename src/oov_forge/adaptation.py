"""Two-stage adaptation of a trained model to a new corpus; its comparison
arm, plain fine-tuning, is the same update with alpha = 0.

One update is:

    theta*  = theta - alpha * grad L_source(theta)
    theta'  = theta - beta  * grad_theta L_target(theta*)

In first-order mode the Jacobian of the inner step is treated as identity
(gradient taken at theta*, applied to theta). In second-order mode the
update multiplies through (I - alpha * H_source(theta)), with the
Hessian-vector product computed by central differences of the source
gradient; that is exact for quadratic losses and O(eps^2) otherwise.
At alpha = 0 both source terms vanish, and no source episode is drawn.

Because true OOV words in the new corpus have no oracle vectors, the
target-side episodes are pseudo-episodes: words the new corpus shares with
the embedding table (count above a threshold) keep their table vectors as
regression targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .corpus import EmbeddingTable, SentenceStore, Vocabulary
from .episode import Episode, episode_stream
from .errors import AdaptationError
from .model import HiceModel
from .tensor import Graph, Tensor, backward
from .training import episode_loss

ADAPT_K_RANGE = (2, 6)
HVP_EPS = 1e-4  # finite-difference step of the Hessian-vector product, over max |v|


@dataclass
class AdaptConfig:
    alpha: float = 1e-3          # inner (source) learning rate
    beta: float = 1e-4           # outer (target) learning rate
    first_order: bool = True
    adapt_steps: int = 500
    target_min_count: int = 4
    seed: int = 0
    batch_episodes: int = 8

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise AdaptationError("learning rates must be non-negative")
        if self.adapt_steps < 0:
            raise AdaptationError("adapt_steps must be >= 0")


def _grads(params: list[Tensor], loss_fn) -> list[np.ndarray]:
    for p in params:
        p.zero_grad()
    with Graph():
        backward(loss_fn())
    out = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
           for p in params]
    for p in params:
        p.zero_grad()
    return out


def maml_update(params: list[Tensor], loss_source_fn, loss_target_fn,
                cfg: AdaptConfig) -> None:
    """One two-stage update, in place on ``params``.

    ``loss_*_fn`` are zero-argument callables that rebuild the loss from the
    current parameter values (they are re-evaluated at perturbed points).
    """
    theta = [p.data.copy() for p in params]
    if cfg.alpha:
        g_t = _grads(params, loss_source_fn)
        for p, th, g in zip(params, theta, g_t):
            p.data = th - cfg.alpha * g
    g_n = _grads(params, loss_target_fn)  # evaluated at theta*

    if cfg.first_order or not cfg.alpha:
        update = g_n
    else:
        v_scale = max(float(np.abs(g).max()) for g in g_n) if g_n else 0.0
        if v_scale == 0.0:
            update = g_n
        else:
            eps = HVP_EPS / v_scale
            for p, th, v in zip(params, theta, g_n):
                p.data = th + eps * v
            g_plus = _grads(params, loss_source_fn)
            for p, th, v in zip(params, theta, g_n):
                p.data = th - eps * v
            g_minus = _grads(params, loss_source_fn)
            update = [
                gn - cfg.alpha * (gp - gm) / (2.0 * eps)
                for gn, gp, gm in zip(g_n, g_plus, g_minus)
            ]

    for p, th, u in zip(params, theta, update):
        p.data = th - cfg.beta * u


def maml_step(model: HiceModel, batch_source: list[Episode],
              batch_target: list[Episode], cfg: AdaptConfig,
              vocab_source: Vocabulary | None = None,
              vocab_target: Vocabulary | None = None) -> HiceModel:
    """One meta-update from one batch per corpus (at alpha = 0, the source batch may be empty)."""
    if not batch_target or (cfg.alpha and not batch_source):
        raise AdaptationError("maml_step needs a target batch, and a source batch at alpha > 0")
    params = [p for _, p in model.parameters()]
    maml_update(
        params,
        lambda: episode_loss(model, batch_source, vocab=vocab_source)[0],
        lambda: episode_loss(model, batch_target, vocab=vocab_target)[0],
        cfg,
    )
    return model


def pseudo_targets(vocab_n: Vocabulary, store_n: SentenceStore,
                   table: EmbeddingTable, min_count: int) -> list[str]:
    """Adaptation targets: words the new corpus shares with the table, with
    count strictly above ``min_count``."""
    out = []
    for wid, word in enumerate(vocab_n.words):
        if vocab_n.counts[wid] > min_count and word in table and store_n.index.get(wid):
            out.append(word)
    return out


def adapt(model: HiceModel, cfg: AdaptConfig,
          source: tuple[Vocabulary, SentenceStore, EmbeddingTable],
          target: tuple[Vocabulary, SentenceStore, EmbeddingTable]) -> HiceModel:
    """Run ``adapt_steps`` meta-updates against the target corpus."""
    vocab_t, store_t, table_t = source
    vocab_n, store_n, table_n = target
    words_n = pseudo_targets(vocab_n, store_n, table_n, cfg.target_min_count)
    if not words_n:
        raise AdaptationError(
            "no eligible adaptation words: nothing in the new corpus is both "
            f"in the table and seen more than {cfg.target_min_count} times"
        )
    if cfg.adapt_steps == 0:
        return model
    stream_t = (episode_stream(vocab_t, store_t, table_t, ADAPT_K_RANGE, cfg.seed)
                if cfg.alpha else iter(()))
    stream_n = episode_stream(vocab_n, store_n, table_n, ADAPT_K_RANGE,
                              cfg.seed + 1, words=words_n)
    for _ in range(cfg.adapt_steps):
        batch_n = [next(stream_n) for _ in range(cfg.batch_episodes)]
        batch_t = list(islice(stream_t, cfg.batch_episodes))
        maml_step(model, batch_t, batch_n, cfg,
                  vocab_source=vocab_t, vocab_target=vocab_n)
    return model


def finetune_step(model: HiceModel, batch: list[Episode], lr: float,
                  vocab: Vocabulary | None = None) -> HiceModel:
    """One plain SGD step on target-corpus episodes."""
    params = [p for _, p in model.parameters()]
    g = _grads(params, lambda: episode_loss(model, batch, vocab=vocab)[0])
    for p, gi in zip(params, g):
        p.data = p.data - lr * gi
    return model

