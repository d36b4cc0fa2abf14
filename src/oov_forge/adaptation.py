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

import numpy as np

from .corpus import EmbeddingTable, SentenceStore, Vocabulary
from .episode import Episode, eligible_targets, episode_stream
from .errors import AdaptationError
from .model import HiceModel
from .tensor import Graph, ParamVector, backward
from .training import episode_loss, layout

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
        if self.batch_episodes < 1:
            raise AdaptationError(f"batch_episodes must be >= 1, got {self.batch_episodes}")


def _grads(params: ParamVector, loss_fn) -> np.ndarray:
    """The gradient of ``loss_fn()`` as ``params.grad``, zero where a
    parameter gets none; the next call overwrites it."""
    params.zero_grads()
    with Graph():
        backward(loss_fn())
    g = params.grads()
    params.zero_grads()
    return g


def maml_update(params: ParamVector, loss_source_fn, loss_target_fn,
                cfg: AdaptConfig) -> None:
    """One two-stage update, in place on ``params.data``.

    ``loss_*_fn`` are zero-argument callables that rebuild the loss from the
    current parameter values (they are re-evaluated at perturbed points).
    """
    data = params.data
    theta = data.copy()
    if cfg.alpha:
        np.subtract(theta, cfg.alpha * _grads(params, loss_source_fn), out=data)
    g_n = _grads(params, loss_target_fn).copy()  # evaluated at theta*

    update = g_n
    if not cfg.first_order and cfg.alpha:
        v_scale = float(np.abs(g_n).max(initial=0.0))
        if v_scale != 0.0:
            eps = HVP_EPS / v_scale
            np.add(theta, eps * g_n, out=data)
            g_plus = _grads(params, loss_source_fn).copy()
            np.subtract(theta, eps * g_n, out=data)
            g_minus = _grads(params, loss_source_fn)
            update = g_n - cfg.alpha * (g_plus - g_minus) / (2.0 * eps)
    np.subtract(theta, cfg.beta * update, out=data)


def maml_step(model: HiceModel, batch_source: list[Episode],
              batch_target: list[Episode], cfg: AdaptConfig,
              vocab_source: Vocabulary | None = None,
              vocab_target: Vocabulary | None = None) -> HiceModel:
    """One meta-update from one batch per corpus (at alpha = 0, the source batch
    may be empty), each laid out once for all its loss evaluations."""
    if not batch_target or (cfg.alpha and not batch_source):
        raise AdaptationError("maml_step needs a target batch, and a source batch at alpha > 0")
    source = layout(model, batch_source, vocab_source) if cfg.alpha else None
    target = layout(model, batch_target, vocab_target)
    maml_update(
        model.parameters(),
        lambda: episode_loss(model, source)[0],
        lambda: episode_loss(model, target)[0],
        cfg,
    )
    return model


def adapt(model: HiceModel, cfg: AdaptConfig,
          source: tuple[Vocabulary, SentenceStore, EmbeddingTable] | None,
          target: tuple[Vocabulary, SentenceStore, EmbeddingTable]) -> HiceModel:
    """Run ``adapt_steps`` meta-updates against the target corpus. At alpha = 0
    nothing is drawn from the source corpus, which may then be None."""
    if cfg.alpha and source is None:
        raise AdaptationError("adaptation at alpha > 0 needs a source corpus")
    vocab_t, store_t, table_t = source or (None, None, None)
    vocab_n, store_n, table_n = target
    words_n = eligible_targets(vocab_n, store_n, table_n, cfg.target_min_count)
    if not words_n:
        raise AdaptationError(
            "no eligible adaptation words: nothing in the new corpus is both "
            f"in the table and seen more than {cfg.target_min_count} times"
        )
    if cfg.adapt_steps == 0:
        return model
    stream_t = (episode_stream(vocab_t, store_t, table_t, ADAPT_K_RANGE, cfg.seed,
                               batch=cfg.batch_episodes) if cfg.alpha else None)
    stream_n = episode_stream(vocab_n, store_n, table_n, ADAPT_K_RANGE,
                              cfg.seed + 1, batch=cfg.batch_episodes, words=words_n)
    for _ in range(cfg.adapt_steps):
        batch_n = next(stream_n)
        batch_t = next(stream_t) if cfg.alpha else []
        maml_step(model, batch_t, batch_n, cfg,
                  vocab_source=vocab_t, vocab_target=vocab_n)
    return model
