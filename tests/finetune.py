"""Plain SGD fine-tuning, the reference that ``adapt`` at alpha = 0 is checked
against: one step on target-corpus episodes, outside the meta-update."""

from oov_forge.adaptation import _grads
from oov_forge.corpus import Vocabulary
from oov_forge.episode import Episode
from oov_forge.model import HiceModel
from oov_forge.training import episode_loss


def finetune_step(model: HiceModel, batch: list[Episode], lr: float,
                  vocab: Vocabulary | None = None) -> HiceModel:
    """One plain SGD step on target-corpus episodes."""
    params = model.parameters()
    params.data -= lr * _grads(params, lambda: episode_loss(model, batch, vocab=vocab)[0])
    return model
