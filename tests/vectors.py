"""The check that a model's parameters live in its two vectors."""

import numpy as np

from oov_forge.tensor import Graph, backward
from oov_forge.training import episode_loss


def assert_on_vectors(model, episodes):
    """Each parameter's value is its slice of the model's value vector, and
    after a backward pass over ``episodes`` each gradient is its slice of
    the gradient vector. Leaves the gradients zeroed."""
    params = model.parameters()
    spans = list(zip(params, params.bounds, params.bounds[1:]))
    assert params.bounds[-1] == params.data.size
    for (name, p), lo, hi in spans:
        assert p.data.base is params.data, name
        assert p.data.size == hi - lo and np.shares_memory(p.data, params.data[lo:hi]), name
    model.zero_grads()
    with Graph():
        backward(episode_loss(model, episodes)[0])
    assert any(p.grad is not None for _, p in params)
    for (name, p), lo, hi in spans:
        if p.grad is not None:
            assert p.grad.base is params.grad, name
            assert np.shares_memory(p.grad, params.grad[lo:hi]), name
    model.zero_grads()
