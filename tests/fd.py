"""Finite-difference gradient oracle, independent of the autodiff tape.

``central_diff`` perturbs raw arrays in place and re-runs a forward-only
closure; it never touches .grad or the graph machinery it is checking.
``mul`` is the tape op the tests weight an output with to get a scalar
loss; the model has no use for it.
"""

import numpy as np

from oov_forge.errors import ShapeError
from oov_forge.tensor import Graph, Tensor, _record, backward

H = 1e-5


def central_diff(f, arrays, h=H):
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors, recorded on the tape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _record("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def rel_err(analytic, numeric):
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


def check_grads(build, params, h=H):
    """Max relative error between tape gradients of build() and central
    differences, over every parameter. build() must return a scalar Tensor
    computed from the params' current .data."""
    for p in params:
        p.grad = None
    with Graph():
        backward(build())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    for p in params:
        p.grad = None

    def f():
        return float(build().data)

    numeric = central_diff(f, [p.data for p in params], h)
    return max(rel_err(a, n) for a, n in zip(analytic, numeric))
