"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps an ndarray. Operations are tape nodes made by their own
modules with ``_make``: each records its parents and a closed-form backward
that passes gradients to them through ``_accum``. The MLP (``nn``), the
squared MMD (``kernels``) and the losses (``roundtrip``, ``baselines``) are
the nodes training uses. Calling ``backward()`` on a scalar result walks the
recorded graph once in reverse topological order and accumulates
d(result)/d(input) into the ``.grad`` of every tensor created with
``requires_grad=True``. Gradients sum across all uses of a tensor, so a value
feeding two branches gets both contributions. All buffers are float64 and
every op is a deterministic numpy call, so repeated runs from identical
inputs are bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVATION_TABLE", "Tensor", "as_tensor"]

_LEAKY_SLOPE = 0.2


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# Activation tag -> (forward f(x), backward (g, x, y) -> g * f'(x) with y = f(x)).
# The fused MLP node and the tests' per-op oracle both use this one table, so
# a tag means the same arithmetic, rounding included, wherever it is applied.
ACTIVATION_TABLE = {
    "relu": (lambda x: np.maximum(x, 0.0),
             lambda g, x, y: g * (x > 0)),
    "leaky-relu": (lambda x: np.where(x > 0, x, _LEAKY_SLOPE * x),
                   lambda g, x, y: g * np.where(x > 0, 1.0, _LEAKY_SLOPE)),
    "tanh": (np.tanh,
             lambda g, x, y: g * (1.0 - y * y)),
    "sigmoid": (_sigmoid,
                lambda g, x, y: g * y * (1.0 - y)),
    "identity": (lambda x: x,
                 lambda g, x, y: g),
}


def as_tensor(value) -> "Tensor":
    """Wrap a constant as a non-differentiable Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accum(self, grad: np.ndarray) -> None:
        if self.requires_grad:
            self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Seed d(self)/d(self) = 1 and propagate to all upstream tensors."""
        if self.data.shape != ():
            raise ValueError(
                f"backward() requires a scalar tensor, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
