"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps an ndarray and records every operation applied to it.
Calling ``backward()`` on a scalar result walks the recorded graph once in
reverse topological order and accumulates d(result)/d(input) into the
``.grad`` of every tensor created with ``requires_grad=True``. Gradients sum
across all uses of a tensor, so a value feeding two branches gets both
contributions. All buffers are float64 and every op is a deterministic numpy
call, so repeated runs from identical inputs are bit-identical.
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
# Tensor's pointwise methods and the fused MLP node both use this one table, so
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            self._accum(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(-g, other.data.shape))

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / float(other))

    def __pow__(self, exponent) -> "Tensor":
        p = float(exponent)
        out_data = self.data ** p

        def backward(g):
            self._accum(g * p * self.data ** (p - 1.0))

        return self._make(out_data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-D operands, got {self.data.shape} @ {other.data.shape}"
            )
        if self.data.shape[1] != other.data.shape[0]:
            raise ValueError(
                f"matmul inner dimensions differ: {self.data.shape} @ {other.data.shape}"
            )
        out_data = self.data @ other.data

        def backward(g):
            self._accum(g @ other.data.T)
            other._accum(self.data.T @ g)

        return self._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- shape ops ----------------------------------------------------------

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ValueError(f"transpose expects a 2-D tensor, got shape {self.data.shape}")

        def backward(g):
            self._accum(g.T)

        return self._make(self.data.T, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            self._accum(g.reshape(orig))

        return self._make(out_data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.data.shape

        def backward(g):
            if axis is None:
                self._accum(np.broadcast_to(g, in_shape).astype(np.float64))
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, in_shape).astype(np.float64))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- pointwise nonlinearities ---------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            self._accum(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        if np.any(self.data <= 0):
            raise ValueError("log requires strictly positive inputs")
        out_data = np.log(self.data)

        def backward(g):
            self._accum(g / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        if np.any(self.data < 0):
            raise ValueError("sqrt requires non-negative inputs")
        out_data = np.sqrt(self.data)

        def backward(g):
            # subgradient 0 at exactly 0 keeps cycle losses finite on perfect roundtrips
            denom = 2.0 * out_data
            self._accum(np.where(denom > 0, g / np.where(denom > 0, denom, 1.0), 0.0))

        return self._make(out_data, (self,), backward)

    def _activation(self, tag: str) -> "Tensor":
        forward, backward_fn = ACTIVATION_TABLE[tag]
        out_data = forward(self.data)

        def backward(g):
            self._accum(backward_fn(g, self.data, out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        return self._activation("relu")

    def leaky_relu(self) -> "Tensor":
        return self._activation("leaky-relu")

    def tanh(self) -> "Tensor":
        return self._activation("tanh")

    def sigmoid(self) -> "Tensor":
        return self._activation("sigmoid")

    def clip(self, low: float, high: float) -> "Tensor":
        if not low < high:
            raise ValueError(f"clip bounds must satisfy low < high, got [{low}, {high}]")
        out_data = np.clip(self.data, low, high)
        passthrough = (self.data >= low) & (self.data <= high)

        def backward(g):
            self._accum(g * passthrough)

        return self._make(out_data, (self,), backward)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
