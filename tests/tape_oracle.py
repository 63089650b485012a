"""The generic Tensor ops of the tape, kept as the oracles of the fused nodes.

Training records one node per network call and per loss, and needs no
pointwise, reduction or shape op. The ops below are the per-op graph those
nodes replace: ``TapeTensor`` is a ``Tensor`` with them, and every node it
makes, including the fused nodes of the package when they are called on a
TapeTensor, is a TapeTensor again. ``tape(t)`` gives an existing Tensor the
ops in place, without adding a node, so the oracle's gradient order stays
that of the graph it stands for.

It also keeps the plain arithmetic that the package's kernels were first
written in, as the byte-level oracles of their faster forms:
``ORACLE_ACTIVATIONS`` (the activation table, which the per-op activations
here apply) and ``OracleAdam`` (Adam with one moment array per parameter).
"""

from __future__ import annotations

import numpy as np

from flowconformal.autodiff import Tensor

_LEAKY_SLOPE = 0.2


def _oracle_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# Activation tag -> (forward f(x), backward (g, x, y) -> g * f'(x) with y = f(x)),
# in the plain formulas; flowconformal.autodiff.ACTIVATION_TABLE must give the
# same bytes for every tag
ORACLE_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0),
             lambda g, x, y: g * (x > 0)),
    "leaky-relu": (lambda x: np.where(x > 0, x, _LEAKY_SLOPE * x),
                   lambda g, x, y: g * np.where(x > 0, 1.0, _LEAKY_SLOPE)),
    "tanh": (np.tanh,
             lambda g, x, y: g * (1.0 - y * y)),
    "sigmoid": (_oracle_sigmoid,
                lambda g, x, y: g * y * (1.0 - y)),
    "identity": (lambda x: x,
                 lambda g, x, y: g),
}


class OracleAdam:
    """Adam with one moment array per parameter, updated one parameter at a
    time by whole-array expressions: the oracle of the flat in-place
    ``flowconformal.nn.Adam``."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = list(params), lr, beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient in Adam step")
            self._m[i] = b1 * self._m[i] + (1.0 - b1) * g
            self._v[i] = b2 * self._v[i] + (1.0 - b2) * (g * g)
            m_hat = self._m[i] / c1
            v_hat = self._v[i] / c2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None


def tape(t: Tensor) -> "TapeTensor":
    """``t`` itself, with the tape ops."""
    t.__class__ = TapeTensor
    return t


def as_tensor(value) -> "TapeTensor":
    """Wrap a constant as a non-differentiable TapeTensor; give Tensors the ops."""
    if isinstance(value, Tensor):
        return tape(value)
    return TapeTensor(value)


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


class TapeTensor(Tensor):
    __slots__ = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _make(self, data, parents, backward) -> "TapeTensor":
        return tape(Tensor._make(self, data, parents, backward))

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
        forward, backward_fn = ORACLE_ACTIVATIONS[tag]
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
