"""Multilayer perceptrons and Adam on top of the tape engine.

Layer widths are declared end to end (input, hidden..., output); each hidden
layer gets its own activation tag and the output layer gets a final
activation. Parameters are float64 tensors initialized from a caller-supplied
numpy Generator, so identical seeds give identical networks. A network's
JSON document (``mlp_to_dict``) holds its spec and its floats as Python
floats; written by ``_table.write_json``, each is the shortest text that
reads back to the same float64, so a network round-trips exactly (the CSV
tables keep ``%.17g``). The document has no version of its own: a class
model file holds one, its inverse map, under the file's version.

``Mlp.forward`` records one tape node per call rather than one per matmul,
bias add and activation. The node runs the dense layers in plain numpy and
keeps each layer's output and nothing else: a layer's input is x or the
output before it, and the activation backward reads the output alone
(``autodiff.ACTIVATION_TABLE``), so no pre-activation outlives the forward.
Its backward walks the layers in reverse: activation derivative,
``W += h^T g``, ``b += sum(g)``, ``g <- g W^T`` (one matmul for every layer,
a one-unit layer included), and skips the last product when the input is a
constant.
Every element goes through the same numpy operations, in the same order, as
the per-layer graph would, so values and gradients are bit-identical to it.
``Adam`` keeps its moments in one flat vector and updates them in place, in
one pass over the concatenated gradients.

``Mlp.predict`` runs the layers over blocks of ``PREDICT_BLOCK`` rows and
writes each block's output into one (n, out) array, so scoring an arm holds
a few (block, width) activations, never an (n, width) one. The blocks also
fix each row's bits: OpenBLAS (SkylakeX) runs a product of more than about
1e6 multiply-adds on a blocked kernel whose bits differ from its
small-matrix kernel's at output widths 2, 3 and 9, and the small kernel
computes rows in panels of four. With blocks of 1,024 rows an output layer
of up to 9 units fed by up to 48 stays on the small kernel, so a row's bits
do not depend on how many rows share the call, except in the last n mod 4
rows. A last block of one row joins the block before it, since numpy hands a
one-row product to gemv, whose bits differ again. A training batch (128
rows) is one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ACTIVATION_TABLE, Tensor
from .errors import ConfigError

__all__ = [
    "ACTIVATIONS",
    "MlpSpec",
    "Mlp",
    "hidden_widths",
    "Adam",
    "mlp_to_dict",
    "mlp_from_dict",
]

ACTIVATIONS = tuple(ACTIVATION_TABLE)

# Adam's moment decay rates and the offset of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# rows per block of Mlp.predict, a multiple of 4 (see the module docstring)
PREDICT_BLOCK = 1024


def hidden_widths(name: str, widths) -> tuple[int, ...]:
    """The config field ``name``'s hidden layer widths as ints, each >= 1."""
    widths = tuple(int(w) for w in widths)
    if min(widths, default=1) < 1:
        raise ConfigError(f"{name} widths must be >= 1, got {list(widths)}")
    return widths


@dataclass(frozen=True)
class MlpSpec:
    """Architecture declaration: widths, per-hidden-layer activations, output activation."""

    layer_widths: tuple[int, ...]
    activations: tuple[str, ...]
    final_activation: str = "identity"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        acts = tuple(self.activations)
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "activations", acts)
        if len(widths) < 2:
            raise ValueError("layer_widths needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        n_hidden = len(widths) - 2
        if len(acts) != n_hidden:
            raise ValueError(
                f"expected {n_hidden} hidden activations for {len(widths)} widths, got {len(acts)}"
            )
        for tag in acts + (self.final_activation,):
            if tag not in ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}; valid: {ACTIVATIONS}")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


class Mlp:
    """Fully connected network; holds (W, b) tensors per layer."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator | None = None,
                 layers: list[tuple[np.ndarray, np.ndarray]] | None = None):
        self.spec = spec
        self.layers: list[tuple[Tensor, Tensor]] = []
        widths = spec.layer_widths
        if layers is not None:
            if len(layers) != len(widths) - 1:
                raise ValueError(
                    f"expected {len(widths) - 1} layers, got {len(layers)}"
                )
            for i, (w, b) in enumerate(layers):
                w = np.asarray(w, dtype=np.float64)
                b = np.asarray(b, dtype=np.float64)
                want = (widths[i], widths[i + 1])
                if w.shape != want:
                    raise ValueError(f"layer {i} weight shape {w.shape} != {want}")
                if b.shape != (widths[i + 1],):
                    raise ValueError(f"layer {i} bias shape {b.shape} != ({widths[i + 1]},)")
                self.layers.append((Tensor(w, requires_grad=True),
                                    Tensor(b, requires_grad=True)))
        else:
            if rng is None:
                raise ValueError("pass an rng to initialize weights, or explicit layers")
            for fan_in, fan_out in zip(widths[:-1], widths[1:]):
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
                b = np.zeros(fan_out)
                self.layers.append((Tensor(w, requires_grad=True),
                                    Tensor(b, requires_grad=True)))

    @classmethod
    def identity(cls, dim: int) -> "Mlp":
        """Single identity layer; handy as a fixed reference network."""
        spec = MlpSpec((dim, dim), (), "identity")
        return cls(spec, layers=[(np.eye(dim), np.zeros(dim))])

    def _layer_acts(self):
        """(W, b, (forward, backward) of the layer's activation) per layer."""
        tags = self.spec.activations + (self.spec.final_activation,)
        return [(w, b, ACTIVATION_TABLE[tag]) for (w, b), tag in zip(self.layers, tags)]

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2:
            raise ValueError(f"forward expects a (batch, features) input, got shape {x.shape}")
        if x.shape[1] != self.spec.input_dim:
            raise ValueError(f"input width {x.shape[1]} != expected {self.spec.input_dim}")

    def forward(self, x: Tensor) -> Tensor:
        """The whole network as one tape node (see the module docstring)."""
        self._check_input(x.data)
        saved = []  # (W, b, activation backward, layer input, layer output)
        h = x.data
        for w, b, (act, act_grad) in self._layer_acts():
            z = h @ w.data
            z += b.data
            y = act(z)
            saved.append((w, b, act_grad, h, y))
            h = y

        def backward(g):
            for i in range(len(saved) - 1, -1, -1):
                w, b, act_grad, h_in, y = saved[i]
                g = act_grad(g, y)
                w._accum(h_in.T @ g)
                b._accum(g.sum(axis=0))
                if i == 0 and not x.requires_grad:
                    return
                g = g @ w.data.T
            x._accum(g)

        return x._make(h, (x, *self.parameters()), backward)

    __call__ = forward

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass on raw arrays, no graph recorded, ``PREDICT_BLOCK``
        rows at a time (see the module docstring)."""
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        n = x.shape[0]
        bounds = [*range(0, n, PREDICT_BLOCK), n]
        if len(bounds) > 2 and n - bounds[-2] == 1:
            del bounds[-2]  # no one-row block: numpy would run it on gemv
        if len(bounds) <= 2:
            return self._predict_block(x)
        out = np.empty((n, self.spec.output_dim))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out[lo:hi] = self._predict_block(x[lo:hi])
        return out

    def _predict_block(self, h: np.ndarray) -> np.ndarray:
        if not np.isfinite(h).all():
            raise ValueError("tensor data must be finite")
        # one name for every layer's arrays, so each is freed as soon as the
        # next exists: at most two (block rows, width) arrays are alive at a time
        for w, b, (act, _) in self._layer_acts():
            h = h @ w.data
            h += b.data
            h = act(h)
        return h

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class Adam:
    """Bias-corrected Adam. step() applies one update and clears gradients.

    The first and second moments of all parameters live in one flat vector
    each; parameter i owns the slice ``_slices[i]``. Parameters may be shared
    with another optimizer, which keeps its own moments.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]
        size = ends[-1] if ends else 0
        self._grad = np.empty(size)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._update = np.empty(size)
        self._scratch = np.empty(size)
        # parameter i's slice of the update, in the parameter's shape
        self._updates = [self._update[sl].reshape(p.data.shape)
                         for p, sl in zip(self.params, self._slices)]

    def step(self) -> None:
        g = self._grad
        for p, sl in zip(self.params, self._slices):
            g[sl] = 0.0 if p.grad is None else p.grad.reshape(-1)
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient in Adam step")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
        # update = lr (m / c1) / (sqrt(v / c2) + eps),
        # in place, each product, sum and quotient rounded as written
        m, v, update, tmp = self._m, self._v, self._update, self._scratch
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, c1, out=update)
        update *= self.lr
        update /= tmp
        for p, delta in zip(self.params, self._updates):
            p.data = p.data - delta
            p.grad = None


# -- JSON documents ---------------------------------------------------------------

def mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "spec": {
            "layer_widths": list(mlp.spec.layer_widths),
            "activations": list(mlp.spec.activations),
            "final_activation": mlp.spec.final_activation,
        },
        "layers": [
            {"W": w.data.tolist(), "b": b.data.tolist()} for w, b in mlp.layers
        ],
    }


def mlp_from_dict(doc: dict) -> Mlp:
    spec_doc = doc["spec"]
    spec = MlpSpec(
        tuple(spec_doc["layer_widths"]),
        tuple(spec_doc["activations"]),
        spec_doc["final_activation"],
    )
    layers = [(np.asarray(layer["W"], dtype=np.float64),
               np.asarray(layer["b"], dtype=np.float64))
              for layer in doc["layers"]]
    if not all(np.isfinite(a).all() for layer in layers for a in layer):
        raise ValueError("network weights must be finite")
    return Mlp(spec, layers=layers)
