"""Per-class roundtrip latent models and their adversarial training loop.

Each class gets four networks: a generator G mapping latent draws to the
input space, an inverse map I sending inputs back to the latent space, a
discriminator D separating real rows from generated ones, and a logistic
head h on the latent space used by a fine-tuning objective that pushes
encodings of other classes away from the latent reference distribution.

Per iteration the loop takes three kinds of Adam steps:
  (a) discriminator (possibly several): -mean log D(x) - mean log(1 - D(G(z)))
      with G's output fed in as a constant;
  (b) main, over G and I:
        w_gan   * (-mean log D(G(z)))            (non-saturating)
      + w_mmd   * unbiased squared MMD between I(x) and fresh latent draws
      + w_cycle * (mean ||x - G(I(x))|| + mean ||z - I(G(z))||);
  (c) fine-tune, over I and h: w_pred * balanced logistic loss of h(I(x))
      classifying own-class rows against sampled rows of the other classes.

The latent reference distribution is standard normal. All randomness flows
through one numpy Generator seeded from the config, so training is exactly
reproducible.

Class models never read each other and each is seeded from its label, so
``train_class_flows`` trains them in up to one process per usable CPU, this
process included, and returns the same models as training them in turn.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .autodiff import Tensor
from .datasets import OUTLIER
from .errors import ConfigError, DataError
from .kernels import KernelSpec, MEDIAN_HEURISTIC, mmd2_unbiased_graph, resolve_bandwidth
from .nn import Adam, Mlp, MlpSpec, mlp_from_dict, mlp_to_dict, to_json

__all__ = [
    "LatentSpec",
    "FlowArchitecture",
    "TrainConfig",
    "TrainTrace",
    "ClassFlowModel",
    "build_class_flow",
    "loss_forward_gan",
    "loss_latent_mmd",
    "loss_cycle",
    "loss_pred_finetune",
    "train_class_flow",
    "train_class_flows",
    "encode",
    "generate",
    "sample_latent",
    "save_class_flow",
    "load_class_flow",
]

_PROB_FLOOR = 1e-7
_MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LatentSpec:
    """Latent dimension; the reference distribution is standard normal."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"latent dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class FlowArchitecture:
    """Network shapes for one class model."""

    input_dim: int
    latent_dim: int
    gen_hidden: tuple[int, ...] = (48, 48)
    inv_hidden: tuple[int, ...] = (48, 48)
    disc_hidden: tuple[int, ...] = (48, 48)

    def __post_init__(self):
        object.__setattr__(self, "gen_hidden", tuple(int(w) for w in self.gen_hidden))
        object.__setattr__(self, "inv_hidden", tuple(int(w) for w in self.inv_hidden))
        object.__setattr__(self, "disc_hidden", tuple(int(w) for w in self.disc_hidden))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        # latent dims up to the input dim are allowed so 1-D data can use d=1
        if not 1 <= self.latent_dim <= self.input_dim:
            raise ConfigError(
                f"latent_dim must lie in [1, input_dim={self.input_dim}], got {self.latent_dim}"
            )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 128
    lr_gen: float = 1e-3
    lr_disc: float = 1e-3
    # the fine-tune step shares the inverse map with the latent-matching
    # objective; a gentler rate keeps it from dragging encodings off center
    lr_pred: float = 1e-4
    w_gan: float = 1.0
    w_mmd: float = 1.0
    w_cycle: float = 1.0
    w_pred: float = 1.0
    disc_steps: int = 1
    seed: int = 0
    bandwidth: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.disc_steps < 1:
            raise ConfigError(f"disc_steps must be >= 1, got {self.disc_steps}")
        for name in ("lr_gen", "lr_disc", "lr_pred"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        for name in ("w_gan", "w_mmd", "w_cycle", "w_pred"):
            v = getattr(self, name)
            if v < 0 or not np.isfinite(v):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive when fixed, got {self.bandwidth}")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr_gen": self.lr_gen,
            "lr_disc": self.lr_disc,
            "lr_pred": self.lr_pred,
            "w_gan": self.w_gan,
            "w_mmd": self.w_mmd,
            "w_cycle": self.w_cycle,
            "w_pred": self.w_pred,
            "disc_steps": self.disc_steps,
            "seed": self.seed,
            "bandwidth": self.bandwidth,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Build from a config mapping; an unknown key or a value of the wrong
        type is a ConfigError that names the key."""
        if not isinstance(doc, dict):
            raise ConfigError(f"train config must be a JSON object, got {doc!r}")
        kinds = {f.name: f.type for f in fields(cls)}  # "int", "float" or "float | None"
        for key, value in doc.items():
            kind = kinds.get(key)
            if kind is None:
                raise ConfigError(f"unknown train config key {key!r}; valid: {', '.join(kinds)}")
            if value is None and kind == "float | None":
                continue
            allowed = int if kind == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                want = "an integer" if kind == "int" else "a number"
                raise ConfigError(f"train config key {key!r} must be {want}, got {value!r}")
        return cls(**doc)


@dataclass
class TrainTrace:
    """Per-epoch mean losses; one entry per epoch for each tracked loss."""

    disc: list[float] = field(default_factory=list)
    gan: list[float] = field(default_factory=list)
    mmd: list[float] = field(default_factory=list)
    cycle: list[float] = field(default_factory=list)
    pred: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "disc": self.disc,
            "gan": self.gan,
            "mmd": self.mmd,
            "cycle": self.cycle,
            "pred": self.pred,
        }


@dataclass
class ClassFlowModel:
    """Trained (or loaded) per-class model bundle."""

    class_label: int
    generator: Mlp
    inverse: Mlp
    discriminator: Mlp
    head: Mlp
    latent: LatentSpec = None
    train_config: dict | None = None

    def __post_init__(self):
        if self.class_label <= 0:
            raise ConfigError(f"class_label must be positive, got {self.class_label}")
        if self.latent is None:
            self.latent = LatentSpec(self.inverse.spec.output_dim)
        d = self.latent.dim
        p = self.inverse.spec.input_dim
        if self.inverse.spec.output_dim != d:
            raise ConfigError("inverse map output dim disagrees with the latent spec")
        if self.generator.spec.input_dim != d or self.generator.spec.output_dim != p:
            raise ConfigError("generator shape disagrees with inverse map")
        if self.discriminator.spec.input_dim != p or self.discriminator.spec.output_dim != 1:
            raise ConfigError("discriminator must map inputs to one probability")
        if self.head.spec.input_dim != d or self.head.spec.output_dim != 1:
            raise ConfigError("head must map latents to one probability")

    @property
    def latent_dim(self) -> int:
        return self.latent.dim

    @property
    def input_dim(self) -> int:
        return self.inverse.spec.input_dim


def build_class_flow(arch: FlowArchitecture, class_label: int,
                     rng: np.random.Generator) -> ClassFlowModel:
    """Freshly initialized model for one class."""
    d, p = arch.latent_dim, arch.input_dim
    gen = Mlp(MlpSpec((d, *arch.gen_hidden, p),
                      ("relu",) * len(arch.gen_hidden), "identity"), rng=rng)
    inv = Mlp(MlpSpec((p, *arch.inv_hidden, d),
                      ("relu",) * len(arch.inv_hidden), "identity"), rng=rng)
    disc = Mlp(MlpSpec((p, *arch.disc_hidden, 1),
                       ("leaky-relu",) * len(arch.disc_hidden), "sigmoid"), rng=rng)
    head = Mlp(MlpSpec((d, 1), (), "sigmoid"), rng=rng)
    return ClassFlowModel(class_label, gen, inv, disc, head, LatentSpec(d))


def sample_latent(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.standard_normal((n, dim))


def encode(model: ClassFlowModel, x: np.ndarray) -> np.ndarray:
    """Latent encodings of input rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(
            f"input shape {x.shape} incompatible with model input dim {model.input_dim}"
        )
    return model.inverse.predict(x)


def generate(model: ClassFlowModel, z: np.ndarray) -> np.ndarray:
    """Input-space rows generated from latent rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != model.latent_dim:
        raise DataError(
            f"latent shape {z.shape} incompatible with model latent dim {model.latent_dim}"
        )
    return model.generator.predict(z)


# -- loss terms -----------------------------------------------------------------

def _log_prob(p: Tensor) -> Tensor:
    return p.clip(_PROB_FLOOR, 1.0 - _PROB_FLOOR).log()


def _disc_loss(model: ClassFlowModel, real_batch: np.ndarray, fake_batch: np.ndarray) -> Tensor:
    """-mean log D(x) - mean log(1 - D(fake)); generated rows enter as constants."""
    p_real = model.discriminator(Tensor(real_batch))
    p_fake = model.discriminator(Tensor(fake_batch))
    return -(_log_prob(p_real).mean()) - (_log_prob(1.0 - p_fake).mean())


def _gen_loss(model: ClassFlowModel, z_batch: np.ndarray) -> Tensor:
    """Non-saturating -mean log D(G(z)), differentiable through D into G."""
    return -(_log_prob(model.discriminator(model.generator(Tensor(z_batch)))).mean())


def loss_forward_gan(model: ClassFlowModel, real_batch: np.ndarray,
                     z_batch: np.ndarray) -> tuple[Tensor, Tensor]:
    """(discriminator loss, non-saturating generator loss) for one batch pair.

    The discriminator loss sees generated rows as constants, so its gradient
    stays inside D; the generator loss differentiates through D into G.
    """
    real_batch = np.asarray(real_batch, dtype=np.float64)
    z_batch = np.asarray(z_batch, dtype=np.float64)
    if real_batch.shape[0] == 0 or z_batch.shape[0] == 0:
        raise DataError("batches must be non-empty")
    d_loss = _disc_loss(model, real_batch, model.generator.predict(z_batch))
    return d_loss, _gen_loss(model, z_batch)


def loss_latent_mmd(model: ClassFlowModel, real_batch: np.ndarray,
                    z_sample: np.ndarray, kernel: KernelSpec) -> Tensor:
    """Unbiased squared MMD between encodings I(x) and reference draws."""
    return mmd2_unbiased_graph(model.inverse(Tensor(np.asarray(real_batch, dtype=np.float64))),
                               z_sample, kernel)


def loss_cycle(model: ClassFlowModel, real_batch: np.ndarray,
               z_batch: np.ndarray) -> Tensor:
    """mean ||x - G(I(x))|| + mean ||z - I(G(z))|| (Euclidean norms)."""
    xt = Tensor(np.asarray(real_batch, dtype=np.float64))
    zt = Tensor(np.asarray(z_batch, dtype=np.float64))
    dx = xt - model.generator(model.inverse(xt))
    dz = zt - model.inverse(model.generator(zt))
    term_x = (dx * dx).sum(axis=1).sqrt().mean()
    term_z = (dz * dz).sum(axis=1).sqrt().mean()
    return term_x + term_z


def loss_pred_finetune(model: ClassFlowModel, pos_batch: np.ndarray,
                       neg_batch: np.ndarray) -> Tensor:
    """Balanced logistic loss of h(I(x)) separating own-class rows from others."""
    pos_batch = np.asarray(pos_batch, dtype=np.float64)
    neg_batch = np.asarray(neg_batch, dtype=np.float64)
    if pos_batch.shape[0] == 0 or neg_batch.shape[0] == 0:
        raise DataError("positive and negative batches must be non-empty")
    p_pos = model.head(model.inverse(Tensor(pos_batch)))
    p_neg = model.head(model.inverse(Tensor(neg_batch)))
    return -(_log_prob(p_pos).mean()) - (_log_prob(1.0 - p_neg).mean())


def _zero(*nets: Mlp) -> None:
    for net in nets:
        net.zero_grad()


def _check_finite(value: float, term: str, epoch: int, step: int) -> float:
    if not np.isfinite(value):
        raise FloatingPointError(
            f"non-finite {term} loss ({value}) at epoch {epoch}, step {step}"
        )
    return value


# -- training loop -----------------------------------------------------------------

def train_class_flow(
    x_pos: np.ndarray,
    x_neg: np.ndarray,
    class_label: int,
    arch: FlowArchitecture,
    config: TrainConfig,
) -> tuple[ClassFlowModel, TrainTrace]:
    """Train one class model on its rows, sampling negatives from ``x_neg``.

    Minibatches are full-size only: each epoch visits floor(n / batch_size)
    batches of a fresh permutation. Negative rows are drawn per step, without
    replacement when the pool is large enough.
    """
    x_pos = np.asarray(x_pos, dtype=np.float64)
    x_neg = np.asarray(x_neg, dtype=np.float64)
    if x_pos.ndim != 2 or x_pos.shape[1] != arch.input_dim:
        raise DataError(
            f"class rows shape {x_pos.shape} incompatible with input dim {arch.input_dim}"
        )
    n = x_pos.shape[0]
    if n < 2 * config.batch_size:
        raise ConfigError(
            f"class {class_label} has {n} rows; training needs at least "
            f"2 * batch_size = {2 * config.batch_size}"
        )
    use_pred = config.w_pred > 0
    if use_pred and (x_neg.ndim != 2 or x_neg.shape[0] < 1 or x_neg.shape[1] != arch.input_dim):
        raise DataError("fine-tuning needs a non-empty pool of other-class rows")

    rng = np.random.default_rng(config.seed)
    model = build_class_flow(arch, class_label, rng)
    model.train_config = config.to_dict()
    gen, inv, disc, head = model.generator, model.inverse, model.discriminator, model.head

    opt_disc = Adam(disc.parameters(), lr=config.lr_disc)
    opt_main = Adam(gen.parameters() + inv.parameters(), lr=config.lr_gen)
    opt_pred = Adam(inv.parameters() + head.parameters(), lr=config.lr_pred)

    base_kernel = (KernelSpec(bandwidth=config.bandwidth) if config.bandwidth is not None
                   else KernelSpec(bandwidth_rule=MEDIAN_HEURISTIC))
    batch = config.batch_size
    steps = n // batch
    d = arch.latent_dim
    trace = TrainTrace()
    use_gan = config.w_gan > 0

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        first = x_pos[perm[:batch]]
        pool = np.vstack([inv.predict(first), sample_latent(rng, batch, d)])
        kernel = resolve_bandwidth(base_kernel, pool)
        sums = {"disc": 0.0, "gan": 0.0, "mmd": 0.0, "cycle": 0.0, "pred": 0.0}
        for step in range(steps):
            xb = x_pos[perm[step * batch:(step + 1) * batch]]

            if use_gan:
                for _ in range(config.disc_steps):
                    z = sample_latent(rng, batch, d)
                    d_loss = _disc_loss(model, xb, gen.predict(z))
                    sums["disc"] += _check_finite(float(d_loss.data), "discriminator",
                                                  epoch, step) / config.disc_steps
                    d_loss.backward()
                    opt_disc.step()

                gan_term = _gen_loss(model, sample_latent(rng, batch, d))
            else:
                gan_term = None

            z_ref = sample_latent(rng, batch, d)
            mmd_term = loss_latent_mmd(model, xb, z_ref, kernel)
            z_cyc = sample_latent(rng, batch, d)
            cycle_term = loss_cycle(model, xb, z_cyc)
            main = mmd_term * config.w_mmd + cycle_term * config.w_cycle
            if gan_term is not None:
                main = main + gan_term * config.w_gan
                sums["gan"] += _check_finite(float(gan_term.data), "generator", epoch, step)
            sums["mmd"] += _check_finite(float(mmd_term.data), "mmd", epoch, step)
            sums["cycle"] += _check_finite(float(cycle_term.data), "cycle", epoch, step)
            main.backward()
            opt_main.step()
            _zero(disc, head)

            if use_pred:
                replace = x_neg.shape[0] < batch
                picks = rng.choice(x_neg.shape[0], size=batch, replace=replace)
                pred_term = loss_pred_finetune(model, xb, x_neg[picks])
                sums["pred"] += _check_finite(float(pred_term.data), "fine-tune", epoch, step)
                (pred_term * config.w_pred).backward()
                opt_pred.step()
                _zero(gen, disc)

        trace.disc.append(sums["disc"] / steps)
        trace.gan.append(sums["gan"] / steps)
        trace.mmd.append(sums["mmd"] / steps)
        trace.cycle.append(sums["cycle"] / steps)
        trace.pred.append(sums["pred"] / steps)

    return model, trace


# -- every class of a labelled matrix ------------------------------------------------

# (features, labels) of the running train_class_flows, set in each pool worker
# by its initializer; a forked worker inherits the arrays without a copy
_SHARED: tuple[np.ndarray, np.ndarray] | None = None


def _share(features: np.ndarray, labels: np.ndarray) -> None:
    global _SHARED
    _SHARED = (features, labels)


def _fit_class(features, labels, label, arch, config):
    own = features[labels == label]
    other = features[(labels != label) & (labels != OUTLIER)]
    return train_class_flow(own, other, label, arch, replace(config, seed=config.seed + label))


def _fit_shared(label, arch, config):
    return _fit_class(*_SHARED, label, arch, config)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train_class_flows(
    features: np.ndarray,
    labels: np.ndarray,
    arch: FlowArchitecture,
    config: TrainConfig,
) -> list[tuple[ClassFlowModel, TrainTrace]]:
    """Train one model per class label (OUTLIER rows excluded), in label order.

    Class ``c`` trains on its own rows against the other classes' rows, with
    ``config`` reseeded to ``config.seed + c``. With k = min(usable CPUs,
    classes), process ``i mod k`` trains the i-th class: this process takes
    i = 0, k, 2k, ... and k - 1 forked workers the rest, so the models equal
    those of training the classes in turn. A failure raises like that loop
    would: the lowest failing class's error, with its type; a worker that
    dies becomes a ChildProcessError naming its class.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    classes = [int(c) for c in np.unique(labels) if c != OUTLIER]
    k = min(_usable_cpus(), len(classes))
    if k <= 1:
        return [_fit_class(features, labels, c, arch, config) for c in classes]

    # imported here: every CLI stage imports this module, and the pool
    # machinery would add ~20 ms to the start-up of the stages that never use it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork"),
                               initializer=_share, initargs=(features, labels))
    try:
        futures = {i: pool.submit(_fit_shared, c, arch, config)
                   for i, c in enumerate(classes) if i % k}
        results = [None] * len(classes)
        # this process stops at its first failing class, or before its next
        # one once a lower class has failed in a worker; of the classes below
        # the stop, the lowest failure is raised, as the serial order would
        stop, error = len(classes), None
        for i in range(0, len(classes), k):
            if any(j < i and f.done() and f.exception() is not None
                   for j, f in futures.items()):
                stop = i
                break
            try:
                results[i] = _fit_class(features, labels, classes[i], arch, config)
            except Exception as exc:
                stop, error = i, exc
                break
        for i in range(stop):
            if i not in futures:
                continue
            try:
                results[i] = futures[i].result()
            except BrokenProcessPool:
                raise ChildProcessError(
                    f"the worker process training class {classes[i]} died") from None
        if error is not None:
            raise error
    finally:
        pool.shutdown(cancel_futures=True)
    return results


# -- persistence -------------------------------------------------------------------

def save_class_flow(model: ClassFlowModel, path: str) -> None:
    doc = {
        "version": _MODEL_FORMAT_VERSION,
        "class_label": model.class_label,
        "input_dim": model.input_dim,
        "latent_dim": model.latent_dim,
        "train_config": model.train_config,
        "generator": mlp_to_dict(model.generator),
        "inverse": mlp_to_dict(model.inverse),
        "discriminator": mlp_to_dict(model.discriminator),
        "head": mlp_to_dict(model.head),
    }
    with open(path, "w") as fh:
        fh.write(to_json(doc) + "\n")


def load_class_flow(path: str) -> ClassFlowModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != _MODEL_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version {doc.get('version')!r}")
    model = ClassFlowModel(
        int(doc["class_label"]),
        mlp_from_dict(doc["generator"]),
        mlp_from_dict(doc["inverse"]),
        mlp_from_dict(doc["discriminator"]),
        mlp_from_dict(doc["head"]),
        LatentSpec(int(doc["latent_dim"])),
        doc.get("train_config"),
    )
    if model.input_dim != int(doc["input_dim"]):
        raise DataError(f"{path}: declared dimensions disagree with stored networks")
    return model
