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

Each loss is one tape node whose closed-form backward makes the numpy calls
of the Tensor-op graph it replaces, in the same order, so a training step
records about 20 nodes (one per network call and one per loss) and its
results are bit-identical to that graph's.

Class models never read each other and each is seeded from its label, so
``train_class_flows`` trains each class in its own process, this process
included, up to four processes per usable CPU, and returns the same models
as training them in turn. Every process reads the one labelled matrix, which
forked workers inherit without a copy; a class copies its own rows and draws
its negatives by index into that matrix, so no process holds a copy of the
other classes' rows.

``save_class_flow`` writes a class's label, training config and inverse map,
the one network a score needs, as one JSON document through
``_table.write_json``: each float is the shortest text that reads back to
the same float64 (the CSV tables keep ``%.17g``), so ``load_class_flow``
returns a bit-identical inverse map.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._table import read_json, write_json
from .autodiff import Tensor
from .config import FlowArchitecture, TrainConfig
from .datasets import OUTLIER, sorted_labels
from .errors import ConfigError, DataError
from .kernels import KernelSpec, mmd2_unbiased_graph, resolve_bandwidth
from .nn import Adam, Mlp, MlpSpec, mlp_from_dict, mlp_to_dict

__all__ = [
    "FlowArchitecture",
    "TrainConfig",
    "TrainTrace",
    "ClassFlowModel",
    "SavedClassFlow",
    "build_class_flow",
    "loss_forward_gan",
    "loss_latent_mmd",
    "loss_cycle",
    "loss_pred_finetune",
    "train_class_flow",
    "train_class_flows",
    "encode",
    "sample_latent",
    "save_class_flow",
    "load_class_flow",
]

_PROB_FLOOR = 1e-7
_MODEL_FORMAT_VERSION = 2


@dataclass
class TrainTrace:
    """Per-epoch mean losses; one entry per epoch for each tracked loss."""

    disc: list[float] = field(default_factory=list)
    gan: list[float] = field(default_factory=list)
    mmd: list[float] = field(default_factory=list)
    cycle: list[float] = field(default_factory=list)
    pred: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClassFlowModel:
    """The four networks of a trained class model (its file keeps only I)."""

    class_label: int
    generator: Mlp
    inverse: Mlp
    discriminator: Mlp
    head: Mlp
    train_config: dict | None = None

    def __post_init__(self):
        if self.class_label <= 0:
            raise ConfigError(f"class_label must be positive, got {self.class_label}")
        d, p = self.latent_dim, self.input_dim
        if self.generator.spec.input_dim != d or self.generator.spec.output_dim != p:
            raise ConfigError("generator shape disagrees with inverse map")
        if self.discriminator.spec.input_dim != p or self.discriminator.spec.output_dim != 1:
            raise ConfigError("discriminator must map inputs to one probability")
        if self.head.spec.input_dim != d or self.head.spec.output_dim != 1:
            raise ConfigError("head must map latents to one probability")

    @property
    def latent_dim(self) -> int:
        """The latent size: the inverse map's output width."""
        return self.inverse.spec.output_dim

    @property
    def input_dim(self) -> int:
        return self.inverse.spec.input_dim


@dataclass(frozen=True)
class SavedClassFlow:
    """A class model as its file holds it: the inverse map that scoring runs."""

    class_label: int
    inverse: Mlp
    train_config: dict | None

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
    return ClassFlowModel(class_label, gen, inv, disc, head)


def sample_latent(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.standard_normal((n, dim))


def encode(model: ClassFlowModel | SavedClassFlow, x: np.ndarray) -> np.ndarray:
    """Latent encodings of input rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(
            f"input shape {x.shape} incompatible with model input dim {model.input_dim}"
        )
    return model.inverse.predict(x)


# -- loss terms -----------------------------------------------------------------
#
# Each loss is one tape node over the network outputs it reads. Its forward and
# closed-form backward make the numpy calls of the Tensor-op graph it replaces
# (clip, log, sum, mean and negation; differences, squares, row sums and sqrt)
# in that graph's order, so values and gradients are bit-identical to it. A
# node lists its parents in that graph's order too: the tape visits parents
# last-first, so a network called in several terms (the generator and inverse
# map in the main step) still receives its gradient sum in the same order.

def _mean_log_prob(p: np.ndarray):
    """(mean log clip(p), g -> d/dp of g * mean log clip(p))."""
    clipped = np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    keep = clipped == p  # p inside the clip bounds
    scale = np.asarray(1.0 / p.size)

    def grad(g):
        return (g * scale) / clipped * keep

    return np.log(clipped).sum() * scale, grad


def _mean_norm(diff: np.ndarray):
    """(mean_i ||diff_i||, g -> d/d diff of g * mean_i ||diff_i||)."""
    norms = np.sqrt((diff * diff).sum(axis=1))
    scale = np.asarray(1.0 / norms.size)

    def grad(g):
        # subgradient 0 at a zero norm keeps the loss finite on perfect roundtrips
        denom = 2.0 * norms
        pos = denom > 0
        g_sq = np.where(pos, (g * scale) / np.where(pos, denom, 1.0), 0.0)
        # the square's two product-rule terms, added as the tape graph adds them
        half = g_sq[:, None] * diff
        return half + half

    return norms.sum() * scale, grad


def _logistic_loss(p_pos: Tensor, p_neg: Tensor) -> Tensor:
    """-mean log p_pos - mean log(1 - p_neg), probabilities clipped away from 0 and 1."""
    m_pos, grad_pos = _mean_log_prob(p_pos.data)
    m_neg, grad_neg = _mean_log_prob(1.0 - p_neg.data)

    def backward(g):
        p_pos._accum(grad_pos(-g))
        p_neg._accum(-grad_neg(-g))

    return p_pos._make(-m_pos - m_neg, (p_pos, p_neg), backward)


def _weighted_sum(terms: list[tuple[Tensor, float]]) -> Tensor:
    """sum of w * t over the (t, w) pairs, added left to right."""
    weights = [np.asarray(w, dtype=np.float64) for _, w in terms]
    value = terms[0][0].data * weights[0]
    for (t, _), w in zip(terms[1:], weights[1:]):
        value = value + t.data * w

    def backward(g):
        for (t, _), w in zip(terms, weights):
            t._accum(g * w)

    return terms[0][0]._make(value, tuple(t for t, _ in terms), backward)


def _disc_loss(model: ClassFlowModel, real_batch: np.ndarray, fake_batch: np.ndarray) -> Tensor:
    """-mean log D(x) - mean log(1 - D(fake)); generated rows enter as constants."""
    return _logistic_loss(model.discriminator(Tensor(real_batch)),
                          model.discriminator(Tensor(fake_batch)))


def _gen_loss(model: ClassFlowModel, z_batch: np.ndarray) -> Tensor:
    """Non-saturating -mean log D(G(z)), differentiable through D into G."""
    p = model.discriminator(model.generator(Tensor(z_batch)))
    m, grad = _mean_log_prob(p.data)

    def backward(g):
        p._accum(grad(-g))

    return p._make(-m, (p,), backward)


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
    x_back = model.generator(model.inverse(xt))
    z_back = model.inverse(model.generator(zt))
    term_x, grad_x = _mean_norm(xt.data - x_back.data)
    term_z, grad_z = _mean_norm(zt.data - z_back.data)

    def backward(g):
        x_back._accum(-grad_x(g))
        z_back._accum(-grad_z(g))

    return x_back._make(term_x + term_z, (x_back, z_back), backward)


def loss_pred_finetune(model: ClassFlowModel, pos_batch: np.ndarray,
                       neg_batch: np.ndarray) -> Tensor:
    """Balanced logistic loss of h(I(x)) separating own-class rows from others."""
    pos_batch = np.asarray(pos_batch, dtype=np.float64)
    neg_batch = np.asarray(neg_batch, dtype=np.float64)
    if pos_batch.shape[0] == 0 or neg_batch.shape[0] == 0:
        raise DataError("positive and negative batches must be non-empty")
    return _logistic_loss(model.head(model.inverse(Tensor(pos_batch))),
                          model.head(model.inverse(Tensor(neg_batch))))


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
    neg_rows: np.ndarray | None = None,
) -> tuple[ClassFlowModel, TrainTrace]:
    """Train one class model on its rows, sampling negatives from ``x_neg``.

    Minibatches are full-size only: each epoch visits floor(n / batch_size)
    batches of a fresh permutation. Negative rows are drawn per step, without
    replacement when the pool is large enough. The pool is the rows
    ``neg_rows`` of ``x_neg``, all of them by default, so a caller holding
    every class in one matrix passes it with the other classes' row indices
    and copies none of their rows.
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
    if neg_rows is None and x_neg.ndim == 2:
        neg_rows = np.arange(x_neg.shape[0])
    if use_pred and (x_neg.ndim != 2 or len(neg_rows) < 1 or x_neg.shape[1] != arch.input_dim):
        raise DataError("fine-tuning needs a non-empty pool of other-class rows")

    rng = np.random.default_rng(config.seed)
    model = build_class_flow(arch, class_label, rng)
    model.train_config = config.to_dict()
    gen, inv, disc, head = model.generator, model.inverse, model.discriminator, model.head

    opt_disc = Adam(disc.parameters(), lr=config.lr_disc)
    opt_main = Adam(gen.parameters() + inv.parameters(), lr=config.lr_gen)
    opt_pred = Adam(inv.parameters() + head.parameters(), lr=config.lr_pred)

    base_kernel = KernelSpec(config.bandwidth)
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
            terms = [(mmd_term, config.w_mmd), (cycle_term, config.w_cycle)]
            if gan_term is not None:
                terms.append((gan_term, config.w_gan))
                sums["gan"] += _check_finite(float(gan_term.data), "generator", epoch, step)
            sums["mmd"] += _check_finite(float(mmd_term.data), "mmd", epoch, step)
            sums["cycle"] += _check_finite(float(cycle_term.data), "cycle", epoch, step)
            _weighted_sum(terms).backward()
            opt_main.step()
            # the generator loss leaves gradients in D, and the next
            # discriminator step would add to them
            disc.zero_grad()

            if use_pred:
                with_replacement = len(neg_rows) < batch
                picks = rng.choice(len(neg_rows), size=batch, replace=with_replacement)
                pred_term = loss_pred_finetune(model, xb, x_neg[neg_rows[picks]])
                sums["pred"] += _check_finite(float(pred_term.data), "fine-tune", epoch, step)
                _weighted_sum([(pred_term, config.w_pred)]).backward()
                opt_pred.step()

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

# processes training at once, per usable CPU. With every class in its own
# process the stage ends after about total work / CPUs, not after
# ceil(classes / CPUs) trainings; the cap bounds the forks and their memory
# when there are many classes.
_PROCESSES_PER_CPU = 4


def _share(features: np.ndarray, labels: np.ndarray) -> None:
    global _SHARED
    _SHARED = (features, labels)


def _fit_class(features, labels, label, arch, config):
    # negatives by index: a copy of the other classes' rows would be most of
    # the matrix, in every process of the pool
    others = np.flatnonzero((labels != label) & (labels != OUTLIER))
    return train_class_flow(features[labels == label], features, label, arch,
                            replace(config, seed=config.seed + label), others)


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
    ``config`` reseeded to ``config.seed + c``, so the models equal those of
    training the classes in turn. Each class gets its own process and the OS
    shares the CPUs among them: this process trains the first class, and a
    pool of min(classes, cap) - 1 forked workers the others, where the cap is
    _PROCESSES_PER_CPU times the usable CPUs; classes beyond the cap wait in
    the pool's queue. With one usable CPU or one class nothing is forked.

    A failure raises like the loop in turn would: the lowest failing class's
    error, with its type. A dead worker breaks every class not yet finished,
    and becomes a ChildProcessError naming all of them, since the pool does
    not say whose process died.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    classes = [int(c) for c in sorted_labels(labels) if c != OUTLIER]
    cpus = _usable_cpus()
    workers = min(len(classes), _PROCESSES_PER_CPU * cpus) - 1
    if cpus == 1 or workers < 1:
        return [_fit_class(features, labels, c, arch, config) for c in classes]

    # imported here: calibrate and predict load this module to score, and the
    # pool machinery would add ~20 ms to the start-up of stages that never use it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_share, initargs=(features, labels))
    try:
        futures = [pool.submit(_fit_shared, c, arch, config) for c in classes[1:]]
        results = [_fit_class(features, labels, classes[0], arch, config)]
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                unfinished = [str(c) for c, f in zip(classes[1:], futures)
                              if isinstance(f.exception(), BrokenProcessPool)]
                if len(unfinished) == 1:
                    message = f"class {unfinished[0]} died"
                else:
                    message = (f"one of classes {', '.join(unfinished)} died; "
                               "none of them finished")
                raise ChildProcessError(f"the worker process training {message}") from None
    finally:
        pool.shutdown(cancel_futures=True)
    return results


# -- persistence -------------------------------------------------------------------

def save_class_flow(model: ClassFlowModel, path: str) -> None:
    write_json(path, {"version": _MODEL_FORMAT_VERSION, "class_label": model.class_label,
                      "train_config": model.train_config, "inverse": mlp_to_dict(model.inverse)})


def load_class_flow(path: str) -> SavedClassFlow:
    """The class model in ``path``; a malformed file raises a DataError naming it."""
    doc = read_json(path, ("version", "class_label", "train_config", "inverse"))
    if doc["version"] != _MODEL_FORMAT_VERSION:
        raise DataError(f"{path}: model format version {doc['version']!r} is not "
                        f"{_MODEL_FORMAT_VERSION}; rerun train")
    label, config = doc["class_label"], doc["train_config"]
    if type(label) is not int or label < 1:
        raise DataError(f"{path}: class_label must be a positive int, got {label!r}")
    if config is not None and not isinstance(config, dict):
        raise DataError(f"{path}: train_config must be an object, got {config!r}")
    try:
        inverse = mlp_from_dict(doc["inverse"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed inverse map: {exc!r}") from None
    return SavedClassFlow(label, inverse, config)
