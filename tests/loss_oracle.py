"""The losses as chains of Tensor ops, kept as the oracles of the fused loss
nodes: the softmax baseline's cross-entropy (``baselines._cross_entropy``)
and the roundtrip training losses (``roundtrip._disc_loss``, ``_gen_loss``,
``loss_cycle``, ``loss_pred_finetune`` and ``_weighted_sum``). Each takes the
arguments of the function it stands for, so a test can patch it in.

Two losses that no stage computes on their own live here as well, built on
the package's own nodes so that the tests check those: the GAN pair
(``loss_forward_gan``) and the numeric unbiased squared MMD
(``mmd2_unbiased``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowconformal import roundtrip
from flowconformal.autodiff import Tensor
from flowconformal.errors import DataError
from flowconformal.kernels import KernelSpec, mmd2_unbiased_graph
from flowconformal.roundtrip import _PROB_FLOOR
from tape_oracle import TapeTensor, tape


@dataclass(frozen=True)
class Mmd2Estimate:
    value: float
    m: int
    n: int


def mmd2_unbiased(u, v, spec: KernelSpec) -> Mmd2Estimate:
    """Numeric unbiased squared MMD between two sample sets: the training
    loss's node on constant inputs."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    node = mmd2_unbiased_graph(u, v, spec)
    return Mmd2Estimate(value=float(node.data), m=u.shape[0], n=v.shape[0])


def loss_forward_gan(model, real_batch, z_batch) -> tuple[Tensor, Tensor]:
    """(discriminator loss, non-saturating generator loss) for one batch pair,
    through the training loop's ``roundtrip._disc_loss`` and ``_gen_loss``.

    The discriminator loss sees generated rows as constants, so its gradient
    stays inside D; the generator loss differentiates through D into G.
    """
    real_batch = np.asarray(real_batch, dtype=np.float64)
    z_batch = np.asarray(z_batch, dtype=np.float64)
    if real_batch.shape[0] == 0 or z_batch.shape[0] == 0:
        raise DataError("batches must be non-empty")
    d_loss = roundtrip._disc_loss(model, real_batch, model.generator.predict(z_batch))
    return d_loss, roundtrip._gen_loss(model, z_batch)


def tape_cross_entropy(logits: Tensor, onehot) -> Tensor:
    logits = tape(logits)
    shift = TapeTensor(logits.data.max(axis=1, keepdims=True))
    centered = logits - shift
    log_norm = centered.exp().sum(axis=1, keepdims=True).log()
    log_probs = centered - log_norm
    return -((log_probs * TapeTensor(onehot)).sum(axis=1).mean())


def _log_prob(p):
    return p.clip(_PROB_FLOOR, 1.0 - _PROB_FLOOR).log()


def tape_disc_loss(model, real_batch, fake_batch):
    p_real = model.discriminator(TapeTensor(real_batch))
    p_fake = model.discriminator(TapeTensor(fake_batch))
    return -(_log_prob(p_real).mean()) - (_log_prob(1.0 - p_fake).mean())


def tape_gen_loss(model, z_batch):
    return -(_log_prob(model.discriminator(model.generator(TapeTensor(z_batch)))).mean())


def tape_loss_cycle(model, real_batch, z_batch):
    xt = TapeTensor(real_batch)
    zt = TapeTensor(z_batch)
    dx = xt - model.generator(model.inverse(xt))
    dz = zt - model.inverse(model.generator(zt))
    term_x = (dx * dx).sum(axis=1).sqrt().mean()
    term_z = (dz * dz).sum(axis=1).sqrt().mean()
    return term_x + term_z


def tape_loss_pred_finetune(model, pos_batch, neg_batch):
    p_pos = model.head(model.inverse(TapeTensor(pos_batch)))
    p_neg = model.head(model.inverse(TapeTensor(neg_batch)))
    return -(_log_prob(p_pos).mean()) - (_log_prob(1.0 - p_neg).mean())


def tape_weighted_sum(terms):
    (first, w), rest = terms[0], terms[1:]
    total = tape(first) * w
    for t, w in rest:
        total = total + tape(t) * w
    return total


# roundtrip attribute -> its oracle, for patching the training loop
ROUNDTRIP_ORACLES = {
    "_disc_loss": tape_disc_loss,
    "_gen_loss": tape_gen_loss,
    "loss_cycle": tape_loss_cycle,
    "loss_pred_finetune": tape_loss_pred_finetune,
    "_weighted_sum": tape_weighted_sum,
}
