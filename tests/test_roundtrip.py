"""Per-class roundtrip models: losses, training loop, persistence.

Oracles: closed-form loss values on hand-built constant networks, exact
delegation of the latent-matching loss to the kernel estimator, and a 1-D
training run whose holdout encodings must pass distributional checks against
the standard-normal reference (including a simulated null for the kernel
discrepancy).
"""

import concurrent.futures
import json
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowconformal import roundtrip
from flowconformal.baselines import SoftmaxClassifier
from flowconformal.errors import ConfigError, DataError
from flowconformal.kernels import (
    KernelSpec,
    resolve_bandwidth,
)
from flowconformal.nn import Mlp, MlpSpec, mlp_to_dict
from flowconformal.roundtrip import (
    ClassFlowModel,
    FlowArchitecture,
    TrainConfig,
    build_class_flow,
    encode,
    load_class_flow,
    loss_cycle,
    loss_latent_mmd,
    loss_pred_finetune,
    sample_latent,
    save_class_flow,
    train_class_flow,
    train_class_flows,
)
from conftest import networks_json, openblas_core
from loss_oracle import (
    ROUNDTRIP_ORACLES,
    loss_forward_gan,
    mmd2_unbiased,
    tape_disc_loss,
    tape_gen_loss,
    tape_loss_cycle,
    tape_loss_pred_finetune,
    tape_weighted_sum,
)

LOG2 = float(np.log(2.0))


def affine(p, d, w, b):
    return Mlp(MlpSpec((p, d), (), "identity"),
               layers=[(np.asarray(w, dtype=np.float64).reshape(p, d),
                        np.asarray(b, dtype=np.float64).reshape(d))])


def sigmoid_net(p, w, b):
    return Mlp(MlpSpec((p, 1), (), "sigmoid"),
               layers=[(np.asarray(w, dtype=np.float64).reshape(p, 1),
                        np.asarray(b, dtype=np.float64).reshape(1))])


def fixed_model(gen, inv, disc=None, head=None, label=1):
    p = inv.spec.input_dim
    d = inv.spec.output_dim
    if disc is None:
        disc = sigmoid_net(p, np.zeros(p), 0.0)
    if head is None:
        head = sigmoid_net(d, np.zeros(d), 0.0)
    return ClassFlowModel(label, gen, inv, disc, head)


# -- loss hand values --------------------------------------------------------------

def test_disc_loss_is_two_log_two_at_maximal_confusion():
    # zero-weight sigmoid discriminator outputs exactly 0.5 everywhere
    model = fixed_model(affine(1, 1, [1.0], [0.0]), affine(1, 1, [1.0], [0.0]))
    x = np.array([[0.3], [1.7]])
    z = np.array([[0.1], [-0.5]])
    d_loss, g_loss = loss_forward_gan(model, x, z)
    assert abs(float(d_loss.data) - 2.0 * LOG2) < 1e-12
    assert abs(float(g_loss.data) - LOG2) < 1e-12


def test_disc_loss_near_zero_for_a_sharp_discriminator():
    # D(x) = sigmoid(5x): real rows at +3 score ~1, fakes fixed at -3 score ~0
    model = fixed_model(affine(1, 1, [0.0], [-3.0]), affine(1, 1, [1.0], [0.0]),
                        disc=sigmoid_net(1, [5.0], 0.0))
    x = np.full((4, 1), 3.0)
    z = np.zeros((4, 1))
    d_loss, g_loss = loss_forward_gan(model, x, z)
    assert float(d_loss.data) < 1e-5
    assert float(g_loss.data) > 5.0


def test_gen_loss_monotone_in_discriminator_rejection():
    losses = []
    for bias in (2.0, 0.0, -2.0):
        model = fixed_model(affine(1, 1, [1.0], [0.0]), affine(1, 1, [1.0], [0.0]),
                            disc=sigmoid_net(1, [0.0], bias))
        _, g_loss = loss_forward_gan(model, np.zeros((2, 1)), np.zeros((2, 1)))
        losses.append(float(g_loss.data))
    assert losses[0] < losses[1] < losses[2]


def test_gan_loss_rejects_empty_batches():
    model = fixed_model(affine(1, 1, [1.0], [0.0]), affine(1, 1, [1.0], [0.0]))
    with pytest.raises(DataError, match="non-empty"):
        loss_forward_gan(model, np.empty((0, 1)), np.zeros((2, 1)))


def test_finetune_loss_is_two_log_two_at_half():
    model = fixed_model(affine(1, 1, [1.0], [0.0]), affine(1, 1, [1.0], [0.0]))
    loss = loss_pred_finetune(model, np.array([[1.0]]), np.array([[2.0]]))
    assert abs(float(loss.data) - 2.0 * LOG2) < 1e-12


def test_finetune_loss_matches_constant_probability_formula():
    # zero-weight head with bias 1 scores sigmoid(1) on every row
    p = 1.0 / (1.0 + np.exp(-1.0))
    model = fixed_model(affine(1, 1, [1.0], [0.0]), affine(1, 1, [1.0], [0.0]),
                        head=sigmoid_net(1, [0.0], 1.0))
    loss = loss_pred_finetune(model, np.array([[0.4], [0.6]]), np.array([[9.0]]))
    expected = -np.log(p) - np.log(1.0 - p)
    assert abs(float(loss.data) - expected) < 1e-12


def test_finetune_loss_rejects_empty_batches():
    model = fixed_model(affine(1, 1, [1.0], [0.0]), affine(1, 1, [1.0], [0.0]))
    with pytest.raises(DataError, match="non-empty"):
        loss_pred_finetune(model, np.array([[1.0]]), np.empty((0, 1)))


def test_cycle_loss_hand_value():
    # I identity, G(y) = 2y: x=1 misses by 1, z=2 misses by 2, total 3
    model = fixed_model(affine(1, 1, [2.0], [0.0]), affine(1, 1, [1.0], [0.0]))
    loss = loss_cycle(model, np.array([[1.0]]), np.array([[2.0]]))
    assert float(loss.data) == 3.0


def test_cycle_loss_zero_at_exact_inverse():
    model = fixed_model(affine(2, 2, np.eye(2), np.zeros(2)),
                        affine(2, 2, np.eye(2), np.zeros(2)))
    rng = np.random.default_rng(0)
    loss = loss_cycle(model, rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
    assert float(loss.data) == 0.0


def test_cycle_loss_nonnegative_on_random_nets():
    rng = np.random.default_rng(1)
    arch = FlowArchitecture(2, 2, (5,), (5,), (5,))
    model = build_class_flow(arch, 1, rng)
    loss = loss_cycle(model, rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
    assert float(loss.data) >= 0.0


def test_latent_mmd_loss_delegates_to_kernel_estimator():
    model = fixed_model(affine(2, 2, np.eye(2), np.zeros(2)),
                        affine(2, 2, np.eye(2), np.zeros(2)))
    rng = np.random.default_rng(2)
    xb = rng.standard_normal((8, 2))
    z = rng.standard_normal((10, 2))
    kernel = KernelSpec(bandwidth=1.5)
    loss = loss_latent_mmd(model, xb, z, kernel)
    assert float(loss.data) == mmd2_unbiased(xb, z, kernel).value


# -- configuration and wiring -------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError, match="disc_steps"):
        TrainConfig(disc_steps=0)
    with pytest.raises(ConfigError, match="lr_pred"):
        TrainConfig(lr_pred=0.0)
    with pytest.raises(ConfigError, match="w_mmd"):
        TrainConfig(w_mmd=-1.0)
    with pytest.raises(ConfigError, match="bandwidth"):
        TrainConfig(bandwidth=0.0)


def test_train_config_dict_roundtrip():
    cfg = TrainConfig(epochs=7, w_mmd=8.0, seed=3, bandwidth=2.5)
    assert TrainConfig(**cfg.to_dict()) == cfg


def test_architecture_validation():
    with pytest.raises(ConfigError, match="input_dim"):
        FlowArchitecture(0, 1)
    with pytest.raises(ConfigError, match="latent_dim"):
        FlowArchitecture(2, 0)
    with pytest.raises(ConfigError, match="latent_dim"):
        FlowArchitecture(2, 3)


def test_build_class_flow_wires_shapes():
    arch = FlowArchitecture(3, 2, (7,), (6, 5), (4,))
    model = build_class_flow(arch, 2, np.random.default_rng(0))
    assert model.class_label == 2
    assert model.input_dim == 3 and model.latent_dim == 2
    assert model.generator.spec.layer_widths == (2, 7, 3)
    assert model.inverse.spec.layer_widths == (3, 6, 5, 2)
    assert model.discriminator.spec.layer_widths == (3, 4, 1)
    assert model.discriminator.spec.final_activation == "sigmoid"
    assert model.head.spec.layer_widths == (2, 1)


def test_class_flow_model_shape_checks():
    gen = affine(2, 3, np.zeros((2, 3)), np.zeros(3))
    inv = affine(3, 2, np.zeros((3, 2)), np.zeros(2))
    disc = sigmoid_net(3, np.zeros(3), 0.0)
    head = sigmoid_net(2, np.zeros(2), 0.0)
    ClassFlowModel(1, gen, inv, disc, head)
    with pytest.raises(ConfigError, match="class_label"):
        ClassFlowModel(0, gen, inv, disc, head)
    with pytest.raises(ConfigError, match="generator"):
        ClassFlowModel(1, affine(3, 3, np.zeros((3, 3)), np.zeros(3)),
                       inv, disc, head)
    with pytest.raises(ConfigError, match="discriminator"):
        ClassFlowModel(1, gen, inv, sigmoid_net(2, np.zeros(2), 0.0), head)
    with pytest.raises(ConfigError, match="head"):
        ClassFlowModel(1, gen, inv, disc, sigmoid_net(3, np.zeros(3), 0.0))


@pytest.mark.skipif(openblas_core() != "SkylakeX",
                    reason="kernel choice and bits recorded on OpenBLAS's SkylakeX core")
def test_a_rows_scores_do_not_depend_on_how_many_rows_share_the_call():
    """OpenBLAS runs a product of up to about 1e6 multiply-adds on its
    small-matrix kernel and larger ones on its blocked kernel, whose bits
    differ at output widths 2 and 3. Rows scored in blocks of PREDICT_BLOCK
    rows stay on the small kernel however long the array is."""
    rng = np.random.default_rng(9)
    model = build_class_flow(FlowArchitecture(2, 2, (48, 48), (48, 48), (48, 48)), 1, rng)
    classifier = SoftmaxClassifier(Mlp(MlpSpec((2, 32, 3), ("relu",), "identity"), rng=rng),
                                   (1, 2, 3))
    x = rng.standard_normal((20_000, 2))
    assert encode(model, x)[:2000].tobytes() == encode(model, x[:2000]).tobytes()
    assert (classifier.predict_proba(x)[:2000].tobytes()
            == classifier.predict_proba(x[:2000]).tobytes())


def test_encode_shape_errors():
    model = fixed_model(affine(1, 2, [[1.0, 0.0]], [0.0, 0.0]),
                        affine(2, 1, [[1.0], [0.0]], [0.0]))
    assert model.input_dim == 2 and model.latent_dim == 1
    with pytest.raises(DataError, match="input shape"):
        encode(model, np.zeros((3, 3)))
    assert np.array_equal(encode(model, np.array([[2.0, 5.0]])), [[2.0]])


def test_sample_latent_shape_and_determinism():
    a = sample_latent(np.random.default_rng(5), 4, 3)
    b = sample_latent(np.random.default_rng(5), 4, 3)
    assert a.shape == (4, 3)
    assert np.array_equal(a, b)


# -- training loop -------------------------------------------------------------------

def _tiny_data(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(1.0, 1.0, size=(32, 1)), rng.normal(-3.0, 1.0, size=(12, 1))


TINY_ARCH = FlowArchitecture(1, 1, (8,), (8,), (8,))


def test_training_rejects_short_classes():
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=1, batch_size=64)
    with pytest.raises(ConfigError, match="class 3 has 32 rows"):
        train_class_flow(x, neg, 3, TINY_ARCH, cfg)


def test_training_rejects_mismatched_feature_width():
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=1, batch_size=8)
    with pytest.raises(DataError, match="incompatible"):
        train_class_flow(np.hstack([x, x]), neg, 1, TINY_ARCH, cfg)


def test_training_requires_negatives_only_when_finetuning():
    x, _ = _tiny_data()
    cfg = TrainConfig(epochs=1, batch_size=8)
    with pytest.raises(DataError, match="other-class rows"):
        train_class_flow(x, np.empty((0, 1)), 1, TINY_ARCH, cfg)
    cfg_off = TrainConfig(epochs=1, batch_size=8, w_pred=0.0)
    model, trace = train_class_flow(x, np.empty((0, 1)), 1, TINY_ARCH, cfg_off)
    assert trace.pred == [0.0]


def test_trace_has_one_entry_per_epoch_for_each_loss():
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=3, batch_size=8, seed=1)
    model, trace = train_class_flow(x, neg, 1, TINY_ARCH, cfg)
    for series in (trace.disc, trace.gan, trace.mmd, trace.cycle, trace.pred):
        assert len(series) == 3
    assert model.train_config == cfg.to_dict()


def test_disabled_gan_leaves_zero_trace():
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=2, batch_size=8, seed=1, w_gan=0.0)
    _, trace = train_class_flow(x, neg, 1, TINY_ARCH, cfg)
    assert trace.disc == [0.0, 0.0]
    assert trace.gan == [0.0, 0.0]
    assert all(v > 0 for v in trace.mmd) or all(v >= 0 for v in trace.mmd)


def test_training_deterministic_per_seed():
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
    m1, t1 = train_class_flow(x, neg, 1, TINY_ARCH, cfg)
    m2, t2 = train_class_flow(x, neg, 1, TINY_ARCH, cfg)
    assert t1.to_dict() == t2.to_dict()
    probe = np.linspace(-2, 4, 11).reshape(-1, 1)
    assert np.array_equal(encode(m1, probe), encode(m2, probe))


def test_loop_discriminator_loss_is_loss_forward_gan(monkeypatch):
    # the loop and loss_forward_gan share one discriminator loss; replaying
    # the loop's RNG draws up to its first discriminator step must give the
    # d_loss that loss_forward_gan computes on the same batches
    import flowconformal.roundtrip as roundtrip

    seen = []
    shared = roundtrip._disc_loss

    def spy(*args):
        out = shared(*args)
        seen.append(float(out.data))
        return out

    monkeypatch.setattr(roundtrip, "_disc_loss", spy)
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
    _, trace = train_class_flow(x, neg, 1, TINY_ARCH, cfg)
    steps = x.shape[0] // cfg.batch_size
    assert len(seen) == steps
    total = 0.0
    for value in seen:
        total += value
    assert trace.disc == [total / steps]

    rng = np.random.default_rng(cfg.seed)
    model = build_class_flow(TINY_ARCH, 1, rng)
    xb = x[rng.permutation(x.shape[0])[:cfg.batch_size]]
    sample_latent(rng, cfg.batch_size, 1)  # the bandwidth pool's reference half
    z = sample_latent(rng, cfg.batch_size, 1)
    d_loss, _ = loss_forward_gan(model, xb, z)
    assert seen[0] == float(d_loss.data)


# -- fused loss nodes against their Tensor-op oracles ------------------------------

def _loss_bytes(make, params):
    """(value bytes, gradient bytes per parameter) of one loss, grads then cleared."""
    loss = make()
    loss.backward()
    grads = [None if p.grad is None else p.grad.tobytes() for p in params]
    for p in params:
        p.grad = None
    return np.asarray(loss.data).tobytes(), grads


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(1, 3), n=st.integers(2, 12),
       sharp=st.booleans(), weights=st.tuples(*[st.floats(0.0, 10.0)] * 3))
def test_fused_losses_match_the_tape_graph(seed, p, n, sharp, weights):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, p + 1))
    model = build_class_flow(FlowArchitecture(p, d, (6, 5), (7,), (5, 4)), 1, rng)
    if sharp:  # probabilities saturate, so the clip masks some rows
        for net in (model.discriminator, model.head):
            for w, _ in net.layers:
                w.data = w.data * 40.0
    x, neg, fake = (rng.normal(size=(n, p)) * 2.0 for _ in range(3))
    z, z_ref = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    kernel = KernelSpec(bandwidth=1.3)
    params = [t for net in (model.generator, model.inverse, model.discriminator, model.head)
              for t in net.parameters()]

    def main_step(mmd, cycle, gen, weighted):
        # the main objective, whose terms call G and I three times each
        return lambda: weighted([(mmd(model, x, z_ref, kernel), weights[0]),
                                 (cycle(model, x, z), weights[1]),
                                 (gen(model, z), weights[2])])

    pairs = [
        (lambda: roundtrip._disc_loss(model, x, fake), lambda: tape_disc_loss(model, x, fake)),
        (lambda: roundtrip._gen_loss(model, z), lambda: tape_gen_loss(model, z)),
        (lambda: loss_cycle(model, x, z), lambda: tape_loss_cycle(model, x, z)),
        (lambda: loss_pred_finetune(model, x, neg),
         lambda: tape_loss_pred_finetune(model, x, neg)),
        (main_step(loss_latent_mmd, loss_cycle, roundtrip._gen_loss, roundtrip._weighted_sum),
         main_step(loss_latent_mmd, tape_loss_cycle, tape_gen_loss, tape_weighted_sum)),
    ]
    for fused, oracle in pairs:
        assert _loss_bytes(fused, params) == _loss_bytes(oracle, params)


def test_fused_cycle_loss_matches_the_tape_graph_at_exact_roundtrips():
    # zero residual norms take the subgradient branch of the sqrt
    model = fixed_model(Mlp.identity(2), Mlp.identity(2))
    x = np.random.default_rng(3).normal(size=(5, 2))
    z = x[:4] * 0.5
    params = model.generator.parameters() + model.inverse.parameters()
    fused = _loss_bytes(lambda: loss_cycle(model, x, z), params)
    assert fused == _loss_bytes(lambda: tape_loss_cycle(model, x, z), params)
    assert np.frombuffer(fused[0]) == 0.0


@pytest.mark.parametrize("overrides", [{}, {"w_gan": 0.0}, {"w_pred": 0.0},
                                       {"disc_steps": 2, "w_mmd": 3.0, "w_cycle": 0.5}])
def test_training_with_the_tape_losses_saves_the_same_bytes(monkeypatch, overrides):
    rng = np.random.default_rng(11)
    x, neg = rng.normal(size=(64, 2)), rng.normal(size=(40, 2)) + 3.0
    arch = FlowArchitecture(2, 2, (8, 8), (8,), (8, 8))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=7, **overrides)

    def run():
        model, trace = train_class_flow(x, neg, 1, arch, cfg)
        return networks_json(model), trace.to_dict()

    fused = run()
    for name, oracle in ROUNDTRIP_ORACLES.items():
        monkeypatch.setattr(roundtrip, name, oracle)
    assert run() == fused


def test_negatives_drawn_by_index_train_the_same_bytes_as_a_copy():
    rng = np.random.default_rng(12)
    labels = np.repeat([2, 0, 1, 3], [30, 5, 64, 20])
    features = rng.normal(size=(labels.size, 2)) + labels[:, None]
    own, rows = features[labels == 1], np.flatnonzero((labels != 1) & (labels != 0))
    arch = FlowArchitecture(2, 2, (8,), (8,), (8,))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=3)
    by_index = train_class_flow(own, features, 1, arch, cfg, neg_rows=rows)
    copied = train_class_flow(own, features[rows], 1, arch, cfg)
    assert networks_json(by_index[0]) == networks_json(copied[0])
    assert by_index[1].to_dict() == copied[1].to_dict()


def test_a_class_fit_copies_none_of_the_other_classes_rows():
    """Class 1 of a shared 64-D, 3-class matrix trains with an allocation peak
    below the bytes of the other two classes' rows, which it reads by index.
    The peak holds class 1's rows (128 KiB) and two steps' graphs."""
    rng = np.random.default_rng(13)
    labels = np.repeat([1, 2, 3], [256, 1536, 1536])
    features = rng.normal(size=(labels.size, 64))
    arch = FlowArchitecture(64, 2, (8,), (8,), (8,))
    cfg = TrainConfig(epochs=1, batch_size=32)
    roundtrip._fit_class(features, labels, 1, arch, cfg)  # first-call imports and caches
    tracemalloc.start()
    try:
        roundtrip._fit_class(features, labels, 1, arch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < features[labels != 1].nbytes, peak


# -- every class of a labelled matrix ----------------------------------------------

def _fake_fit(own, other, label, arch, config, neg_rows=None):
    """Stands in for train_class_flow here and in forked workers: says where it
    ran and how many own and negative rows it got."""
    negatives = other if neg_rows is None else other[neg_rows]
    return label, os.getpid(), config.seed, own.shape[0], negatives.shape[0]


def _labelled(n_classes):
    # class c has c + 1 rows; two OUTLIER (label 0) rows never train or serve as negatives
    labels = np.repeat(np.arange(n_classes + 1), [2] + [c + 1 for c in range(1, n_classes + 1)])
    return np.arange(labels.size, dtype=np.float64).reshape(-1, 1), labels


@pytest.fixture
def pools_made(monkeypatch):
    """Records the worker count of every pool train_class_flows creates, and
    every future submitted to it."""
    made = SimpleNamespace(workers=[], futures=[])

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            made.futures.append(super().submit(*args, **kwargs))
            return made.futures[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return made


def _expected_workers(cpus, n_classes):
    """min(classes, cap) - 1 forked workers, cap = 4 per CPU; none on 1 CPU or for 1 class."""
    if cpus == 1 or n_classes == 1:
        return []
    return [min(n_classes, 4 * cpus) - 1]


def _check_fits(out, n_classes, seed):
    n_rows = sum(c + 1 for c in range(1, n_classes + 1))
    assert [r[0] for r in out] == list(range(1, n_classes + 1))
    assert [r[2] for r in out] == [seed + c for c in range(1, n_classes + 1)]
    assert [(r[3], r[4]) for r in out] == [(c + 1, n_rows - c - 1)
                                           for c in range(1, n_classes + 1)]


@pytest.mark.parametrize("cpus, n_classes", [(1, 4), (4, 1), (2, 5), (3, 5), (8, 3), (2, 10)])
def test_the_stage_process_trains_exactly_the_first_class(monkeypatch, pools_made, cpus,
                                                          n_classes):
    monkeypatch.setattr(roundtrip, "train_class_flow", _fake_fit)
    monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: cpus)
    x, labels = _labelled(n_classes)
    out = train_class_flows(x, labels, TINY_ARCH, TrainConfig(seed=10))
    _check_fits(out, n_classes, 10)
    pids = [r[1] for r in out]
    assert pools_made.workers == _expected_workers(cpus, n_classes)
    if not pools_made.workers:
        assert set(pids) == {os.getpid()}
        return
    assert pids[0] == os.getpid()
    assert os.getpid() not in pids[1:]
    assert len(set(pids[1:])) <= pools_made.workers[0]
    assert len(pools_made.futures) == n_classes - 1


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("n_classes", [1, 3, 9, 300])
def test_the_worker_count_never_exceeds_the_cap(monkeypatch, cpus, n_classes):
    # an in-process stand-in for the pool, so that 255 workers cost no forks
    made = []

    class InlinePool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(roundtrip, "_SHARED", None)
    monkeypatch.setattr(roundtrip, "train_class_flow", _fake_fit)
    monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: cpus)
    x, labels = _labelled(n_classes)
    _check_fits(train_class_flows(x, labels, TINY_ARCH, TrainConfig(seed=3)), n_classes, 3)
    assert made == _expected_workers(cpus, n_classes)
    assert all(w <= 4 * cpus - 1 for w in made)


def _failing_fit(fail, delay=0.0):
    """_fake_fit, except that class c raises fail[c]() (or exits) in the given
    process; classes trained in a worker first sleep ``delay`` seconds."""
    parent = os.getpid()

    def fit(own, other, label, arch, config, neg_rows=None):
        where, make = fail.get(label, (None, None))
        in_worker = os.getpid() != parent
        if in_worker:
            time.sleep(delay)
        if where == "worker" and in_worker or where == "parent" and not in_worker:
            if make is None:
                os._exit(1)
            raise make(f"class {label} failed")
        return _fake_fit(own, other, label, arch, config, neg_rows)

    return fit


@pytest.mark.parametrize("fail, raised, message", [
    ({2: ("worker", FloatingPointError)}, FloatingPointError, "class 2 failed"),
    ({3: ("worker", ConfigError)}, ConfigError, "class 3 failed"),
    # the lowest failing class wins, whichever process trained it
    ({2: ("worker", FloatingPointError), 3: ("worker", ConfigError)},
     FloatingPointError, "class 2 failed"),
    ({1: ("parent", DataError), 2: ("worker", FloatingPointError)},
     DataError, "class 1 failed"),
    # class 3 may or may not finish in its own worker before the pool breaks
    ({2: ("worker", None)}, ChildProcessError,
     "training (class 2|one of classes 2, 3) died"),
])
def test_class_failures_raise_the_lowest_label_with_its_type(monkeypatch, pools_made,
                                                              fail, raised, message):
    monkeypatch.setattr(roundtrip, "train_class_flow", _failing_fit(fail))
    monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: 2)
    x, labels = _labelled(3)
    with pytest.raises(raised, match=message):
        train_class_flows(x, labels, TINY_ARCH, TrainConfig())
    assert pools_made.workers == [2]


def test_a_dead_worker_names_every_unfinished_class(monkeypatch, pools_made):
    # class 4's worker exits at once while classes 2 and 3 still train in
    # theirs: the pool cannot say whose process died, so all three are named
    parent = os.getpid()

    def fit(own, other, label, arch, config, neg_rows=None):
        if os.getpid() != parent:
            if label == 4:
                os._exit(1)
            time.sleep(1.0)
        return _fake_fit(own, other, label, arch, config, neg_rows)

    monkeypatch.setattr(roundtrip, "train_class_flow", fit)
    monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: 2)
    x, labels = _labelled(4)
    with pytest.raises(ChildProcessError) as raised:
        train_class_flows(x, labels, TINY_ARCH, TrainConfig())
    assert str(raised.value) == ("the worker process training one of classes 2, 3, 4 "
                                 "died; none of them finished")
    assert pools_made.workers == [3]


def test_a_failure_cancels_the_queued_classes(monkeypatch, pools_made):
    # a cap of 2 processes on 2 CPUs: one worker takes classes 2-5 in turn,
    # 0.5 s each, and class 1 fails here at once; the classes still queued
    # behind the worker's must never start
    monkeypatch.setattr(roundtrip, "_PROCESSES_PER_CPU", 1)
    monkeypatch.setattr(roundtrip, "train_class_flow",
                        _failing_fit({1: ("parent", ConfigError)}, delay=0.5))
    monkeypatch.setattr(roundtrip, "_usable_cpus", lambda: 2)
    x, labels = _labelled(5)
    with pytest.raises(ConfigError, match="class 1 failed"):
        train_class_flows(x, labels, TINY_ARCH, TrainConfig())
    assert pools_made.workers == [1]
    assert pools_made.futures[-1].cancelled()
    assert all(f.done() for f in pools_made.futures)


def test_negative_pool_smaller_than_batch_is_resampled():
    x, _ = _tiny_data()
    neg = np.full((3, 1), -4.0)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=2)
    model, trace = train_class_flow(x, neg, 1, TINY_ARCH, cfg)
    assert len(trace.pred) == 1 and trace.pred[0] > 0


def test_one_dim_training_standardizes_the_class():
    # N(3, 1) inputs must encode close to the standard normal reference:
    # holdout moments inside wide bands and kernel discrepancy below the
    # 95th percentile of a simulated two-normal-samples null
    rng = np.random.default_rng(100)
    x = rng.normal(3.0, 1.0, size=(1000, 1))
    neg = rng.normal(-2.0, 1.0, size=(400, 1))
    arch = FlowArchitecture(1, 1, (32,), (32,), (32,))
    cfg = TrainConfig(epochs=100, batch_size=64, seed=7, w_mmd=8.0, w_cycle=0.5)
    model, trace = train_class_flow(x, neg, 1, arch, cfg)

    hold = rng.normal(3.0, 1.0, size=(500, 1))
    z = encode(model, hold)
    assert -0.2 <= float(z.mean()) <= 0.2
    assert 0.7 <= float(z.var()) <= 1.3

    ref = rng.standard_normal((500, 1))
    kernel = resolve_bandwidth(KernelSpec(), np.vstack([z, ref]))
    observed = mmd2_unbiased(z, ref, kernel).value
    nulls = [mmd2_unbiased(rng.standard_normal((500, 1)),
                           rng.standard_normal((500, 1)), kernel).value
             for _ in range(200)]
    assert observed < float(np.quantile(nulls, 0.95))

    # optimization made real progress on both roundtrip objectives
    assert trace.mmd[-1] < 0.2 * trace.mmd[0]
    assert trace.cycle[-1] < 0.2 * trace.cycle[0]


# -- persistence ----------------------------------------------------------------------

def test_model_json_roundtrip_exact(tmp_path):
    x, neg = _tiny_data()
    cfg = TrainConfig(epochs=2, batch_size=8, seed=4)
    model, _ = train_class_flow(x, neg, 5, TINY_ARCH, cfg)
    path = str(tmp_path / "class_5.json")
    save_class_flow(model, path)
    back = load_class_flow(path)
    assert back.class_label == 5
    assert back.train_config == cfg.to_dict()
    probe = np.linspace(-3, 5, 17).reshape(-1, 1)
    assert np.array_equal(encode(back, probe), encode(model, probe))
    assert json.dumps(mlp_to_dict(back.inverse)) == json.dumps(mlp_to_dict(model.inverse))


def test_model_load_rejects_unknown_version(tmp_path):
    x, neg = _tiny_data()
    model, _ = train_class_flow(x, neg, 1, TINY_ARCH,
                                TrainConfig(epochs=1, batch_size=8))
    path = tmp_path / "m.json"
    save_class_flow(model, str(path))
    doc = path.read_text().replace('"version":2', '"version":99', 1)
    path.write_text(doc)
    with pytest.raises(DataError, match="version"):
        load_class_flow(str(path))
