"""Acceptance checks: one test per numbered requirement of the release checklist.

The reference problem is three Gaussian classes in the plane at (0,0), (4,0),
(0,4) with unit covariance, 2000 training and 500 test rows per class, latent
dimension 2, alpha = 0.05, and a held-out outlier population at (12,12)
feeding a 10% contamination arm; everything runs over five seeds. Each test
prints one "[check N] PASS/FAIL" line with the measured numbers (visible with
pytest -s); pytest -v shows one outcome line per check either way.
"""

import math

import numpy as np
import pytest

from flowconformal.autodiff import Tensor
from flowconformal.baselines import (
    ApsCalibration,
    ClassifierConfig,
    aps_calibrate,
    aps_set,
    scaling_set,
    train_softmax_classifier,
)
from flowconformal.conformal import (
    ScorePool,
    build_score_pool,
    p_value,
    p_value_matrix,
    predictive_set,
)
from flowconformal.datasets import (
    ContaminationSpec,
    SyntheticSpec,
    gen_gaussian_classes,
    inject_contamination,
    split_stratified,
)
from flowconformal.evaluation import (
    chi2_moment_check,
    coverage,
    empirical_type1,
    ks_uniformity,
)
from flowconformal.kernels import KernelSpec, mmd2_unbiased
from flowconformal.nn import ACTIVATIONS, Mlp, MlpSpec
from flowconformal.roundtrip import (
    ClassFlowModel,
    FlowArchitecture,
    TrainConfig,
    loss_cycle,
    loss_forward_gan,
    loss_latent_mmd,
    loss_pred_finetune,
    train_class_flows,
)
from flowconformal.special import chi2_cdf

ALPHA = 0.05
SEEDS = (0, 1, 2, 3, 4)
MEANS = ((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))
CLASSES = (1, 2, 3)
N_TRAIN = 2000
N_TEST = 500
RATE = 0.10


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[check {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"check {num}: {detail}"


# -- reference runs shared by checks 1-4 and 8 ----------------------------------------

def _run_seed(seed: int) -> dict:
    train = gen_gaussian_classes(SyntheticSpec(
        means=MEANS, n_per_class=N_TRAIN, seed=seed))
    test = gen_gaussian_classes(SyntheticSpec(
        means=MEANS, n_per_class=N_TEST, seed=seed + 20_000))
    out_pool = gen_gaussian_classes(SyntheticSpec(
        means=((12.0, 12.0),), n_per_class=400, seed=seed + 30_000)).features

    arch = FlowArchitecture(input_dim=2, latent_dim=2)
    # class c trains on its rows against all other rows, seeded with seed + c
    cfg = TrainConfig(epochs=40, batch_size=128, seed=seed, w_mmd=8.0, w_cycle=0.5)
    models = [model for model, _ in train_class_flows(train.features, train.labels, arch, cfg)]
    assert tuple(m.class_label for m in models) == CLASSES
    pools = [build_score_pool(m, train.features[train.labels == m.class_label])
             for m in models]

    clf_train, aps_cal, _ = split_stratified(train, (0.5, 0.5, 0.0), seed + 60_000)
    clf = train_softmax_classifier(clf_train.features, clf_train.labels,
                                   ClassifierConfig(), seed=seed + 70_000)
    cal = aps_calibrate(clf.predict_proba(aps_cal.features), aps_cal.labels,
                        clf.class_labels, ALPHA)

    res = {"flow": {}, "scaling": {}, "aps": {}}
    for i, rate in enumerate((0.0, RATE)):
        arm = inject_contamination(
            test, ContaminationSpec(rate, out_pool, seed=seed + 40_000 + i))
        order, pmat = p_value_matrix(models, pools, arm.features)
        sets = predictive_set(pmat, ALPHA)
        res["flow"][rate] = coverage(sets, arm.labels, order)
        probs = clf.predict_proba(arm.features)
        res["scaling"][rate] = coverage(scaling_set(probs, ALPHA), arm.labels,
                                        clf.class_labels)
        res["aps"][rate] = coverage(aps_set(probs, cal), arm.labels, clf.class_labels)
        if rate == 0.0:
            res["own_p"] = {cls: pmat[arm.labels == cls, j]
                            for j, cls in enumerate(order)}
        else:
            inlier = arm.labels != 0
            empty = ~sets.any(axis=1)
            res["inlier_empty"] = float(np.mean(empty[inlier]))
            res["detection"] = float(np.mean(empty[~inlier]))
    return res


@pytest.fixture(scope="module")
def reference():
    return [_run_seed(seed) for seed in SEEDS]


def test_01_coverage_on_clean_test_data(reference):
    covs = [run["flow"][0.0] for run in reference]
    mean = float(np.mean(covs))
    per_seed = ", ".join(f"{c:.4f}" for c in covs)
    _verdict(1, mean >= 0.93,
             f"clean-arm coverage mean {mean:.4f} >= 0.93 (per seed: {per_seed})")


def test_02_p_value_uniformity_and_type1(reference):
    good_seeds = sum(
        all(not ks_uniformity(run["own_p"][cls], level=0.01).reject
            for cls in CLASSES)
        for run in reference
    )
    pooled = {cls: np.concatenate([run["own_p"][cls] for run in reference])
              for cls in CLASSES}
    rates = {cls: empirical_type1(pooled[cls], ALPHA) for cls in CLASSES}
    rates_txt = ", ".join(f"class {cls}: {r:.4f}" for cls, r in rates.items())
    ok = good_seeds >= 4 and all(0.03 <= r <= 0.07 for r in rates.values())
    _verdict(2, ok, f"own-class KS accepted for all classes in {good_seeds}/5 seeds "
                    f"(need >= 4); pooled rejection rate at alpha=0.05 in "
                    f"[0.03, 0.07]: {rates_txt}")


def test_03_inlier_empty_sets_and_outlier_detection(reference):
    empty = float(np.mean([run["inlier_empty"] for run in reference]))
    det = float(np.mean([run["detection"] for run in reference]))
    ok = empty <= 0.07 and det >= 0.90
    _verdict(3, ok, f"inlier empty-set rate {empty:.4f} <= 0.07; "
                    f"outlier detection rate {det:.4f} >= 0.90 at 10% contamination")


def test_04_coverage_robustness_under_contamination(reference):
    drop = {m: float(np.mean([run[m][0.0] - run[m][RATE] for run in reference]))
            for m in ("flow", "scaling", "aps")}
    ok = (drop["scaling"] >= 0.05 and drop["aps"] >= 0.05 and drop["flow"] <= 0.02)
    _verdict(4, ok, "coverage drop 0% -> 10%: "
                    f"scaling {drop['scaling']:.4f} >= 0.05, "
                    f"aps {drop['aps']:.4f} >= 0.05, "
                    f"flow {drop['flow']:.4f} <= 0.02")


# -- MMD estimator ---------------------------------------------------------------------

def test_05_mmd_brute_force_agreement_and_null_mean():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        u = rng.normal(size=(m, d))
        v = rng.normal(size=(n, d))
        bw = float(rng.uniform(0.4, 3.0))
        est = mmd2_unbiased(u, v, KernelSpec(bandwidth=bw)).value

        def k(a, b):
            return math.exp(-float(((a - b) ** 2).sum()) / (bw * bw))

        xx = sum(k(u[i], u[j]) for i in range(m) for j in range(m) if i != j)
        yy = sum(k(v[i], v[j]) for i in range(n) for j in range(n) if i != j)
        xy = sum(k(u[i], v[j]) for i in range(m) for j in range(n))
        brute = xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)
        worst = max(worst, abs(est - brute))

    spec = KernelSpec(bandwidth=2.0)
    null = np.array([
        mmd2_unbiased(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)), spec).value
        for _ in range(2000)
    ])
    mean = float(null.mean())
    band = 4.0 * float(null.std(ddof=1)) / math.sqrt(null.size)
    ok = worst <= 1e-12 and abs(mean) <= band
    _verdict(5, ok, f"max |estimator - brute force| {worst:.2e} <= 1e-12 over 100 "
                    f"instances; null mean {mean:+.2e} within 4 SE ({band:.2e}) "
                    f"over 2000 replicates")


# -- chi-squared machinery ----------------------------------------------------------------

def test_06_chi2_score_moments_and_cdf_closed_forms():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((10_000, 5))
    rep = chi2_moment_check((z * z).sum(axis=1), 5, level=0.01)
    moments_ok = (abs(rep.mean - 5.0) <= 0.15
                  and abs(rep.variance - 10.0) <= 1.0
                  and not rep.ks.reject)
    xs = np.linspace(0.0, 40.0, 401)
    err1 = max(abs(chi2_cdf(float(x), 1) - math.erf(math.sqrt(x / 2.0))) for x in xs)
    err2 = max(abs(chi2_cdf(float(x), 2) - (1.0 - math.exp(-x / 2.0))) for x in xs)
    ok = moments_ok and err1 <= 1e-10 and err2 <= 1e-10
    _verdict(6, ok, f"d=5 scores: mean {rep.mean:.4f} in 5 +/- 0.15, variance "
                    f"{rep.variance:.4f} in 10 +/- 1.0, KS stat {rep.ks.statistic:.4f} "
                    f"vs critical {rep.ks.critical_value:.4f}; closed-form CDF errors "
                    f"d=1 {err1:.2e}, d=2 {err2:.2e} <= 1e-10")


# -- gradient checks ---------------------------------------------------------------------

_LOSS_TAGS = ("net-forward", "gan-disc", "gan-gen", "mmd", "cycle", "pred")


def _net(rng, widths, acts, final):
    return Mlp(MlpSpec(tuple(widths), tuple(acts), final), rng=rng)


def _flow_model(rng, p, d, hidden, acts):
    gen = _net(rng, (d, *hidden, p), acts, "identity")
    inv = _net(rng, (p, *hidden, d), acts, "identity")
    disc = _net(rng, (p, *hidden, 1), acts, "sigmoid")
    head = _net(rng, (d, 1), (), "sigmoid")
    return ClassFlowModel(1, gen, inv, disc, head)


def _np_act(tag, v):
    if tag == "relu":
        return np.maximum(v, 0.0)
    if tag == "leaky-relu":
        return np.where(v > 0, v, 0.2 * v)
    if tag == "tanh":
        return np.tanh(v)
    if tag == "sigmoid":
        return 1.0 / (1.0 + np.exp(-v))
    return v


def _smooth_at(pairs):
    """Central differences need a smooth neighborhood: every relu-family
    pre-activation must sit clear of its kink and no final sigmoid may run
    into the probability clip."""
    for net, batch in pairs:
        h = np.asarray(batch, dtype=np.float64)
        last = len(net.layers) - 1
        for i, (w, b) in enumerate(net.layers):
            pre = h @ w.data + b.data
            tag = net.spec.activations[i] if i < last else net.spec.final_activation
            if tag in ("relu", "leaky-relu") and float(np.abs(pre).min()) < 1e-3:
                return False
            if tag == "sigmoid" and i == last and float(np.abs(pre).max()) > 14.0:
                return False
            h = _np_act(tag, pre)
    return True


def _loss_case(rng, acts, loss_tag):
    p = int(rng.integers(1, 4))
    d = int(rng.integers(1, p + 1))
    hidden = tuple(int(rng.integers(3, 6)) for _ in acts)
    if loss_tag == "net-forward":
        net = _net(rng, (p, *hidden, d), acts, acts[-1])
        model = None
    else:
        net = None
        model = _flow_model(rng, p, d, hidden, acts)
    for _ in range(80):
        x = rng.normal(size=(5, p))
        z = rng.normal(size=(6, d))
        neg = rng.normal(size=(4, p))
        if loss_tag == "net-forward":
            pairs = [(net, x)]
        elif loss_tag in ("gan-disc", "gan-gen"):
            pairs = [(model.generator, z), (model.discriminator, x),
                     (model.discriminator, model.generator.predict(z))]
        elif loss_tag == "mmd":
            pairs = [(model.inverse, x)]
        elif loss_tag == "cycle":
            pairs = [(model.inverse, x),
                     (model.generator, model.inverse.predict(x)),
                     (model.generator, z),
                     (model.inverse, model.generator.predict(z))]
        elif loss_tag == "pred":
            pairs = [(model.inverse, x), (model.inverse, neg),
                     (model.head, model.inverse.predict(x)),
                     (model.head, model.inverse.predict(neg))]
        else:
            raise AssertionError(loss_tag)
        if _smooth_at(pairs):
            break
    else:
        raise AssertionError(f"no kink-free batch found for {acts}/{loss_tag}")
    if loss_tag == "net-forward":
        xt = Tensor(x)
        return [net], (lambda: (net(xt) * net(xt)).sum())
    if loss_tag == "gan-disc":
        # generated rows enter the discriminator loss as constants, so only
        # discriminator parameters carry gradient
        return [model.discriminator], (lambda: loss_forward_gan(model, x, z)[0])
    if loss_tag == "gan-gen":
        return ([model.generator, model.discriminator],
                (lambda: loss_forward_gan(model, x, z)[1]))
    if loss_tag == "mmd":
        spec = KernelSpec(bandwidth=1.3)
        zs = rng.normal(size=(5, d))
        return [model.inverse], (lambda: loss_latent_mmd(model, x, zs, spec))
    if loss_tag == "cycle":
        return [model.generator, model.inverse], (lambda: loss_cycle(model, x, z))
    return [model.inverse, model.head], (lambda: loss_pred_finetune(model, x, neg))


def _max_rel_err(nets, loss_fn, h=1e-6):
    for net in nets:
        net.zero_grad()
    loss_fn().backward()
    worst = 0.0
    for net in nets:
        for t in net.parameters():
            grad = (np.zeros(t.data.shape) if t.grad is None
                    else np.asarray(t.grad, dtype=np.float64))
            flat = t.data.ravel()
            gf = grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = float(loss_fn().data)
                flat[i] = keep - h
                dn = float(loss_fn().data)
                flat[i] = keep
                fd = (up - dn) / (2.0 * h)
                err = abs(gf[i] - fd) / max(1.0, abs(fd), abs(gf[i]))
                worst = max(worst, err)
    return worst


def test_07_gradient_checks_cover_every_activation_and_loss():
    rng = np.random.default_rng(7)
    cases = [((act,), tag) for act in ACTIVATIONS for tag in _LOSS_TAGS]
    while len(cases) < 50:
        acts = tuple(str(a) for a in rng.choice(ACTIVATIONS, size=2))
        cases.append((acts, _LOSS_TAGS[int(rng.integers(0, len(_LOSS_TAGS)))]))
    worst = 0.0
    worst_case = None
    for acts, tag in cases:
        nets, loss_fn = _loss_case(rng, acts, tag)
        err = _max_rel_err(nets, loss_fn)
        if err > worst:
            worst, worst_case = err, (acts, tag)
    ok = worst < 1e-5
    _verdict(7, ok, f"{len(cases)} networks covering "
                    f"{len(ACTIVATIONS)}x{len(_LOSS_TAGS)} activation/loss pairs; "
                    f"worst rel err {worst:.2e} < 1e-5 (at {worst_case})")


# -- baseline set constructions -------------------------------------------------------------

def test_08_baseline_hand_cases_and_aps_coverage(reference):
    bad = []
    aps0 = float(np.mean([run["aps"][0.0] for run in reference]))
    if aps0 < 0.93:
        bad.append(f"APS clean coverage {aps0:.4f} < 0.93")

    cls3 = (1, 2, 3)
    if scaling_set(np.array([[0.6, 0.3, 0.1]]), 0.05).tolist() != [[True, True, True]]:
        bad.append("scaling (0.6,0.3,0.1) at alpha=0.05")
    if scaling_set(np.array([[0.97, 0.02, 0.01]]), 0.05).tolist() != [[True, False, False]]:
        bad.append("scaling (0.97,0.02,0.01) at alpha=0.05")
    if not scaling_set(np.array([[0.25] * 4]), 0.0).all():
        bad.append("scaling uniform row at alpha=0")

    # rows put the true class on top, so each calibration score is a single
    # probability and stays float-exact
    probs = np.array([
        [0.2, 0.2, 0.2, 0.2, 0.2],
        [0.4, 0.3, 0.3, 0.0, 0.0],
        [0.6, 0.2, 0.2, 0.0, 0.0],
        [0.8, 0.1, 0.1, 0.0, 0.0],
    ])
    cal = aps_calibrate(probs, np.ones(4, dtype=np.int64), (1, 2, 3, 4, 5), 0.25)
    if cal.threshold != 0.8:
        bad.append(f"APS threshold {cal.threshold!r} != 0.8 on scores .2/.4/.6/.8")
    same = np.tile([0.5, 0.3, 0.2], (4, 1))
    if aps_calibrate(same, np.ones(4, dtype=np.int64), cls3, 0.25).threshold != 0.5:
        bad.append("APS threshold on identical scores != the common score")

    row = np.array([[0.5, 0.3, 0.2]])
    if not aps_set(row, ApsCalibration(1.0, 4, 0.25)).all():
        bad.append("APS set at threshold 1 not full")
    if aps_set(row, ApsCalibration(0.75, 4, 0.25)).tolist() != [[True, True, False]]:
        bad.append("APS set (0.5,0.3,0.2) at threshold 0.75")
    if aps_set(row, ApsCalibration(1e-9, 4, 0.25)).tolist() != [[True, False, False]]:
        bad.append("APS set at vanishing threshold not the top singleton")

    detail = (f"APS clean coverage {aps0:.4f} >= 0.93; all hand cases exact"
              if not bad else "; ".join(bad))
    _verdict(8, not bad, detail)


# -- conformal p-values ----------------------------------------------------------------------

def _identity_model(dim):
    flat = [(np.zeros((dim, 1)), np.zeros(1))]
    return ClassFlowModel(
        1,
        Mlp.identity(dim),
        Mlp.identity(dim),
        Mlp(MlpSpec((dim, 1), (), "sigmoid"), layers=list(flat)),
        Mlp(MlpSpec((dim, 1), (), "sigmoid"), layers=list(flat)),
    )


def test_09_conformal_hand_counts_and_super_uniformity():
    bad = []
    pool = ScorePool(1, np.array([1.0, 2.0, 3.0, 4.0]))
    if p_value(pool, 2.5) != 0.6:
        bad.append("smoothed p at 2.5 on pool [1,2,3,4]")
    if p_value(pool, 100.0) != 0.2:
        bad.append("smoothed p at 100")
    if p_value(pool, 100.0, "paper-literal") != 1.0:
        bad.append("literal-mode p at 100")
    if p_value(pool, 0.5) != 1.0:
        bad.append("smoothed p below the pool minimum")

    ident = build_score_pool(
        _identity_model(2), np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 4.0]]))
    if ident.scores.tolist() != [0.0, 2.0, 25.0]:
        bad.append("identity-encoder pool [0, 2, 25]")

    pv = np.array([[0.9, 0.03, 0.2]])
    if predictive_set(pv, 0.05).tolist() != [[True, False, True]]:
        bad.append("set at (0.9,0.03,0.2), alpha=0.05")
    if predictive_set(np.array([[0.01, 0.02, 0.04]]), 0.05).any():
        bad.append("all p below alpha should flag an outlier")
    if not predictive_set(pv, 1e-9).all():
        bad.append("set at alpha=1e-9 should hold every class")

    # super-uniformity: each row draws a fresh 19-score pool plus one test
    # score from the same continuous distribution
    reps, pool_n = 100_000, 19
    rng = np.random.default_rng(9)
    draws = rng.chisquare(2.0, size=(reps, pool_n + 1))
    ge = (draws[:, :pool_n] >= draws[:, [pool_n]]).sum(axis=1)
    p = (1.0 + ge) / (pool_n + 1.0)
    for i in range(0, reps, 9973):
        lib = p_value(ScorePool(1, draws[i, :pool_n]), float(draws[i, pool_n]))
        if lib != p[i]:
            bad.append(f"vectorized row {i} disagrees with p_value")
    worst_excess = -1.0
    for alpha in np.arange(1, 100) / 100.0:
        emp = float(np.mean(p <= alpha))
        excess = emp - alpha - 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
        worst_excess = max(worst_excess, excess)
    if worst_excess > 0:
        bad.append(f"P(p <= alpha) exceeds alpha + 3 SE by {worst_excess:.2e}")

    detail = (f"all hand counts exact; super-uniformity holds at every grid alpha "
              f"(worst slack {-worst_excess:.2e})" if not bad else "; ".join(bad))
    _verdict(9, not bad, detail)
