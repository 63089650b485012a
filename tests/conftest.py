"""Shared test fixtures: central finite-difference gradient oracles, the
text of a class model's four networks, the OpenBLAS core that bit-exact
tests gate on, the README's minimal config, and the hypothesis profile of
the property tests.

The gradient checks treat the tape engine as the object under test, so the
oracle side never touches Tensor internals: it re-evaluates the loss as a
plain function of flat parameter vectors.

Property tests run without per-example deadlines, since wall time drifts
widely from run to run on small shared machines, and derandomized, so a
run draws the same examples every time.
"""

import ctypes
import json
import pathlib

import numpy as np
from hypothesis import settings

from flowconformal.nn import mlp_to_dict

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> dict:
    """The JSON document of the README's minimal synthetic config."""
    text = README.read_text().split("A minimal synthetic config:\n\n```json\n", 1)[1]
    return json.loads(text.split("```", 1)[0])


settings.register_profile("flowconformal", deadline=None, derandomize=True)
settings.load_profile("flowconformal")

FD_STEP = 1e-6
REL_TOL = 1e-5
ABS_FLOOR = 1e-8


def finite_diff_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def max_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest relative error with an absolute floor for near-zero entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ABS_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_mlp_gradients(net, loss_fn, rel_tol: float = REL_TOL) -> float:
    """Compare analytic gradients of loss_fn(net) against central differences.

    loss_fn builds a fresh scalar Tensor graph from the network each call;
    parameters are perturbed in place for the numeric side. Returns the worst
    relative error over every parameter entry.
    """
    loss = loss_fn()
    loss.backward()
    analytic = [None if p.grad is None else p.grad.copy() for p in net.parameters()]
    worst = 0.0
    for p, a in zip(net.parameters(), analytic):
        if a is None:
            a = np.zeros_like(p.data)

        def f(_arr, p=p):
            return float(loss_fn().data)

        numeric = np.zeros_like(p.data)
        flat = p.data.ravel()
        nf = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = f(None)
            flat[i] = orig - FD_STEP
            fm = f(None)
            flat[i] = orig
            nf[i] = (fp - fm) / (2.0 * FD_STEP)
        worst = max(worst, max_grad_error(a, numeric))
        p.grad = None
    assert worst < rel_tol, f"gradient mismatch: worst rel err {worst:.3e}"
    return worst


def networks_json(model) -> str:
    """G, I, D and h of a trained class model as one JSON text: equal texts
    mean equal networks bit for bit, since each float is written as its repr
    (which keeps -0.0 apart from 0.0). A model file holds only I."""
    nets = (model.generator, model.inverse, model.discriminator, model.head)
    return json.dumps([mlp_to_dict(net) for net in nets])


def openblas_core():
    """The core whose kernels the OpenBLAS bundled with numpy runs here, or
    None if it cannot be asked. A DYNAMIC_ARCH build picks the core per CPU
    at load time; the core in np.show_config's "openblas configuration" is
    that of the machine that built the wheel."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None
