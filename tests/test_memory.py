"""Memory budget of the panel commands.

Each command runs in-process under ``tracemalloc``, which sees NumPy's array
buffers, on panels with T much larger than N, so that the N x N matrices
weigh little beside the T x N ones.  Its traced peak may be at most its
budget times the bytes of its largest panel: for most commands ``BUDGET``,
the input (or output) panel plus one working copy, and some room for the
N x N matrices, the dates and the NaN checks' boolean masks.  The Gaussian
``simulate`` specs form their panel in row blocks, so they hold the panel,
one block of the draw and the N x N matrices: at most 1.5 copies.

Measured at N = 100, T = 3000: 1.36-1.37 copies (the Gaussian
``simulate`` specs; 2.28-2.29 while one product kept the whole draw alive
beside the panel), 1.67 (``backtest``; 1.87 while each window's centred
rows stayed alive through its eigendecomposition), 2.22-2.23 (``clean``,
``spikes`` and ``svd``), 2.25 (``dynamics``) and 2.35 (``simulate --mu``,
whose ``standardize`` copies the panel).  Each budget is about 10% or more
above its command's peak.  ``svd`` read 2.40 copies while it whitened each panel
into a T x N copy, and 4.67 while it kept its raw panels alive;
``simulate --mu`` read 3.35 while it kept its raw panel alive.
"""

import tracemalloc

import numpy as np
import pytest

from rmtkit import cli, crosscorr
from rmtkit.estimators import ReturnPanel, standardize

BUDGET = 2.6
BUDGETS = {"simulate-identity": 1.5, "simulate-spike": 1.5,
           "simulate-powerlaw": 1.5, "simulate-spike-mu": 2.58}
N, T = 100, 3000
N_OTHER = 40  # svd's second panel


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    d = tmp_path_factory.mktemp("memory")
    x, y = d / "x.csv", d / "y.csv"
    assert cli.run(["simulate", "--spec", "spike", "--N", str(N), "--T",
                    str(T), "--seed", "1", "--out", str(x)]) == 0
    assert cli.run(["simulate", "--spec", "identity", "--N", str(N_OTHER),
                    "--T", str(T), "--seed", "2", "--out", str(y)]) == 0
    return d, str(x), str(y)


def _simulate(*spec):
    return ["simulate", *spec, "--N", str(N), "--T", str(T), "--seed", "3",
            "--out", "{d}/out.csv"]


COMMANDS = {
    "simulate-identity": _simulate("--spec", "identity"),
    "simulate-spike": _simulate("--spec", "spike"),
    "simulate-powerlaw": _simulate("--spec", "powerlaw"),
    "simulate-spike-mu": _simulate("--spec", "spike", "--mu", "5"),
    "clean": ["clean", "--panel", "{x}", "--out", "{d}/clean.csv"],
    "spikes": ["spikes", "--panel", "{x}", "--out", "{d}/spikes.txt"],
    "backtest": ["backtest", "--panel", "{x}", "--scheme", "clip",
                 "--out", "{d}/backtest.csv"],
    "svd": ["svd", "--x", "{x}", "--y", "{y}", "--out", "{d}/svd.csv"],
    "dynamics": ["dynamics", "--panel", "{x}", "--out", "{d}/dynamics.csv"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_peak_is_panel_plus_one_copy(name, panels, capsys):
    d, x, y = panels
    argv = [a.format(d=d, x=x, y=y) for a in COMMANDS[name]]
    largest = N * T * 8  # every command's largest panel is N x T
    tracemalloc.start()
    try:
        assert cli.run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BUDGETS.get(name, BUDGET) * largest, (
        f"{name}: traced peak {peak / largest:.2f} panel copies")


def test_cross_singulars_forms_no_panel_copy():
    # the whitening acts on the M x N cross matrix: beside the two panels,
    # only N x N and M x N arrays are formed
    rng = np.random.default_rng(4)
    X = standardize(ReturnPanel(rng.standard_normal((T, N))))
    Y = standardize(ReturnPanel(rng.standard_normal((T, N_OTHER))))
    tracemalloc.start()
    try:
        res = crosscorr.cross_singulars(X, Y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * N * T * 8, (
        f"traced peak {peak / (N * T * 8):.2f} panel copies")
    # and the panels were whitened: the top canonical correlation, by QR
    qx, qy = np.linalg.qr(X.values)[0], np.linalg.qr(Y.values)[0]
    top = np.linalg.svd(qy.T @ qx, compute_uv=False)[0]
    assert abs(res.singular_values[0] - top) <= 1e-12
