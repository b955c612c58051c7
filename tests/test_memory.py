"""Memory budget of the panel commands.

Each command runs in-process under ``tracemalloc``, which sees NumPy's array
buffers, on panels with T much larger than N, so that the N x N matrices
weigh little beside the T x N ones.  Its traced peak may be at most
``BUDGET`` times the bytes of its largest panel: the input (or output) panel
plus one working copy, and some room for the N x N matrices, the dates and
the NaN checks' boolean masks.

Measured at N = 100, T = 3000: 1.68 copies (``backtest``; 1.87 while
each window's centred rows stayed alive through its eigendecomposition) to
2.35 (``simulate --mu``); ``svd`` 2.29, the other ``simulate`` specs 2.28-2.29,
``dynamics`` 2.26, ``clean`` and ``spikes`` 2.22-2.23.  The largest is 10%
under the budget.  ``svd`` read 4.67 copies and ``simulate --mu`` 3.35 while
they kept their raw panels alive.
"""

import tracemalloc

import pytest

from rmtkit import cli

BUDGET = 2.6
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
    assert peak <= BUDGET * largest, (
        f"{name}: traced peak {peak / largest:.2f} panel copies")
