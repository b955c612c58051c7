"""Shared pytest hooks.

The acceptance tests report one pass/fail line per criterion; pytest's
output capture would hide them for passing tests, so they are collected
here and echoed in the terminal summary.
"""

import numpy as np

from rmtkit import synth
from rmtkit.estimators import CorrelationMatrix

ACCEPTANCE_LINES = []


def spiked_correlation(N, spikes, seed):
    """Population correlation with top eigenvalues ``spikes`` and a flat
    bulk that keeps Tr C = N, in the basis of a Haar rotation."""
    k = len(spikes)
    bulk = (N - sum(spikes)) / (N - k)
    vals = np.concatenate([spikes, np.full(N - k, bulk)])
    O = synth.haar_rotation(N, seed)
    return CorrelationMatrix((O * vals) @ O.T)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
