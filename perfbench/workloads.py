"""The benchmark's workloads: inputs, timed operations and their checks.

A workload is built from the workload seed.  ``setup`` generates every input
(and may be repeated); ``ops`` are the timed operations of one pass, each a
CLI command run in-process through ``rmtkit.cli.run`` or a library call;
``check`` compares the outputs of all passes with references after timing
has ended.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os

import numpy as np

import checks
from checks import Check

# N=100 noise panel of the `track` workload.  Pinned: the metric it feeds is a
# maximum over 2000 steps, which varies from 0.74e-2 to 1.55e-2 over noise
# seeds 0-9, wider than any bound allows; seed 0 is one of the inputs on
# which the tracker's iteration cap was found.
NOISE_SEED = 0
# Student panel of the `solvers` workload, pinned too: the number of
# student_ml iterations depends on the panel (4.0 s on one seed, 7.3-8.6 s
# on its neighbours), which would swamp every change to the solver.
STUDENT_SEED = 0


class OpFailed(Exception):
    pass


def cli(argv):
    """Run one CLI command in-process; its stdout is kept off ours."""
    from rmtkit import cli as rmtkit_cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = rmtkit_cli.run([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"rmtkit {argv[0]} exited with {code}")


class Workload:
    name = ""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def path(self, name):
        return os.path.join(self.work, name)

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        cli(["spectrum", "--law", "mp", "--q", "0.5",
             "--out", self.path("warm-up.csv")])

    def ops(self):
        """[(name, run(pass_index) -> output)]"""
        raise NotImplementedError

    def keep(self, op, out):
        """Reduce an op's output to what the checks need (not timed)."""
        return out

    def check(self, op, outs):
        """Checks of one op's outputs, from the passes in which it ran."""
        return getattr(self, f"check_{op}")(outs)

    def layer_extras(self, outputs, index):
        """Per-layer metrics computed from the outputs of pass ``index``;
        a workload without tracker ops has no tracker steps off."""
        return {"kernels.track_top.steps_off": (0, "count")}


def _same_and_finite(paths, what, usecols=None):
    """Outputs are byte-identical across passes and hold finite numbers."""
    same = checks.check_identical([checks.digest(p) for p in paths], what)
    out = []
    for p in paths:
        fin = checks.check_finite_table(
            checks.read_table(p, usecols=usecols), what)
        out.append(Check(same.ok and fin.ok, f"{same.detail}; {fin.detail}"))
    return out


def _all(results):
    results = list(results)
    errs = [c.err for c in results if c.err is not None]
    bad = [c.detail for c in results if not c.ok]
    return Check(not bad, f"{len(results) - len(bad)}/{len(results)} ok"
                 + (f"; {bad[0]}" if bad else f"; {results[0].detail}"),
                 max(errs) if errs else None)


def _both(a, b):
    errs = [e for e in (a.err, b.err) if e is not None]
    return Check(a.ok and b.ok, f"{a.detail}; {b.detail}",
                 max(errs) if errs else None)


def _spike_panel_argv(seed, out):
    return ["simulate", "--spec", "spike", "--rho", "0.3", "--N", 500,
            "--T", 5000, "--seed", seed, "--out", out]


class CliPanel(Workload):
    """CLI pipeline on a 500 x 5000 spiked panel (38 MB of CSV)."""

    name = "cli_panel"
    alpha = 0.5

    def setup(self):
        self.panel = self.path("panel.csv")
        self.other = self.path("other.csv")
        cli(_spike_panel_argv(self.seed, self.panel))
        cli(["simulate", "--spec", "identity", "--N", 200, "--T", 5000,
             "--seed", self.seed + 100_000, "--out", self.other])

    def ops(self):
        def simulate(k):
            out = self.path(f"simulate-{k}.csv")
            cli(_spike_panel_argv(self.seed, out))
            return out

        def clean(k):
            out = self.path(f"clean-{k}.csv")
            cli(["clean", "--panel", self.panel, "--scheme", "clip",
                 "--alpha", self.alpha, "--out", out])
            return out

        def spikes(k):
            out = self.path(f"spikes-{k}.txt")
            cli(["spikes", "--panel", self.panel, "--out", out])
            return out

        def backtest(k):
            out = self.path(f"backtest-{k}.csv")
            cli(["backtest", "--panel", self.panel, "--scheme", "clip",
                 "--out", out])
            return out

        def svd(k):
            out = self.path(f"svd-{k}.csv")
            cli(["svd", "--x", self.panel, "--y", self.other, "--out", out])
            return out

        return [("simulate", simulate), ("clean", clean), ("spikes", spikes),
                ("backtest", backtest), ("svd", svd)]

    def keep(self, op, out):
        # a simulated panel is 38 MB: keep its digest, not the file
        if op == "simulate":
            d = checks.digest(out)
            os.remove(out)
            return d
        return out

    @functools.cached_property
    def X(self):
        return checks.read_panel(self.panel)

    @functools.cached_property
    def clean_ref(self):
        return checks.clip_reference(self.X, self.alpha)

    def check_simulate(self, digests):
        ref = checks.digest(self.panel)
        return [Check(d == ref, "simulate output "
                      + ("is" if d == ref else "is not")
                      + " byte-identical to the set-up panel")
                for d in digests]

    def check_clean(self, paths):
        return [checks.check_clean(checks.read_table(p), self.clean_ref)
                for p in paths]

    def check_spikes(self, paths):
        top = checks.top_eigenvalue(self.X)
        return [checks.check_spikes(open(p).read(), top) for p in paths]

    def check_backtest(self, paths):
        # columns alpha, scheme, in_risk, out_risk
        return _same_and_finite(paths, "backtest", usecols=(0, 2, 3))

    def check_svd(self, paths):
        ref = checks.top_canonical_correlation(
            self.X, checks.read_panel(self.other))
        return [checks.check_svd(checks.read_table(p), ref) for p in paths]


class Solvers(Workload):
    """The iterative solvers: resolvent kernels, Newton continuation,
    Blue/psi inversion and the student_ml fixed point.  No panel I/O."""

    name = "solvers"
    student = dict(N=300, T=600, mu=5.0, tol=3e-5, max_iter=2000)
    ewma_q = tuple(np.round(np.linspace(0.3, 0.7, 21), 2))

    def setup(self):
        from rmtkit.estimators import ReturnPanel
        s = self.student
        rng = np.random.default_rng(STUDENT_SEED)
        xi = rng.standard_normal((s["T"], s["N"]))
        scale = np.sqrt(s["mu"] / rng.chisquare(s["mu"], size=s["T"]))
        self.R = checks.standardized(scale[:, None] * xi)
        self.panel = ReturnPanel(self.R)

    def ops(self):
        from rmtkit import estimators, spectra, transforms

        def grid_of(d):
            return d.grid, d.density, d.atoms

        def ewma(k):
            # one call takes 15 ms, too short to time on a noisy host
            return [grid_of(spectra.ewma_density(q)) for q in self.ewma_q]

        def dressed(k):
            out = self.path(f"dressed-{k}.csv")
            cli(["spectrum", "--law", "powerlaw-dressed", "--q", 0.5,
                 "--alpha", 0.35, "--out", out])
            return out

        def elliptic(k):
            out = self.path(f"elliptic-{k}.csv")
            cli(["spectrum", "--law", "elliptic", "--q", 0.5, "--mu", 4,
                 "--out", out])
            return out

        def free_add(k):
            return grid_of(transforms.free_add(
                spectra.mp_density(0.25), spectra.wigner_semicircle(1.0)))

        def free_multiply(k):
            return grid_of(transforms.free_multiply(
                spectra.mp_density(0.25), spectra.mp_density(0.1)))

        def student_ml(k):
            s = self.student
            return estimators.student_ml(
                self.panel, s["mu"], tol=s["tol"],
                max_iter=s["max_iter"]).values

        return [("ewma", ewma), ("dressed", dressed), ("elliptic", elliptic),
                ("free_add", free_add), ("free_multiply", free_multiply),
                ("student_ml", student_ml)]

    @staticmethod
    def _spectrum_csv(path):
        t = checks.read_table(path)
        return t[:, 0], t[:, 1]

    def check_ewma(self, outs):
        # every EWMA density of a unit-variance null has mean 1
        return [_all(checks.check_moments(g, d, 1.0, 0.01, atoms=a)
                     for g, d, a in out)
                for out in outs]

    def check_dressed(self, paths):
        from rmtkit import spectra
        prior_mean = spectra.powerlaw_prior_density(
            spectra.PowerLawPrior(0.35)).mean()
        return [checks.check_moments(*self._spectrum_csv(p), prior_mean, 0.005)
                for p in paths]

    def check_elliptic(self, paths):
        # Student tail index mu = 4: mean mu/(mu-2) = 2, tail slope -3
        return [_both(checks.check_moments(g, d, 2.0, 0.05),
                      checks.check_tail_slope(g, d, 4.0))
                for g, d in map(self._spectrum_csv, paths)]

    def check_free_add(self, outs):
        # MP(1/4) has mean 1, variance 1/4; the semicircle mean 0, variance 1
        return [checks.check_moments(g, d, 1.0, 0.02, 1.25, 0.05, atoms=a)
                for g, d, a in outs]

    def check_free_multiply(self, outs):
        sample = checks.wishart_of_wishart_sample(
            np.random.default_rng(self.seed + 200_000))
        return [_both(checks.check_moments(g, d, 1.0, 0.01, 0.35, 0.05,
                                           atoms=a),
                      checks.check_sample_l1(g, d, sample))
                for g, d, a in outs]

    def check_student_ml(self, outs):
        s = self.student
        return [checks.check_student_fixed_point(C, self.R, s["mu"], s["tol"])
                for C in outs]


class Track(Workload):
    """The EWMA eigenpair tracker at N = 500 (CLI), N = 2 and N = 100."""

    name = "track"
    epsilon = 0.02
    n2 = dict(T=60_000, spectrum=(10.0, 1.0))
    noise = dict(N=100, T=2000)

    def setup(self):
        from rmtkit.estimators import ReturnPanel
        self.panel = self.path("panel.csv")
        cli(_spike_panel_argv(self.seed, self.panel))
        lam = np.array(self.n2["spectrum"])
        rng = np.random.default_rng(self.seed)
        self.R2 = rng.standard_normal((self.n2["T"], 2)) * np.sqrt(lam)
        self.e_init = np.diag(lam)
        self.R100 = np.random.default_rng(NOISE_SEED).standard_normal(
            (self.noise["T"], self.noise["N"]))
        self.panel2 = ReturnPanel(self.R2)
        self.panel100 = ReturnPanel(self.R100)

    def ops(self):
        from rmtkit import dynamics

        def run_dynamics(k):
            out = self.path(f"dynamics-{k}.csv")
            cli(["dynamics", "--panel", self.panel, "--epsilon", self.epsilon,
                 "--out", out])
            return out

        def track(t):
            return t.lambda1, t.theta, t.v1

        def track_n2(k):
            return track(dynamics.track_top(
                self.panel2, self.epsilon, np.array([1.0, 0.0]),
                e_init=self.e_init))

        def track_noise(k):
            N = self.noise["N"]
            return track(dynamics.track_top(
                self.panel100, self.epsilon, np.ones(N) / np.sqrt(N)))

        return [("dynamics", run_dynamics), ("track_n2", track_n2),
                ("track_noise", track_noise)]

    @functools.cached_property
    def exact(self):
        return {"track_n2": checks.exact_top_eigenvalues(
                    self.R2, self.epsilon, self.e_init),
                "track_noise": checks.exact_top_eigenvalues(
                    self.R100, self.epsilon)}

    def check_dynamics(self, paths):
        return _same_and_finite(paths, "dynamics")

    def check_track_n2(self, outs):
        return [checks.check_track(*out, self.exact["track_n2"])
                for out in outs]

    def check_track_noise(self, outs):
        return [checks.check_track(*out, self.exact["track_noise"])
                for out in outs]

    def layer_extras(self, outputs, index):
        off = sum(checks.steps_off(outputs[op][index][0], exact)
                  for op, exact in self.exact.items()
                  if outputs[op][index] is not None)
        return {"kernels.track_top.steps_off": (off, "count")}


WORKLOADS = {w.name: w for w in (CliPanel, Solvers, Track)}
