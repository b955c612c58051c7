import ast
import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rmtkit

MODULES = ["rmtkit"] + [f"rmtkit.{m.name}"
                        for m in pkgutil.iter_modules(rmtkit.__path__)]


# The benchmark's layer tracer resolves every name in each module's __all__;
# a stale entry would break every traced run.
@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


# Code budget: a public name earns its place by a caller outside its own
# unit tests, in the package, the benchmark or an acceptance criterion.  The
# callers are read from the syntax tree, so a docstring, a comment or a
# string does not count.  A module-level name needs a read of the name or of
# an attribute of that name; a public method or classmethod of an exported
# class needs a ``.name(...)`` call, a public property a ``.name`` read, and
# a field of an exported dataclass a ``.field`` read.  A defaulted parameter
# of a public function, method or dataclass constructor needs a call of that
# name that passes it, by keyword or by position, anything but a literal
# equal to its default.  Names are matched alone,
# whatever object they belong to.  Each exempt entry keeps its reason, and
# must still be exempt: it exists and has no caller.
_MEASURE = "a measure test_spectra and test_transforms read results with"
BUDGET_EXEMPT = {
    "portfolio.markowitz_weights":
        "the paper's weight formula; backtest inlines it because it also "
        "needs g^T E^{-1} g",
    "transforms.r_transform": "the identity gauge's oracle",
    "transforms.s_transform": "the identity gauge's oracle",
    "transforms.resolvent":
        "the benchmark's tracer wraps it; its one other reader checks that "
        "the tracer wraps and restores it",
    "spectra.wigner_semicircle(sigma=)":
        "its one caller, the benchmark, passes the default 1.0 by position, "
        "so deleting the option breaks that call",
    "SpectralDensity.variance": _MEASURE,
    "SpectralDensity.cdf": _MEASURE,
    "SpectralDensity.l1_distance": _MEASURE,
    "SpectralDensity.from_samples": _MEASURE,
}
REPO = Path(__file__).resolve().parents[1]
# the benchmark's own unit tests are not callers
CALLERS = [*sorted((REPO / "src" / "rmtkit").glob("*.py")),
           *sorted(p for p in (REPO / "perfbench").glob("*.py")
                   if p.name != "test_perfbench.py"),
           REPO / "tests" / "test_acceptance.py"]


_NOT_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return _NOT_LITERAL


def _references():
    """``(read, called, passed)``: every name or attribute name read, every
    attribute name called, and for each name called its calls, in the files
    that count as callers.  A call is ``(args, keywords)``: the value of each
    positional argument and of each keyword, ``_NOT_LITERAL`` where it is not
    a literal.  A ``*args`` passes every position (``args`` is None), a
    ``**kwargs`` every keyword (``"**"``).  A call of a name imported from
    outside rmtkit (``np.clip``) passes nothing to rmtkit's name."""
    read, called, passed = set(), set(), {}
    for path in CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        bindings = _bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
                called.add(name)
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            else:
                continue
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if (isinstance(root, ast.Name) and root.id in bindings
                    and not bindings[root.id].startswith("rmtkit")):
                continue
            args = (None if any(isinstance(a, ast.Starred) for a in node.args)
                    else [_literal(a) for a in node.args])
            passed.setdefault(name, []).append(
                (args, {k.arg or "**": _literal(k.value)
                        for k in node.keywords}))
    return read, called, passed


def _sets(call, i, p):
    """Whether ``call`` passes parameter ``p``, the i-th, a value other
    than a literal equal to its default."""
    args, keywords = call
    if p.kind is not p.KEYWORD_ONLY and (args is None or i < len(args)):
        value = _NOT_LITERAL if args is None else args[i]
    elif "**" in keywords or p.name in keywords:
        value = keywords.get(p.name, _NOT_LITERAL)
    else:
        return False
    return not (type(value) is type(p.default) and value == p.default)


def _unset(label, name, params, passed):
    """``label(p=)`` for each defaulted parameter p in ``params`` that no
    call of ``name`` sets; none for a name never called, which the name
    rule reports."""
    if name not in passed:
        return set()
    return {f"{label}({p.name}=)" for i, p in enumerate(params)
            if p.default is not p.empty
            and not any(_sets(call, i, p) for call in passed[name])}


def _params(func, drop_self=False):
    params = [p for p in inspect.signature(func).parameters.values()
              if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    return params[1:] if drop_self else params


def _uncalled():
    """Each public name, method, property, field or option without a
    caller."""
    read, called, passed = _references()
    out, classes = set(), {}
    for modname in MODULES:
        mod = importlib.import_module(modname)
        short = modname.removeprefix("rmtkit.")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if name not in read:
                out.add(f"{short}.{name}")
            if inspect.isclass(obj):
                classes[obj.__qualname__] = obj
            elif inspect.isfunction(obj):
                out |= _unset(f"{short}.{name}", name, _params(obj), passed)
    for qualname, cls in classes.items():
        if dataclasses.is_dataclass(cls):
            out |= {f"{qualname}.{f.name}" for f in dataclasses.fields(cls)
                    if f.name not in read}
            out |= _unset(qualname, qualname, _params(cls), passed)
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (property, functools.cached_property)):
                used = attr in read
            elif inspect.isfunction(value) or isinstance(
                    value, (classmethod, staticmethod)):
                used = attr in called
                out |= _unset(f"{qualname}.{attr}", attr, _params(
                    getattr(cls, attr), inspect.isfunction(value)), passed)
            else:  # a field's default
                continue
            if not used:
                out.add(f"{qualname}.{attr}")
    return out


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled() - BUDGET_EXEMPT.keys()) == []


def test_budget_exemptions_are_current():
    # an exempt name that is gone, or has gained a caller, leaves the table
    assert sorted(BUDGET_EXEMPT.keys() - _uncalled()) == []


# Every grid size reads density.GRID_POINTS: no density builder takes one.
@pytest.mark.parametrize("modname", ["rmtkit.spectra", "rmtkit.transforms"])
def test_no_builder_takes_a_grid_size(modname):
    mod = importlib.import_module(modname)
    for name in mod.__all__:
        try:
            params = inspect.signature(getattr(mod, name)).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        assert "npoints" not in params, name


# One value serves each of these, so none is an option: a unit atom's mass,
# the standardization tolerance, clip's unrescaled diagonal and the
# portfolio's unit expected gain.
def test_single_value_options_are_gone():
    from rmtkit import cleaning, portfolio
    from rmtkit.density import SpectralDensity
    from rmtkit.estimators import ReturnPanel

    gone = {"mass", "tol", "renormalize_diagonal", "G"}
    for func in (SpectralDensity.atom, ReturnPanel.is_standardized,
                 cleaning.clip, portfolio.markowitz_weights,
                 portfolio.risk_triple):
        params = inspect.signature(func).parameters
        assert not gone & set(params), func.__qualname__


SRC = str(Path(rmtkit.__file__).resolve().parents[1])
# scipy.interpolate took 0.17-0.18 s to import after rmtkit.cli (2 CPUs,
# Python 3.11, SciPy 1.17), against about 0.39 s for the whole of the
# benchmark's set-up: ``transforms._pchip`` is a few lines of NumPy instead.
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.interpolate")


def _fresh(code):
    """stdout of ``code`` run in a new interpreter that finds rmtkit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _loaded_after(statement):
    return set(_fresh(f"{statement}\nimport sys\n"
                      "print(*(m for m in sys.modules if m in "
                      f"{HEAVY!r}))").split())


# scipy.stats and scipy.optimize cost about a second and 40 MB to import,
# scipy.interpolate the time above, and no command needs them at start-up.  A SciPy release whose linalg or
# special pulls one in is not rmtkit's doing, hence the baseline.
def test_import_loads_neither_stats_nor_optimize():
    baseline = _loaded_after("import scipy.linalg, scipy.special")
    assert _loaded_after("import rmtkit.cli") <= baseline


# MP with ratio q: R(w) = 1/(1 - q w), edges (1 -+ sqrt(q))^2
def test_real_r_transform_leaves_optimize_unloaded():
    baseline = _loaded_after("import scipy.linalg, scipy.special")
    out = _fresh(
        "import sys\n"
        "from rmtkit import spectra, transforms\n"
        "r = transforms.r_transform(spectra.mp_density(0.5), 0.3)\n"
        "print(r.real, r.imag, 'scipy.optimize' in sys.modules)")
    r, r_imag, loaded = out.split()
    assert float(r) == pytest.approx(1.0 / (1.0 - 0.5 * 0.3), rel=1e-12)
    assert float(r_imag) == 0.0
    assert loaded == str("scipy.optimize" in baseline)


# The fine stage of a free convolution starts from a monotone cubic of the
# coarse fixed points, which does not take SciPy's PchipInterpolator.
def test_free_add_leaves_interpolate_unloaded():
    baseline = _loaded_after("import scipy.linalg, scipy.special")
    out = _fresh(
        "import sys\n"
        "from rmtkit import spectra, transforms\n"
        "transforms.free_add(spectra.mp_density(0.25), "
        "spectra.wigner_semicircle(1.0))\n"
        "print('scipy.interpolate' in sys.modules)")
    assert out.split() == [str("scipy.interpolate" in baseline)]


# Every edge rmtkit needs has a closed form, and its one inversion engine,
# ``blue``, is its own Newton map: no module imports scipy.optimize, not
# even inside a function.
def _imports_optimize(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        names = [node.module] + [f"{node.module}.{alias.name}"
                                 for alias in node.names]
    else:
        return False
    return any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
               for n in names)


def test_no_module_imports_optimize():
    offenders = []
    for modname in MODULES:
        path = importlib.import_module(modname).__file__
        tree = ast.parse(Path(path).read_text(), path)
        offenders += [f"{modname}:{node.lineno}" for node in ast.walk(tree)
                      if _imports_optimize(node)]
    assert not offenders


# A correlation matrix is decomposed one way, by CorrelationMatrix in
# estimators through LAPACK's dsytrd and dstevd; the tracker (kernels) runs
# its own small dense solves.  No other module, estimators included, calls a
# NumPy or SciPy eigensolver, under any import alias.
EIGENSOLVERS = {f"{lib}.{name}" for lib in ("numpy.linalg", "scipy.linalg")
                for name in ("eigh", "eigvalsh", "eig", "eigvals")}


def _bindings(tree):
    """Each imported name and the dotted path it stands for."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    out[root] = root
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _dotted(node, bindings):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(bindings.get(node.id, node.id))
    return ".".join(reversed(parts))


def test_only_estimators_and_kernels_call_an_eigensolver():
    offenders = []
    for modname in MODULES:
        if modname == "rmtkit.kernels":
            continue
        path = importlib.import_module(modname).__file__
        tree = ast.parse(Path(path).read_text(), path)
        bindings = _bindings(tree)
        offenders += [f"{modname}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, (ast.Attribute, ast.Name))
                      and _dotted(node, bindings) in EIGENSOLVERS]
    assert not offenders


# A table CSV is parsed one way, by fileio's one np.loadtxt call: no second
# parser stands behind it as a fallback.
def test_one_loadtxt_call():
    calls = []
    for modname in MODULES:
        path = importlib.import_module(modname).__file__
        tree = ast.parse(Path(path).read_text(), path)
        bindings = _bindings(tree)
        calls += [f"{modname}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _dotted(node.func, bindings) == "numpy.loadtxt"]
    assert len(calls) == 1 and calls[0].startswith("rmtkit.fileio:"), calls
