"""Every parameter with a default in the package's public functions, and
every field of the run configuration and of the integrator options.

Each such parameter or field is a setting that tests and benchmarks must
cover.  A value no caller changes belongs in the code as a constant, and
one the code can work out from its inputs is computed.  A new option,
configuration key or integrator field edits these lists, and CHANGES.md
names the caller that needs a value other than the default.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import eternalprofile
from eternalprofile.config import RunConfig
from eternalprofile.integrate import IntegratorOptions

OPTIONS = {
    "asymptotics.fit_interface": ["with_second_order"],
    "cli.main": ["argv"],
    "integrate.integrate_profile": ["opts"],
    "integrate.integrate_limit_profile": ["guard"],
    "pdecheck.profile_ode_residual": ["delta"],
    "shooting.bracket_beta": ["opts"],
    "shooting.bisect_beta": ["beta_tol", "opts"],
    "shooting.solve": ["beta_tol", "opts"],
    "shooting.monotonicity_check": ["opts"],
    "svgplot.line_chart": ["title", "xlabel", "ylabel", "logy"],
}

#: The keys of a configuration file; the mode, the output directory and
#: the charts are set on the command line only.
CONFIG_KEYS = ["m", "q", "N", "beta", "beta_tol", "rtol", "horizon",
               "sweep_betas", "sweep_params"]
INTEGRATOR_FIELDS = ["rtol", "horizon", "slope_event"]


def _options():
    """{"module.function": [parameters with defaults]} over the package."""
    found = {}
    for info in pkgutil.iter_modules(eternalprofile.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"eternalprofile.{info.name}")
        for name, fn in vars(module).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
            ):
                continue
            params = inspect.signature(fn).parameters.values()
            with_default = [
                p.name for p in params if p.default is not inspect.Parameter.empty
            ]
            if with_default:
                found[f"{info.name}.{name}"] = with_default
    return found


def _fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_public_options_are_pinned():
    assert _options() == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 15
    assert _fields(RunConfig) == CONFIG_KEYS
    assert _fields(IntegratorOptions) == INTEGRATOR_FIELDS
    assert (len(CONFIG_KEYS), len(INTEGRATOR_FIELDS)) == (9, 3)


def test_no_module_reads_the_environment():
    """No module reads an environment variable.

    The configuration file and the function arguments are the only
    inputs, so equal inputs give equal results on every machine.  A new
    variable edits this test, and CHANGES.md names the caller that needs
    it.
    """
    readers = []
    for path in sorted(Path(eternalprofile.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", getattr(node, "id", None))
            if name in ("environ", "getenv", "environb", "getenvb"):
                readers.append(f"{path.name}:{node.lineno} {name}")
    assert readers == []
