"""Every parameter with a default in the package's public functions, and
every field of the run configuration.

Each such parameter or field is a setting that tests and benchmarks must
cover.  A value no caller changes belongs in the code as a constant, and
one the code can work out from its inputs is computed.  A new option or
configuration key edits these lists, and CHANGES.md names the caller
that needs a value other than the default.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import eternalprofile
from eternalprofile.config import RunConfig

OPTIONS = {
    "cli.main": ["argv"],
    "integrate.integrate_profile": ["rtol"],
    "shooting.bracket_beta": ["rtol"],
    "shooting.bisect_beta": ["beta_tol", "rtol"],
    "shooting.solve": ["beta_tol", "rtol"],
    "svgplot.line_chart": ["title", "xlabel", "ylabel", "logy"],
}

#: The keys of a configuration file; the mode, the output directory and
#: the charts are set on the command line only.
CONFIG_KEYS = ["m", "q", "N", "beta", "beta_tol", "rtol", "sweep_betas",
               "sweep_params"]


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
    assert sum(map(len, OPTIONS.values())) == 11
    assert _fields(RunConfig) == CONFIG_KEYS
    assert len(CONFIG_KEYS) == 8


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
