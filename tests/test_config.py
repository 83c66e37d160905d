"""Config grammar: parsing, defaults, and rejection of malformed input."""

from dataclasses import asdict

import pytest

from eternalprofile.cli import MODES
from eternalprofile.config import (
    INTEGRATOR_KEYS,
    RunConfig,
    load_config,
    validate,
)
from eternalprofile.errors import ConfigError
from eternalprofile.integrate import IntegratorOptions
from eternalprofile.shooting import BETA_TOL


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_minimal_config(tmp_path):
    cfg = load_config(write(tmp_path, "m = 2\nq = 0.5\nN = 1\n"))
    validate(cfg, "solve")
    assert (cfg.m, cfg.q, cfg.N) == (2.0, 0.5, 1)
    assert cfg.beta_tol == 1e-8
    assert cfg.rtol == 1e-10


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = load_config(
        write(tmp_path, "# run\n\nm = 2\nq = 0.5\n\n# dim\nN = 3\n")
    )
    assert cfg.N == 3


def test_all_modes_accepted(tmp_path):
    body = "m = 2\nq = 0.5\nN = 1\nbeta = 0.5\nsweep_betas = 0.1, 1\n"
    cfg = load_config(write(tmp_path, body))
    for mode in MODES:
        validate(cfg, mode)


def test_sweep_params_triples(tmp_path):
    cfg = load_config(
        write(tmp_path, "sweep_params = 2:0.5:1; 1.5:0.5:2\n")
    )
    assert cfg.sweep_params == [(2.0, 0.5, 1), (1.5, 0.5, 2)]


#: The whole message for one key of each parser kind.
FULL_MESSAGES = {
    "m = 2\nq = 0.5\nN = one\n": "line 3: N must be an integer, got 'one'",
    "m = 2\nq = 0.5\nN = 1\nrtol = fast\n":
        "line 4: rtol must be a number, got 'fast'",
    # the mode, the output directory and the charts are set on the
    # command line only
    "m = 2\nq = 0.5\nN = 1\nmode = fly\n": "line 4: unknown key 'mode'",
    "m = 2\nq = 0.5\nN = 1\nsweep_params = 2:0.5\nmode = sweep\n":
        "line 4: sweep_params must be semicolon-separated m:q:N triples, "
        "got '2:0.5'",
    "m = 2\nq = 0.5\nN = 1\nsweep_betas = 0.1, x\nmode = sweep\n":
        "line 4: sweep_betas must be comma-separated numbers, got '0.1, x'",
}


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("m = 2\nq = 0.5\nN = 1\nmode = fly\n", "mode"),
        ("m = 2\nq = 0.5\nN = 1\nwibble = 3\n", "unknown key"),
        ("m = 2\nq = 0.5\nN = 1\nuse_seeds = true\n", "line 4.*use_seeds"),
        # launch offset, atol, contact threshold and tangency tolerance are
        # constants of the integrator, not settings
        ("m = 2\nq = 0.5\nN = 1\natol = 1e-12\n", "line 4: unknown key 'atol'"),
        ("m = 2\nq = 0.5\nN = 1\ndelta0 = 1e-4\n", "line 4: unknown key 'delta0'"),
        ("m = 2\nq = 0.5\nN = 1\ncontact_eps = 1e-7\n",
         "line 4: unknown key 'contact_eps'"),
        ("m = 2\nq = 0.5\nN = 1\nslope_tol = 1e-4\n",
         "line 4: unknown key 'slope_tol'"),
        ("m = 2\nq = 0.5\nN = one\n", "integer"),
        ("m = 2\nq = 0.5\nN = 1\nm = 3\n", "duplicate"),
        ("m = 2\nq = 0.5\nN = 1\nemit_plots = maybe\n",
         "line 4: unknown key 'emit_plots'"),
        ("m = 2\nq = 0.5\nN = 1\noutput_dir = out\n",
         "line 4: unknown key 'output_dir'"),
        ("m = 2\nq = 0.5\nN = 1\nrtol = fast\n", "number"),
        ("m 2\n", "key = value"),
        ("m = 2\nq = 0.5\nN = 1\nbeta = -1\n", "beta"),
        ("m = 2\nq = 0.5\nN = 1\nrtol = 0\n", "rtol"),
        ("m = 2\nq = 0.5\nN = 1\nbeta_tol = 1e-17\n", "beta_tol"),
        ("m = 2\nq = 0.5\nN = 1\nsweep_params = 2:0.5\nmode = sweep\n", "m:q:N"),
        ("m = 2\nq = 0.5\nN = 1\nsweep_betas = 0.1, x\nmode = sweep\n", "comma"),
    ],
)
def test_malformed_config_rejected(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match="(?i)" + fragment) as exc:
        validate(load_config(write(tmp_path, body)), "solve")
    if body in FULL_MESSAGES:
        assert str(exc.value) == FULL_MESSAGES[body]


@pytest.mark.parametrize(
    "mode, body, message",
    [
        ("classify", "m = 2\nq = 0.5\nN = 1\n", "classify mode requires beta"),
        ("sweep", "", "sweep mode requires sweep_betas or sweep_params"),
        ("sweep", "sweep_betas = 0.1\n", "sweep over betas requires m, q and N"),
        ("phase", "sweep_params = 2:0.5:1\n", "mode 'phase' requires m, q and N"),
    ],
    ids=["classify-beta", "sweep-jobs", "sweep-betas-triple", "phase-triple"],
)
def test_mode_requirements_rejected(tmp_path, mode, body, message):
    cfg = load_config(write(tmp_path, body))
    with pytest.raises(ConfigError) as exc:
        validate(cfg, mode)
    assert str(exc.value) == message


def test_defaults_come_from_the_solver():
    cfg = RunConfig()
    opts = IntegratorOptions()
    assert cfg.beta_tol == BETA_TOL
    for key in INTEGRATOR_KEYS:
        assert getattr(cfg, key) == getattr(opts, key), key


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.cfg")


def test_to_dict_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, "m = 2\nq = 0.5\nN = 1\nrtol = 1e-9\n"))
    d = asdict(cfg)
    assert d["rtol"] == 1e-9
    assert set(d) == {"m", "q", "N", "beta", "beta_tol", "rtol", "horizon",
                      "sweep_betas", "sweep_params"}
