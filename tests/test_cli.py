"""End-to-end CLI runs for every mode, plus artifact determinism."""

import json
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from eternalprofile import Classification, cli, shooting
from eternalprofile.cli import MODES, main
from eternalprofile.config import RunConfig
from eternalprofile.report import parse_profile_csv
from eternalprofile.solution import ProfileSolution


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = "m = 2\nq = 0.5\nN = 1\n"
SUB = "m = 1.2\nq = 0.3\nN = 1\n"
CHARTS = {
    "solve": "profile.svg",
    "classify": "profile.svg",
    "asymptotics": "interface_fit.svg",
    "phase": "phase_trajectory.svg",
    "verify": "residual.svg",
}


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def test_solve_mode(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["status"] == "ok"
    res = report["results"]
    assert res["beta_star"] == pytest.approx(0.5138348204162287, rel=1e-9)
    assert res["profile"]["classification"] == "CandidateB"
    assert abs(res["profile"]["contact_slope"]) <= res["slope_bound"]
    meta, cols = parse_profile_csv(out / "profile.csv")
    assert meta["classification"] == "CandidateB"
    assert cols["xi"][0] == 1e-6


def test_removed_shoot_mode_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["shoot", "--config", cfg, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_classify_mode(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "beta = 0.1\n")
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["results"]["profile"]["classification"] == "ClassC"


def test_asymptotics_mode(tmp_path):
    cfg = write_cfg(tmp_path, SUB)
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", cfg, "--out", str(out)]) == 0
    res = read_report(out)["results"]
    fitted, predicted = res["fitted"], res["predicted"]
    assert fitted["theta_hat"] == pytest.approx(predicted["theta"], rel=0.02)
    assert fitted["amplitude_hat"] == pytest.approx(
        predicted["amplitude"], rel=0.05
    )
    assert res["bounds"]["passed"] is True


def test_phase_mode(tmp_path):
    cfg = write_cfg(tmp_path, SUB)
    out = tmp_path / "out"
    assert main(["phase", "--config", cfg, "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["tail"]["W_over_Z_deviation"] <= 0.05
    assert res["limit_point"]["signs_ok"] is True
    assert res["coordinate_identity_residual"] < 1e-12


def test_verify_mode(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert res["ode_residual_max"] <= 1e-6
    assert all(1.7 <= o <= 2.3 for o in res["pde_residual"]["orders"])
    radii = [s["support_radius"] for s in res["trace"]]
    assert radii == sorted(radii, reverse=True)


def test_sweep_mode(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "sweep_betas = 0.05, 1, 8\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    res = read_report(out)["results"]
    assert "workers" not in res
    classes = [j["classification"] for j in res["jobs"]]
    assert classes == ["ClassC", "ClassA", "ClassA"]


def test_sweep_returns_jobs_in_input_order(tmp_path, monkeypatch):
    # more jobs than a four-digit job number can tell apart; the stub
    # stands in for the forward integration so the sweep stays fast
    stub = SimpleNamespace(
        classification=Classification.CLASS_C, xi0=None, xi1=1.0
    )
    monkeypatch.setattr(cli, "integrate_profile", lambda p, e, opts: stub)
    betas = [0.01 * (i + 1) for i in range(10002)]
    cfg = write_cfg(
        tmp_path, BASE + "sweep_betas = " + ", ".join(map(repr, betas)) + "\n"
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert [j["beta"] for j in read_report(out)["results"]["jobs"]] == betas


def test_plots_flag_controls_svg(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    plain, plotted = tmp_path / "plain", tmp_path / "plotted"
    assert main(["solve", "--config", cfg, "--out", str(plain)]) == 0
    assert not list(plain.glob("*.svg"))
    assert (
        main(["solve", "--config", cfg, "--out", str(plotted), "--plots"]) == 0
    )
    assert (plotted / "profile.svg").is_file()


def test_asymptotics_plot_where_no_grid_node_is_in_the_fit_window(tmp_path):
    # at (1.2, 0.4, 1) the stored grid skips the whole fit window, so the
    # chart samples the dense profile instead
    cfg = write_cfg(tmp_path, "m = 1.2\nq = 0.4\nN = 1\n")
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", cfg, "--out", str(out), "--plots"]) == 0
    assert read_report(out)["status"] == "ok"
    assert "<polyline" in (out / "interface_fit.svg").read_text()


@pytest.mark.parametrize("mode", MODES)
def test_repeated_runs_byte_identical(tmp_path, mode):
    cfg = write_cfg(tmp_path, SUB + "beta = 0.5\nsweep_betas = 0.05, 1\n")
    artifacts = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main([mode, "--config", cfg, "--out", str(out), "--plots"]) == 0
        artifacts.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert artifacts[0] == artifacts[1]
    expected = {"report.json"}
    if mode != "sweep":
        expected |= {"profile.csv", CHARTS[mode]}
    assert set(artifacts[0]) == expected


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m = 2\n")  # missing q and N
    assert main(["solve", "--config", cfg]) == 2
    assert "error" in capsys.readouterr().err


def test_command_line_mode_is_validated(tmp_path, capsys):
    # the file is complete for solve, which needs no beta; the command
    # line asks for classify, which does
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert "classify mode requires beta" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_file_mode_gives_way_to_command_line_mode(tmp_path, capsys):
    # the command line alone sets the mode, so a file that names one is
    # rejected before anything runs
    cfg = write_cfg(tmp_path, BASE + "mode = classify\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "line 4: unknown key 'mode'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_evaluates_the_profile_in_batches(tmp_path, monkeypatch):
    # the PDE residual evaluates each stencil node over the whole radial
    # grid at once: 45 calls for 3 sweeps of 3 times, 8 for the rest
    calls = []
    eval_F = ProfileSolution.eval_F

    def counted(self, xi):
        calls.append(xi)
        return eval_F(self, xi)

    monkeypatch.setattr(ProfileSolution, "eval_F", counted)
    cfg = RunConfig(m=1.2, q=0.3, N=1)
    assert cli.run(cfg, "verify", tmp_path, False).status == "ok"
    assert len(calls) <= 60     # one call per stencil point makes 332


def test_module_error_serialized_as_failure(tmp_path):
    # classify with beta validation passing but phase analysis requiring
    # the sub-critical range
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["phase", "--config", cfg, "--out", str(out)]) == 1
    report = read_report(out)
    assert report["status"] == "failed"
    assert "CaseError" in report["results"]["error"]


def test_phase_fails_before_it_solves(tmp_path, monkeypatch):
    # phase analysis needs m + q < 2, which is known before any solve
    calls = []
    monkeypatch.setattr(shooting, "solve", lambda *a, **k: calls.append(a))
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["phase", "--config", cfg, "--out", str(out)]) == 1
    assert "CaseError" in read_report(out)["results"]["error"]
    assert calls == []
    assert sorted(f.name for f in out.iterdir()) == ["report.json"]


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_horizon_below_launch_point_fails(tmp_path, horizon):
    cfg = write_cfg(tmp_path, BASE + f"beta = 0.5\nhorizon = {horizon}\n")
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 1
    report = read_report(out)
    assert report["status"] == "failed"
    assert "DomainError" in report["results"]["error"]


#: The keys a configuration file may set, each echoed in report.json.
FILE_KEYS = {"m", "q", "N", "beta", "beta_tol", "rtol", "horizon",
             "sweep_betas", "sweep_params"}


def test_report_parses_with_tab_and_non_ascii_in_config(tmp_path):
    out = tmp_path / "out\tdir-\u03be"
    cfg = write_cfg(tmp_path, BASE + "beta = 0.1\n", name="run\t\u03be.cfg")
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert (report["status"], set(report["config"])) == ("ok", FILE_KEYS)


def test_report_echoes_full_config(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    config = read_report(out)["config"]
    assert config["m"] == 2.0
    assert config["beta_tol"] == 1e-8
    assert config["rtol"] == 1e-10
    assert set(config) == set(asdict(RunConfig())) == FILE_KEYS


def test_report_holds_no_command_line_setting(tmp_path):
    # the mode is reported once, as the run's; the output directory and
    # the charts appear nowhere in the report
    cfg = write_cfg(tmp_path, BASE + "beta = 0.1\n")
    out = tmp_path / "outA"
    assert main(["classify", "--config", cfg, "--out", str(out), "--plots"]) == 0
    assert (out / "profile.svg").is_file()
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert report["mode"] == "classify"
    assert not {"mode", "output_dir", "emit_plots", "out", "plots"} & set(
        report["config"])
    assert "outA" not in text


def test_out_and_plots_leave_the_artifacts_unchanged(tmp_path, monkeypatch):
    # the first run writes into the current directory, --out's default
    cfg = write_cfg(tmp_path, BASE + "beta = 0.1\n")
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    monkeypatch.chdir(here)
    assert main(["classify", "--config", cfg]) == 0
    assert main(["classify", "--config", cfg, "--out", str(there), "--plots"]) == 0
    assert not list(here.glob("*.svg"))
    assert (there / "profile.svg").is_file()
    for name in ("report.json", "profile.csv"):
        assert (here / name).read_bytes() == (there / name).read_bytes()
