"""End-to-end checks of the command line interface.

Every test shells out to ``python -m movingwell.cli`` so the argparse
layer, exit codes, and CSV files are exercised exactly as a user sees
them.  Heavy solver commands run at reduced resolution; the physics at
full resolution is covered elsewhere.
"""

import hashlib
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from movingwell import cli, core, phases
from movingwell.config import ConfigError, ScenarioConfig, parse_config
from movingwell.core import ConvergenceError, PhysicalConstants, SmoothPeriodicWall

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"

GAMMA0 = 2.8655985682520457

BREATHING = (
    "trajectory.kind=smooth_periodic\ntrajectory.L0=100\ntrajectory.q=0.1\n"
    "trajectory.omega=1\ngaussian.d=1\n"
)

#: the reversing wall, bare and at four times its size; both turn at T/2 = 2
REVERSING = "trajectory.kind=reversing_linear\n"
SCALED_REVERSING = "trajectory.kind=scaled\ntrajectory.inner=reversing_linear\ntrajectory.k=4\n"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "movingwell.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
    )


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


class TestThetaCheck:
    def test_passes_and_writes_csv(self, tmp_path):
        res = run_cli("theta-check", "--config", str(CONFIGS / "theta.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "max_rel_err" in res.stdout
        lines = (tmp_path / "theta_check.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "kind,z_re,z_im,kappa_re,kappa_im,rel_err"
        rows = read_rows(tmp_path / "theta_check.csv")
        assert rows.shape[0] == 200
        assert rows[:, 5].max() < 1e-12

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = run_cli("theta-check", "--config", str(CONFIGS / "theta.cfg"),
                          "--out", str(out))
            assert res.returncode == 0
        assert (a / "theta_check.csv").read_bytes() == (b / "theta_check.csv").read_bytes()

    def test_seed_changes_the_draw(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("theta-check", "--config", str(CONFIGS / "theta.cfg"), "--out", str(a))
        run_cli("theta-check", "--config", str(CONFIGS / "theta.cfg"), "--out", str(b),
                "--seed", "777")
        assert (a / "theta_check.csv").read_bytes() != (b / "theta_check.csv").read_bytes()

    def test_unreachable_tolerance_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, "theta.samples=50\ntolerances.theta_tol=1e-16\n")
        res = run_cli("theta-check", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 3


class TestConfigErrors:
    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=linear\ntrajectory.L0=100\ntrajectory.q=2\ntime.t=5\n",
        )
        res = run_cli("locality", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2
        assert "gaussian.d" in res.stderr

    def test_malformed_line_reports_location(self, tmp_path):
        cfg = write_cfg(tmp_path, "theta.samples=10\nno equals sign\n")
        res = run_cli("theta-check", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2
        assert ":2:" in res.stderr

    def test_non_numeric_value(self, tmp_path):
        cfg = write_cfg(tmp_path, "theta.samples=ten\n")
        res = run_cli("theta-check", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2
        assert "theta.samples" in res.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_are_rejected_by_key(self, bad):
        cfg = ScenarioConfig({"gaussian.d": bad, "time.t_list": f"1,{bad}"})
        with pytest.raises(ConfigError, match="gaussian.d"):
            cfg.get_float("gaussian.d")
        with pytest.raises(ConfigError, match="time.t_list"):
            cfg.get_float_list("time.t_list")

    def test_nan_width_names_its_key(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=linear\ntrajectory.L0=100\ntrajectory.q=2\n"
            "gaussian.d=nan\ntime.t=1\n",
        )
        res = run_cli("locality", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2
        assert "gaussian.d" in res.stderr
        assert "grid.x_min" not in res.stderr

    def test_nan_in_time_list_fails_before_any_output(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=linear\ntrajectory.L0=100\ntrajectory.q=2\n"
            "gaussian.d=1\ntime.t_list=1,nan\n",
        )
        res = run_cli("locality", "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "time.t_list" in res.stderr
        assert res.stdout == ""
        assert not (tmp_path / "out" / "locality.csv").exists()

    @pytest.mark.parametrize("command", ["fig2", "oracle-compare"])
    @pytest.mark.parametrize("n_steps", ["0", "-5"])
    def test_step_count_must_be_positive(self, tmp_path, command, n_steps):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=smooth_periodic\ntrajectory.L0=100\ntrajectory.q=0.1\n"
            f"trajectory.omega=1\ngaussian.d=1\ntime.t=1\nsolver.n_steps={n_steps}\n",
        )
        res = run_cli(command, "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2, res.stderr
        assert "solver.n_steps" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["fig2", "oracle-compare"])
    def test_solver_points_name_their_key(self, tmp_path, command):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=smooth_periodic\ntrajectory.L0=100\ntrajectory.q=0.1\n"
            "trajectory.omega=1\ngaussian.d=1\ntime.t=1\nsolver.n_points=100\n",
        )
        res = run_cli(command, "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2, res.stderr
        assert "solver.n_points must be a power of two" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "line, key", [("solver.x_min=50", "solver.x_min"), ("solver.x_max=-50", "solver.x_max")]
    )
    def test_solver_box_names_its_keys(self, tmp_path, line, key):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=smooth_periodic\ntrajectory.L0=100\ntrajectory.q=0.1\n"
            f"trajectory.omega=1\ngaussian.d=1\ntime.t=1\n{line}\n",
        )
        res = run_cli("fig2", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2, res.stderr
        assert key in res.stderr
        assert "solver.x_min must lie below solver.x_max" in res.stderr
        assert not (tmp_path / "fig2.csv").exists()

    @pytest.mark.parametrize(
        "command, line, csv",
        [
            ("phase", "phase.n_max=-3", "phase.csv"),
            ("basis-check", "basis.n_max=0", "basis_check.csv"),
            ("theta-check", "theta.samples=0", "theta_check.csv"),
            ("fig1", "fig1.n_max=-1", "fig1.csv"),
        ],
    )
    def test_out_of_range_count_is_rejected(self, tmp_path, command, line, csv):
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=smooth_periodic\ntrajectory.L0=100\ntrajectory.q=0.1\n"
            f"trajectory.omega=1\n{line}\n",
        )
        res = run_cli(command, "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 2, res.stderr
        assert line.split("=")[0] in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / csv).exists()

    @pytest.mark.parametrize(
        "command, line",
        [
            ("phase", "time.T=-2"),
            ("evolve", "time.t_list=0,-3"),
            ("basis-check", "basis.t=-1"),
            ("oracle-compare", "time.t=-1"),
            ("cycle", "time.t=9"),
        ],
    )
    def test_time_outside_the_window_names_its_key(self, tmp_path, command, line):
        if command == "cycle":  # the reversing wall's window ends at T = 4
            text = ("trajectory.kind=reversing_linear\ntrajectory.L0=100\n"
                    "trajectory.q=2\ntrajectory.T=4\ngaussian.d=1\n")
        else:
            text = BREATHING
        cfg = write_cfg(tmp_path, text + line + "\n")
        out = tmp_path / "out"
        res = run_cli(command, "--config", cfg, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert f"config error: {line.split('=')[0]}: t = " in res.stderr
        assert res.stdout == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, line, wall",
        [
            ("evolve", "evolve.route=sum\ntime.t_list=1,3", REVERSING),
            ("evolve", "evolve.route=theta_general\ntime.t_list=2,3", REVERSING),
            ("evolve", "evolve.route=unconfined_approx\ntime.t=3", REVERSING),
            ("locality", "time.t_list=1,3", REVERSING),
            ("oracle-compare", "time.t=3", REVERSING),
            ("fig2", "time.t=3\nsolver.n_points=2048\nsolver.n_steps=6000", REVERSING),
            ("evolve", "evolve.route=theta_general\ntime.t=3", SCALED_REVERSING),
            ("locality", "time.t_list=1,3", SCALED_REVERSING),
        ],
        ids=["evolve-sum", "evolve-theta_general",
             "evolve-unconfined_approx", "locality", "oracle-compare", "fig2",
             "scaled-evolve-theta_general", "scaled-locality"],
    )
    def test_time_past_the_turn_names_its_key(self, tmp_path, command, line, wall):
        # the reversing wall turns at T/2 = 2, where a rescaling leaves it: a
        # time past the turn is a valid time, which every command takes under
        # its key, stamps into its CSVs and runs, agreeing there with its
        # reference (an evolve route with the mode sum, the sum with the
        # closed form, locality with its baseline, oracle-compare and fig2
        # with the closed form by their exit code 0)
        base = f"{wall}trajectory.L0=100\ntrajectory.q=2\ntrajectory.T=4\ngaussian.d=1\n"
        out = tmp_path / "out"
        res = run_cli(command, "--config", write_cfg(tmp_path, f"{base}{line}\n"),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        key, _, value = next(k for k in line.split("\n") if k.startswith("time.")).partition("=")
        csvs = list(out.glob("*.csv"))
        assert csvs
        for csv in csvs:
            stamp = dict(w.split("=", 1) for w in csv.read_text().splitlines()[0].split()[2:])
            assert [float(v) for v in stamp[key].split(",")] == [float(v) for v in value.split(",")]
        if command == "locality":
            for row in res.stdout.splitlines():
                sup = float(re.search(r"sup_error=(\S+)", row).group(1))
                assert row.endswith("verdict=pass") and sup <= 1e-10
        if command != "evolve":
            return
        route = "theta_general" if "route=sum" in line else "sum"
        keys = re.sub(r"evolve\.route=\w+", f"evolve.route={route}", line)
        ref = tmp_path / "ref"
        res = run_cli(command, "--config", write_cfg(tmp_path, f"{base}{keys}\n", "ref.cfg"),
                      "--out", str(ref))
        assert res.returncode == 0, res.stderr
        names = sorted(p.name for p in csvs)
        assert names == sorted(p.name for p in ref.glob("*.csv"))
        for name in names:
            ours, theirs = read_rows(out / name), read_rows(ref / name)
            assert np.array_equal(ours[:, 0], theirs[:, 0])
            assert np.max(np.abs(ours[:, 1:3] - theirs[:, 1:3])) < 1e-12

    @pytest.mark.parametrize(
        "text, line",
        [
            (BREATHING, "basis.t=0"),
            (BREATHING, "basis.t=0.001"),
            # the closing wall's window ends at t_max = 99
            ("trajectory.kind=linear\ntrajectory.L0=100\ntrajectory.q=-1\n", "basis.t=98.999"),
        ],
        ids=["t=0", "t=0.001", "closing-wall-t=98.999"],
    )
    def test_basis_time_leaves_room_for_the_residual_probe(self, tmp_path, text, line):
        cfg = write_cfg(tmp_path, text + line + "\nbasis.n_max=2\n")
        out = tmp_path / "out"
        res = run_cli("basis-check", "--config", cfg, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "config error: basis.t must lie in [0.002, " in res.stderr
        assert res.stdout == ""
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("t", ["1.999", "2.0", "2.001"])
    def test_basis_probe_across_the_turn_names_its_key(self, tmp_path, t):
        # the residual probe reads t +- 0.002: across the reversing wall's
        # turn at 2 it would difference two mode families
        cfg = write_cfg(tmp_path, f"{REVERSING}trajectory.L0=100\ntrajectory.q=2\n"
                                  f"trajectory.T=4\nbasis.t={t}\nbasis.n_max=4\n")
        out = tmp_path / "out"
        res = run_cli("basis-check", "--config", cfg, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert "config error: basis.t must lie in [0.002, 3.998] and 0.002 clear of the " \
               "wall's turn" in res.stderr
        assert res.stdout == ""
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("t", ["1", "3"])
    def test_basis_probe_on_either_leg_runs(self, tmp_path, t):
        cfg = write_cfg(tmp_path, f"{REVERSING}trajectory.L0=100\ntrajectory.q=2\n"
                                  f"trajectory.T=4\nbasis.t={t}\nbasis.n_max=4\n")
        res = run_cli("basis-check", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "residual_ratios=4.00,4.00" in res.stdout

    def test_basis_time_at_the_probe_edge_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, BREATHING + "basis.t=0.002\nbasis.n_max=2\n")
        res = run_cli("basis-check", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "basis_check.csv").exists()

    @pytest.mark.parametrize(
        "command, line", [("phase", "time.T=0"), ("fig2", "time.t=0"), ("oracle-compare", "time.t=0")]
    )
    def test_zero_duration_names_its_key(self, tmp_path, command, line):
        cfg = write_cfg(tmp_path, BREATHING + line + "\n")
        res = run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stderr
        assert f"config error: {line.split('=')[0]} must be positive" in res.stderr

    @pytest.mark.parametrize(
        "line", ["fig1.q=1.5", "fig1.q=0", "fig1.omega=-1", "fig1.Lbar0_list=100,-5"]
    )
    def test_fig1_keys_name_themselves(self, tmp_path, line):
        cfg = write_cfg(tmp_path, line + "\n")
        res = run_cli("fig1", "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stderr
        assert f"config error: {line.split('=')[0]} " in res.stderr
        assert not (tmp_path / "out" / "fig1.csv").exists()

    @pytest.mark.parametrize(
        "command, text, line",
        [
            ("evolve", BREATHING + "time.t=1\n", "grid.n_points=1000000000000"),
            ("locality", BREATHING + "time.t=1\n", f"grid.n_points={cli.MAX_GRID_POINTS + 1}"),
            ("cycle", REVERSING + "trajectory.L0=100\ntrajectory.q=2\ntrajectory.T=4\n"
             "gaussian.d=1\n", f"grid.n_points={cli.MAX_GRID_POINTS + 1}"),
            ("basis-check", BREATHING, "basis.n_max=100000"),
            ("basis-check", BREATHING, f"basis.n_max={cli.MAX_BASIS_MODES + 1}"),
            ("fig1", "", "fig1.n_max=10000000000"),
            ("fig1", "", f"fig1.n_max={cli.MAX_FIG1_MODES + 1}"),
        ],
        ids=["evolve-1e12", "locality-cap", "cycle-cap", "basis-1e5", "basis-cap", "fig1-1e10",
             "fig1-cap"],
    )
    def test_counts_that_size_an_allocation_stop_at_their_cap(self, tmp_path, monkeypatch,
                                                               capsys, command, text, line):
        # refused by key while the config is read: every call that would
        # allocate the grid or the mode tables fails the test instead
        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the count was refused")

        monkeypatch.setattr(np, "linspace", allocates)
        for name in ("basis_solution", "fig_mode_phases"):
            monkeypatch.setattr(cli, name, allocates)
        cfg = write_cfg(tmp_path, text + line + "\n")
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        key = line.split("=")[0]
        assert f"config error: {key} must be at most" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command, text, name", [
        ("theta-check", "theta.samples=5\n", "jacobi_transform"),
        ("basis-check", BREATHING + "basis.n_max=2\n", "basis_solution"),
        ("phase", BREATHING + "phase.n_max=2\n", "geometric_phase"),
        ("fig1", "fig1.n_max=4\n", "fig_mode_phases"),
    ], ids=["theta-check", "basis-check", "phase", "fig1"])
    def test_nan_deviation_fails_its_check(self, tmp_path, monkeypatch, capsys, command,
                                           text, name):
        # max(0.0, nan) is 0.0: a NaN deviation used to pass with exit 0
        real = getattr(cli, name)

        def with_nan(*args, **kwargs):
            out = real(*args, **kwargs)
            if name == "fig_mode_phases":
                out["gamma"][1, 2] = np.nan
                return out
            return out * np.nan

        monkeypatch.setattr(cli, name, with_nan)
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "=nan" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        res = run_cli("theta-check", "--config", str(tmp_path / "nope.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 2

    def test_config_error_follows_the_warnings_raised_before_it(self, tmp_path, monkeypatch,
                                                                capsys):
        def warns_then_fails(cfg, seed):
            warnings.warn("raised first", UserWarning)
            raise ConfigError("theta.samples went bad")

        monkeypatch.setitem(cli.COMMANDS, "theta-check", warns_then_fails)
        cfg = write_cfg(tmp_path, "theta.samples=10\n")
        assert cli.main(["theta-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "warning: UserWarning: raised first", "config error: theta.samples went bad"
        ]

    def test_config_error_before_the_command_prints_the_error_alone(self, tmp_path, capsys):
        # the file fails to parse before any warning is recorded
        cfg = write_cfg(tmp_path, "theta.samples=10\nno equals sign\n")
        assert cli.main(["theta-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and ":2:" in line

    def test_unused_keys_are_noted(self, tmp_path):
        cfg = write_cfg(tmp_path, "theta.samples=20\nbogus.key=1\n")
        res = run_cli("theta-check", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 0
        assert "unused config keys: bogus.key" in res.stderr


#: shipped config -> the command it drives
SHIPPED = {
    "basis": "basis-check", "cycle": "cycle", "evolve": "evolve", "fig1": "fig1",
    "fig2": "fig2", "locality": "locality", "locality_scaled": "locality",
    "oracle": "oracle-compare", "phase": "phase", "theta": "theta-check",
}
#: keys that pick a route or a kind rather than a value
CHOICE_KEYS = {"trajectory.kind", "trajectory.inner", "evolve.route"}
HOSTILE = ["nan", "inf", "-inf", "-1", "0", "abc", "1e-300", "1e300"]
#: the hostile cases that run to the end, which they must keep doing
RUNS_THROUGH = {
    "cycle": {"trajectory.q=-1", "trajectory.q=0", "trajectory.q=1e-300", "trajectory.T=1e-300"},
    "evolve": {"trajectory.q=0", "trajectory.q=1e-300", "trajectory.omega=1e-300",
               "time.t_list=0", "time.t_list=1e-300", "grid.x_min=-1",
               "grid.x_min=0", "grid.x_min=1e-300", "grid.x_max=-1", "grid.x_max=0",
               "grid.x_max=1e-300", "grid.x_max=1e300"},
    "fig1": {"fig1.n_max=0", "fig1.omega=1e-300"},
    "locality": {"trajectory.q=-1", "trajectory.q=0", "trajectory.q=1e-300", "time.t_list=0",
                 "time.t_list=1e-300"},
    "locality_scaled": {"trajectory.q=0", "trajectory.q=1e-300", "trajectory.omega=1e-300",
                        "time.t=0", "time.t=1e-300"},
    "oracle": {"time.t=1e-300"},
    "phase": {"trajectory.q=0", "trajectory.q=1e-300", "trajectory.omega=1e-300",
              "phase.n_max=0"},
    "theta": {"tolerances.theta_tol=1e300"},
}
#: the hostile cases whose clock 2 pi hbar tau / m passes 1/eps (5.71e296,
#: 3.59e297, 6.28e296 and 3.57e295), which wrote noise with exit 0: they
#: must exit 3 naming the clock
NO_DIGIT_LEFT = {
    "evolve": {"time.t_list=1e300"},
    "fig2": {"trajectory.omega=1e-300"},
    "locality": {"time.t_list=1e300"},
    "locality_scaled": {"time.t=1e300"},
}
CLOCK_FAILURE = "convergence failure: the clock 2 pi hbar tau / m = "
B = core.SCALE_MAX
#: (config, key, edge) for each bound on a value the config reads
BOUNDS = [
    ("phase", "trajectory.L0", 1 / B), ("phase", "trajectory.L0", B),
    ("evolve", "gaussian.d", 1 / B), ("evolve", "gaussian.d", B),
    ("evolve", "gaussian.x0", B), ("locality", "gaussian.p0", -B),
    ("locality_scaled", "trajectory.k", 1 / B), ("locality_scaled", "trajectory.k", B),
    ("evolve", "constants.hbar", 1 / B), ("evolve", "constants.hbar", B),
    ("evolve", "constants.mass", 1 / B), ("evolve", "constants.mass", B),
    ("evolve", "trajectory.omega", B), ("cycle", "trajectory.T", B),
    ("cycle", "trajectory.q", B), ("locality", "trajectory.q", -B),
    ("fig1", "fig1.Lbar0_list", 1 / B), ("fig1", "fig1.Lbar0_list", B),
    ("fig1", "fig1.omega", B),
]


def _run_in_process(tmp_path, capsys, name, changes):
    """Exit code and stderr of the shipped config ``name`` with ``changes``,
    the Crank-Nicolson commands at 256 points."""
    raw = parse_config(CONFIGS / f"{name}.cfg")
    if name in ("fig2", "oracle"):
        raw["solver.n_points"] = "256"
    raw.update(changes)
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in raw.items()))
    code = cli.main([SHIPPED[name], "--config", cfg, "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


class TestHostileConfigs:
    """Each key of each shipped config set to each hostile value ends in exit
    0 or 3, or in exit 2 naming the key; never in an uncaught exception."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_key_and_value(self, tmp_path, capsys, name):
        keys = [k for k in parse_config(CONFIGS / f"{name}.cfg") if k not in CHOICE_KEYS]
        bad = []
        for key in keys:
            for value in HOSTILE:
                try:
                    code, err = _run_in_process(tmp_path, capsys, name, {key: value})
                except Exception as exc:  # noqa: BLE001 - the failure the sweep looks for
                    bad.append(f"{key}={value}: uncaught {type(exc).__name__}: {exc}")
                    continue
                if f"{key}={value}" in RUNS_THROUGH.get(name, ()):
                    ok = code == 0
                elif f"{key}={value}" in NO_DIGIT_LEFT.get(name, ()):
                    ok = code == 3 and CLOCK_FAILURE in err
                else:
                    ok = code in (0, 3) or (code == 2 and key in err)
                if not ok:
                    bad.append(f"{key}={value}: exit {code}: {err.strip()[-200:]}")
        assert not bad, "\n".join(bad)

    @pytest.mark.parametrize("name, key, edge", BOUNDS)
    def test_a_bound_takes_its_edge_and_names_its_key_past_it(self, tmp_path, capsys, name,
                                                               key, edge):
        code, err = _run_in_process(tmp_path, capsys, name, {key: repr(edge)})
        assert f"{key} must be at" not in err, err
        past = math.nextafter(edge, 0.0 if abs(edge) < 1 else math.copysign(math.inf, edge))
        code, err = _run_in_process(tmp_path, capsys, name, {key: repr(past)})
        assert code == 2
        assert f"config error: {key} must be at" in err


    @pytest.mark.parametrize("name, changes, named", [
        ("cycle", {"trajectory.q": "1e150", "trajectory.T": "1e150"}, None),
        ("evolve", {"trajectory.L0": "1e150", "gaussian.d": "1e-150"}, None),
        ("fig1", {"fig1.q": "1e-300"}, None),
        ("evolve", {"trajectory.L0": "1", "gaussian.d": "1e-150", "constants.mass": "1e-150",
                    "grid.x_min": "-0.4", "grid.x_max": "0.4"},
         ["gaussian.d", "constants.mass"]),
        ("locality", {"gaussian.x0": "45"},
         ["gaussian.x0 - 8 gaussian.d", "gaussian.x0 + 8 gaussian.d", "spans [37, 53]",
          "box [-51, 51]", "at t = 1"]),
        ("locality", {"grid.x_max": "60"},
         ["gaussian.x0 - 8 gaussian.d", "grid.x_max", "spans [-8, 60]", "box [-51, 51]",
          "at t = 1"]),
        ("evolve", {"gaussian.d": "20"}, ["gaussian.x0", "gaussian.d", "trajectory.L0"]),
        ("evolve", {"gaussian.d": "1e150"}, ["gaussian.x0", "gaussian.d", "trajectory.L0"]),
        ("cycle", {"gaussian.d": "20"}, ["gaussian.x0", "gaussian.d", "trajectory.L0"]),
        ("cycle", {"gaussian.d": "1e150"}, ["gaussian.x0", "gaussian.d", "trajectory.L0"]),
        ("evolve", {"trajectory.kind": "linear", "trajectory.q": "1e150", "time.t_list": "1e160"},
         ["time.t_list takes the box past the double range"]),
        ("oracle", {"gaussian.x0": "45"},
         ["gaussian.x0", "gaussian.d", "trajectory.L0", "edge-to-peak ratio is 1.", "limit 1e-08"]),
        ("basis", {"trajectory.omega": "1e150"},
         ["trajectory.q", "trajectory.omega", "basis.t", "|L'| dt = 8.", "4 grid cells, 0.4"]),
        ("oracle", {"gaussian.d": "1e-4"}, ["gaussian.d", "2 trajectory.L0 / solver.n_points"]),
        ("oracle", {"gaussian.d": "1e-4", "gaussian.x0": "0.01"},
         ["gaussian.d", "2 trajectory.L0 / solver.n_points"]),
        ("fig2", {"gaussian.d": "1e-4"},
         ["gaussian.d", "2 (solver.x_max - solver.x_min) / solver.n_points"]),
    ], ids=["turn-box", "widths-in-box", "fig1-q-underflow", "mass-width-underflow",
            "locality-default-grid", "locality-grid-keys", "evolve-leak", "evolve-leak-wide",
            "cycle-leak", "cycle-leak-wide", "evolve-box-overflow", "oracle-walls",
            "basis-probe-step", "oracle-narrow", "oracle-narrow-at-the-wall", "fig2-narrow"])
    def test_products_and_underflows_name_their_keys(self, tmp_path, capsys, name, changes,
                                                     named):
        # the box at the turn (about 5e299, whose square overflowed), L0 / d
        # (a L0^2 overflowed to an unkeyed "Im kappa must be positive"), a q
        # whose square underflows (every gamma 0, then 0/0 through numpy)
        # and an m d^2 that underflows (a ZeroDivisionError in the packet's
        # spread; L0 = 1 keeps L0 / d in bounds).  Then values inside every
        # bound that a later gate refuses: a comparison grid that leaves a
        # box, named by the keys that set its edges, a packet that leaks
        # past the walls, named by x0, d and L0, and a time whose box (1e310
        # wide) no grid can span, which wrote a CSV of norm 0 with exit 0.
        # And two library gates that gave no key: a packet 2.9e-7 of whose
        # norm lies past the walls passes the leak gate but not the fixed
        # frame's, whose walls hold a state only where it vanishes, and a
        # wall that outruns the residual probe's 2e-3 step.  And a packet
        # narrower than two cells of the CN grid: on the shipped 4,096
        # points oracle-compare solved d = 1e-4 to the end and exited 3
        # with rel_l2 = 9.925, and at x0 = 0.01 it exited 2 with an
        # initial state "identically zero", naming neither the cell nor
        # solver.n_points.
        # The line names the keys of the product: all the changed ones
        # unless ``named`` lists what it must hold
        code, err = _run_in_process(tmp_path, capsys, name, changes)
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("config error: ")
        assert all(key in line for key in named or changes)

    def test_the_cn_cell_gate_takes_its_edge(self, tmp_path, capsys, monkeypatch):
        # on the shipped 4,096 points: two cells reach the solve, and a
        # packet a rounding narrower is refused before it
        class Solved(Exception):
            pass

        def solves(*args, **kwargs):
            raise Solved

        monkeypatch.setattr(cli, "evolve_fixed_frame", solves)
        edge = cli.MIN_PACKET_CELLS * 100.0 / 4096
        for d, passes in ((edge, True), (math.nextafter(edge, 0.0), False)):
            raw = parse_config(CONFIGS / "oracle.cfg") | {"gaussian.d": repr(d)}
            cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in raw.items()))
            argv = ["oracle-compare", "--config", cfg, "--out", str(tmp_path / "out")]
            if passes:
                with pytest.raises(Solved):
                    cli.main(argv)
            else:
                assert cli.main(argv) == 2
                assert "gaussian.d must span" in capsys.readouterr().err


class TestLocality:
    def test_boost_the_closed_form_cannot_carry_gives_no_verdict(self, tmp_path, capsys):
        # at p0 = -30 every row read sup_error=nan ... verdict=fail, a
        # spurious nonlocality verdict
        text = (CONFIGS / "locality.cfg").read_text() + "gaussian.p0=-30\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["locality", "--config", cfg, "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "locality.csv").exists()
        assert "convergence failure: " in err and "p0 d / hbar = -30" in err

    def test_time_past_the_collapse_leaves_no_output(self, tmp_path):
        # the wall closes in at q = -1: t = 120 lies past t_max = 99
        cfg = write_cfg(
            tmp_path,
            "trajectory.kind=linear\ntrajectory.L0=100\ntrajectory.q=-1\n"
            "gaussian.d=1\ntime.t_list=1,120\n",
        )
        res = run_cli("locality", "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stdout == ""
        assert not (tmp_path / "out" / "locality.csv").exists()

    def test_failure_midway_prints_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        real = cli.locality_compare
        calls = []

        def second_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ConvergenceError("second time fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "locality_compare", second_call_fails)
        argv = ["locality", "--config", str(CONFIGS / "locality.cfg"), "--out", str(tmp_path)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "convergence failure: second time fails" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_moving_wall_matches_static_box(self, tmp_path):
        res = run_cli("locality", "--config", str(CONFIGS / "locality.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "locality.csv")
        assert rows.shape[0] == 3
        assert rows[:, 1].max() < 1e-10     # sup error
        assert np.all(rows[:, 4] == 0.0)    # verdict pass

    def test_removed_spread_key_is_noted_not_fatal(self, tmp_path):
        text = (CONFIGS / "locality.cfg").read_text() + "tolerances.localization_warn=0.1\n"
        cfg = write_cfg(tmp_path, text)
        res = run_cli("locality", "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert "note: unused config keys: tolerances.localization_warn" in res.stderr
        assert "verdict=pass" in res.stdout

    def test_scaled_pair(self, tmp_path):
        res = run_cli("locality", "--config", str(CONFIGS / "locality_scaled.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "verdict=pass" in res.stdout

    def test_wide_packet_warns_and_strict_escalates(self, tmp_path):
        text = (
            "trajectory.kind=linear\ntrajectory.L0=20\ntrajectory.q=2\n"
            "gaussian.d=2.02\ntime.t=1\ngrid.x_min=-9\ngrid.x_max=9\n"
        )
        cfg = write_cfg(tmp_path, text)
        res = run_cli("locality", "--config", cfg, "--out", str(tmp_path / "a"))
        assert res.returncode == 0
        assert "LocalizationWarning" in res.stderr
        assert "verdict=warn" in res.stdout
        strict = run_cli("locality", "--config", cfg, "--out", str(tmp_path / "b"),
                         "--strict")
        assert strict.returncode == 3


class TestEvolve:
    def test_grid_past_the_walls_reads_zero_there(self, tmp_path, capsys):
        # points past the walls never reach the chirp or the term count
        text = (CONFIGS / "evolve.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("grid.x_max=20", "grid.x_max=1e300"))
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""  # main prints every warning it caught
        for i in range(3):
            rows = read_rows(tmp_path / f"evolve_{i:03d}.csv")
            past = rows[:, 0] > 50.0
            assert past.sum() == 2000
            assert not rows[past, 1:].any()
            assert np.isfinite(rows).all() and rows[0, 3] > 0

    def test_default_grid_spans_the_largest_box(self, tmp_path, capsys):
        # the single-wall box is 23 wide at t = 7; a grid on the box at t = 0
        # left out its last 3 and printed norm=0.995563
        text = (REVERSING + "trajectory.L0=20\ntrajectory.q=1\ntrajectory.T=10\n"
                "gaussian.d=0.5\ngaussian.x0=2.5\nevolve.sector=single_wall\n"
                "evolve.route=sum\ntime.t_list=0,7\n")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        norms = [float(line.split("norm=")[1].split()[0])
                 for line in capsys.readouterr().out.splitlines()]
        assert len(norms) == 2 and all(abs(n - 1) < 1e-5 for n in norms)
        for i in range(2):
            rows = read_rows(tmp_path / f"evolve_{i:03d}.csv")
            assert rows[0, 0] == 0.0 and rows[-1, 0] == 23.0

    def test_snapshots_and_plot_script(self, tmp_path):
        res = run_cli("evolve", "--config", str(CONFIGS / "evolve.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        for i in range(3):
            assert (tmp_path / f"evolve_{i:03d}.csv").exists()
        lines = (tmp_path / "evolve_000.csv").read_text().splitlines()
        assert lines[1] == "x,re_psi,im_psi,abs2"
        assert "__t=" in lines[0]
        script = tmp_path / "evolve_plot.py"
        compile(script.read_text(), str(script), "exec")

    def test_sum_and_theta_routes_agree(self, tmp_path):
        base = (
            "trajectory.kind=smooth_periodic\ntrajectory.L0=100\n"
            "trajectory.q=0.1\ntrajectory.omega=1\n"
            "gaussian.d=1\ngaussian.x0=10\ngaussian.p0=2\ntime.t=3\n"
        )
        outs = {}
        for route in ("sum", "theta_general"):
            cfg = write_cfg(tmp_path, base + f"evolve.route={route}\n", f"{route}.cfg")
            out = tmp_path / route
            res = run_cli("evolve", "--config", cfg, "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs[route] = read_rows(out / "evolve_000.csv")
        diff = np.abs(outs["sum"][:, 3] - outs["theta_general"][:, 3]).max()
        assert diff < 1e-12

    @pytest.mark.parametrize("route_keys, packet, message", [
        # the closed cycle and the centred closed form are route=theta_general:
        # cycle and theta_centered are no routes
        ("evolve.route=cycle\ntrajectory.kind=linear\n", "",
         "evolve.route='cycle' not one of ['sum', 'theta_general', 'unconfined_approx']"),
        ("evolve.route=theta_centered\ntrajectory.kind=linear\n", "",
         "evolve.route='theta_centered' not one of ['sum', 'theta_general', "
         "'unconfined_approx']"),
    ])
    def test_route_mismatch_names_its_keys(self, tmp_path, route_keys, packet, message):
        cfg = write_cfg(
            tmp_path,
            route_keys + "trajectory.L0=100\ntrajectory.q=2\ngaussian.d=1\n"
            + packet + "time.t=1\n",
        )
        out = tmp_path / "out"
        res = run_cli("evolve", "--config", cfg, "--out", str(out))
        assert res.returncode == 2
        assert f"config error: {message}" in res.stderr
        assert res.stdout == ""
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("route_keys, reference_keys", [
        ("evolve.route=unconfined_approx\ntrajectory.kind=linear\ngaussian.p0=0.5\n",
         "evolve.route=theta_general\ntrajectory.kind=linear\ngaussian.p0=0.5\n"),
        ("evolve.route=theta_general\ntrajectory.kind=reversing_linear\ntrajectory.T=4\n"
         "gaussian.x0=3\n",
         "evolve.route=sum\ntrajectory.kind=reversing_linear\ntrajectory.T=4\n"
         "gaussian.x0=3\n"),
        ("evolve.route=unconfined_approx\ntrajectory.kind=linear\ngaussian.x0=53\n"
         "gaussian.p0=0.5\nevolve.sector=single_wall\n",
         "evolve.route=theta_general\ntrajectory.kind=linear\ngaussian.x0=53\n"
         "gaussian.p0=0.5\nevolve.sector=single_wall\n"),
        ("evolve.route=theta_general\ntrajectory.kind=reversing_linear\ntrajectory.T=4\n"
         "gaussian.x0=53\nevolve.sector=single_wall\n",
         "evolve.route=sum\ntrajectory.kind=reversing_linear\ntrajectory.T=4\n"
         "gaussian.x0=53\nevolve.sector=single_wall\n"),
    ], ids=["unconfined_approx", "cycle", "unconfined_approx-single_wall", "cycle-single_wall"])
    def test_offset_packets_run_on_every_closed_route(self, tmp_path, route_keys,
                                                      reference_keys):
        # the wall-free form and the closed form through the reversing
        # wall's cycle (before and past the turn at t = 2) take an offset or
        # boosted packet in either box and agree with their references on
        # the whole box
        base = "trajectory.L0=100\ntrajectory.q=2\ngaussian.d=1\ntime.t_list=1,3\n"
        rows = []
        for name, keys in (("route", route_keys), ("reference", reference_keys)):
            res = run_cli("evolve", "--config", write_cfg(tmp_path, keys + base, f"{name}.cfg"),
                          "--out", str(tmp_path / name))
            assert res.returncode == 0, res.stderr
            assert res.stderr == ""
            rows.append([read_rows(tmp_path / name / f"evolve_{i:03d}.csv") for i in (0, 1)])
        for ours, ref in zip(*rows):
            assert np.array_equal(ours[:, 0], ref[:, 0])
            assert np.max(np.abs(ours[:, 1:3] - ref[:, 1:3])) < 1e-12


    def test_boost_the_closed_form_cannot_carry_exits_3_without_csv(self, tmp_path, capsys):
        # at |p0| d / hbar = 28 the closed form's e^E underflows and its
        # bracket overflows: evolve wrote two CSVs with norm=nan and exit 0
        text = (CONFIGS / "evolve.cfg").read_text()
        text = text.replace("time.t_list=0,3.141592653589793,6.283185307179586",
                            "time.t_list=0,0.5") + "gaussian.p0=28\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and not list((tmp_path / "a").glob("*.csv"))
        assert "convergence failure: " in err and "p0 d / hbar = 28" in err
        assert "evolve.route=sum" in err
        cfg = write_cfg(tmp_path, text.replace("route=theta_general", "route=sum"), "sum.cfg")
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert "t=0 norm=1.000000000000" in capsys.readouterr().out

    def test_clock_past_every_digit_exits_3_without_csv(self, tmp_path, capsys):
        # every value and product lies in its bound, yet at t = pi the clock
        # 2 pi hbar tau / m reads 1.79e297, where whole revivals span more
        # than its last digit: evolve wrote noise with exit 0
        text = (CONFIGS / "evolve.cfg").read_text().replace("gaussian.d=1\n", "")
        text += "constants.hbar=1e150\nconstants.mass=1e-150\ngaussian.d=1e-75\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 3
        out, err = capsys.readouterr()
        assert out == "" and not list((tmp_path / "a").glob("*.csv"))
        assert f"{CLOCK_FAILURE}1.79e+297 is past 1/eps" in err

    @pytest.mark.parametrize("times, built", [("1,1.5", 0), ("1,2,3,4", 1)],
                             ids=["before-the-turn", "through-the-turn"])
    def test_sum_reexpands_once_and_only_past_the_turn(self, monkeypatch, times, built):
        # each family is built at most once per run: the initial expansion
        # always, its re-expansion only if some time reaches the turn
        calls = []
        for name in ("expansion_coefficients", "contraction_coefficients"):
            def counting(*args, _name=name, _original=getattr(cli, name), **kw):
                calls.append(_name)
                return _original(*args, **kw)

            monkeypatch.setattr(cli, name, counting)
        cfg = ScenarioConfig({
            "trajectory.kind": "reversing_linear", "trajectory.L0": "100",
            "trajectory.q": "2", "trajectory.T": "4", "gaussian.d": "1",
            "evolve.route": "sum", "time.t_list": times,
        })
        csvs, lines, ok = cli.cmd_evolve(cfg, 0)
        assert ok and len(csvs) == len(times.split(","))
        assert calls == ["expansion_coefficients"] + ["contraction_coefficients"] * built

    def test_sum_past_the_turn_warns_once_per_family(self, tmp_path):
        # a tail_tol below the captured deficit makes the initial expansion
        # warn: built once, it warns once, before the turn and past it alike.
        # The grid is the box at t = 0, which the pinned bytes were written on
        base = (f"{REVERSING}trajectory.L0=100\ntrajectory.q=2\ntrajectory.T=4\n"
                "gaussian.d=1\nevolve.route=sum\ntime.t_list=1,3\n"
                "tolerances.tail_tol=1e-20\ngrid.x_min=-50\ngrid.x_max=50\n")
        out = tmp_path / "out"
        res = run_cli("evolve", "--config", write_cfg(tmp_path, base), "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stderr.count("retained modes capture") == 1, res.stderr
        assert res.stderr.count("warning:") == 1, res.stderr
        # pinned bytes: building the initial expansion once must not move them
        digests = [hashlib.sha256((out / f"evolve_{i:03d}.csv").read_bytes()).hexdigest()
                   for i in (0, 1)]
        assert digests == [
            "21cb159a4013a84fdfdc51265ba2ba3582fec1726aa695421494ea9aa56688fe",
            "721ddc1e43e8b541eb8421c36bd2f64a8064aeefa6732ba657192465828aa03e",
        ]


class TestCycle:
    def test_closed_form_refuses_a_packet_the_walls_met_before_the_turn(self, tmp_path,
                                                                       capsys):
        # the packet spreads into the wall before the turn at t = 5; resumming
        # the free Gaussian there put the closed form 0.40 (L2) off the mode
        # sum, and evolve wrote that CSV with exit 0
        text = (REVERSING + "trajectory.L0=20\ntrajectory.q=1\ntrajectory.T=10\n"
                "gaussian.d=0.5\ngaussian.x0=-5.5\ntime.t_list=7\n")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "cannot reach t = 7.0" in err and "evolve.route=sum" in err
        assert not (tmp_path / "a" / "evolve_000.csv").exists()
        cfg = write_cfg(tmp_path, text + "evolve.route=sum\n", "sum.cfg")
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "evolve_000.csv").exists()

    def test_single_wall_refusal_names_no_route_that_refuses_it(self, tmp_path, capsys):
        # the packet spreads into the fixed wall before the turn at t = 5:
        # the closed form refuses it and sends the user to evolve.route=sum,
        # whose re-expansion at the turn follows it in the single-wall box
        # too (it exited 2 there: "evolve.sector must be symmetric")
        text = (REVERSING + "trajectory.L0=20\ntrajectory.q=1\ntrajectory.T=10\n"
                "gaussian.d=0.5\ngaussian.x0=2.5\nevolve.sector=single_wall\ntime.t_list=7\n")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "cannot reach t = 7.0" in err and "evolve.route=sum" in err
        assert not list((tmp_path / "a").glob("*.csv"))
        cfg = write_cfg(tmp_path, text + "evolve.route=sum\n", "sum.cfg")
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert "evolve[0]: route=sum t=7 " in capsys.readouterr().out
        assert (tmp_path / "b" / "evolve_000.csv").exists()

    def test_full_cycle_closes(self, tmp_path):
        res = run_cli("cycle", "--config", str(CONFIGS / "cycle.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "route_diff" in res.stdout and "static_diff" in res.stdout
        assert (tmp_path / "cycle_closed.csv").exists()
        assert (tmp_path / "cycle_reexpansion.csv").exists()

    def test_grid_follows_a_boosted_packet(self, tmp_path):
        # at t_max = 4 the packet sits at x0 + p0 t = 5: the grid the routes
        # are compared on is centred there, and so is the peak of |psi|^2
        cfg = write_cfg(
            tmp_path,
            REVERSING + "trajectory.L0=100\ntrajectory.q=2\ntrajectory.T=4\n"
            "gaussian.d=1\ngaussian.x0=3\ngaussian.p0=0.5\n",
        )
        res = run_cli("cycle", "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("cycle: t=4 route_diff=")
        rows = read_rows(tmp_path / "out" / "cycle_closed.csv")
        step = rows[1, 0] - rows[0, 0]
        assert (rows[0, 0] + rows[-1, 0]) / 2 == pytest.approx(5.0, abs=1e-12)
        assert abs(rows[np.argmax(rows[:, 3]), 0] - 5.0) <= step

    def test_scaled_reversing_wall_closes(self, tmp_path):
        # four times the box and the wall speed: the cycle still ends at
        # t_max = 4 on the static box of the scaled wall
        cfg = write_cfg(
            tmp_path,
            SCALED_REVERSING + "trajectory.L0=100\ntrajectory.q=2\ntrajectory.T=4\n"
            "gaussian.d=1\n",
        )
        res = run_cli("cycle", "--config", cfg, "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("cycle: t=4 route_diff=")
        assert res.stderr == ""


class TestPhase:
    def test_table_reproduces_ground_mode(self, tmp_path):
        res = run_cli("phase", "--config", str(CONFIGS / "phase.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "phase.csv")
        assert rows.shape == (11, 7)
        assert rows[0, 4] == pytest.approx(GAMMA0, rel=1e-12)
        # clock + dynamical + geometric must cancel, per the quadrature check
        assert rows[:, 6].max() < 1e-6

    def test_long_span_refines_its_quadrature(self, tmp_path):
        # thirty breathing periods: 256/512 nodes disagree with 512/1,024,
        # and the run goes on to 1,024/2,048, where the next pair agrees
        T = 60 * np.pi
        cfg = write_cfg(tmp_path, f"{BREATHING}phase.n_max=10\ntime.T={T!r}\n")
        assert cli.main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "phase.csv")
        assert rows[:, 6].max() <= 1e-6
        wall = SmoothPeriodicWall(L0=100.0, q=0.1, omega=1.0)
        ground = phases._level_index(1)
        assert rows[0, 3] == phases._delta_at(ground, wall, PhysicalConstants(), T, 1024, 2048)

    def test_span_that_is_no_cycle_is_refused_before_any_quadrature(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_quadrature(*args):
            raise AssertionError("quadrature row built")

        monkeypatch.setattr(phases, "_time_rows", no_quadrature)
        monkeypatch.setattr(phases, "_h_rows", no_quadrature)
        cfg = write_cfg(tmp_path, "trajectory.kind=reversing_linear\ntrajectory.L0=100\n"
                        "trajectory.q=2\ntrajectory.T=4\nphase.n_max=10\ntime.T=4\n")
        assert cli.main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: trajectory is not cyclic over [0, 4.0]; geometric phase undefined\n"
        )
        assert not (tmp_path / "phase.csv").exists()

    def test_fastest_breathing_wall_closes_its_cycle(self, tmp_path, capsys):
        # at omega = 1e150 the wall speed at the period's end, a rounding of
        # about 1e135, was measured against L0 = 100: "not cyclic", exit 2
        text = (CONFIGS / "phase.cfg").read_text().replace("omega=1\n", "omega=1e150\n")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("phase: modes=11 worst_closure=")
        assert read_rows(tmp_path / "phase.csv")[:, 6].max() <= 1e-6

    def test_retired_node_keys_are_noted_as_unused(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"{BREATHING}phase.n_max=0\nphase.time_nodes=64\n")
        assert cli.main(["phase", "--config", cfg, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "note: unused config keys: gaussian.d, phase.time_nodes" in err
        assert read_rows(tmp_path / "phase.csv").shape == (1, 7)


class TestFig1:
    def test_dataset_shape_and_scaling(self, tmp_path):
        res = run_cli("fig1", "--config", str(CONFIGS / "fig1.cfg"),
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[1] == "Lbar0,n,gamma_mod_2pi,gamma"
        rows = read_rows(tmp_path / "fig1.csv")
        assert rows.shape == (4 * 31, 4)
        assert rows[0, 3] == pytest.approx(GAMMA0, rel=1e-12)
        # box-size scaling: gamma grows with the square of the size
        g100 = rows[rows[:, 0] == 100][:, 3]
        g400 = rows[rows[:, 0] == 400][:, 3]
        assert g400 == pytest.approx(16 * g100, rel=1e-9)
        compile((tmp_path / "fig1_plot.py").read_text(), "fig1_plot.py", "exec")


class TestSolverCommands:
    def test_fig2_reduced_resolution(self, tmp_path):
        text = (
            "trajectory.kind=smooth_periodic\ntrajectory.L0=100\n"
            "trajectory.q=0.1\ntrajectory.omega=1\ngaussian.d=1\n"
            "solver.n_points=1024\nsolver.n_steps=6284\n"
            "solver.x_min=-40\nsolver.x_max=40\ntolerances.fig2_tol=0.02\n"
        )
        cfg = write_cfg(tmp_path, text)
        res = run_cli("fig2", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "fig2.csv").read_text().splitlines()
        assert lines[1] == "x,abs2_confined,abs2_unconfined"

    def test_oracle_compare_reduced_resolution(self, tmp_path):
        text = (
            "trajectory.kind=linear\ntrajectory.L0=100\ntrajectory.q=2\n"
            "gaussian.d=1\ntime.t=2\nsolver.n_points=1024\n"
            "solver.n_steps=2000\ntolerances.oracle_tol=1e-2\n"
        )
        cfg = write_cfg(tmp_path, text)
        res = run_cli("oracle-compare", "--config", cfg, "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "rel_l2" in res.stdout
        rows = read_rows(tmp_path / "oracle_compare.csv")
        assert rows.shape[1] == 6

    def test_oracle_frame_out_of_range_exits_3(self, tmp_path, capsys):
        # at t = 1e300 the box is 2e300 long and (L0/L)^2 underflows to 0
        text = (CONFIGS / "oracle.cfg").read_text().replace("time.t=2", "time.t=1e300")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["oracle-compare", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "convergence failure: non-finite Crank-Nicolson frame at step 1" in err
        assert not (tmp_path / "oracle_compare.csv").exists()

    def test_convergence_failure_follows_the_warnings_raised_before_it(self, tmp_path, capsys):
        # at t = 1e300 the step resolves less than a radian, which warns,
        # and then step 1 fails
        text = (CONFIGS / "oracle.cfg").read_text().replace("time.t=2", "time.t=1e300")
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["oracle-compare", "--config", cfg, "--out", str(tmp_path)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("warning: StepSizeWarning: ")
        assert lines[-1].startswith("convergence failure: ")
        assert not (tmp_path / "oracle_compare.csv").exists()

    @pytest.mark.parametrize("command", ["fig2", "oracle-compare"])
    def test_solver_points_stop_at_the_cap(self, tmp_path, capsys, command):
        # refused by key before any grid is allocated
        cap = cli.MAX_SOLVER_POINTS
        cfg = write_cfg(tmp_path, f"{BREATHING}time.t=1\nsolver.n_points={2 * cap}\n")
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: solver.n_points must be at most {cap}" in capsys.readouterr().err
        assert cli._solver_spec(ScenarioConfig({"solver.n_points": str(cap)}), 1e-3).n_points == cap

    @pytest.mark.parametrize(
        "L0, n", [(50.0, 4096), (100.0, 4096), (100.5, 8192), (400.0, 16384), (25600.0, 2**20)]
    )
    def test_fixed_frame_default_points_follow_the_box(self, L0, n):
        # the smallest power of two from 4,096 with L0/n <= 100/4,096
        assert cli._solver_spec(ScenarioConfig({}), 1e-3, L0).n_points == n
        assert cli._solver_spec(ScenarioConfig({"solver.n_points": "1024"}), 1e-3, L0).n_points == 1024
        assert cli._solver_spec(ScenarioConfig({}), 1e-3).n_points == 4096  # the static box

    def test_fixed_frame_default_points_stop_at_the_cap(self):
        with pytest.raises(ConfigError, match="solver.n_points must be at most .* the default at L0"):
            cli._solver_spec(ScenarioConfig({}), 1e-3, 25601.0)


class TestSampleConfigs:
    def test_command_table_matches_readme_and_configs(self):
        readme = (REPO / "README.md").read_text()
        listed = re.findall(r"^\| `([a-z0-9-]+)` +\|", readme, flags=re.M)
        assert list(cli.COMMANDS) == listed
        for command in cli.COMMANDS:
            # theta-check -> theta.cfg, oracle-compare -> oracle.cfg, ...
            assert (CONFIGS / f"{command.split('-')[0]}.cfg").is_file(), command

    def test_all_samples_parse(self):
        from movingwell.config import parse_config

        files = sorted(CONFIGS.glob("*.cfg"))
        assert len(files) >= 10
        for f in files:
            parse_config(str(f))


def test_import_path_leaves_scipy_unloaded():
    # only the CN oracles and the quadrature fallback of
    # wall_action_integral need scipy; every other command runs on numpy
    probe = (
        "import sys, movingwell, movingwell.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_phase_command_leaves_scipy_and_numpy_polynomial_unloaded(tmp_path):
    # the phase quadrature builds its Clenshaw-Curtis rule from closed-form
    # nodes and one numpy.fft call, not from numpy.polynomial or scipy
    probe = (
        "import sys; from movingwell import cli; "
        f"code = cli.main(['phase', '--config', 'configs/phase.cfg', '--out', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
