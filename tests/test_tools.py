import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_counter(src):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return [line.split() for line in run.stdout.splitlines()]


def test_src_lines_total_is_the_sum_of_its_modules():
    # the code-size and option counter the design aim is measured by
    header, *rows, total = run_counter(ROOT / "src")
    assert header == ["module", "lines", "code", "options"]
    assert total[0] == "total"
    modules = {row[0] for row in rows}
    assert "movingwell/core.py" in modules and len(modules) == len(rows)
    for col in (1, 2, 3):
        assert int(total[col]) == sum(int(row[col]) for row in rows)
    assert all(0 < int(code) <= int(phys) for _, phys, code, _ in rows)


def test_options_count_the_defaults_a_caller_may_leave_out(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "def _g(a=1): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = field(init=False)\n"
        "    def m(self, k=3): pass\n"
        "    def _n(self, k=3): pass\n"
        "class P:\n"
        "    w: int = 0\n"
        "    def m(self, k=3, j=4): pass\n"
        "@dataclass\n"
        "class _Q:\n"
        "    y: int = 0\n",
        encoding="utf-8",
    )
    # f: b, c; D: y and m's k; P: m's k and j, not its class attribute w
    (_, (_, _, _, options), _) = run_counter(tmp_path)
    assert int(options) == 6


def test_theta_seeds_reports_the_range():
    # the in-process theta-check sweep, on two seeds, one of them a seed
    # whose reference used to miss the tolerance
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "theta_seeds.py"), "--start", "1445",
         "--stop", "1447"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    (line,) = run.stdout.splitlines()
    fields = dict(item.split("=") for item in line.replace(" at ", " ").split())
    assert fields["seeds"] == "2" and fields["failed"] == "0"
    assert float(fields["worst_max_rel_err"]) < 1e-12
    assert fields["seed"] in ("1445", "1446")


def test_theta_seeds_prints_each_failing_seed(tmp_path):
    cfg = tmp_path / "theta.cfg"
    cfg.write_text("theta.samples=20\ntolerances.theta_tol=1e-18\n")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "theta_seeds.py"), "--start", "0", "--stop", "2",
         "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    *failing, summary = run.stdout.splitlines()
    assert [line.split()[0] for line in failing] == ["seed=0", "seed=1"]
    assert summary.startswith("seeds=2 failed=2 ")
