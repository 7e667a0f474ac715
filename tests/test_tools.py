import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_total_is_the_sum_of_its_modules():
    # the code-size counter the design aim is measured by
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    header, *rows, total = [line.split() for line in run.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    assert total[0] == "total"
    modules = {row[0] for row in rows}
    assert "movingwell/core.py" in modules and len(modules) == len(rows)
    for col in (1, 2):
        assert int(total[col]) == sum(int(row[col]) for row in rows)
    assert all(0 < int(code) <= int(phys) for _, phys, code in rows)
