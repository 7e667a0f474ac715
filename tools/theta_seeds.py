"""Run ``theta-check`` at every seed of a range, in one process.

Each seed s in [START, STOP) runs the command's sweep as
``movingwell theta-check --config CONFIG --seed s`` would: the config's
samples, drawn from that seed, each checked through the modular identity
against the config's tolerance.  A failing seed prints one line,

    seed=<s> max_rel_err=<worst relative gap of its draws>

and the last line gives the seed count, the failures, and the worst gap of
the whole range with its seed.  The exit status is 1 when any seed fails.

    python tools/theta_seeds.py --start A --stop B [--config CONFIG]

CONFIG defaults to configs/theta.cfg; the package is imported from the src/
directory beside this script's parent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from movingwell.cli import cmd_theta_check  # noqa: E402
from movingwell.config import ScenarioConfig, parse_config  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--start", type=int, required=True, help="first seed")
    parser.add_argument("--stop", type=int, required=True, help="seed past the last")
    parser.add_argument("--config", default=str(ROOT / "configs" / "theta.cfg"))
    args = parser.parse_args(argv[1:])
    raw = parse_config(args.config)
    failed, worst, worst_seed = 0, 0.0, None
    for seed in range(args.start, args.stop):
        ((_, _, rows),), _, ok = cmd_theta_check(ScenarioConfig(raw), seed)
        # np.max keeps a NaN gap, which max() could drop
        gap = float(np.max([row[-1] for row in rows]))
        if not ok:
            failed += 1
            print(f"seed={seed} max_rel_err={gap:.3e}")
        if worst_seed is None or gap > worst or np.isnan(gap):
            worst, worst_seed = gap, seed
    print(f"seeds={max(args.stop - args.start, 0)} failed={failed} "
          f"worst_max_rel_err={worst:.3e} at seed={worst_seed}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
