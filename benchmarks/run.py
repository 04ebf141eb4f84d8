"""Run one benchmark workload and print its result as one JSON line.

    python3 benchmarks/run.py --workload finite-orbit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository.  The measurement runs in
a fresh child process (harness.py) with PYTHONHASHSEED fixed, because
`WeylElement` hashes a `str` and set layouts would otherwise change from
process to process.  The child's last line of standard output is the result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "atomic" / "__init__.py").is_file():
        print(f"no atomic package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        child = subprocess.run([sys.executable, str(HERE / "harness.py"), *sys.argv[1:]],
                               env=env, cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
