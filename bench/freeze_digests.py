"""Rewrite bench/digests.json from the current program's output.

    python3 bench/freeze_digests.py

Runs every operation any seed can reach once, as a child process, and
stores the sha256 of its stdout.  Only a change that means to alter
ll-coarse output should rerun this, and it must say why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="freeze-", dir=run.WORK))
    digests = {}
    try:
        for key, op in sorted(run.all_ops().items()):
            cache = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
            result = run.run_child(op.args, run.child_env(cache), workdir)
            if result.exit_code != 0:
                print(f"{key}: exit {result.exit_code}", file=sys.stderr)
                return 1
            digests[key] = run.output_digest(key, result.stdout)
            print(f"{key}: {result.wall_s:.2f} s, {result.rss_mb:.0f} MB")
    finally:
        shutil.rmtree(workdir)
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
