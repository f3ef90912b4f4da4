"""Record the golden output hashes that test_golden.py checks.

    python tests/record_golden.py

Runs test_golden's twelve commands in a temporary directory and rewrites
``tests/golden.json``.  Run it only when a change to robofp is meant to
change an output, and say so.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import test_golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        with contextlib.redirect_stdout(sys.stderr):
            hashes = test_golden.output_hashes(Path(tmp))
    test_golden.GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
