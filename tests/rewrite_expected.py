"""Rewrite ``tests/expected/`` from the table of
``tests/test_expected_outputs.py``: run every entry in table order, with
the package in ``src/``, and write what it gives. The test never calls
this; run it as ``python tests/rewrite_expected.py`` after a change that
alters an output on purpose, and say in CHANGES.md which expected files
changed and why."""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_expected_outputs import EXPECTED, RUNS, run  # noqa: E402


def main() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in RUNS:
        # A run reads only the outputs of runs above it, written by now.
        with tempfile.TemporaryDirectory() as workdir:
            got = run(name, Path(workdir))
        for path, data in got.items():
            target = EXPECTED / name / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"{name}: exit {got['exit_code'].decode().strip()}, {len(got) - 3} file(s)")


if __name__ == "__main__":
    main()
