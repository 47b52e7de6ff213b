"""Byte-identity guard: every bundled CLI output matches its checked-in digest.

The five commands run on both bundled scenarios through ``m3sim.cli.main``,
and each CSV and plot-data file must hash to the sha256 recorded in
``bundled_outputs.json``.  A change that alters outputs on purpose
regenerates that file with

    PYTHONPATH=src python tests/test_bundled_outputs.py

and states the largest numeric difference it caused.  The digests pin the
outputs of one numpy/scipy build; a library upgrade that moves the last
digits also needs a regeneration.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from m3sim.cli import bundled_scenario, main
from m3sim.scenario import COMMANDS

DIGESTS = Path(__file__).with_name("bundled_outputs.json")
SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = ("default", "offload")


def output_digests(out: Path) -> dict[str, str]:
    """Run every command on every bundled scenario under ``out``; sha256 per file."""
    for name in SCENARIOS:
        for command in COMMANDS:
            argv = [command, "--scenario", str(bundled_scenario(name)), "--out", str(out / name)]
            assert main(argv) == 0, argv
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def pinned_digests(out: Path) -> dict[str, str]:
    """``output_digests`` in a fresh interpreter limited to one BLAS thread.

    A multithreaded BLAS rounds the dense chain solves of ``tessellate``
    differently in the last digit, so the digests are taken with one
    thread, as the benchmark runs; the thread count is fixed when the
    library loads, hence the subprocess.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, __file__, str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads((out / "digests.json").read_text())


def test_bundled_outputs_match_checked_in_digests(tmp_path):
    assert pinned_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    if len(sys.argv) > 1:  # the pinned interpreter started by pinned_digests
        out = Path(sys.argv[1])
        (out / "digests.json").write_text(json.dumps(output_digests(out)))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            DIGESTS.write_text(json.dumps(pinned_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
