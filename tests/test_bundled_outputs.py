"""Byte-identity guard: pinned CLI outputs match their checked-in digests.

The five commands run on both bundled scenarios through ``m3sim.cli.main``,
and each CSV and plot-data file must hash to the sha256 recorded in
``bundled_outputs.json``.  The bundled scenarios negotiate the price alone
towards one access point, so ``negotiate`` also runs on
``scenarios/two_ap_set.yaml`` (joint price-and-set walk, two access points),
whose files are pinned in ``two_ap_set_outputs.json``.  A change that
alters outputs on purpose regenerates both digest files with

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

import pytest

from m3sim.cli import bundled_scenario, main
from m3sim.scenario import COMMANDS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "bundled_outputs.json"
TWO_AP_DIGESTS = HERE / "two_ap_set_outputs.json"
TWO_AP = "two-ap-set"
SRC = HERE.parent / "src"
# output directory -> (scenario file, commands run on it)
STUDIES = {
    "default": (bundled_scenario("default"), COMMANDS),
    "offload": (bundled_scenario("offload"), COMMANDS),
    TWO_AP: (HERE / "scenarios" / "two_ap_set.yaml", ("negotiate",)),
}


def output_digests(out: Path) -> dict[str, str]:
    """Run every pinned study under ``out``; sha256 per file."""
    for name, (scenario, commands) in STUDIES.items():
        for command in commands:
            argv = [command, "--scenario", str(scenario), "--out", str(out / name)]
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


def split(digests: dict[str, str]) -> tuple[dict[str, str], dict[str, str]]:
    """(bundled-scenario digests, two-access-point scenario digests)."""
    two_ap = {k: v for k, v in digests.items() if k.startswith(f"{TWO_AP}/")}
    return {k: v for k, v in digests.items() if k not in two_ap}, two_ap


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return split(pinned_digests(tmp_path_factory.mktemp("outputs")))


def test_bundled_outputs_match_checked_in_digests(digests):
    assert digests[0] == json.loads(DIGESTS.read_text())


def test_two_ap_set_negotiation_outputs_match_pinned_digests(digests):
    assert digests[1] == json.loads(TWO_AP_DIGESTS.read_text())


if __name__ == "__main__":
    if len(sys.argv) > 1:  # the pinned interpreter started by pinned_digests
        out = Path(sys.argv[1])
        (out / "digests.json").write_text(json.dumps(output_digests(out)))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for path, table in zip((DIGESTS, TWO_AP_DIGESTS), split(pinned_digests(Path(tmp)))):
                path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
                print(f"wrote {path}")
