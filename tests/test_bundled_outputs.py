"""Byte-identity guard: pinned CLI outputs match their checked-in digests.

The five commands run on both bundled scenarios through ``m3sim.cli.main``,
and each CSV and plot-data file must hash to the sha256 recorded in
``bundled_outputs.json``.  The bundled scenarios negotiate the price alone
towards one access point, so ``negotiate`` also runs on
``scenarios/two_ap_set.yaml`` (joint price-and-set walk, two access points),
whose files are pinned in ``two_ap_set_outputs.json``.  The bundled
scenarios sweep contiguous ring counts with the default user sites, so
``tessellate`` also runs on ``scenarios/tessellate_sparse.yaml`` (ring
counts with gaps, sites on subcell boundaries, availability below one),
pinned in ``tessellate_sparse_outputs.json``.  A change that alters outputs
on purpose regenerates the digest files with

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
SRC = HERE.parent / "src"
# output directory -> (scenario file, commands run on it)
STUDIES = {
    "default": (bundled_scenario("default"), COMMANDS),
    "offload": (bundled_scenario("offload"), COMMANDS),
    "two-ap-set": (HERE / "scenarios" / "two_ap_set.yaml", ("negotiate",)),
    "tessellate-sparse": (HERE / "scenarios" / "tessellate_sparse.yaml", ("tessellate",)),
}
# digest file -> the output directories it pins
PINS = {
    HERE / "bundled_outputs.json": ("default", "offload"),
    HERE / "two_ap_set_outputs.json": ("two-ap-set",),
    HERE / "tessellate_sparse_outputs.json": ("tessellate-sparse",),
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

    The digests are taken with one thread, as the benchmark runs.  Since
    the chain solve became a banded LU, the outputs read the same with the
    default thread count on a two-core host; hosts with more cores were not
    checked, so the pin stays.  The thread count is fixed when the library
    loads, hence the subprocess.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, __file__, str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads((out / "digests.json").read_text())


def split(digests: dict[str, str]) -> dict[Path, dict[str, str]]:
    """The digests each file of ``PINS`` holds."""
    return {
        path: {k: v for k, v in digests.items() if k.split("/", 1)[0] in dirs}
        for path, dirs in PINS.items()
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return split(pinned_digests(tmp_path_factory.mktemp("outputs")))


def _check(digests, name):
    path = HERE / name
    assert digests[path] == json.loads(path.read_text())


def test_bundled_outputs_match_checked_in_digests(digests):
    _check(digests, "bundled_outputs.json")


def test_two_ap_set_negotiation_outputs_match_pinned_digests(digests):
    _check(digests, "two_ap_set_outputs.json")


def test_tessellate_sparse_outputs_match_pinned_digests(digests):
    _check(digests, "tessellate_sparse_outputs.json")


if __name__ == "__main__":
    if len(sys.argv) > 1:  # the pinned interpreter started by pinned_digests
        out = Path(sys.argv[1])
        (out / "digests.json").write_text(json.dumps(output_digests(out)))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            for path, table in split(pinned_digests(Path(tmp))).items():
                path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
                print(f"wrote {path}")
