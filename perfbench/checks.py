"""Output checks: invariants on every study, and a reference at the canonical seed.

The invariants hold for any seed.  The reference holds per-column
fingerprints of every study's CSV at ``CANONICAL_SEED`` and full size,
recorded from the commit that introduced the benchmark; numeric columns
may differ from it by ``REF_RTOL`` of the column's absolute sum, because a
sparse chain solve is expected to move values by up to about 5e-13.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

CANONICAL_SEED = 1
REF_RTOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"

ROW_SUM_TOL = 1e-9  # absorption probabilities of one subcell sum to 1
Z_LIMIT = 6.0  # |z| of a Monte Carlo mean time against the analytic one
GAP_SIGMAS = 6.0  # absorption gap, in binomial standard deviations at p = 1/2


def parse(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def invariants(command: str, text: str, scenario) -> list[str]:
    """Problems with one study's CSV; empty when every invariant holds."""
    header, rows = parse(text)
    if not rows:
        return ["no rows"]
    col = {name: j for j, name in enumerate(header)}
    problems = []

    def bad(row, message):
        problems.append(f"row {row}: {message}")

    if command == "routes":
        split = [j for name, j in col.items() if name.startswith("b_")]
        for r in rows:
            total = sum(float(r[j]) for j in split)
            if abs(total - 1.0) > ROW_SUM_TOL:
                bad(r, f"absorption probabilities sum to {total!r}")
            if float(r[col["var_tau"]]) < 0:
                bad(r, "negative var_tau")
    elif command == "verify":
        for r in rows:
            walks = int(r[col["walks"]])
            if walks == 0:
                bad(r, "a state no walk started from")
                continue
            if abs(float(r[col["z_tau"]])) > Z_LIMIT:
                bad(r, f"|z_tau| above {Z_LIMIT}")
            if float(r[col["b_gap"]]) > GAP_SIGMAS * 0.5 / math.sqrt(walks):
                bad(r, f"b_gap above {GAP_SIGMAS} binomial sigmas")
    elif command == "capacity":
        sources = {o.name: len(o.sources) for o in scenario.overlays}
        for r in rows:
            capacity, throughput = float(r[col["capacity"]]), float(r[col["throughput"]])
            cycle, routed = int(r[col["cycle"]]), int(r[col["routed"]])
            expected = capacity / cycle if cycle > 0 else 0.0
            if throughput != expected:
                bad(r, "throughput is not capacity / cycle")
            if not 0 <= routed <= sources[r[col["scenario"]]]:
                bad(r, "more routes than sources")
    elif command == "negotiate":
        lo, hi = scenario.econ.bounds
        for r in rows:
            if not lo <= float(r[col["price"]]) <= hi or not lo <= float(r[col["chi"]]) <= hi:
                bad(r, f"price outside [{lo}, {hi}]")
            if r[col["verdict"]] not in ("offload", "no-offload"):
                bad(r, f"verdict {r[col['verdict']]!r}")
    elif command == "tessellate":
        for power in {r[col["power"]] for r in rows}:
            block = [r for r in rows if r[col["power"]] == power]
            for flag in ("is_argmax", "is_climb"):
                if sum(int(r[col[flag]]) for r in block) != 1:
                    bad(block[0], f"{flag} is not set exactly once at power {power}")
            if any(not float(r[col["utility"]]) >= 0 for r in block):
                bad(block[0], "negative or NaN utility")
    return problems[:5]


def fingerprint(text: str) -> dict[str, list]:
    """Per column: [rows, sum, position-weighted sum, NaNs, sum of |x|] or a text hash."""
    header, rows = parse(text)
    out = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        try:
            values = [float(c) if c else math.nan for c in cells]
        except ValueError:
            out[name] = hashlib.sha256("\n".join(cells).encode()).hexdigest()[:16]
            continue
        finite = [(i, v) for i, v in enumerate(values) if not math.isnan(v)]
        out[name] = [
            len(values),
            math.fsum(v for _, v in finite),
            math.fsum((1 + i % 7) * v for i, v in finite),
            len(values) - len(finite),
            math.fsum(abs(v) for _, v in finite),
        ]
    return out


def compare(expected: dict, actual: dict) -> list[str]:
    """Columns where a fingerprint leaves the reference tolerance."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            problems.append(f"column {name} added or removed")
        elif isinstance(want, str) or isinstance(got, str):
            if want != got:
                problems.append(f"column {name} text differs")
        elif want[0] != got[0] or want[3] != got[3]:
            problems.append(f"column {name} row or NaN count differs")
        else:
            tol = REF_RTOL * 7 * want[4] + 1e-300  # position weights reach 7
            if abs(want[1] - got[1]) > tol or abs(want[2] - got[2]) > tol:
                problems.append(f"column {name} differs beyond {REF_RTOL:g} of its scale")
    return problems


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def save_reference(workload: str, studies: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[workload] = studies
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
