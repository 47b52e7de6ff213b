"""Scenario files, result tables, the five commands and the CLI."""

import copy
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import m3sim
from m3sim.chains import absorption_statistics, simulate_walks
from m3sim.cli import build_parser, bundled_scenario, main
from m3sim.economics import OffloadContext, negotiate
from m3sim.routing import build_mdr_chain
from m3sim.scenario import (
    _SCHEMA,
    COMMANDS,
    ResultTable,
    ScenarioError,
    ScenarioWarning,
    emit_csv,
    emit_plotdata,
    load_scenario,
    run_experiment,
)


README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, text, name="case.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


@pytest.fixture(scope="module")
def default_scenario():
    return load_scenario(bundled_scenario("default"))


# -- loading -------------------------------------------------------------


def test_defaults_from_minimal_file(tmp_path):
    scn = load_scenario(write(tmp_path, "grid: {H: 2}\n"))
    assert scn.name == "case"
    assert scn.grid.params.H == 2 and scn.grid.params.R == 1000.0
    assert scn.radio.power == 0.15 and scn.radio.noise == 1e-4
    assert scn.protocol.kind == "MDR" and scn.availability == 1.0
    assert scn.dest.bs is not None and not scn.dest.aps
    assert scn.overlays == () and scn.steps == ()
    assert scn.econ.mno_revenue == 2.0 and scn.mode == "price"
    assert scn.experiment.h_values == (2, 3, 4, 5, 6, 7)
    assert scn.experiment.seed == 20260825 and scn.experiment.n_walks == 20000
    # a float that holds a whole number is a valid integer key
    assert load_scenario(write(tmp_path, "grid: {H: 2.0}\n")).grid.params.H == 2


def test_unknown_keys_carry_dotted_paths(tmp_path):
    with pytest.raises(ScenarioError, match=r"unknown key grid\.rings"):
        load_scenario(write(tmp_path, "grid: {H: 2, rings: 3}\n"))
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario(write(tmp_path, "grdi: {H: 2}\n"))
    with pytest.raises(ScenarioError, match=r"traffic\.steps\[0\]"):
        load_scenario(
            write(
                tmp_path,
                """
                traffic:
                  users: {u1: [2, 90]}
                  steps:
                    - {bs: [u1], surprise: 1}
                """,
            )
        )


def test_parse_error_reports_line(tmp_path):
    path = write(tmp_path, "grid: {H: 2\nname: broken\n")
    with pytest.raises(ScenarioError, match="parse error at line") as err:
        load_scenario(path)
    assert "name: broken" in str(err.value)  # libyaml's own message has no source text


def test_scenario_files_must_be_utf8(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: café\n".encode("latin-1"))
    with pytest.raises(ScenarioError, match="latin1.yaml: not UTF-8 text"):
        load_scenario(path)


def test_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.yaml")


def test_user_spec_forms_and_color_checks(tmp_path):
    # u^5(2,0): subcell 7 really has color 4 = 5-1, so no complaint
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error")
        scn = load_scenario(
            write(tmp_path, "grid: {H: 4}\noverlay:\n  sources: [\"u^5(2,0)\"]\n")
        )
    assert scn.overlays == ()  # sources alone produce no overlay scenarios

    with pytest.warns(ScenarioWarning, match="declares color 1 but subcell 7 has color 4"):
        load_scenario(
            write(
                tmp_path,
                """
                grid: {H: 4}
                overlay:
                  sources: ["u^2(2,0)"]
                  scenarios:
                    - {name: s}
                """,
            )
        )


def test_user_spec_rejects_malformed_entries(tmp_path):
    for bad in ("u^9(2,0)", "u^0(2,0)", "somewhere", "u^(2)"):
        with pytest.raises(ScenarioError):
            load_scenario(
                write(tmp_path, f'grid: {{H: 4}}\noverlay:\n  sources: ["{bad}"]\n')
            )


def test_pair_form_and_duplicate_sources(tmp_path):
    with pytest.warns(ScenarioWarning, match="duplicate source subcell 7"):
        scn = load_scenario(
            write(
                tmp_path,
                """
                grid: {H: 4}
                overlay:
                  sources: [[2, 0], "u^5(2,0)"]
                  scenarios:
                    - {name: s}
                """,
            )
        )
    assert scn.overlays[0].sources == (7,)
    assert scn.notes  # the warning is also kept on the scenario


def test_unavailable_types_expand_to_color_classes(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 4}
            overlay:
              sources: [[3, 131]]
              scenarios:
                - {name: s, unavailable_types: [2, 3], k0: 5}
            """,
        )
    )
    overlay = scn.overlays[0]
    assert len(overlay.unavailable) == 18
    colors = {scn.grid.cluster_color(scn.grid.cell(i)) for i in overlay.unavailable}
    assert colors == {1, 2}
    assert overlay.k0 == 4  # file speaks 1-based
    with pytest.raises(ScenarioError, match="outside 1..7"):
        load_scenario(
            write(
                tmp_path,
                """
                grid: {H: 4}
                overlay:
                  scenarios:
                    - {unavailable_types: [8]}
                """,
            )
        )


def test_availability_sources(tmp_path):
    via_compression = load_scenario(
        write(tmp_path, "compression: {n_o: [45, 45], zeta: 0.25, phi: 360}\n")
    )
    assert via_compression.availability == 0.80859375
    assert via_compression.protocol.p == 0.80859375

    overridden = load_scenario(
        write(
            tmp_path,
            "compression: {n_o: [45, 45], zeta: 0.25, phi: 360}\nprotocol: {p: 0.5}\n",
        )
    )
    assert overridden.availability == 0.5

    with pytest.raises(ScenarioError, match="direct p excludes"):
        load_scenario(write(tmp_path, "compression: {p: 0.5, zeta: 0.1}\n"))


def test_compression_section_computes_no_gain(tmp_path, monkeypatch):
    calls = []
    real = m3sim.compression.reconstruct_gain
    monkeypatch.setattr(m3sim.compression, "reconstruct_gain", lambda *args: calls.append(args) or real(*args))
    # the availability drops the gain, so loading never computes it
    loaded = load_scenario(
        write(tmp_path, "grid: {H: 4, R: 500.0}\nradio: {alpha: 3}\ncompression: {n_o: [45, 45], zeta: 0.25}\n")
    )
    assert loaded.availability == 0.80859375
    assert calls == []
    with pytest.raises(ScenarioError, match=r"compression: p_o\[0\] must lie in \[0, 1\]"):
        load_scenario(write(tmp_path, "grid: {H: 4}\ncompression: {n_o: [61]}\n"))


def test_protocol_section(tmp_path):
    scn = load_scenario(write(tmp_path, "protocol: {kind: mlir, k0: 3}\n"))
    assert scn.protocol.kind == "mLIR"
    assert scn.protocol.relay_color == 2
    with pytest.raises(ScenarioError, match="unknown protocol"):
        load_scenario(write(tmp_path, "protocol: {kind: DSR}\n"))
    with pytest.raises(ScenarioError, match="protocol"):
        load_scenario(write(tmp_path, "protocol: {p: 1.5}\n"))


def test_traffic_steps_chain(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 4}
            traffic:
              users:
                u1: [2, 90]
                u2: [3, 170]
                u5: [2, 270]
              steps:
                - {bs: [u1, u2], wlan: [u5], offload: [u2]}
                - {}
            """,
        )
    )
    assert scn.users == {"u1": 10, "u2": 27, "u5": 16}
    first, second = scn.steps
    assert first.bs_users == {"u1", "u2"} and first.offload == {"u2"}
    # the second instant starts from the first step's outcome
    assert second.bs_users == {"u1"}
    assert second.wlan_users == {"u5", "u2"}

    with pytest.raises(ScenarioError, match="unplaced users u9"):
        load_scenario(
            write(
                tmp_path,
                """
                traffic:
                  users: {u1: [2, 90]}
                  steps:
                    - {bs: [u9]}
                """,
            )
        )


def test_econ_section(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            "econ: {rho: 2, rho1: 1, step: 0.002, bounds: [0.05, 2.0], mode: price-and-set}\n",
        )
    )
    assert scn.econ.mno_revenue == 2.0 and scn.econ.sso_revenue == 1.0
    assert scn.econ.price_step == 0.002
    assert scn.econ.bounds == (0.05, 2.0)
    assert scn.mode == "price-and-set"
    with pytest.raises(ScenarioError, match="econ.mode"):
        load_scenario(write(tmp_path, "econ: {mode: auction}\n"))
    with pytest.raises(ScenarioError, match=r"econ\.bounds"):
        load_scenario(write(tmp_path, "econ: {bounds: [1.0]}\n"))
    with pytest.raises(ScenarioError, match="econ"):
        load_scenario(write(tmp_path, "econ: {rho: 1, rho1: 2}\n"))
    for section in ("econ", "compression"):
        with pytest.raises(ScenarioError, match=rf"unknown key {section}\.gamma"):
            load_scenario(write(tmp_path, f"{section}: {{gamma: 1.0}}\n"))


# (scenario text, dotted key the error must name)
MALFORMED = [
    ("experiment: {sites: [1.0]}", "experiment.sites[0]"),
    ("radio: {P_range: 0.1}", "radio.P_range"),
    ("experiment: {h_values: 3}", "experiment.h_values"),
    ("econ: {bounds: 1.0}", "econ.bounds"),
    ("overlay: {sources: 5}", "overlay.sources"),
    ("overlay: {scenarios: [{unavailable_types: 3}]}", "overlay.scenarios[0].unavailable_types"),
    ("destinations: {aps: 3}", "destinations.aps"),
    ("traffic: {users: [u1]}", "traffic.users"),
    # YAML keys 1 and "1" are two keys, but both name user '1'
    ('traffic: {users: {1: [2, 90], "1": [3, 170]}}', "traffic.users: two users are named '1'"),
    ("radio: {P: min, sensitivity: 0}", "radio: sensitivity"),
    ("grid: {H: 2.5}", "grid.H"),
    ("grid: {K: 1.0e-300}", "grid.K must be a whole number, got 1e-300"),
    # integer keys take whole numbers only; int() would truncate these
    ("experiment: {seed: 1.5}", "experiment.seed"),
    ("experiment: {n_walks: 100.5}", "experiment.n_walks"),
    # the walker needs a non-negative seed and at least one walk
    ("experiment: {seed: -1}", "experiment.seed must be a whole number >= 0, got -1"),
    ("experiment: {n_walks: 0}", "experiment.n_walks must be a whole number >= 1, got 0"),
    ("experiment: {h_values: [2, 3.5]}", "experiment.h_values[1]"),
    ("protocol: {k0: 2.5}", "protocol.k0"),
    ("econ: {max_iter: 10.5}", "econ.max_iter"),
    # NaN passes a plain < 0 guard; the constructors reject it by name
    ("protocol: {interference_threshold: .nan}", "protocol: interference threshold"),
    ("radio: {P: .nan}", "radio: transmit power"),
    ("radio: {alpha: .nan}", "radio: path-loss exponent"),
    ("radio: {noise: .nan}", "radio: noise power"),
    ("radio: {P: min, sensitivity: .nan}", "radio: sensitivity must be positive, got nan"),
    ("grid: {R: .nan}", "grid: macrocell radius"),
    ("econ: {step: .nan}", "econ: price step"),
    ("econ: {tol: .nan}", "econ: tolerance"),
    ("overlay: {scenarios: [{unavailable_types: [2.5]}]}", "overlay.scenarios[0].unavailable_types[0]"),
    ("grid: {H: .inf}", "grid.H"),
    # bool keys take true or false only; bool() reads any non-empty string as true
    ('protocol: {fallback: "no"}', "protocol.fallback"),
    ('destinations: {bs: "false"}', "destinations.bs"),
    # and number keys take no booleans; int(True) would read as 1
    ("grid: {H: true}", "grid.H must be a number, not a boolean, got True"),
    ("experiment: {n_walks: true}", "experiment.n_walks must be a number, not a boolean"),
    ("experiment: {seed: false}", "experiment.seed must be a number, not a boolean"),
    ("protocol: {kind: mLIR, k0: true}", "protocol.k0 must be a number, not a boolean"),
    ("radio: {alpha: true}", "radio.alpha must be a number, not a boolean"),
    # keys no constructor checks refuse NaN at load, not when a command runs
    ("econ: {chi0: .nan}", "econ.chi0"),
    ("experiment: {sites: [[.nan, 10]]}", "experiment.sites[0][0]"),
    ("experiment: {powers: [0.1, .nan]}", "experiment.powers[1]"),
    ("experiment: {availabilities: [.nan]}", "experiment.availabilities[0]"),
    ("radio: {P_range: [0.1, .nan]}", "radio.P_range[1]"),
    ("radio: {sensitivity: .nan}", "radio: sensitivity must be positive"),
    # a link without interferers divides by the noise term alone
    ("radio: {noise: 0.0}", "radio: noise power must be finite and positive"),
    ("radio: {noise: .inf}", "radio: noise power must be finite and positive"),
    ("grid: {R: 1.0e-300}", "change grid.R, radio.alpha or radio.noise"),
    ("grid: {R: 1.0e+200}", "relay_distance**alpha is inf at H=2"),
    # a positive noise term so small that P over it overflows
    ("radio: {noise: 1.0e-320}", "change radio.P, experiment.powers, grid.R or radio.noise"),
    ("experiment: {powers: [0.1, .inf]}", "a link's SINR overflows at H=2"),
    # radio fields must be finite, and fail by name before any derived term
    ("radio: {P: .inf}", "radio: transmit power must be finite, got inf"),
    ("radio: {alpha: .inf}", "radio: path-loss exponent must be finite, got inf"),
    ("radio: {sensitivity: .inf}", "radio: sensitivity must be finite, got inf"),
    ("grid: {R: .inf}", "grid: macrocell radius R must be finite, got inf"),
    # an infinite step makes every probe after the first NaN
    ("econ: {step: .inf}", "econ: price step must be finite and positive"),
    # infinite revenues, tolerances and bounds write non-finite offsets
    ("econ: {rho: .inf}", "econ: MNO revenue must be finite, got inf"),
    ("econ: {rho1: -.inf}", "econ: SSO revenue must be finite, got -inf"),
    ("econ: {tol: .inf}", "econ: tolerance must be finite and positive, got inf"),
    ("econ: {bounds: [1.0e-300, .inf]}", "econ: price bounds must be finite, got (1e-300, inf)"),
    # sweep axes fail at load, by key and index, not when tessellate runs
    ("experiment: {h_values: [0, 3]}", "experiment.h_values[0] must be a ring count >= 1, got 0"),
    ("experiment: {powers: [-0.1, 0.2]}", "experiment.powers[0] must be a positive transmit power"),
    ("experiment: {powers: [0.2, 0.0]}", "experiment.powers[1] must be a positive transmit power"),
    ("experiment: {availabilities: [0.5, 1.5]}", "experiment.availabilities[1] must lie in [0, 1], got 1.5"),
    ("experiment: {availabilities: [-0.1]}", "experiment.availabilities[0] must lie in [0, 1]"),
    # an infinite radius puts a user on subcell 1; an infinite bearing has no sine
    ("experiment: {sites: [[.inf, 0.0]]}", "experiment.sites[0] must be finite, got [inf, 0.0]"),
    ("experiment: {sites: [[0.5, 10], [0.5, .inf]]}", "experiment.sites[1] must be finite"),
    ("radio: {P: 0.1, P_range: [0.1, -0.2]}", "radio.P_range[1] must be a positive transmit power"),
    ("radio: {P_range: [-0.1, 0.2]}", "radio.P_range[0] must be a positive transmit power"),
    # csv.writer leaves a lone CR unquoted, so the capacity row would not read back
    ('overlay: {scenarios: [{name: ok}, {name: "a\\rb"}]}', "overlay.scenarios[1].name"),
    # two row groups with one label could not be told apart, defaulted names included
    (
        "overlay: {scenarios: [{name: a, unavailable: [[1, 30]]}, {name: a}]}",
        "overlay.scenarios[1].name: two overlays are named 'a'",
    ),
    ("overlay: {scenarios: [{}, {name: scenario-1}]}", "overlay.scenarios[1].name: two overlays are named 'scenario-1'"),
    ("overlay: {scenarios: [{name: scenario-2}, {}]}", "overlay.scenarios[1].name: two overlays are named 'scenario-2'"),
    # constructor and placement errors, led by the section or entry they come from
    ("compression: {n_o: [-1]}", "compression: terminal counts cannot be negative"),
    # a direct p is refused by its own key, not by the protocol it feeds
    ("compression: {p: 1.5}", "compression.p must lie in [0, 1], got 1.5"),
    ("compression: {p: -0.5}", "compression.p must lie in [0, 1], got -0.5"),
    ("compression: {p: .nan}", "compression.p must lie in [0, 1], got nan"),
    ("destinations: {aps: [[2, 0], [2, 0]]}", "destinations: duplicate access-point placements"),
    ("overlay: {sources: [[9, 0]]}", "overlay.sources[0]: ring 9 outside 0..4"),
    ("destinations: {aps: [[9, 0]]}", "destinations.aps[0]: ring 9 outside 0..4"),
    (
        "destinations: {aps: [[3, 250]], coverage: [[[2, 0], [9, 0]]]}",
        "destinations.coverage[0][1]: ring 9 outside 0..4",
    ),
    ('destinations: {aps: ["u^8(3,250)"]}', "destinations.aps[0]: reuse type 8 outside 1..7"),
    # a non-finite angle has no nearest subcell; it once snapped to the ring's first cell
    ("overlay: {sources: [[2, .nan], [3, .inf]]}", "overlay.sources[0]: placement angle must be finite, got nan"),
    ("overlay: {sources: [[2, 30], [3, .inf]]}", "overlay.sources[1]: placement angle must be finite, got inf"),
    ("destinations: {aps: [[3, -.inf]]}", "destinations.aps[0]: placement angle must be finite, got -inf"),
    ("traffic: {users: {u1: [2, .nan]}}", "traffic.users.u1: placement angle must be finite, got nan"),
    (
        "overlay: {scenarios: [{unavailable: [[1, 30], [1, .inf]]}]}",
        "overlay.scenarios[0].unavailable[1]: placement angle must be finite, got inf",
    ),
    (
        "destinations: {aps: [[3, 250]], coverage: [[[2, 0], [2, .nan]]]}",
        "destinations.coverage[0][1]: placement angle must be finite, got nan",
    ),
    (
        "destinations: {aps: [[3, 250]], coverage: [[], []]}",
        "destinations: coverage must list one cluster per access point",
    ),
    # a ring-1 access point's default coverage, its neighbours, holds the centre
    (
        "destinations: {aps: [[2, 0], [1, 30]]}",
        "destinations.aps[1]: an access point on ring 1 borders the base station, which its default coverage"
        " (its neighbours) would include; list destinations.coverage",
    ),
    (
        "destinations: {bs: false, aps: [[1, 30]]}",
        "destinations.aps[0]: an access point on ring 1 borders the base station",
    ),
    (
        "destinations: {aps: [[3, 250], [1, 30]], coverage: [[[3, 230]], [[1, 0], [0, 0]]]}",
        "destinations.coverage[1][1]: access-point coverage may not include the base station",
    ),
    # once a bare GridError from the grid layer
    ("destinations: {bs: false}", "destinations: a destination set needs a base station or an access point"),
    (
        "overlay: {sources: [[1, 0]], scenarios: [{unavailable: [[1, 0]]}]}",
        "overlay.scenarios[0]: a source subcell cannot be unavailable",
    ),
    (
        "traffic: {users: {u1: [2, 0]}, steps: [{bs: [u1], wlan: [u1]}]}",
        "traffic.steps[0]: a user cannot sit in both networks at once",
    ),
    # with no base station a base-station user has nowhere to route
    (
        "destinations: {bs: false, aps: [[3, 250]]}\n"
        "traffic: {users: {u1: [2, 0]}, steps: [{bs: [u1], offload: [u1]}]}",
        "traffic.steps[0].bs: base-station users u1 need the base station, but destinations.bs is false",
    ),
    (
        "destinations: {bs: false, aps: [[3, 250]]}\n"
        "traffic: {users: {u1: [2, 0], u2: [2, 60]}, steps: [{wlan: [u1]}, {bs_arrivals: [u2]}]}",
        "traffic.steps[1].bs_arrivals: base-station users u2 need the base station",
    ),
]


@pytest.mark.parametrize("text, key", MALFORMED, ids=[key for _, key in MALFORMED])
def test_malformed_values_raise_scenario_errors_naming_the_key(tmp_path, text, key):
    with pytest.raises(ScenarioError, match=re.escape(key)):
        load_scenario(write(tmp_path, text + "\n"))


def test_bundled_scenarios_resolve(default_scenario):
    assert default_scenario.name == "default"
    assert len(default_scenario.overlays) == 6
    assert len(default_scenario.steps) == 7
    offload = load_scenario(bundled_scenario("offload"))
    assert offload.radio.noise == 1e-6
    assert offload.availability == 1.0


def test_readme_scenario_examples_load(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        load_scenario(write(tmp_path, block, f"readme-{i}.yaml"))


def _readme_key_table():
    """README key reference: dotted key -> default cell."""
    text = README.read_text().split("#### Key reference", 1)[1].split("\n#", 1)[0]
    return dict(re.findall(r"^\| `([^`]+)` \| .*? \| (.*?) \| .*\|$", text, re.M))


def _unknown_key_probe(section):
    """A scenario with one unknown key inside ``section`` ('' is the top level)."""
    doc = {"bogus_key": 1}
    for part in reversed(section.split(".") if section else []):
        doc = {part[:-2]: [doc]} if part.endswith("[]") else {part: doc}
    return yaml.safe_dump(doc)


def test_readme_key_table_matches_the_loader(tmp_path):
    table = _readme_key_table()
    documented = {}
    for key in table:
        section, _, name = key.rpartition(".")
        documented.setdefault(section, set()).add(name)
    documented[""] |= {s for s in documented if s and "." not in s}
    assert {"", "grid", "overlay.scenarios[]", "traffic.steps[]"} <= set(documented)
    for section, keys in documented.items():
        with pytest.raises(ScenarioError, match="unknown key") as err:
            load_scenario(write(tmp_path, _unknown_key_probe(section)))
        allowed = re.search(r"\(allowed: (.*)\)$", str(err.value)).group(1)
        assert set(allowed.split(", ")) == keys, section

    # the first literal in a one-to-one key's default cell is what an empty file gets
    scn = load_scenario(write(tmp_path, "{}\n"))
    built = {
        "grid": scn.grid.params,
        "radio": scn.radio,
        "protocol": scn.protocol,
        "econ": scn.econ,
        "experiment": scn.experiment,
    }
    for section, obj in built.items():
        for key, spec in _SCHEMA[section].items():
            if spec is not None:
                literal = re.match(r"`([^`]*)`", table[f"{section}.{key}"]).group(1)
                assert yaml.safe_load(literal) == getattr(obj, spec[0]), f"{section}.{key}"


# -- result tables ---------------------------------------------------------


def test_emit_csv_formatting(tmp_path):
    table = ResultTable(
        columns=("name", "value", "flag"),
        rows=[("a", 0.1, True), ("b", None, False)],
    )
    out = tmp_path / "t.csv"
    emit_csv(table, out)
    assert out.read_text() == "name,value,flag\na,0.1,1\nb,,0\n"
    emit_csv(table, out)  # rewriting is byte-identical
    assert out.read_text() == "name,value,flag\na,0.1,1\nb,,0\n"

    class Tagged(float):
        def __repr__(self):
            return "Tagged"

    # numpy scalars and float subclasses print as the plain Python value
    for value, text in [
        (np.float64(0.1), "0.1"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.int64(7), "7"),
        (np.bool_(True), "1"),
        (np.bool_(False), "0"),
        (-0.0, "-0.0"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (Tagged(2.5), "2.5"),
    ]:
        emit_csv(ResultTable(columns=("x",), rows=[(value,)]), out)
        assert out.read_text() == f"x\n{text}\n"


def test_emit_csv_floats_round_trip(tmp_path):
    value = 6.888550296035692
    table = ResultTable(columns=("x",), rows=[(value,)])
    out = tmp_path / "t.csv"
    emit_csv(table, out)
    assert float(out.read_text().splitlines()[1]) == value


def test_emit_plotdata_groups_by_sweep(tmp_path):
    table = ResultTable(
        columns=("power", "h", "u"),
        rows=[(0.1, 2, 1.0), (0.1, 3, 2.0), (0.2, 2, None)],
        sweep="power",
    )
    out = tmp_path / "t.dat"
    emit_plotdata(table, out)
    text = out.read_text()
    assert text.startswith("# columns: h u\n")
    assert "# power = 0.1\n2 1.0\n3 2.0\n" in text
    assert "# power = 0.2\n2 nan\n" in text


def test_empty_and_ragged_tables_are_refused(tmp_path):
    empty = ResultTable(columns=("a",), rows=[])
    with pytest.raises(ScenarioError):
        emit_csv(empty, tmp_path / "no.csv")
    with pytest.raises(ScenarioError):
        emit_plotdata(empty, tmp_path / "no.dat")
    with pytest.raises(ScenarioError, match="row width"):
        ResultTable(columns=("a", "b"), rows=[(1,)])


# -- commands ----------------------------------------------------------------


def test_routes_command_covers_every_subcell(default_scenario):
    table = run_experiment(default_scenario, "routes")
    assert table.columns == ("subcell", "ring", "theta", "tau", "var_tau", "b_ap1", "b_bs", "b_nr")
    assert len(table.rows) == 60
    by_cell = {row[0]: row for row in table.rows}
    # the access point itself reports zero delay and certain self-absorption
    assert by_cell[31][3] == 0.0 and by_cell[31][5] == 1.0 and by_cell[31][6] == 0.0
    for row in table.rows:
        assert row[3] >= 0.0 and row[4] >= 0.0
        assert math.isclose(row[5] + row[6] + row[7], 1.0, abs_tol=1e-9)


def test_tessellate_command_marks_one_argmax_per_power(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            """
            experiment:
              h_values: [2, 3]
              powers: [0.1, 0.35]
            """,
        )
    )
    table = run_experiment(scn, "tessellate")
    assert len(table.rows) == 4
    for power in (0.1, 0.35):
        marks = [row for row in table.rows if row[0] == power and row[3]]
        assert len(marks) == 1


def test_capacity_command_requires_bs_and_overlays(tmp_path):
    no_overlay = load_scenario(write(tmp_path, "grid: {H: 4}\n"))
    with pytest.raises(ScenarioError, match="overlay"):
        run_experiment(no_overlay, "capacity")
    headless = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 4}
            destinations: {bs: false, aps: [[3, 250]]}
            overlay:
              sources: [[4, 30]]
              scenarios: [{name: s}]
            """,
        )
    )
    with pytest.raises(ScenarioError, match="base station"):
        run_experiment(headless, "capacity")


def test_capacity_command_shape(default_scenario):
    table = run_experiment(default_scenario, "capacity")
    assert len(table.rows) == 24  # six overlays, four protocols
    protocols = {row[1] for row in table.rows}
    assert protocols == {"ideal", "mMDR", "mLIR", "LAR"}
    for row in table.rows:
        assert row[2] > 0.0 and row[3] > 0.0
        assert row[5] == 6  # every source routed in every scenario


def test_negotiate_command_matches_direct_call(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 4}
            radio: {noise: 1.0e-6}
            destinations: {aps: [[3, 250]]}
            traffic:
              users:
                u4: [2, 240]
                u5: [2, 270]
              steps:
                - {bs: [u4], wlan: [u5], offload: [u4]}
            econ: {rho: 2, rho1: 1, step: 0.002, bounds: [0.05, 2.0]}
            """,
        )
    )
    table = run_experiment(scn, "negotiate")
    ctx = OffloadContext(grid=scn.grid, dest=scn.dest, radio=scn.radio, placements=scn.users)
    direct = negotiate(ctx, scn.steps[0], scn.econ)
    last = table.rows[-1]
    assert len(table.rows) == direct.iterations + 1
    assert last[5] == direct.price
    assert last[6] == direct.crossing
    assert last[7] == direct.verdict


def test_negotiate_output_does_not_depend_on_string_hashing(tmp_path):
    script = (
        "import sys\n"
        "from m3sim.cli import bundled_scenario, main\n"
        "for name in ('default', 'offload'):\n"
        "    main(['negotiate', '--scenario', str(bundled_scenario(name)),\n"
        "          '--out', f'{sys.argv[1]}/{name}'])\n"
    )
    src = str(Path(m3sim.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / seed)],
            env=env,
            check=True,
            capture_output=True,
            timeout=120,
        )
    for name in ("default", "offload"):
        first = (tmp_path / "1" / name / "negotiate.csv").read_bytes()
        assert first == (tmp_path / "2" / name / "negotiate.csv").read_bytes()


def test_negotiate_command_requires_offload_steps(tmp_path):
    idle = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 4}
            destinations: {aps: [[3, 250]]}
            traffic:
              users: {u1: [2, 90]}
              steps:
                - {bs: [u1]}
            """,
        )
    )
    with pytest.raises(ScenarioError, match="offload"):
        run_experiment(idle, "negotiate")
    bare = load_scenario(write(tmp_path, "grid: {H: 4}\n"))
    with pytest.raises(ScenarioError, match="traffic"):
        run_experiment(bare, "negotiate")


def test_verify_command_agrees_with_analysis(tmp_path):
    scn = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 2}
            experiment:
              availabilities: [0.5, 0.9]
            """,
        )
    )
    table = run_experiment(scn, "verify", seed=99, walks=4000)
    assert len(table.rows) == 2 * 18
    for p, _state, tau, tau_mc, z, b_gap, count in table.rows:
        assert p in (0.5, 0.9)
        assert count > 0
        assert abs(z) < 5.0
        assert b_gap < 0.05
        assert tau_mc == pytest.approx(tau, rel=0.2)
    walks_at_half = sum(row[6] for row in table.rows if row[0] == 0.5)
    assert walks_at_half == 4000


def test_verify_is_seed_deterministic(tmp_path):
    scn = load_scenario(
        write(tmp_path, "grid: {H: 2}\nexperiment: {availabilities: [0.7]}\n")
    )
    a = run_experiment(scn, "verify", seed=5, walks=2000)
    b = run_experiment(scn, "verify", seed=5, walks=2000)
    assert a.rows == b.rows
    c = run_experiment(scn, "verify", seed=6, walks=2000)
    assert a.rows != c.rows


def test_verify_checks_each_chain_once(monkeypatch, default_scenario):
    checked = []
    real = m3sim.chains.canonical_form

    def counted(chain):
        checked.append(chain)
        return real(chain)

    monkeypatch.setattr(m3sim.chains, "canonical_form", counted)
    run_experiment(default_scenario, "verify", seed=1, walks=200)
    availabilities = default_scenario.experiment.availabilities
    assert len(availabilities) == 4
    assert len(checked) == len({id(chain) for chain in checked}) == len(availabilities)


def parent_verify_rows(scn, seed, walks):
    """The verify rows as computed one state at a time before the array form."""
    rows = []
    for p in scn.experiment.availabilities:
        chain = build_mdr_chain(scn.grid, scn.dest, p)
        analytic = absorption_statistics(chain)
        empirical = simulate_walks(chain, walks, seed)
        for k, state in enumerate(chain.transient):
            count = int(empirical.counts[k])
            var = float(analytic.var_tau[k])
            z = 0.0
            if count and var > 0.0:
                z = (float(empirical.tau[k]) - float(analytic.tau[k])) / math.sqrt(var / count)
            b_gap = float(max(abs(empirical.absorb_probs[k] - analytic.absorb_probs[k])))
            rows.append((p, state, float(analytic.tau[k]), float(empirical.tau[k]), z, b_gap, count))
    return rows


@pytest.mark.parametrize("walks", [7, 40, 3000])
def test_verify_rows_match_the_per_state_computation(tmp_path, walks):
    # 7 and 40 walks leave states unvisited (NaN tau_mc, z = 0) or visited once
    scn = load_scenario(
        write(
            tmp_path,
            """
            grid: {H: 3}
            destinations: {aps: [[2, 90]]}
            experiment: {availabilities: [0.3, 0.8, 1.0]}
            """,
        )
    )
    table = run_experiment(scn, "verify", seed=11, walks=walks)
    ref = parent_verify_rows(scn, 11, walks)
    assert [tuple(map(repr, row)) for row in table.rows] == [tuple(map(repr, row)) for row in ref]
    assert [tuple(map(type, row)) for row in table.rows] == [tuple(map(type, row)) for row in ref]


def test_run_experiment_rejects_unknown_command(default_scenario):
    with pytest.raises(ScenarioError, match="unknown command"):
        run_experiment(default_scenario, "simulate")


@pytest.mark.parametrize(
    "override, message",
    [
        ({"seed": -1}, "seed override must be a whole number >= 0, got -1"),
        ({"walks": 0}, "walks override must be a whole number >= 1, got 0"),
        ({"walks": 2.5}, "walks override must be a whole number, got 2.5"),
    ],
)
def test_run_experiment_checks_its_overrides_by_name(default_scenario, override, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_experiment(default_scenario, "verify", **override)


# -- command line ------------------------------------------------------------


def test_cli_writes_both_outputs(tmp_path, capsys):
    code = main(
        [
            "routes",
            "--scenario",
            str(bundled_scenario("default")),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "routes.csv").exists()
    assert (tmp_path / "routes_plot.dat").exists()
    out = capsys.readouterr().out
    assert "60 rows" in out
    header = (tmp_path / "routes.csv").read_text().splitlines()[0]
    assert header == "subcell,ring,theta,tau,var_tau,b_ap1,b_bs,b_nr"


def test_cli_reports_errors(tmp_path, capsys):
    code = main(["routes", "--scenario", str(tmp_path / "gone.yaml"), "--out", str(tmp_path)])
    assert code == 1
    assert "m3sim: error:" in capsys.readouterr().err


def test_cli_reports_malformed_values(tmp_path, capsys):
    path = write(tmp_path, "traffic: {users: [u1]}\n")
    code = main(["routes", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "m3sim: error: traffic.users must be a mapping" in capsys.readouterr().err


def test_cli_refuses_a_carriage_return_in_an_overlay_name(tmp_path, capsys):
    doc = yaml.safe_load(bundled_scenario("default").read_text())
    doc["overlay"]["scenarios"][0]["name"] = "a\rb"
    path = write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["capacity", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (
        "m3sim: error: overlay.scenarios[0].name: a carriage return cannot be written "
        "to a CSV cell, got 'a\\rb'"
    ) in err
    assert "Traceback" not in err and not out.exists()


def test_cli_reports_an_exhausted_negotiation(tmp_path, capsys):
    doc = yaml.safe_load(bundled_scenario("offload").read_text())
    doc["econ"]["max_iter"] = 2
    path = write(tmp_path, yaml.safe_dump(doc))
    code = main(["negotiate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert (
        "m3sim: error: negotiate on scenario 'offload': "
        "traffic.steps[0] (step 1): no equilibrium after 2 iterations"
    ) in err


_EDGE_STEPS = "  steps: [{bs: [u1, u2], offload: [u1]}]\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "destinations: {aps: [[3, 250]]}\ntraffic:\n  users: {u1: [2, 0], u2: [3, 250]}\n" + _EDGE_STEPS,
            "traffic.users: user 'u2' sits on a destination subcell",
        ),
        (
            # subcell 0 is the base station, not an unknown subcell
            "destinations: {aps: [[3, 250]]}\ntraffic:\n  users: {u1: [2, 0], u2: [0, 0]}\n" + _EDGE_STEPS,
            "traffic.users: user 'u2' sits on a destination subcell",
        ),
        (
            "traffic:\n  users: {u1: [2, 0], u2: [3, 250]}\n" + _EDGE_STEPS,
            "destinations.aps: offloading needs at least one access point",
        ),
    ],
    ids=["user-on-an-access-point", "user-on-the-base-station", "no-access-point"],
)
def test_negotiate_names_the_key_an_offload_context_refuses(tmp_path, text, message):
    path = write(tmp_path, "name: edge\ngrid: {H: 4}\n" + text)
    with pytest.raises(ScenarioError) as caught:
        run_experiment(load_scenario(path), "negotiate")
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("protocol: {k0: 9}", "protocol.k0: reuse type 9 outside 1..7"),
        ("protocol: {k0: 0}", "protocol.k0: reuse type 0 outside 1..7"),
        ("overlay: {scenarios: [{k0: 8}]}", "overlay.scenarios[0].k0: reuse type 8 outside 1..7"),
        (
            "overlay: {scenarios: [{unavailable_types: [1, 8]}]}",
            "overlay.scenarios[0].unavailable_types[1]: reuse type 8 outside 1..7",
        ),
        ('overlay: {sources: ["u^0(2,0)"]}', "overlay.sources[0]: reuse type 0 outside 1..7"),
        # far out of range, the type reads as written, not as a 301-digit integer
        ("protocol: {k0: 1.0e+300}", "protocol.k0: reuse type 1e+300 outside 1..7"),
        ("protocol: {k0: -1.0e+300}", "protocol.k0: reuse type -1e+300 outside 1..7"),
        ("overlay: {scenarios: [{k0: 1.0e+300}]}", "overlay.scenarios[0].k0: reuse type 1e+300 outside 1..7"),
        ("overlay: {scenarios: [{k0: -1.0e+300}]}", "overlay.scenarios[0].k0: reuse type -1e+300 outside 1..7"),
    ],
)
def test_reuse_types_are_checked_as_the_file_writes_them(tmp_path, text, message):
    # one prefix, the key, and the 1-based type the file wrote
    with pytest.raises(ScenarioError) as caught:
        load_scenario(write(tmp_path, text + "\n"))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # a key error names its section once, in the key
        ("grid: {K: 1.0e-300}", "grid.K must be a whole number, got 1e-300"),
        ("grid: {H: 2, rings: 3}", "unknown key grid.rings (allowed: H, K, R)"),
        # an error of GridParams itself is led by its section
        ("grid: {K: 6}", "grid: only the 7-cell rhombic clustering is supported, got K=6"),
    ],
)
def test_grid_errors_name_their_section_once(tmp_path, text, message):
    with pytest.raises(ScenarioError) as caught:
        load_scenario(write(tmp_path, text + "\n"))
    assert str(caught.value) == message


def test_access_point_specs_check_their_reuse_type(tmp_path):
    text = """\
        destinations:
          aps: ["u^1(3,250)"]
          coverage: [["u^2(2,0)", [3, 0]]]
        """
    with pytest.warns(ScenarioWarning) as caught:
        scn = load_scenario(write(tmp_path, text))
    expected = [
        "destinations.aps[0]: u^1(3,250) declares color 0 but subcell 31 has color 3",
        "destinations.coverage[0][0]: u^2(2,0) declares color 1 but subcell 7 has color 4",
    ]
    assert scn.notes == expected
    assert [str(w.message) for w in caught] == expected
    # the access point snaps as a source on the same spec does
    assert [a.i for a in scn.dest.aps] == [31]
    assert [c.i for c in scn.dest.coverage[0]] == [7, 19]


def test_a_load_error_keeps_the_error_it_names_as_its_cause(tmp_path):
    with pytest.raises(ScenarioError) as caught:
        load_scenario(write(tmp_path, "overlay: {sources: [[9, 0]]}\n"))
    assert str(caught.value) == f"overlay.sources[0]: {caught.value.__cause__}"
    assert type(caught.value.__cause__) is m3sim.GridError


def test_cli_names_the_minimum_power_overflow(tmp_path, capsys):
    # d_r = 216.5 m at R=1000, H=4, and d_r**200 overflows a float
    path = write(tmp_path, "radio: {P: min, alpha: 200}\n")
    assert main(["routes", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "m3sim: error: radio: minimum power sensitivity * d_r**alpha overflows at alpha=200.0\n"


def test_cli_writes_finite_numbers_where_an_interference_term_overflows(tmp_path, capsys):
    # d_r = 1 at H=4; with alpha = 1000 an interferer more than two relay
    # steps away contributes a term that underflows to 0
    path = write(
        tmp_path,
        """\
        grid: {H: 4, R: 4.618802153517006}
        radio: {alpha: 1000}
        overlay:
          sources: [[3, 0], [3, 60], [3, 120], [4, 180], [4, 240], [4, 300]]
          scenarios: [{name: far, k0: 2}]
        """,
    )
    for command in ("capacity", "tessellate"):
        out = tmp_path / command
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
        rows = (out / f"{command}.csv").read_text().splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")[2:]]
        assert rows and all(math.isfinite(v) for v in values)
    assert "Traceback" not in capsys.readouterr().err


def test_noise_term_is_checked_at_every_swept_depth(tmp_path):
    # with alpha = 100 the noise term falls from 9e-197 at H=2 to 4e-251 at
    # H=7 and underflows to 0 at H=100
    text = "grid: {H: 4, R: 8.0}\nradio: {alpha: 100, noise: 1.0e-250}\n"
    assert load_scenario(write(tmp_path, text)).radio.noise == 1e-250
    with pytest.raises(ScenarioError, match=r"is 0\.0 at H=100, .*change grid\.R, radio\.alpha or radio\.noise"):
        load_scenario(write(tmp_path, text + "experiment: {h_values: [2, 100]}\n"))


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("radio", "noise", 0.0, "radio: noise power must be finite and positive, got 0.0"),
        ("grid", "R", 1.0e-300, "radio.noise * relay_distance**alpha is 0.0 at H=2"),
        ("econ", "step", math.inf, "econ: price step must be finite and positive, got inf"),
        ("econ", "rho", math.inf, "econ: MNO revenue must be finite, got inf"),
    ],
)
@pytest.mark.parametrize("command", ["tessellate", "capacity", "negotiate"])
def test_cli_refuses_inputs_without_a_finite_sinr_or_price(
    tmp_path, capsys, section, key, value, message, command
):
    doc = yaml.safe_load(bundled_scenario("offload").read_text())
    doc[section][key] = value
    path = write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"m3sim: error: {message}" in err and "Traceback" not in err
    assert not out.exists()


# An H=2 scenario on which all five commands run, with a number at every key
# below.  Each key maps to the names an error about it may give: its dotted
# path, or its section and the field its constructor names.
EDGE_BASE = {
    "grid": {"H": 2, "R": 1000.0, "K": 7},
    "radio": {"P": 0.15, "P_range": [0.15, 0.3], "alpha": 2.0, "noise": 1e-6, "sensitivity": 1e-6},
    "compression": {"n_o": [3, 4], "zeta": 0.3, "phi": 360.0},
    "protocol": {"kind": "MDR", "p": 0.8, "interference_threshold": 1.0, "k0": 3},
    "destinations": {"aps": [[2, 240]]},
    "overlay": {
        "sources": [[2, 0], [2, 120], [1, 60]],
        "scenarios": [{"name": "a", "k0": 2, "unavailable": [[1, 180]]}],
    },
    "traffic": {
        "users": {"u1": [2, 90], "u2": [2, 210], "u3": [1, 240], "u4": [2, 270]},
        "steps": [{"bs": ["u1", "u2", "u4"], "wlan": ["u3"], "offload": ["u2"]}],
    },
    "econ": {
        "rho": 2.0,
        "rho1": 1.0,
        "step": 0.05,
        "tol": 1e-9,
        "bounds": [0.05, 2.0],
        "chi0": 1.0,
        "max_iter": 1000,
        "mode": "price-and-set",
    },
    "experiment": {
        "h_values": [2],
        "powers": [0.15],
        "availabilities": [0.7],
        "seed": 1,
        "n_walks": 40,
        "sites": [[0.5, 30.0], [0.8, 200.0]],
    },
}
# Ring counts, walk counts and placement rings are left out: a whole number
# as large as 1e300 is a valid size there, which no run could hold.
EDGE_KEYS = {
    ("grid", "R"): ("grid.R", "grid: macrocell radius"),
    ("grid", "K"): ("grid.K", "grid: only the 7-cell rhombic clustering is supported, got K="),
    ("radio", "P"): ("radio.P", "radio: transmit power"),
    ("radio", "P_range", 0): ("radio.P_range[0]",),
    ("radio", "alpha"): ("radio.alpha", "radio: path-loss exponent"),
    ("radio", "noise"): ("radio.noise", "radio: noise power"),
    ("radio", "sensitivity"): ("radio.sensitivity", "radio: sensitivity"),
    ("compression", "zeta"): ("compression.zeta", "compression: traffic load zeta"),
    ("compression", "phi"): ("compression.phi", "compression: beamwidth"),
    ("compression", "p"): ("compression.p",),
    ("protocol", "p"): ("protocol.p", "protocol: availability p"),
    ("protocol", "interference_threshold"): ("protocol.interference_threshold", "protocol: interference threshold"),
    ("protocol", "k0"): ("protocol.k0",),
    ("econ", "rho"): ("econ.rho", "econ: MNO revenue", "econ: revenues must satisfy mno_revenue"),
    ("econ", "rho1"): ("econ.rho1", "econ: SSO revenue", "econ: revenues must satisfy mno_revenue >= sso_revenue"),
    ("econ", "step"): ("econ.step", "econ: price step"),
    ("econ", "tol"): ("econ.tol", "econ: tolerance"),
    ("econ", "bounds", 0): ("econ.bounds", "econ: price bounds"),
    ("econ", "bounds", 1): ("econ.bounds", "econ: price bounds"),
    ("econ", "chi0"): ("econ.chi0",),
    ("econ", "max_iter"): ("econ.max_iter", "econ: iteration budget max_iter"),
    ("experiment", "powers", 0): ("experiment.powers",),
    ("experiment", "availabilities", 0): ("experiment.availabilities[0]",),
    ("experiment", "seed"): ("experiment.seed",),
    ("experiment", "sites", 0, 0): ("experiment.sites[0]",),
    ("experiment", "sites", 0, 1): ("experiment.sites[0]",),
    ("overlay", "sources", 0, 1): ("overlay.sources[0]",),
    ("overlay", "scenarios", 0, "k0"): ("overlay.scenarios[0].k0",),
    # a user and an access point on one subcell name the user
    ("destinations", "aps", 0, 1): ("destinations.aps[0]", "sits on a destination subcell"),
    ("traffic", "users", "u1", 1): ("traffic.users.u1", "traffic.users: user 'u1' sits on a destination subcell"),
}
EDGE_VALUES = (0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan)
# where no walk visits a state, its Monte Carlo mean and split have no value
NO_WALK_COLUMNS = {"tau_mc", "b_gap"}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(list(EDGE_KEYS)), st.sampled_from(EDGE_VALUES), min_size=1, max_size=2))
def test_every_command_writes_finite_numbers_or_names_an_edge_value_key(tmp_path_factory, edits):
    doc = copy.deepcopy(EDGE_BASE)
    for key, value in edits.items():
        node = doc
        for part in key[:-1]:
            node = node[part]
        node[key[-1]] = value
    if ("compression", "p") in edits:
        # a direct p excludes the terminal counts, zeta and phi
        doc["compression"] = {"p": edits[("compression", "p")]}
        edits = {key: value for key, value in edits.items() if key[0] != "compression" or key[1] == "p"}
    path = tmp_path_factory.mktemp("edge") / "case.yaml"
    path.write_text(yaml.safe_dump(doc))
    names = [name for key in edits for name in EDGE_KEYS[key]]
    try:
        scn = load_scenario(path)
        tables = {command: run_experiment(scn, command) for command in COMMANDS}
    except ScenarioError as exc:
        assert any(name in str(exc) for name in names), (str(exc), names)
        return
    for command, table in tables.items():
        for row in table.rows:
            cells = dict(zip(table.columns, row))
            for column, value in cells.items():
                if command == "verify" and column in NO_WALK_COLUMNS and cells["walks"] == 0:
                    continue
                if isinstance(value, (float, np.floating)):
                    assert math.isfinite(value), (command, column, row)


def test_cli_reads_and_writes_utf8_in_a_c_locale(tmp_path):
    path = tmp_path / "café.yaml"
    path.write_text(
        textwrap.dedent(
            """
            name: café
            grid: {H: 3}
            overlay:
              sources: [[3, 0], [3, 120]]
              scenarios:
                - {name: panne-été, unavailable: [[2, 60]]}
            """
        ),
        encoding="utf-8",
    )
    src = str(Path(m3sim.__file__).resolve().parents[1])
    env = dict(
        os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src
    )
    args = ["capacity", "--scenario", str(path), "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "m3sim.cli", *args],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert done.stdout.startswith(b"capacity on 'caf\\xe9': 4 rows")
    rows = (tmp_path / "capacity.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["panne-été"] * 4
    plot = (tmp_path / "capacity_plot.dat").read_text(encoding="utf-8")
    assert "# protocol = ideal\npanne-été " in plot


def test_capacity_and_negotiate_run_without_loading_scipy(tmp_path):
    # scipy serves only the chain solve and takes about a third of a second
    # to import, so the studies that build no chain must not load it
    src = str(Path(m3sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = textwrap.dedent(
        """
        import sys
        import m3sim.cli
        scenario = str(m3sim.cli.bundled_scenario("offload"))
        for command in ("capacity", "negotiate"):
            assert m3sim.cli.main([command, "--scenario", scenario, "--out", sys.argv[1]]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "capacity.csv").exists() and (tmp_path / "negotiate.csv").exists()


def test_chain_studies_load_only_scipys_lapack_extension(tmp_path):
    # the chain solve needs dgbtrf and dgbtrs alone; scipy.linalg's package
    # init would also load numpy.testing, numpy.f2py and numpy.ma, about 0.2 s
    src = str(Path(m3sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = textwrap.dedent(
        """
        import sys
        import m3sim.cli
        scenario = str(m3sim.cli.bundled_scenario("default"))
        for command in ("tessellate", "routes", "verify"):
            assert m3sim.cli.main([command, "--scenario", scenario, "--out", sys.argv[1]]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        print(sorted(name for name in ("numpy.ma", "numpy.testing", "numpy.f2py") if name in sys.modules))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["['scipy.linalg._flapack']", "[]"]
    for command in ("tessellate", "routes", "verify"):
        assert (tmp_path / f"{command}.csv").exists()


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate"])
    assert exc.value.code == 2
