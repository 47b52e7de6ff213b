"""Benchmark of the m3sim study pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload discovery --seed 1 --seconds 20 --trace 0

The workload's scenario files are generated from ``--seed`` and every study
runs in this process through ``m3sim.cli.main``, exactly as the command
line would run it.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment, the problem sizes and the sample
counts.  See perfbench/README.md for the metrics and workloads.
"""

import os
import sys
import time

_START = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy loads: on a small shared host
# it reads steadier than one thread per core, and it never exceeds nproc.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path

from checks import (
    CANONICAL_SEED,
    compare,
    fingerprint,
    invariants,
    load_reference,
    save_reference,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh ones
MIN_REPS = 3
COMMANDS = ("tessellate", "routes", "capacity", "negotiate", "verify")

# host_probe() seconds on the two-core x86-64 host the bounds were set on
PROBE_REF_S = 0.035


def import_m3sim():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "m3sim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no m3sim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import m3sim.cli

    if Path(m3sim.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported m3sim from {m3sim.__file__}, not from {package}")


def parse_args(argv=None):
    from workloads import GENERATORS  # needs m3sim importable

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--setup-only", action="store_true", help="time one set-up, print it and exit"
    )
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store the canonical-seed output fingerprints in perfbench/reference.json",
    )
    return parser.parse_args(argv)


class Bench:
    """One workload's scenario files, its studies and the checks on their output."""

    def __init__(self, args, out: Path):
        import m3sim.cli
        import workloads

        self.cli = m3sim.cli
        self.args = args
        self.out = out
        sizes = workloads.TINY if args.tiny else workloads.FULL
        self.workload = workloads.GENERATORS[args.workload](args.seed, sizes)
        for name, text in self.workload.files.items():
            (out / name).write_text(text)
        self.first: dict[tuple[str, str], str] = {}
        self.scenarios: dict[str, object] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        if args.seed == CANONICAL_SEED and not (args.tiny or args.record_reference):
            self.reference = load_reference(args.workload)

    def warm_up(self) -> list:
        """Run the first study of each command once, for lazy BLAS and LAPACK set-up."""
        first = {}
        for name, command in self.workload.studies:
            first.setdefault(command, name)
        return self.rep(studies=[(name, command) for command, name in first.items()])[1]

    def rep(self, tracer=None, studies=None) -> tuple[dict[str, float], list]:
        """Run every study once; returns seconds per command and the CSV texts."""
        seconds = dict.fromkeys(COMMANDS, 0.0)
        texts = []
        if tracer is not None:
            tracer.install()
        try:
            for n, (name, command) in enumerate(studies or self.workload.studies):
                if tracer is not None:
                    tracer.study = n
                argv = [command, "--scenario", str(self.out / name), "--out", str(self.out)]
                argv += ["--seed", str(self.args.seed)]
                sink = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        status = self.cli.main(argv)
                except Exception:  # a failing study is counted, the run goes on
                    status = traceback.format_exc()
                seconds[command] += time.perf_counter() - start
                text = None
                if status == 0:
                    text = (self.out / f"{command}.csv").read_text()
                else:
                    sink.write(str(status))
                texts.append((name, command, text, sink.getvalue()))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return seconds, texts

    def check(self, texts, traced: bool) -> None:
        """Count the studies and record each one that failed or broke an invariant."""
        for name, command, text, log in texts:
            self.attempted += 1
            where = f"{command} on {name}"
            if text is None:
                self.failures.append(f"{where} failed: {log.strip()[-500:]}")
                continue
            key = (name, command)
            if key not in self.first:
                self.first[key] = text
                problems = invariants(command, text, self.scenario(name))
                if self.reference is not None:
                    expected = self.reference.get(f"{name}:{command}")
                    if expected is None:
                        problems.append("no reference recorded at the canonical seed")
                    else:
                        problems += compare(expected, fingerprint(text))
                if problems:
                    self.failures.append(f"{where}: {'; '.join(problems)}")
            elif text != self.first[key]:
                kind = "traced" if traced else "repeated"
                self.failures.append(f"{where}: {kind} output differs from the first run")

    def scenario(self, name: str):
        if name not in self.scenarios:
            import warnings

            from m3sim.scenario import load_scenario

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self.scenarios[name] = load_scenario(self.out / name)
        return self.scenarios[name]


def host_probe() -> float:
    """Seconds for a fixed interpreter and LAPACK kernel that does not touch m3sim.

    On a shared host the speed of the machine drifts by tens of percent
    within seconds.  Timing this probe right before each repetition and
    scaling the repetition by ``PROBE_REF_S / probe`` removes most of that
    drift from the end-to-end times; the raw times are kept in the details.
    """
    import random

    import numpy

    start = time.perf_counter()
    rng = random.Random(7)
    pairs = [(rng.random(), i) for i in range(20000)]
    sums: dict[int, float] = {}
    for x, i in pairs:
        sums[i % 997] = sums.get(i % 997, 0.0) + x * x
    pairs.sort()
    numpy.linalg.eigvals(numpy.random.default_rng(1).random((200, 200)))
    return time.perf_counter() - start


def openblas() -> list[dict]:
    """Build and live thread count of each OpenBLAS the process has loaded."""
    import ctypes

    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                if "openblas" in line.lower() and line.rstrip().endswith(".so"):
                    paths.add(line.split()[-1])
    except OSError:
        return []
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    get_threads.restype = ctypes.c_int
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            data = path.read_bytes()
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas_threads_requested": THREADS,
        "openblas": openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def summary(samples: list[float]) -> dict:
    """Median and sample count, plus the highest of p75/p90/p99 with ten samples beyond it."""
    out = {"median_s": statistics.median(samples), "n": len(samples)}
    for q in (99, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}_s"] = statistics.quantiles(samples, n=100)[q - 1]
            break
    return out


def setup_samples(args, own: dict) -> list[dict]:
    """Set-ups of this process and of fresh processes set up the same way."""
    samples = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    command += ["--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def measure(bench: Bench, args) -> tuple[dict, dict]:
    """Repeat the studies for ``--seconds``; returns the metrics and the details."""
    from spans import METRICS, Tracer

    tracer = Tracer() if args.trace else None
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    probes: list[float] = []
    min_traced = MIN_REPS if tracer else 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain) < MIN_REPS or len(traced) < min_traced:
        # with tracing on, plain and traced repetitions alternate
        use_tracer = tracer is not None and len(traced) < len(plain)
        probe = host_probe()
        seconds, texts = bench.rep(tracer if use_tracer else None)
        bench.check(texts, traced=use_tracer)
        if use_tracer:
            traced.append(seconds)
            layers.append(tracer.layers())
        else:
            plain.append(seconds)
            probes.append(probe)

    ran = [c for c in COMMANDS if any(c == cmd for _, cmd in bench.workload.studies)]
    totals = [sum(s.values()) for s in plain]
    details = {
        "repetitions": len(plain),
        "study_s": summary(totals),
        "commands": {c: summary([s[c] for s in plain]) for c in ran},
        "host_probe_s": summary(probes),
    }
    if tracer is None:
        scaled = [t * PROBE_REF_S / p for t, p in zip(totals, probes)]
        return {
            "study_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }, details

    metrics = {
        name: (statistics.median(layer[name] for layer in layers), unit)
        for name, unit in METRICS.items()
    }
    for c in COMMANDS:
        metrics[f"{c}_s"] = (statistics.median(s[c] for s in plain), "s")
    overhead = statistics.median(sum(s.values()) for s in traced) - details["study_s"]["median_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    details["traced_repetitions"] = len(traced)
    return metrics, details


def main(argv=None) -> int:
    import_m3sim()
    args = parse_args(argv)
    out = ROOT / ".perfbench_out" / str(os.getpid())
    out.mkdir(parents=True)
    try:
        bench = Bench(args, out)
        texts = bench.warm_up()
        setup = time.perf_counter() - _START
        setup = {"setup_s": setup, "probe_s": statistics.median(host_probe() for _ in range(3))}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        bench.check(texts, traced=False)
        if args.record_reference:
            bench.check(bench.rep()[1], traced=False)
            if args.seed != CANONICAL_SEED or args.tiny or bench.failures:
                sys.exit("perfbench: record at the canonical seed, full size, with no failure")
            save_reference(
                args.workload,
                {f"{n}:{c}": fingerprint(t) for (n, c), t in bench.first.items()},
            )
            return 0
        metrics, details = measure(bench, args)
        if not args.trace:
            setups = setup_samples(args, setup)
            scaled = [x["setup_s"] * PROBE_REF_S / x["probe_s"] for x in setups]
            metrics["setup_s"] = (statistics.median(scaled), "s")
            metrics["ok_frac"] = ((bench.attempted - len(bench.failures)) / bench.attempted, "ratio")
            details["setup_s"] = setups
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()

    for failure in bench.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        sizes=bench.workload.sizes,
        failures=bench.failures[:20],
        environment=environment(),
    )
    print(json.dumps({"perfbench": details}, sort_keys=True))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
