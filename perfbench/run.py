#!/usr/bin/env python3
"""End-to-end benchmark of the betascope command line.

Runs the real CLI commands of one workload in a closed loop (one client,
one command at a time, each in a fresh child process) for --seconds and
prints, as the last line of stdout, a JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of an in-process traced run
(--trace 1).  End-to-end times are scaled to a reference host speed
measured around each pass (see calibrate()).  Every report a command
writes is checked byte for byte against the stored reference digests in
perfbench/refs.json.

    python3 perfbench/run.py --workload verify-graph --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-refs

Run it from the root of a source tree; it imports betascope from ./src.
See perfbench/README.md for the workloads and the metrics.
"""

# Child processes and the in-process traced run use one BLAS thread each,
# so the benchmark never runs more threads than --threads asks for.  This
# must happen before numpy is imported.
import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs.json"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"

WORKLOADS = ("verify-graph", "structure-graph", "radial-cantor")
# Inputs repeat with this period in the seed, so every seed has stored
# reference reports.
VARIANTS = 8
# Atom counts.  verify-graph stays below 2000 atoms, where the measure
# computes its diameter from all pairs; structure-graph stays above it, so
# its peak memory is the lattice audit's and not the diameter's.
SIZES = {"verify-graph": 600, "structure-graph": 3000, "radial-cantor": 1024}
TINY_SIZES = {"verify-graph": 60, "structure-graph": 300, "radial-cantor": 64}
# A run must end within 180 s; no child may outlive this many seconds
# after the benchmark started.
CHILD_DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops": "share",
}

STARTED = time.perf_counter()


class BenchError(Exception):
    pass


# -- workloads --------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def write_input(workload: str, variant: int, size: int, workdir: Path) -> str:
    """Generate the workload's measure file from the seed variant."""
    import numpy as np

    from betascope import cantor4, lipschitz_graph, save_csv
    from betascope.measure import WeightedPointMeasure

    if workload == "radial-cantor":
        generation = round(math.log(size, 4))
        base = cantor4(generation)
        angle = np.random.default_rng(variant).uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        centre = base.points.mean(axis=0)
        points = centre + (base.points - centre) @ rot.T
        measure = WeightedPointMeasure(points, base.weights, base.target_dim)
        name = "cantor.csv"
    else:
        measure = lipschitz_graph(size, seed=variant)
        name = "graph.csv"
    save_csv(measure, workdir / name)
    return name


def commands(workload: str, threads: int) -> list:
    """(argv, output files) per CLI command of the workload, in order.

    verify samples its t1 balls with a fixed --seed: the ball radii set
    most of its work, which varied by a third between input seeds.
    """
    if workload == "verify-graph":
        return [(["verify", "--input", "graph.csv", "--kernel", "riesz",
                  "--seed", "0", "--samples", "32",
                  "--threads", "1", "--out", "verify.json"],
                 ["verify.json"])]
    if workload == "structure-graph":
        return [(["lattice", "--input", "graph.csv", "--out", "lattice.json"],
                 ["lattice.json"]),
                (["corona", "--input", "graph.csv", "--out", "corona.json"],
                 ["corona.json"])]
    if workload == "radial-cantor":
        t = str(threads)
        return [(["analyze", "--input", "cantor.csv", "--profile-csv",
                  "profile.csv", "--threads", t, "--out", "analyze.json"],
                 ["analyze.json", "profile.csv"]),
                (["capacity", "--input", "cantor.csv", "--threads", t,
                  "--out", "capacity.json"],
                 ["capacity.json"])]
    raise BenchError(f"unknown workload {workload!r}")


def timed_threads(workload: str) -> int:
    return nproc() if workload == "radial-cantor" else 1


# -- output checking --------------------------------------------------------


class Checker:
    """Compares each command's outputs with expected SHA-256 digests.

    With no expected digests the first outputs seen become the expectation,
    which the self-test uses to compare traced against untraced reports.
    """

    def __init__(self, expected=None):
        self.expected = expected
        self.mismatches = []

    def check(self, workdir: Path, outputs: list) -> bool:
        """True when every output exists and matches; removes the outputs."""
        if self.expected is None:
            self.expected = {}
        ok = True
        for name in outputs:
            path = workdir / name
            if not path.exists():
                self.mismatches.append(f"{name}: not written")
                ok = False
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
            want = self.expected.setdefault(name, digest)
            if want != digest:
                self.mismatches.append(f"{name}: sha256 {digest} != {want}")
                ok = False
        return ok


def load_refs(workload: str, variant: int, size: int) -> dict:
    if not REFS.exists():
        raise BenchError(f"{REFS} is missing; run with --write-refs")
    refs = json.loads(REFS.read_text())
    if refs["sizes"].get(workload) != size:
        raise BenchError(f"{REFS} holds no references for {workload} at "
                         f"N={size}; run with --write-refs")
    return refs["digests"][workload][str(variant)]


# -- child processes --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    # children import betascope from byte-compiled files, as an installed
    # package would; the warm-up child writes them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, workdir: Path) -> tuple:
    """Run argv to completion; (wall s, user+sys CPU s, peak RSS KB, code)."""
    remaining = CHILD_DEADLINE_S - (time.perf_counter() - STARTED)
    if remaining <= 0:
        raise BenchError("out of time before starting a command")
    with open(workdir / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=log)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode)


def cli_argv(args: list) -> list:
    return [sys.executable, "-m", "betascope.cli"] + args


def setup_argv(input_name: str) -> list:
    code = ("import betascope\n"
            "from betascope.measure import load_csv\n"
            f"load_csv({input_name!r}).diameter\n")
    return [sys.executable, "-c", code]


def child_sequence(cmds: list, workdir: Path, checker: Checker) -> dict:
    """One pass over the workload's commands, each in its own child."""
    start = time.perf_counter()
    runs = [run_child(cli_argv(argv), workdir) for argv, _ in cmds]
    wall = time.perf_counter() - start
    failed = sum(not checker.check(workdir, outputs) or run[3] != 0
                 for (_, outputs), run in zip(cmds, runs))
    return {
        "wall_s": wall,
        "cpu_s": sum(r[1] for r in runs),
        "peak_rss_mb": max(r[2] for r in runs) / 1024.0,
        "commands": len(cmds),
        "failed": failed,
    }


# -- host speed -------------------------------------------------------------

# calibrate()'s time on the 2-vCPU host the benchmark was tuned on.  Times
# are reported in seconds at that speed; only ratios between runs matter.
CALIBRATION_REF_S = 0.35


def calibrate() -> float:
    """Wall time of a fixed mix of interpreted and numpy work, in seconds.

    The shared host's speed drifts by 20% and more within minutes.  The
    benchmark runs this before and after each pass and scales the pass by
    how fast the host ran meanwhile, so that the drift does not read as a
    change in the program.
    """
    import numpy as np

    points = np.random.default_rng(0).random((400, 2))
    start = time.perf_counter()
    total = 0
    for i in range(1_600_000):
        total += i * i
    for _ in range(20):
        dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2)
                       .sum(axis=-1))
        order = np.argsort(dist, axis=1)
        np.cumsum(np.take_along_axis(dist, order, axis=1), axis=1)
    return time.perf_counter() - start


def more_time(deadline: float, last: float) -> bool:
    """True when one more pass of `last` seconds ends before the deadline."""
    return time.perf_counter() + last <= deadline


# -- in-process runs --------------------------------------------------------


def in_process_sequence(cmds: list, workdir: Path, checker: Checker,
                        tracer=None) -> dict:
    """The same commands through betascope.cli.main, optionally traced."""
    from betascope import cli

    cwd = os.getcwd()
    os.chdir(workdir)
    codes = []
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            for request, (argv, _) in enumerate(cmds):
                if tracer is None:
                    codes.append(_main(cli, argv))
                else:
                    tracer.request = request
                    codes.append(tracer.span(f"cli.{argv[0]}", _main, cli,
                                             argv))
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        failed = sum(not checker.check(workdir, outputs) or code != 0
                     for (_, outputs), code in zip(cmds, codes))
    finally:
        os.chdir(cwd)
    return {"wall_s": wall, "commands": len(cmds), "failed": failed}


def _main(cli, argv) -> int:
    """cli.main as a child would run it: exceptions become exit codes."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


# -- the two kinds of run ---------------------------------------------------


def measure_untraced(workload, variant, size, seconds, checker, workdir):
    name = write_input(workload, variant, size, workdir)
    cmds = commands(workload, timed_threads(workload))
    # warm-up: byte-compile the package so no timed child pays for it
    run_child(setup_argv(name), workdir)
    # one set-up child before each pass spreads the set-up samples over the
    # run, as the host's speed drifts
    samples, setup, cal = [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not samples or more_time(deadline, last):
        start = time.perf_counter()
        setup.append(run_child(setup_argv(name), workdir)[0])
        cal.append(calibrate())
        samples.append(child_sequence(cmds, workdir, checker))
        last = time.perf_counter() - start
    cal.append(calibrate())
    # each set-up child and the pass after it, at the host speed measured
    # by the calibrations on either side of the pass
    scale = [2.0 * CALIBRATION_REF_S / (before + after)
             for before, after in zip(cal, cal[1:])]
    attempted = sum(s["commands"] for s in samples)
    failed = sum(s["failed"] for s in samples)

    def scaled(values):
        return statistics.median(v * k for v, k in zip(values, scale))

    metrics = {
        "wall_s": scaled(s["wall_s"] for s in samples),
        "cpu_s": scaled(s["cpu_s"] for s in samples),
        "setup_s": scaled(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "ok_ops": (attempted - failed) / attempted,
    }
    units = END_TO_END_UNITS
    record = {
        "samples": samples,
        "setup_samples": setup,
        "calibration_s": cal,
        "unscaled": {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(setup),
        },
    }
    return metrics, units, attempted, failed, record


def measure_traced(workload, variant, size, seconds, checker, workdir,
                   rounds=1):
    from tracer import COUNT_NAMES, Tracer

    write_input(workload, variant, size, workdir)
    cmds = commands(workload, timed_threads(workload))
    tracer = Tracer()
    plain, traced, layers, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(traced) < rounds or more_time(deadline, last):
        start = time.perf_counter()
        plain.append(in_process_sequence(cmds, workdir, checker))
        traced.append(in_process_sequence(cmds, workdir, checker, tracer))
        layers.append(tracer.metrics())
        spans.extend(tracer.spans)
        last = time.perf_counter() - start
    metrics = {}
    for name in layers[0]:
        if name in COUNT_NAMES:
            metrics[name] = layers[0][name]
        else:
            metrics[name] = statistics.median(m[name] for m in layers)
    metrics["trace_overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced)
        - statistics.median(s["wall_s"] for s in plain))
    units = {name: per_layer_unit(name) for name in metrics}
    runs = plain + traced
    attempted = sum(s["commands"] for s in runs)
    failed = sum(s["failed"] for s in runs)
    record = {
        "plain_samples": plain,
        "traced_samples": traced,
        "layer_samples": layers,
        "counts_repeat": all(
            all(m[c] == layers[0][c] for c in COUNT_NAMES) for m in layers),
        "layer_self_s": layer_shares(metrics),
        "spans": spans,
    }
    return metrics, units, attempted, failed, record


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("corona.tops_per_cell", "util.pool_busy"):
        return "ratio"
    return "count"


def layer_shares(metrics: dict) -> dict:
    """Self time summed per module, largest first."""
    shares = {}
    for name, value in metrics.items():
        if name.endswith("_s") and "." in name:
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + value
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# -- results ----------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed, variant, size) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "atoms": size,
        "threads": timed_threads(workload),
        "nproc": nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def run_one(workload, seed, seconds, trace, sizes, checker=None,
            rounds=1) -> dict:
    variant = seed % VARIANTS
    size = sizes[workload]
    if checker is None:
        checker = Checker(load_refs(workload, variant, size))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        if trace:
            out = measure_traced(workload, variant, size, seconds, checker,
                                 workdir, rounds)
        else:
            out = measure_untraced(workload, variant, size, seconds, checker,
                                   workdir)
        log = (workdir / "child.log")
        child_log = log.read_text(errors="replace") if log.exists() else ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, units, attempted, failed, record = out
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(environment(workload, seed, variant, size))
    record.update(seconds=seconds, trace=trace, result=result,
                  mismatches=checker.mismatches)
    if failed:
        record["child_log_tail"] = child_log[-4000:]
    return record


def save_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for sid, parent, name, start, end, request in spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "request": request}) + "\n")
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def summarise(record: dict) -> str:
    res = record["result"]
    lines = [f"# {record['workload']} seed={record['seed']} "
             f"N={record['atoms']} threads={record['threads']} "
             f"trace={record['trace']}"]
    for name, m in res["metrics"].items():
        lines.append(f"#   {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("unscaled", {}).items():
        lines.append(f"#   {name + ' (unscaled)':36s} {value:.6g} s")
    lines.append(f"#   failed_ops {res['failed']}/{res['attempted']} = "
                 f"{res['failed'] / res['attempted']:.6g} share")
    for line in record["mismatches"]:
        lines.append(f"#   mismatch: {line}")
    return "\n".join(lines)


# -- maintenance modes ------------------------------------------------------


def write_refs():
    """Record reference digests; radial-cantor runs with --threads 1."""
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for variant in range(VARIANTS):
            WORK_DIR.mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
            try:
                write_input(workload, variant, SIZES[workload], workdir)
                checker = Checker()
                seq = child_sequence(commands(workload, 1), workdir,
                                     checker)
                if seq["failed"]:
                    raise BenchError(f"{workload} variant {variant} failed")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            digests[workload][str(variant)] = checker.expected
            print(f"# {workload} variant {variant}: {checker.expected}",
                  flush=True)
    REFS.write_text(json.dumps({"sizes": SIZES, "digests": digests},
                               indent=1, sort_keys=True) + "\n")


def selftest():
    """Tiny inputs: metric names and units, traced == untraced reports,
    counts repeat, wrapped attributes restored."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    from tracer import Tracer

    probe = Tracer()
    originals = probe.install()
    probe.uninstall()
    problems = []
    for workload in WORKLOADS:
        checker = Checker()
        for trace in (0, 1):
            record = run_one(workload, 0, 0, trace, TINY_SIZES, checker,
                             rounds=2)
            res = record["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                diff = sorted(set(got.items()) ^ set(wanted[trace].items()))
                problems.append(f"{workload} trace {trace}: metrics/units "
                                f"differ from BENCHMARK.json: {diff}")
            if res["failed"]:
                problems.append(f"{workload} trace {trace}: "
                                f"{checker.mismatches}")
            if trace and not record["counts_repeat"]:
                problems.append(f"{workload}: counts differ between runs")
        print(f"# selftest {workload}: ok", flush=True)
    if any(owner.__dict__[attr] is not original
           for owner, attr, original in originals):
        problems.append("wrapped attributes were not restored")
    if problems:
        raise BenchError("selftest failed:\n  " + "\n  ".join(problems))
    print("selftest ok")


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "betascope" / "cli.py").is_file():
        print(f"error: no betascope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        if args.selftest:
            selftest()
            return 0
        if args.write_refs:
            write_refs()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in names:
            record = run_one(workload, args.seed, args.seconds, args.trace,
                             SIZES)
            path = save_record(record)
            print(summarise(record), flush=True)
            print(f"# results: {path.relative_to(ROOT)}", flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
