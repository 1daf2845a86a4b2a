#!/usr/bin/env python3
"""Benchmark of the thermalecho command line.

Run from anywhere inside a source checkout (the package is imported from
its ``src/`` directory, never from an installed copy):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as a ``thermalecho`` invocation in a fresh
child process, again and again for ``--seconds``, checks every run's output
and reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` calls ``thermalecho.cli.main`` in this process instead,
alternating untraced and traced runs, and reports the per-layer metrics.
Both print a run header first and one JSON result as the last line.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("THERMALECHO_THREADS", "OPENBLAS_NUM_THREADS")

# the `thermalecho` console script of pyproject.toml, spelled out so it runs
# from the source tree without an install
ENTRY = "import sys; from thermalecho.cli import main; sys.exit(main())"
SETUP = "import thermalecho.cli"

# also the least number of set-up probes, one of which comes with each run
MIN_RUNS = 5
CHILD_TIMEOUT_S = 60.0
# wall_s is stated at the host speed where one ``reference_s`` probe takes
# this long, about the median on a 2-core Xeon VM at 2.1 GHz
REFERENCE_S = 0.45


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Fix both thread pools before numpy is first imported.

    Unset, the sampler falls back to ``os.cpu_count()`` and OpenBLAS sizes
    its own pool.  The sampler gets ``nproc`` threads.  BLAS gets one: the
    oracle's matrices are small, and BLAS threads that spin beside the
    sampler's or another process's threads make timings erratic.  Children
    inherit this environment.
    """
    os.environ["THERMALECHO_THREADS"] = str(NPROC)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header(args: argparse.Namespace) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "git_sha": git_sha(),
        **{name: os.environ[name] for name in THREAD_VARS},
    }


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def run_child(code: str, argv: list[str], cwd: Path) -> Child:
    """Run ``python3 -c code argv...`` and wait for it with ``os.wait4``.

    ``wait4`` gives this child's own peak RSS; ``RUSAGE_CHILDREN`` would be
    the maximum over every child so far.
    """
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=cwd,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)


def measure_cli(workload, seed: int, seconds: float):
    """Untraced pass: the workload as a CLI invocation in fresh processes.

    A run starts only if the time left holds a typical one, so the pass
    ends within about ``seconds`` once ``MIN_RUNS`` are done.  Each run is
    bracketed by two reference probes and its time scaled by their mean;
    each set-up probe is scaled by the reference probe right after it.
    This takes out most of the host's drifts in speed; see ``reference_s``.
    """
    walls, rss, setups, refs, checks, rounds = [], [], [], [], [], []
    reference_s()  # warm-up: first touch of its inputs and of LAPACK
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or (
            time.perf_counter() - start + statistics.median(rounds) < seconds):
        round_start = time.perf_counter()
        setups.append(time_setup())
        refs.append(reference_s())
        with scratch_dir() as out:
            child = run_child(ENTRY, workload.argv(out, seed), out)
            checks.append(workload.check(out, child.returncode, child.stderr))
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        rounds.append(time.perf_counter() - round_start)
        if child.returncode < 0:  # killed by the watchdog
            break
    refs.append(reference_s())
    wall = statistics.median(w * 2.0 * REFERENCE_S / (before + after)
                             for w, before, after in zip(walls, refs, refs[1:]))
    setup = statistics.median(s * REFERENCE_S / ref for s, ref in zip(setups, refs))
    attempted, failed = sum(c.attempted for c in checks), sum(c.failed for c in checks)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(rss),
        "items_per_s": workload.items / wall,
        "ok_frac": 1.0 - failed / attempted,
    }
    notes = [f"{len(walls)} runs, {len(setups)} set-up probes, {len(refs)} reference probes",
             f"wall times (s): {[round(w, 4) for w in walls]}",
             f"set-up probes (s): {[round(s, 4) for s in setups]}",
             f"reference probes (s): {[round(r, 4) for r in refs]}",
             f"unscaled medians: wall time {statistics.median(walls)!r} s, set-up "
             f"{statistics.median(setups)!r} s, reference probe {statistics.median(refs)!r} s "
             f"against a nominal {REFERENCE_S} s"]
    return metrics, checks, notes


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((200, 200))
    return (rng.random(20_000), rng.random(2_000_000), matrix + matrix.T,
            rng.random(80_000).tolist(), np.arange(10) * 0.1)


def reference_s() -> float:
    """Wall time of a fixed mix of work that never touches thermalecho.

    It holds the kinds of work the workloads do, in about equal parts: a
    Python loop, float formatting, numpy on a cache-sized and on a 16 MB
    array, symmetric eigensolves and many tiny numpy calls.  On a shared
    host everything runs faster or slower by up to a third for seconds to
    minutes at a time; this probe and the workloads slow down together, so
    their ratio varies less than either.
    """
    import numpy as np

    small, big, matrix, floats, tiny = _reference_inputs()
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    ",".join(f"{v:.17g}" for v in floats)
    for _ in range(450):
        small = np.cos(small)
    for _ in range(3):
        big = np.cos(big)
    for _ in range(15):
        np.linalg.eigh(matrix)
    for _ in range(30_000):
        np.exp(tiny).sum()
    return time.perf_counter() - start


def time_setup() -> float:
    with scratch_dir() as out:
        child = run_child(SETUP, [], out)
    if child.returncode != 0:
        raise RuntimeError(f"`{SETUP}` failed:\n{child.stderr}")
    return child.wall_s


def run_inprocess(cli, argv: list[str], tracer) -> tuple[float, int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
            (tracer or contextlib.nullcontext()):
        start = time.perf_counter()
        returncode = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, returncode, stderr.getvalue()


def output_size(out: Path) -> dict[str, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return {"cli.files_written": len(files),
            "cli.bytes_written": sum(p.stat().st_size for p in files)}


def sampler_speedup(stats, calls):
    """Replay the traced sampler calls at one thread and at ``nproc`` threads.

    Each call is one checked operation: the two ``SampleSet.z`` arrays must
    be bit-identical, since the thread count may not change outputs.
    """
    from workloads import Check

    elapsed = {1: 0.0, NPROC: 0.0}
    mismatches = 0
    try:
        for args, kwargs in calls:
            z = {}
            for threads in elapsed:
                os.environ["THERMALECHO_THREADS"] = str(threads)
                start = time.perf_counter()
                z[threads] = stats.sample_logle(*args, **kwargs).z
                elapsed[threads] += time.perf_counter() - start
            one, many = z[1], z[NPROC]
            mismatches += one.shape != many.shape or one.tobytes() != many.tobytes()
    finally:
        os.environ["THERMALECHO_THREADS"] = str(NPROC)
    speedup = elapsed[1] / elapsed[NPROC] if calls else 0.0
    return speedup, Check(len(calls), mismatches, mismatches)


def measure_traced(workload, seed: int, seconds: float, header: dict):
    """Traced pass: ``cli.main`` in this process, untraced and traced in turn."""
    from spans import Tracer, layer_metrics
    from thermalecho import cli, stats

    plain, traced, layers, checks, tracers, rounds = [], [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.median(rounds) < seconds:
        round_start = time.perf_counter()
        # alternate which side goes first, so drift hits both alike
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            tracer = Tracer() if with_trace else None
            with scratch_dir() as out:
                wall, returncode, stderr = run_inprocess(cli, workload.argv(out, seed), tracer)
                checks.append(workload.check(out, returncode, stderr))
                if tracer is None:
                    plain.append(wall)
                    continue
                traced.append(wall)
                tracers.append(tracer)
                layers.append({**layer_metrics(tracer.spans), **output_size(out)})
        rounds.append(time.perf_counter() - round_start)
    speedup, replay = sampler_speedup(stats, tracers[0].calls["stats.sample_logle"])
    checks.append(replay)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["stats.thread_speedup"] = speedup
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    path = OUT / f"trace-{workload.name}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for rep, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({"rep": rep, **span._asdict()}) + "\n")
    notes = [f"{len(traced)} traced and {len(plain)} untraced in-process runs",
             f"spans written to {path.relative_to(ROOT)}"]
    return metrics, checks, notes


def main(argv=None) -> int:
    pin_environment()
    args = parse_args(argv)
    if not (SRC / "thermalecho" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: {ROOT} is not a thermalecho source checkout "
              "(needs src/thermalecho and BENCHMARK.json)", file=sys.stderr)
        return 2
    import thermalecho
    from workloads import WORKLOADS

    if Path(thermalecho.__file__).resolve().parent != (SRC / "thermalecho").resolve():
        print(f"perfbench: imported thermalecho from {thermalecho.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    header = run_header(args)
    print("# header " + json.dumps(header), flush=True)

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, checks, notes = measure_traced(workload, args.seed, args.seconds, header)
        wanted = spec["per_layer"]
    else:
        metrics, checks, notes = measure_cli(workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
    if {m["name"] for m in wanted} != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = sum(c.attempted for c in checks), sum(c.failed for c in checks)
    notes.append(f"fail_frac = {failed / attempted!r} ({failed}/{attempted} operations failed)")
    for note in notes:
        print("# " + note)
    for name, entry in result.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({
        "correct": sum(c.wrong for c in checks) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
