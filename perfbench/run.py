#!/usr/bin/env python3
"""ltm-lab benchmark: CLI studies driven in-process as a closed loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig3-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One caller issues study calls, each a full ``ltmlab.cli.main([...])`` run on
inputs generated from ``--seed``, back to back until ``--seconds`` of study
time are used up.  Each call's output files are checked after its timer
stops.  With ``--trace 0`` the last line reports the end-to-end metrics;
with ``--trace 1`` every call runs under the span tracer of ``spans.py`` and
the last line reports the per-layer metrics instead.  The lines before it
give each metric by name with its unit, the failed fraction, and a
fingerprint of the machine, the libraries and the inputs.

BLAS runs on one thread, so a run does the same work per thread whatever
the core count of the machine and whatever else runs on it.
``study_cpu_s`` shows any later change that gains speed from threads rather
than from less work.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402
from workloads import NAMES, generate  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# At least two calls per run: the median then damps a slow spell of a shared
# machine, and a traced run can compare the counts of two calls.
MIN_CALLS = 2
# The span self times must add up to the traced call's wall time.
SELF_SUM_RTOL = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "study_max_s": "s",
    "study_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall seconds of fresh processes that import ltmlab and write the inputs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir / f"probe{i}")],
            cwd=ROOT,
            env=env,
            check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def study_call(cli, argv: list[str]) -> tuple[int, float, float, str]:
    """One CLI run: (exit code, wall s, process CPU s, captured output)."""
    out = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except Exception:  # a traceback breaks the CLI's exit-code contract
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - wall0, time.process_time() - cpu0, out.getvalue()


def check(study) -> list[str]:
    """Problems with the outputs of the last call; a crashing check is one."""
    try:
        return study.check()
    except Exception as exc:  # noqa: BLE001 - reported as a failed call
        return [f"output check raised {exc!r}"]


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads_configured": BLAS_THREADS}
    maps = Path("/proc/self/maps")
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line} if maps.exists() else set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getattr(handle, symbol).restype = ctypes.c_int
                info["threads_runtime"] = getattr(handle, symbol)()
                break
    return info


def fingerprint(workload: str, seed: int, study) -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ltmlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "sizes": study.sizes,
        "inputs": study.inputs,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> dict:
    setup_times = measure_setup(workload, seed, workdir)
    sys.path.insert(0, str(ROOT / "src"))
    import ltmlab.cli as cli

    study = generate(workload, seed, workdir / "study")
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    walls, cpus, problems = [], [], []
    attempted = failed = 0
    try:
        while True:
            if tracer:
                tracer.begin()
            code, wall, cpu, output = study_call(cli, study.argv)
            if tracer:
                tracer.end()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted += 1
            walls.append(wall)
            cpus.append(cpu)
            call_problems = [f"exit code {code}: {output.strip()[-2000:]}"] if code != 0 else check(study)
            if call_problems:
                failed += 1
                problems.extend(call_problems)
            if attempted >= MIN_CALLS and sum(walls) + statistics.median(walls) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    fp = fingerprint(workload, seed, study)
    fp["calls"] = attempted
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} calls)")
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "study_s": statistics.median(walls),
            "study_max_s": max(walls),
            "study_cpu_s": statistics.median(cpus),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"study_s median over {attempted} calls, max {max(walls)!r} s")
    else:
        problems.extend(_trace_problems(tracer, walls))
        metrics = _layer_metrics(tracer, walls)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _trace_problems(tracer: Tracer, walls: list[float]) -> list[str]:
    problems = []
    first = tracer.calls[0]["counts"]
    for i, call in enumerate(tracer.calls[1:], start=1):
        for name in EXACT_COUNTS:
            if call["counts"].get(name, 0) != first.get(name, 0):
                problems.append(f"count {name} differs between traced calls 0 and {i}")
    for call, wall in zip(tracer.calls, walls):
        self_sum = sum(call["self"].values())
        if abs(self_sum - wall) > SELF_SUM_RTOL * wall:
            problems.append(f"span self times add up to {self_sum!r} s of a {wall!r} s call")
    return problems


def _layer_metrics(tracer: Tracer, walls: list[float]) -> dict:
    per_call = [layer_metrics(call) for call in tracer.calls]
    metrics = {"trace.study_s": {"value": statistics.median(walls), "unit": "s"}}
    for name in per_call[0]:
        if name in EXACT_COUNTS:
            metrics[name] = {"value": per_call[0][name], "unit": "count"}
        else:
            unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "ratio"
            metrics[name] = {"value": statistics.median([m[name] for m in per_call]), "unit": unit}
    return metrics


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in NAMES:
        print(f"== {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ltmlab" / "cli.py").is_file():
        print(f"error: {ROOT} is not an ltm-lab source checkout (no src/ltmlab/cli.py)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
