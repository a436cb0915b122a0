"""covcon benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke]

Run from anywhere; the checkout is the directory above this file, and covcon
is imported from its ``src``.  The harness

* runs the workload in one fresh process (``workloads.py``) with BLAS pinned
  to one thread: a warm-up repetition, then timed repetitions for
  ``--seconds``, whose median at the nominal host speed (``reference.py``)
  is ``run_s``;
* times ``setup_s``, spawn of a fresh interpreter to ``covcon.cli`` imported,
  three times, and reports the median wall time (untraced runs only);
* with ``--trace 1``, also runs ``python -X importtime -c "import covcon.cli"``
  for the ``cli.import.*`` metrics;
* prints a machine record line, then the result line
  ``{"correct", "attempted", "failed", "metrics"}``, and keeps both in
  ``.perfbench_out/``.

It exits with 2, printing no result, when the checkout has no covcon source,
and with 3 when the workload process fails or overruns or its metrics are not
the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("verify_grid", "tall_sample", "estimators")
#: Not the calibration seed 0xCA11B8A7E, on which the frozen constants were fitted.
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
#: Wall-clock budget of one run; the workload process gets what is left.
RUN_LIMIT_S = 170.0
BLAS_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_PINNING)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_sample() -> float:
    """Wall seconds from spawning a fresh interpreter to covcon.cli imported."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, covcon.cli; print(time.monotonic())"],
        env=child_env(),
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(proc.stdout) - spawned


def import_times() -> dict[str, float]:
    """Cumulative import seconds from ``-X importtime``: covcon and covcon.cli
    together, and scipy.stats and scipy.integrate where they first load."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import covcon.cli"],
        env=child_env(),
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {
        "cli.import.s": cumulative.get("covcon", 0.0) + cumulative.get("covcon.cli", 0.0),
        "cli.import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
        "cli.import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    }


def run_workload(args, timeout: float) -> dict | None:
    """The workload process's result, or None when it failed or overran (its
    whole process group is then killed and reaped)."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"workload {args.workload} overran its {timeout:.0f} s budget", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def tally(result: dict) -> tuple[int, int]:
    """(attempted, failed) operations: the warm-up's oracle checks, then each
    later repetition's comparison with the warm-up."""
    checks = list(result["checks"])
    for match in result["matches"]:
        checks += match
    return len(checks), checks.count(False)


def steal_seconds() -> float | None:
    """CPU time the host took from this machine's CPUs so far (the steal
    column of /proc/stat), which explains outlying timings on a shared host."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if fields[0] == "cpu" and len(fields) > 8 else None


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of covcon's source and schemas, which names the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "covcon").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covcon benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (ROOT / "src" / "covcon" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no covcon source under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2

    started = time.perf_counter()
    steal_before = steal_seconds()
    OUT.mkdir(exist_ok=True)
    res = run_workload(args, RUN_LIMIT_S - (time.perf_counter() - started))
    if res is None:
        return 3
    steal_after = steal_seconds()
    setup: list[float] = []
    try:
        imports = import_times() if args.trace else {}
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    except subprocess.CalledProcessError as exc:
        print(f"importing covcon.cli failed: {exc}", file=sys.stderr)
        return 3
    attempted, failed = tally(res)
    times = res["rep_s"]
    scaled = reference.scaled(times, res["ref_s"])

    if args.trace:
        if "metrics" not in res:
            print("a repetition raised or differed from the warm-up; no traced repetition was run", file=sys.stderr)
            return 3
        metrics = dict(res["metrics"])
        metrics.update(imports)
        metrics["trace.untraced_run_s"] = statistics.median(times)
        metrics["bench.reference_s"] = statistics.median(res["ref_s"])
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        metrics["bench.error_rate"] = failed / attempted
    else:
        if not times:
            print("the warm-up repetition raised; nothing was timed", file=sys.stderr)
            return 3
        run_s = statistics.median(scaled)
        metrics = {
            "run_s": run_s,
            "trials_per_s": res["trials"] / run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(unit_of):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(unit_of))}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in sorted(metrics.items())},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "versions": res["versions"],
        "blas_pinning": BLAS_PINNING,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "setup_samples_s": setup,
        "warmup_s": res["warmup_s"],
        "rep_s": times,
        "reference_s": res["ref_s"],
        "wall_run_s": statistics.median(times) if times else None,
        "steal_s": None if steal_before is None or steal_after is None else steal_after - steal_before,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n"
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
