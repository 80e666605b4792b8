"""whqrom benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload tables|verify|molecule --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; whqrom is imported from its
``src/`` directory and nowhere else.  The run prepares each pass's inputs
(untimed set-up), times one pass over the workload's requests, checks
every output apart from the timed region, and repeats until the next pass
would end after ``--seconds``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from
spans around each layer's public functions with ``--trace 1``.  Traces and
results go to ``bench/out/``.
"""

import os

# One BLAS thread, set before numpy loads, so dense eigh does not depend on
# the machine default or on a neighbour's load on the second core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 5
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import whqrom, whqrom.cli; print(time.perf_counter() - t)"
)


def import_whqrom():
    """Import whqrom and all its layers from the checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "whqrom" / "__init__.py").is_file():
        raise SystemExit(f"error: no whqrom sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("whqrom")
    for name in ("wht", "qrom", "baseline", "molham", "dvr", "blockenc", "synthetic", "cli"):
        importlib.import_module(f"whqrom.{name}")
    if Path(package.__file__).resolve().parent != (src / "whqrom").resolve():
        raise SystemExit(f"error: whqrom imported from {package.__file__}, not {src}")
    return package


def fresh_import_seconds() -> float:
    """Median time to import whqrom and every layer in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Run:
    """Counts attempted and failed requests and collects check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def timed_pass(self, requests, tracer=None) -> tuple:
        """Run each request once; returns (wall seconds, requests that succeeded)."""
        done = []
        start = time.perf_counter()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = f"{req.label}#{i}"
            try:
                ok = req.run()
            except Exception as exc:  # a request that raises counts as failed
                ok = False
                req.error = f"{type(exc).__name__}: {exc}"
            self.attempted += 1
            if ok:
                done.append(req)
            else:
                self.failed += 1
                self.problems.append(f"failed: {req.label}: {req.error}")
        return time.perf_counter() - start, done

    def check(self, requests) -> int:
        """Check each succeeded request; returns the T count they booked."""
        total = 0
        for req in requests:
            try:
                total += req.check()
            except Exception as exc:  # a missing field or file is a wrong output too
                self.problems.append(f"check: {req.label}: {type(exc).__name__}: {exc}")
        return total


def measure(workload, seconds: float, tracer) -> dict:
    run = Run()
    warm = {}
    for req in workload.prepare(-1):
        warm.setdefault(req.kind, req)
    _, done = run.timed_pass(list(warm.values()))
    run.check(done)
    run.attempted = run.failed = 0

    setups, batches, tcounts = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        requests = workload.prepare(index)
        setups.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.begin_pass()
        batch, done = run.timed_pass(requests, tracer)
        if tracer is not None:
            tracer.end_pass(batch)
        batches.append(batch)
        tcounts.append(run.check(done))
        shutil.rmtree(workload.work / f"p{index}", ignore_errors=True)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_PASSES and elapsed * (index + 1) / index > seconds:
            break
    return {
        "run": run,
        "setup": setups,
        "batch": batches,
        # every run makes the first MIN_PASSES passes, so this is exact for a seed
        "t_count": sum(tcounts[:MIN_PASSES]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["tables", "verify", "molecule"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    whqrom = import_whqrom()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(whqrom)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](whqrom, args.seed, work, args.smoke)
        result = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = result["run"]
    for problem in run.problems[:20]:
        print(problem, file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": fresh_import_seconds() + statistics.median(result["setup"]), "unit": "s"},
            "batch_s": {"value": statistics.median(result["batch"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "t_count": {"value": result["t_count"], "unit": "count"},
        }
    payload = {
        "correct": not any(p.startswith("check:") for p in run.problems),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(payload, passes=len(result["batch"]), batch_s=result["batch"], setup_s=result["setup"],
                  problems=run.problems)
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"trace-{stem}.json")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
