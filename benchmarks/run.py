"""End-to-end and per-layer benchmark of nearlyround mass studies.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload masses-kerr-L24 --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics: setup_s (median wall
time of fresh interpreters that import nearlyround, parse the workload's
metric and build its grid), study_s (median wall time of one study in
this warm process, after one discarded warm-up study) and peak_rss_mb
(peak resident set of this process).  With --trace 1 it reports the
per-layer metrics of a traced run instead (see tracer.py).

Every study is checked against quantities computed apart from the
program (checks.py), and every study must render the same report text.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record goes to
.bench_results/ in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported here or in any
# child: on a shared two-core machine a threaded study is far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_masses, check_verify, corrupt_masses
from tracer import PROBE_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

SCHEDULE = (20.0, 40.0, 80.0)
MASS = 1.0  # ADM mass of both metrics below, known in closed form
SETUP_SAMPLES = 3  # fresh interpreters per run, at least
SETUP_SECONDS = 4.0  # and more while they took less than this in all
MIN_STUDIES = 2  # untraced studies per run, besides the warm-up

WORKLOADS = {
    # general Gauss-Newton route: dense Jacobian, J^T J and Cholesky
    "masses-lumpy-L32": {
        "study": "run_masses",
        "metric": "schwarzschild_standard m=1",
        "family": "radial-perturbed",
        "l": 3,
        "amplitude": 0.1,
        "decay": 1.0,
        "band_limit": 32,
    },
    # axisymmetric route: fundamental forms, uniformize, profile quadrature
    "masses-kerr-L24": {
        "study": "run_masses",
        "metric": "kerr_slice m=1 a=0.5",
        "family": "coordinate-spheres",
        "band_limit": 24,
    },
    # verify table: nearest-point spot check and all-pairs diameter
    "verify-kerr-L16": {
        "study": "run_verify",
        "metric": "kerr_slice m=1 a=0.5",
        "family": "coordinate-spheres",
        "band_limit": 16,
    },
}

# m_order = +-1 is left out: its rows at r=40 and r=80 fail in center_gauge
LUMPY_M_ORDERS = (2, 3)

COLD_START = (
    "import sys, nearlyround as nr\n"
    "nr.parse_metric(sys.argv[1])\n"
    "nr.build_grid(int(sys.argv[2]))\n"
    "print(nr.__file__)\n"
)


def study_config(name: str, seed: int) -> dict:
    """StudyConfig fields of a workload; only the lumpy one reads the seed."""
    fields = {k: v for k, v in WORKLOADS[name].items() if k != "study"}
    if name == "masses-lumpy-L32":
        fields["m_order"] = LUMPY_M_ORDERS[seed % len(LUMPY_M_ORDERS)]
    return {**fields, "schedule": SCHEDULE, "seed": seed}


def cold_start_seconds(metric: str, band_limit: int) -> float:
    """Wall time of one fresh interpreter doing the set-up a CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, metric, str(band_limit)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cold start imported {proc.stdout.strip()}, not the checkout")
    return elapsed


class Workload:
    """One workload's study, checks and operation accounting."""

    def __init__(self, nr, name: str, seed: int):
        self.nr = nr
        self.study_name = WORKLOADS[name]["study"]
        self.config = nr.StudyConfig(**study_config(name, seed))
        self.reference_text = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # studies that raised or reported failure
        self.problems: list[str] = []  # outputs the checks reject

    def render(self, report) -> str:
        return report.render() if self.study_name == "run_masses" else report.to_table()

    def check(self, report) -> list:
        if self.study_name == "run_verify":
            return check_verify(report)
        return self._check_masses(report)

    def _check_masses(self, report) -> list:
        return check_masses(
            report, SCHEDULE, MASS, self.config.tol,
            schwarzschild=self.config.metric.startswith("schwarzschild_standard"),
        )

    def program_failed(self, report) -> bool:
        """The program itself reports the study as failed."""
        if isinstance(report, self.nr.VerifyReport):
            return not report.passed
        return any(isinstance(row, self.nr.RowFailure) or row.flags for row in report.rows)

    def run(self):
        """One study: returns (report, seconds); records its outcome."""
        fn = getattr(self.nr, self.study_name)  # looked up per call: may be traced
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = fn(self.config)
        except Exception as exc:  # a study that raises is a failed operation
            self.failed += 1
            self.failures.append(f"study raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        if self.program_failed(report):
            self.failed += 1
            self.failures.append("program reported a failure:\n" + self.render(report))
            return None, elapsed
        text = self.render(report)
        if self.reference_text is None:
            self.reference_text = text
        elif text != self.reference_text:
            self.problems.append("report text differs from the first study's")
        self.problems.extend(self.check(report))
        return report, elapsed

    def self_test(self, reference) -> list:
        """Feed the checks a corrupted row and a table with a forced
        failure; each must be rejected, else the checks could pass vacuously."""
        nr = self.nr
        small = dict(
            metric=self.config.metric, family="coordinate-spheres",
            schedule=SCHEDULE, band_limit=16, seed=self.config.seed,
        )
        masses = reference
        if self.study_name != "run_masses":
            masses = nr.run_masses(nr.StudyConfig(**small))
            if self._check_masses(masses):
                return ["self-test: the uncorrupted mass report was rejected"]
        out = []
        if not self._check_masses(corrupt_masses(masses)):
            out.append("self-test: a corrupted mass row was accepted")
        injected = nr.run_verify(nr.StudyConfig(**small), inject_failure=True)
        if not check_verify(injected):
            out.append("self-test: a verify table with a forced failure was accepted")
        return out


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "nearlyround" / "__init__.py").is_file():
        print(f"error: no nearlyround sources under {SRC}", file=sys.stderr)
        return 2

    fields = study_config(args.workload, args.seed)
    metric, band_limit = fields["metric"], fields["band_limit"]
    setup = []
    while not args.trace and (len(setup) < SETUP_SAMPLES or sum(setup) < SETUP_SECONDS):
        setup.append(cold_start_seconds(metric, band_limit))

    sys.path.insert(0, str(SRC))
    import numpy as np
    import nearlyround as nr

    if not Path(nr.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {nr.__file__}, not the checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    nr.parse_metric(metric)  # cold: Kerr generates its jet code here
    parse_s = time.perf_counter() - t0
    nr.build_grid(band_limit)

    wl = Workload(nr, args.workload, args.seed)
    reference, warm_s = wl.run()  # warm-up, discarded from the timings
    reference_ok = reference is not None and not wl.problems
    studies, traced = [], []
    if args.trace:
        n = max(1, int(args.seconds / 2 / warm_s))
        studies = [wl.run()[1] for _ in range(n)]
        with Tracer() as tracer:
            traced = [wl.run()[1] for _ in range(n)]
    else:
        n = max(MIN_STUDIES, int(args.seconds / warm_s))
        studies = [wl.run()[1] for _ in range(n)]
    # read before the self-test, whose smaller studies leave the heap
    # fragmented enough to raise a later peak
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference_ok:
        selftest = wl.self_test(reference)
    else:
        selftest = ["self-test skipped: the warm-up study failed or was rejected"]

    correct = not selftest and not wl.problems
    study_s = statistics.median(studies)
    if args.trace:
        layer = tracer.per_study(len(traced))
        traced_s = statistics.median(traced)
        self_sum = sum(layer[f"{p}_self_s"] for p in PROBE_NAMES)
        layer.update({
            "metrics.parse_metric_s": parse_s,
            "trace.study_s": traced_s,
            "trace.untraced_study_s": study_s,
            "trace.overhead": traced_s / study_s,
            "trace.accounted_share": self_sum / statistics.mean(traced),
        })
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "study_s": {"value": study_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": fields,
        "samples": {
            "setup_s": setup,
            "warmup_study_s": warm_s,
            "study_s": studies,
            "traced_study_s": traced,
        },
        "failures": wl.failures,
        "problems": selftest + wl.problems,
        "environment": {
            "blas_threads": BLAS_THREADS,
            "blas": blas_info(np),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": f"{platform.machine()} {os.cpu_count()} cpus",
        },
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for failure in wl.failures:
        print(f"failed: {failure}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(
        f"{args.workload} seed={args.seed}: {len(studies)} untraced studies"
        + (f", {len(traced)} traced" if traced else "")
        + f", median {study_s:.4f} s; BLAS threads {BLAS_THREADS}; record {out.relative_to(ROOT)}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace."):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
