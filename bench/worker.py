"""The workload process: set-up, then timed jobs, reported as one JSON line.

Started by ``run.py`` with the thread-pool variables set to 1 and ``src`` on
``PYTHONPATH``; not meant to be run by hand. Set-up covers the imports of
numpy and ``xxzswap``, making the inputs from the seed, writing the device
files and one warm-up job at tiny size. The monotonic time at which the
first timed job starts is reported, so the parent can measure set-up from
the moment it started this process.

Jobs call the program in-process: the CLI through ``xxzswap.cli.main`` with
stdout and stderr captured to memory, the library through the package's
public names. Both are looked up at call time, so an installed tracer sees
every call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings

import workloads

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

class Jobs:
    """Builds and runs the jobs of one workload at one size."""

    def __init__(self, workload: str, seed: int, size: str, workdir: str):
        import xxzswap
        import xxzswap.cli

        self.xxzswap = xxzswap
        self.cli = xxzswap.cli
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed, size)
        self.tracer = None
        if workload == "crosscheck":
            self.phases = xxzswap.PhaseTriple(*self.inputs["phases"])
            self.device_argv = []
            for k, device in enumerate(self.inputs["devices"]):
                path = os.path.join(workdir, f"device-{size}-{k}.json")
                with open(path, "w") as fh:
                    json.dump(device["config"], fh)
                self.device_argv.append(workloads.pseudospin_argv(path, device))

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.stdout_bytes"] += len(text.encode())
        return code, text

    def run(self) -> tuple[bool, str]:
        """One job: whether every call exited 0, and the job's whole output."""
        if self.workload != "crosscheck":
            code, text = self._cli(self.inputs["argv"])
            return code == 0, text
        ok = True
        parts = []
        for name, key in (("delta-scan", "scan_argv"), ("verify-dynamics", "verify_argv")):
            code, text = self._cli(self.inputs[key])
            ok &= code == 0
            parts.append(f"## {name}\n" + text)
        for measure in workloads.ENSEMBLE_MEASURES:
            est = self.xxzswap.state_ensemble_fidelity(
                self.phases, measure,
                samples=self.inputs["ensemble_samples"], seed=self.inputs["ensemble_seed"],
            )
            parts.append(
                f"## ensemble {measure}\nmean = {est.mean!r}\nstd_error = {est.std_error!r}\n"
                f"samples = {est.samples}\nseed = {est.seed}\n"
            )
        for k, argv in enumerate(self.device_argv):
            code, text = self._cli(argv)
            ok &= code == 0
            parts.append(f"## pseudospin-map {k}\n" + text)
        return ok, "".join(parts)


def _record() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _timed(jobs: Jobs) -> tuple[dict, str]:
    start = time.perf_counter()
    ok, text = jobs.run()
    elapsed = time.perf_counter() - start
    return {"s": elapsed, "ok": ok, "digest": hashlib.sha256(text.encode()).hexdigest()}, text


def _traced(jobs: Jobs) -> tuple[dict, dict]:
    jobs.tracer.reset()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        job, _ = _timed(jobs)
    metrics = jobs.tracer.metrics()
    metrics["dots.warnings"] = sum(issubclass(w.category, UserWarning) for w in caught)
    return job, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        jobs = Jobs(args.workload, args.seed, args.size, args.workdir)
        Jobs(args.workload, args.seed, "tiny", args.workdir).run()  # warm-up
        first_job_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"first_job_at": first_job_at}))
            return 0

        traced = []
        layer = []
        # untraced jobs fill the run, or its first half when tracing; only
        # the first job's output is kept, the others are compared by digest
        budget = args.seconds / 2 if args.trace else args.seconds
        start = time.perf_counter()
        job, first_text = _timed(jobs)
        timed = [job]
        while time.perf_counter() - start < budget:
            timed.append(_timed(jobs)[0])
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            from tracer import Tracer

            jobs.tracer = Tracer()
            jobs.tracer.install()
            while not traced or time.perf_counter() - start < args.seconds:
                job, metrics = _traced(jobs)
                traced.append(job)
                layer.append(metrics)
            jobs.tracer.uninstall()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    all_jobs = timed + traced
    report = {
        "first_job_at": first_job_at,
        "record": _record(),
        "peak_rss_kb": peak_rss_kb,
        "work_per_job": jobs.inputs["work"],
        "jobs": all_jobs,
        "traced_from": len(timed),
        "first_text": first_text,
        "layer": _medians(layer) if layer else None,
    }
    print(json.dumps(report))
    return 0


def _medians(per_job: list[dict]) -> dict:
    keys = sorted(set().union(*per_job))
    return {k: statistics.median(m.get(k, 0) for m in per_job) for k in keys}


if __name__ == "__main__":
    sys.exit(main())
