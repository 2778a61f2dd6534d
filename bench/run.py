"""Benchmark of xxzswap: one workload, one seed, one run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 56 --trace 0

Workloads are ``sweep`` and ``crosscheck`` (see ``workloads.py`` and
README.md). The run starts the workload in fresh single-threaded
processes (``worker.py``, with the BLAS and OpenMP thread-pool variables set
to 1): one that sets up and runs jobs for ``--seconds``, with two that only
set up before it and two after it. It then checks the first job's output
against computations made apart from the program (``checks.py``) and every
later job's output against the first by digest.

With ``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` the first half of the run is untraced and the second half
traced, and it reports the per-layer metrics. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
run's record (commit, versions, thread variables) and its job times go to
``bench/out/``. ``--size tiny`` shrinks every job, for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

#: Processes that only set up, besides the one that also runs the jobs.
SETUP_ONLY_RUNS = 4


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _spawn(argv: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run one workload process; its start time and its JSON report."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(proc.stdout.splitlines()[-1])


def count_failed(jobs: list[dict], problems: list[str]) -> int:
    """Jobs that exited nonzero or whose output failed a check. Only the
    first job's output is checked; identical invocations must give
    byte-identical output, so a later job whose digest differs has failed."""
    if problems:
        return len(jobs)
    return sum(1 for j in jobs if not j["ok"] or j["digest"] != jobs[0]["digest"])


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "xxzswap", "__init__.py")):
        print(f"error: no xxzswap sources under {SRC}", file=sys.stderr)
        return 2
    specs = _metric_specs()
    # checks need scipy, which the workload process never imports
    from checks import CHECKS

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--workdir", os.path.join(OUT, f"work-{os.getpid()}")]

    def setup_only() -> float:
        started, report = _spawn(common + ["--seconds", "0", "--setup-only"], env, 20)
        return report["first_job_at"] - started

    # set-up is timed on both sides of the main process, since the host's
    # speed drifts over a run
    setups = []
    extra = 0 if args.trace else SETUP_ONLY_RUNS
    try:
        setups += [setup_only() for _ in range(extra // 2)]
        started, report = _spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, args.seconds + 90,
        )
        setups.append(report["first_job_at"] - started)
        setups += [setup_only() for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    problems = CHECKS[args.workload](inputs, report["first_text"])
    jobs = report["jobs"]
    first = jobs[0]["digest"]
    failed = count_failed(jobs, problems)
    untraced = jobs[: report["traced_from"]]
    traced = jobs[report["traced_from"]:]
    job_s = statistics.median(j["s"] for j in untraced)

    if args.trace:
        layer = dict(report["layer"])
        layer["trace.overhead"] = statistics.median(j["s"] for j in traced) / job_s
        wanted = specs["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
    else:
        wanted = specs["end_to_end"]
        ok_work = sum(report["work_per_job"] for j in untraced if j["ok"] and j["digest"] == first)
        values = {
            "setup_s": statistics.median(setups),
            "job_s": job_s,
            "work_per_s": 0.0 if problems else ok_work / sum(j["s"] for j in untraced),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = dict(report["record"], commit=_commit())
    print(f"xxzswap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(f"jobs: attempted={len(jobs)} failed={failed} untraced={len(untraced)} "
          f"traced={len(traced)} set-ups={len(setups)}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "record": record,
        "setup_s": setups, "job_s": [j["s"] for j in jobs], "traced_from": report["traced_from"],
        "problems": problems, "metrics": metrics, "layer_all": report["layer"],
    }
    name = f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
