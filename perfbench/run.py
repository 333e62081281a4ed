"""The conelab benchmark.

    python3 perfbench/run.py --workload {paper,ksymp,validate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload execution is a fresh
interpreter (`child.py`), started one at a time, so a process-level memo
fills within one execution and never carries into the next, as for a user
of the command line.

With `--trace 0` the run first starts `SETUP_PROBES` interpreters that only
import the package and build the inputs, then runs the workload on the same
inputs again and again until `--seconds` have passed (at least once), and
reports the end-to-end metrics as medians: `run_s` and `peak_rss_mb` over
the executions, `setup_s` over every set-up.
`run_s` is the execution's wall time scaled to a reference machine speed
(`speed.SpeedProbe`), so that other load on a shared machine does not show
as a change of the program; the plain wall time is kept with the samples.
With `--trace 1` it runs the workload once untraced and once traced and
reports the per-layer metrics, including the tracing overhead.

The metric names and units come from BENCHMARK.json.  The last line of
standard output is the result; the line before it records the seed, the git
revision, the Python version and the processor count, which are also written
with the raw samples to `.perfbench-out/`.  Any execution that fails to start
or exits abnormally ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
CHILD = HERE / "child.py"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# Set iteration order inside the package follows string hashes; a fixed hash
# seed keeps that order, and so the work done, the same in every execution.
HASH_SEED = "0"


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode, repr(spawned_at), str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"{workload} {mode} execution timed out after {err.timeout} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode} execution exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
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
    return "unknown"


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    start = time.monotonic()
    probes = [run_child(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    runs = []
    while not runs or time.monotonic() - start < seconds:
        runs.append(run_child(workload, seed, "run"))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in probes + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, probes + runs


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    plain = run_child(workload, seed, "run")
    traced = run_child(workload, seed, "trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1
    return metrics, [plain, traced]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, samples = measure_traced(args.workload, args.seed)
        else:
            values, samples = measure(args.workload, args.seed, args.seconds)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(s.get("attempted", 0) for s in samples)
    failed = sum(s.get("failed", 0) for s in samples)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_revision(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "errors": sorted({s["error"] for s in samples if s.get("error")}),
    }
    untracked = {k: v for s in samples for k, v in s.get("untracked_layers", {}).items()}
    if untracked:
        info["untracked_layers"] = untracked
        print(f"warning: layers without a per_layer metric in BENCHMARK.json: {sorted(untracked)}",
              file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"info": info, "samples": samples, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
