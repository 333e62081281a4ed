"""One workload execution in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT OUT_DIR

MODE is `setup` (import and build the inputs, then stop), `run` (also run
the workload and check its outputs) or `trace` (the same with every public
function of the package wrapped by `tracer.Tracer`).  SPAWNED_AT is the
parent's `time.monotonic()` just before it started this process; on Linux
that clock is shared by all processes, so set-up time includes interpreter
start.  Times are scaled to reference machine speed (`speed.py`).  The last
line of standard output is one JSON object.  Exit code 3 means the package
could not be imported from `src/` next to this directory.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import speed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-paper.json"
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
SETUP_SPEED_SAMPLES = 20
KSYMP_CORNERS = {5: 26, 6: 99, 7: 702}
VALIDATE_K = 7


def import_package():
    """Every submodule of the package, keyed by short name, imported from
    this checkout's `src/` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("conelab")
        if not package.__file__ or Path(package.__file__).resolve().parent != src / "conelab":
            raise ImportError(f"conelab imported from {package.__file__}")
        names = sorted(p.stem for p in (src / "conelab").glob("*.py") if p.stem != "__init__")
        return {name: importlib.import_module(f"conelab.{name}") for name in names}
    except ImportError as err:
        print(f"cannot import conelab from {src}: {err}", file=sys.stderr)
        sys.exit(3)


# -- independent oracle ------------------------------------------------------


@lru_cache(maxsize=None)
def minus_one_classes(k: int) -> frozenset[tuple[int, ...]]:
    """Exceptional classes aH - sum b_i E_i on k <= 7 blowups by brute force:
    square -1 and K-pairing -1 with a <= 3 and -1 <= b_i <= 2, which holds
    for every such class when k <= 7.  Stored signs, as in the library."""
    out = set()
    for a in range(4):
        for b in product(range(-1, 3), repeat=k):
            if a * a - sum(x * x for x in b) == -1 and 3 * a - sum(b) == 1:
                out.add((a,) + tuple(-x for x in b))
    return frozenset(out)


def rational_pair(x, y) -> Fraction:
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


# -- workloads ---------------------------------------------------------------
# Each workload has inputs(mods, seed), run(mods, inputs) -> outputs
# and check(inputs, outputs) -> (attempted, failed, first error or None).
# Only `run` is timed; the set-up time covers `inputs`.


def paper_inputs(mods, seed):
    return ["verify-paper", "--json"]


def paper_run(mods, argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(argv)
    except Exception as err:  # a crash fails every check
        return None, f"{type(err).__name__}: {err}"
    return code, buf.getvalue()


def paper_check(argv, outputs):
    code, text = outputs
    golden = GOLDEN.read_text()
    want = json.loads(golden)["checks"]
    if code is None:
        return len(want), len(want), text
    try:
        got = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        return len(want), len(want), "output is not the verify-paper JSON"
    failed = sum(1 for i, w in enumerate(want) if i >= len(got) or got[i] != w)
    error = None
    if failed == 0 and (code != 0 or text != golden):
        failed, error = 1, f"exit code {code} or bytes differ from {GOLDEN.name}"
    elif failed:
        error = f"{failed} checks differ from {GOLDEN.name}"
    return len(want), failed, error


def ksymp_inputs(mods, seed, ks=tuple(KSYMP_CORNERS)):
    return [mods["lattice"].rational_surface(k) for k in ks]


def ksymp_run(mods, surfaces):
    out = []
    for s in surfaces:
        try:
            out.append(mods["cones"].k_symplectic_cone(s))
        except Exception as err:  # one failed cone, the others still count
            out.append(f"{type(err).__name__}: {err}")
    return out


def ksymp_check(surfaces, cones, expected=KSYMP_CORNERS):
    failed, error = 0, None
    for surface, cone in zip(surfaces, cones):
        problem = _ksymp_problem(surface.k, cone, expected.get(surface.k))
        if problem:
            failed += 1
            error = error or f"k={surface.k}: {problem}"
    return len(surfaces), failed, error


def _ksymp_problem(k, cone, expected):
    if isinstance(cone, str):
        return cone
    rays = [c.ray.coeffs for c in cone.corners]
    if expected is not None and len(rays) != expected:
        return f"{len(rays)} corners, expected {expected}"
    canonical = (-3,) + (1,) * k
    exceptional = minus_one_classes(k)
    for r in rays:
        square = rational_pair(r, r)
        genus = (square + rational_pair(canonical, r)) / 2 + 1
        if square not in (0, 1) or genus != 0:
            return f"corner {r} has square {square} and genus {genus}"
        if any(rational_pair(r, e) < 0 for e in exceptional):
            return f"corner {r} pairs negatively with a -1 class"
    return None


def relabel(mods, cfg, perm):
    """The configuration with E_i renamed E_perm[i] (0-based indices)."""
    lattice = mods["lattice"]
    curves = []
    for c in cfg.curves:
        coeffs = list(c.coeffs)
        for i, j in enumerate(perm):
            coeffs[1 + j] = c.coeffs[1 + i]
        curves.append(lattice.divisor(cfg.surface, coeffs))
    return mods["configurations"].NegativeConfiguration(cfg.surface, curves)


def validate_inputs(mods, seed, k=VALIDATE_K):
    rng = random.Random(seed)
    build = mods["configurations"].disjoint_minus_one_configuration
    return [relabel(mods, build(k, l), rng.sample(range(k), k)) for l in range(1, k + 1)]


def validate_run(mods, configs):
    """Validation reports, each with the LP calls made for it: the target,
    the full solution and its nonzero terms, so the decompositions can be
    re-verified by exact arithmetic."""
    exactlp = mods["exactlp"]
    solve = exactlp.nonnegative_combination
    lp_calls: list[list] = []

    def capture(columns, target):
        solution = solve(columns, target)
        used = None if solution is None else [(v, col) for v, col in zip(solution, columns) if v]
        lp_calls[-1].append((target, solution, used))
        return solution

    out = []
    exactlp.nonnegative_combination = capture
    try:
        for cfg in configs:
            lp_calls.append([])
            try:
                report = mods["configurations"].validate_configuration(cfg)
            except Exception as err:  # one failed configuration
                report = f"{type(err).__name__}: {err}"
            out.append((report, lp_calls[-1]))
    finally:
        exactlp.nonnegative_combination = solve
    return out


def validate_check(configs, outputs):
    failed, error = 0, None
    for cfg, (report, lp_calls) in zip(configs, outputs):
        problem = _validate_problem(cfg, report, lp_calls)
        if problem:
            failed += 1
            error = error or f"{cfg!r}: {problem}"
    return len(configs), failed, error


def _validate_problem(cfg, report, lp_calls):
    if isinstance(report, str):
        return report
    if not report.passed:
        return "validation did not pass"
    exceptional = minus_one_classes(cfg.surface.k)
    targets = {tuple(t.coeffs) for t, _ in report.decompositions}
    if targets != exceptional or len(lp_calls) != len(report.decompositions):
        return "decompositions do not cover the -1 classes once each"
    n = len(cfg.generators())
    for (target, used), (lp_target, x, terms) in zip(report.decompositions, lp_calls):
        if x is None or tuple(lp_target) != target.coeffs or tuple(x[:n]) != used:
            return f"decomposition of {target} does not match its LP solution"
        if any(v < 0 for v in x):
            return f"negative coefficient in the decomposition of {target}"
        total = tuple(sum(v * col[i] for v, col in terms) for i in range(len(target.coeffs)))
        if total != target.coeffs:
            return f"decomposition of {target} does not sum to it"
    return None


WORKLOADS = {
    "paper": (paper_inputs, paper_run, paper_check),
    "ksymp": (ksymp_inputs, ksymp_run, ksymp_check),
    "validate": (validate_inputs, validate_run, validate_check),
}


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer, mods) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric of BENCHMARK.json except the tracing overhead,
    which needs the untraced run as well.  A module-level metric of a module
    that is gone reads 0.  The second dict holds the self time and line count
    of modules BENCHMARK.json does not name yet, so they are seen."""
    self_s = tracer.self_s_by_module()
    lines = {
        "init" if p.stem == "__init__" else p.stem: len(p.read_text().splitlines())
        for p in sorted((ROOT / "src" / "conelab").glob("*.py"))
    }
    calls = tracer.calls_by_module()
    lp_calls = tracer.calls("exactlp.nonnegative_combination")
    m = {
        "lattice.pair.calls": tracer.calls("lattice.pair"),
        "lattice.classes_built": tracer.calls("lattice.DivisorClass"),
        "linalg.calls": calls.get("linalg", 0),
        "enumeration.sweeps_s": tracer.inclusive_s("enumeration.sphere_class_sweeps"),
        "enumeration.exceptional_classes.calls": tracer.calls("enumeration.exceptional_classes"),
        "cremona.reflect.calls": tracer.calls("cremona.reflect"),
        "cones.dd.calls": tracer.calls("cones.extreme_rays_h"),
        "cones.dd.ineqs_in": tracer.counters["cones.dd.ineqs_in"],
        "cones.dd.rays_out": tracer.counters["cones.dd.rays_out"],
        "exactlp.lp.calls": lp_calls,
        "exactlp.lp.columns": tracer.counters["exactlp.lp.columns"],
        "exactlp.lp.feasible_frac": tracer.counters["exactlp.lp.feasible"] / lp_calls if lp_calls else 0.0,
        "configurations.certified_sw_classes.calls": tracer.calls("configurations.certified_sw_classes"),
        "swcert.sw_certificate.calls": tracer.calls("swcert.sw_certificate"),
    }
    names = [c["name"] for c in json.loads(GOLDEN.read_text())["checks"]]
    checks = [fn.__wrapped__.__name__ for fn in mods["verify"].ALL_CHECKS]
    for fn_name, check in zip(checks, names):
        m[f"verify.{check}.s"] = tracer.inclusive_s(f"verify.{fn_name}")
    for name in PER_LAYER:
        module, _, kind = name.partition(".")
        if kind == "self_s":
            m[name] = self_s.get(module, 0.0)
        elif kind == "lines":
            m[name] = lines.get(module, 0)
    untracked = {f"{mod}.self_s": t for mod, t in self_s.items() if f"{mod}.self_s" not in PER_LAYER}
    untracked.update({f"{mod}.lines": n for mod, n in lines.items() if f"{mod}.lines" not in PER_LAYER})
    return m, untracked


def cpu_s() -> float:
    """CPU time of this process so far, kept beside the wall times."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    workload, seed, mode, spawned_at, out_dir = argv
    mods = import_package()
    make_inputs, run, check = WORKLOADS[workload]
    inputs = make_inputs(mods, int(seed))
    setup_s = time.monotonic() - float(spawned_at)
    setup_cpu_s = cpu_s()
    samples = [speed.kernel_s() for _ in range(SETUP_SPEED_SAMPLES)]
    result = {"setup_wall_s": setup_s, "setup_cpu_s": setup_cpu_s,
              "setup_s": speed.to_reference(setup_s, samples)}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install(mods)
        cpu0 = cpu_s()
        with speed.SpeedProbe() as probe:
            t0 = time.perf_counter()
            outputs = run(mods, inputs)
            wall_s = time.perf_counter() - t0
        result["cpu_s"] = cpu_s() - cpu0
        result["wall_s"] = wall_s - probe.busy_s
        result["run_s"] = probe.reference_s(wall_s)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, error = check(inputs, outputs)
        result.update(attempted=attempted, failed=failed, error=error)
        if tracer is not None:
            result["layers"], result["untracked_layers"] = layer_metrics(tracer, mods)
            path = Path(out_dir) / f"trace-{workload}-seed{seed}.json"
            tracer.dump(path, {"workload": workload, "seed": int(seed), "run_s": result["run_s"]})
            result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
