"""Command line front end.

Surfaces are written ``rational:k=2``, ``ruled:h=2`` (a trivial bundle,
optionally ``,k=1``) or ``nontrivial-ruled:h=1``, and ``--k K`` is the literal
``rational:k=K``; classes use the literal
syntax ``2H-E1-E2`` / ``U-3T`` with integer or fractional coefficients.
Exit status: 0 on success; 1 when a requested check fails, when the library
refuses an input (a surface outside a command's scope among them) or when
the reader closes the pipe; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from . import cones, cremona, enumeration, inflation, swcert, verify
from .configurations import (
    NegativeConfiguration,
    blow_down,
    catalog_cp2_1,
    catalog_cp2_2,
    catalog_cp2_3,
    count_minus_one,
    validate_configuration,
)
from .lattice import (
    RATIONAL,
    TRIVIAL_RULED,
    pair,
    DivisorClass,
    LatticeError,
    ParseError,
    SurfaceModel,
    format_class,
    intern_surface,
    parse_class,
    parse_class_list,
    sorted_classes,
)

CATALOGS = {"cp2+1": catalog_cp2_1, "cp2+2": catalog_cp2_2, "cp2+3": catalog_cp2_3}


def parse_surface(text: str) -> SurfaceModel:
    """The surface a literal such as ``ruled:h=2,k=1`` names; SurfaceModel
    checks the values."""
    head, _, params = text.partition(":")
    kind = head.strip().lower().replace("-", "_")
    kind = TRIVIAL_RULED if kind == "ruled" else kind
    values = {"k": 0, "h": 0 if kind == RATIONAL else 1}
    given = set()
    for item in params.split(",") if params else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in values or key in given:
            raise ParseError(f"unknown or repeated surface parameter {item!r}")
        given.add(key)
        try:
            values[key] = int(value)
        except ValueError:
            raise ParseError(f"bad surface parameter {item!r}") from None
    try:
        return intern_surface(SurfaceModel(kind, **values))
    except LatticeError as err:
        raise ParseError(str(err)) from None


def _surface(args) -> SurfaceModel:
    if args.surface is None:
        raise ParseError("specify --surface or --k")
    return parse_surface(args.surface)


def _no_surface_beside(args, flag: str) -> None:
    """A file flag brings its own surface, so --surface or --k next to it
    would be ignored; refuse it instead."""
    if args.surface is not None:
        raise ParseError(f"{flag} names its own surface; drop --surface/--k")


def _classes_from_arg(text: str, surface: SurfaceModel) -> list[DivisorClass]:
    classes = [parse_class(part, surface) for part in text.split(",") if part.strip()]
    if not classes:
        raise ParseError(f"no class literal in {text!r}")
    return classes


def _load_json(path: str, parse):
    """parse applied to the JSON object in path; an unreadable file, a
    document that is not an object or a missing key is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    if not isinstance(document, dict):
        raise ParseError(f"{path} does not hold a JSON object")
    try:
        return parse(document)
    except KeyError as err:
        raise ParseError(f"{path} has no {err} entry") from None


def _parse_cone(data: dict):
    surface = SurfaceModel.from_json(data["surface"])
    rays = parse_class_list(data["rays"], surface)
    if not rays:
        raise ParseError("no class literal in the rays entry")
    return surface, rays


# -- subcommand handlers ----------------------------------------------------
# Each returns (exit code, JSON document, text lines); lines is None for a
# command that always prints JSON.  main prints one or the other.


def cmd_enumerate(args) -> tuple:
    surface = _surface(args)
    if args.nbound < 0:
        raise ParseError("--nbound must be >= 0")
    reps = enumeration.sphere_classes(surface, n_bound=args.nbound, square=args.square)
    if args.families:
        labels = [enumeration.family_label(x) for x in reps]
        return 0, {"families": labels}, labels
    classes = sorted_classes(enumeration.family_instances(reps))
    names = [str(c) for c in classes]
    shown = [format_class(c, paper_signs=True) for c in classes] if args.paper_signs else names
    return 0, {"classes": names}, shown  # JSON keeps str(c)


def cmd_squares(args) -> tuple:
    if args.total < 0:
        raise ParseError("--total must be >= 0")
    reps = enumeration.nine_squares_representations(
        args.total, residue_sum_zero=not args.any_sum
    )
    lines = [" ".join(str(x) for x in r) for r in reps] + [f"count: {len(reps)}"]
    return 0, {"total": args.total, "representations": [list(r) for r in reps]}, lines


def cmd_reduce(args) -> tuple:
    out = cremona.cremona_reduce(parse_class(args.cls, _surface(args)))
    result = str(out.result) if out.result else None
    trace = [str(t) for t in out.trace]
    doc = {"outcome": out.kind, "result": result, "trace": trace, "steps": out.steps}
    detail = f"reduced form: {result}" if out.kind == "reduced" else "trace: " + " -> ".join(trace)
    return 0, doc, [f"{out.kind} after {out.steps} steps", detail]


def cmd_equiv(args) -> tuple:
    surface = _surface(args)
    x = parse_class(args.cls, surface)
    y = parse_class(args.other, surface)
    out = cremona.cremona_equivalent(x, y)
    path = [str(p) for p in out.path]
    lines = [out.kind + (f" ({out.which})" if out.which else "")]
    if path:
        lines.append("path: " + " -> ".join(path))
    return 0, {"outcome": out.kind, "which": out.which, "path": path}, lines


def cmd_ksymp(args) -> tuple:
    ks = cones.k_symplectic_cone(_surface(args))
    corners = [
        {"ray": str(c.ray), "square": str(c.square), "genus": str(c.genus)}
        for c in ks.corners
    ]
    # a generator, so that JSON output formats no line
    lines = chain(
        (f"{c['ray']}  square {c['square']}  genus {c['genus']}" for c in corners),
        [f"all corners square 0/1 and genus 0: {ks.corners_ok}"],
    )
    return (0 if ks.corners_ok else 1), {"corners": corners, "corners_ok": ks.corners_ok}, lines


def cmd_dual(args) -> tuple:
    if args.rays_file:
        _no_surface_beside(args, "--rays-file")
        surface, rays = _load_json(args.rays_file, _parse_cone)
    else:
        surface = _surface(args)
        rays = _classes_from_arg(args.rays, surface)
    dual = cones.dual_cone(rays)
    facets = sorted_classes({r.primitive() for r in rays if not r.is_zero()})
    doc = {
        "surface": surface.to_json(),
        "rays": [str(r) for r in dual.rays],
        "facets": [str(f) for f in facets],
        "lineality": [str(v) for v in dual.lineality],
    }
    shown = doc["rays"]
    if args.paper_signs:
        shown = [format_class(r, paper_signs=True) for r in dual.rays]
    return 0, doc, shown + [f"{v} (lineality)" for v in doc["lineality"]]


def cmd_nef_threshold(args) -> tuple:
    if args.curves_file:
        _no_surface_beside(args, "--curves-file")
        cfg = _load_json(args.curves_file, NegativeConfiguration.from_json)
        surface = cfg.surface
        curves = list(cfg.curves)
    else:
        surface = _surface(args)
        curves = _classes_from_arg(args.curves, surface)
    omega = parse_class(args.omega, surface)
    t0 = str(cones.nef_threshold(omega, curves))
    return 0, {"threshold": t0}, [t0]


def cmd_inflate(args) -> tuple:
    if args.trace is not None and args.trace < 1:
        raise ParseError("--trace must be >= 1")
    if args.trace and not args.ray:
        raise ParseError("--trace needs --ray")
    cfg = _load_json(args.config, NegativeConfiguration.from_json)
    start = parse_class(args.start, cfg.surface)
    wanted = parse_class(args.ray, cfg.surface).primitive() if args.ray else None
    tight = [c for c in cfg.curves if pair(c, wanted) == 0] if wanted is not None else []
    if args.trace and len(tight) != 2:
        raise ParseError(
            f"--trace needs a ray tight on exactly two curves; {wanted} is tight on {len(tight)}"
        )
    achieved = inflation.achieve_all_rays(cfg, start)
    if wanted is not None and wanted not in achieved:
        raise ParseError(f"{wanted} is not an extremal ray of the positive dual")
    records = []
    for ray, trace in achieved.items():
        if wanted is not None and ray != wanted:
            continue
        records.append(
            {
                "ray": str(ray),
                "result": str(trace.result),
                "steps": [[str(c), str(e)] for c, e in trace.steps],
                "light_cone_limit": trace.limit_formula_used,
            }
        )
    lines = []
    for rec in records:
        steps = ", ".join(f"{e} along {c}" for c, e in rec["steps"]) or "none"
        tag = " (light-cone limit)" if rec["light_cone_limit"] else ""
        lines.append(f"{rec['ray']}: reached {rec['result']} via {steps}{tag}")
    doc = {"start": str(start), "achieved": records}
    if args.trace:
        alt = inflation.alternate_inflate(
            inflation.max_inflate(start, tight[0])[0], tight[0], tight[1], args.trace
        )
        odd = [str(x) for x in alt.odd_coefficients]
        even = [str(x) for x in alt.even_coefficients]
        doc["alternating"] = {"odd": odd, "even": even}
        lines += ["alternating coefficients:", "  odd:  " + ", ".join(odd),
                  "  even: " + ", ".join(even)]
    return 0, doc, lines


def cmd_validate(args) -> tuple:
    rep = validate_configuration(_load_json(args.file, NegativeConfiguration.from_json))
    props = (("p1", rep.p1), ("p2", rep.p2), ("p3", rep.p3))
    doc = {name: {"passed": res.passed, "details": res.details} for name, res in props}
    lines = [f"{name}: {'pass' if res.passed else 'FAIL'} -- {res.details}" for name, res in props]
    return (0 if rep.passed else 1), {**doc, "passed": rep.passed}, lines


def cmd_blowdown(args) -> tuple:
    cfg = _load_json(args.file, NegativeConfiguration.from_json)
    small, dropped = blow_down(cfg, parse_class(args.at, cfg.surface))
    doc = small.to_json()
    doc["dropped"] = [str(d) for d in dropped]
    lines = ["curves: " + ", ".join(doc["curves"])]
    if small.extra_square_zero:
        lines.append("square-zero: " + ", ".join(doc["extra_square_zero"]))
    if dropped:
        lines.append("dropped (non-negative square): " + ", ".join(doc["dropped"]))
    return 0, doc, lines


def cmd_catalog(args) -> tuple:
    if args.n is not None and args.n < 0:
        raise ParseError("--n must be >= 0")
    maker = CATALOGS[args.name]
    entries = maker() if args.n is None else maker((args.n,))
    doc = [{"label": e.label(), **e.configuration.to_json()} for e in entries]
    # a generator, so that only text output counts the -1 curves
    lines = (
        f"{d['label']}: " + ", ".join(d["curves"])
        + f"   [-1 curves: {len(count_minus_one(e.configuration))}]"
        for d, e in zip(doc, entries)
    )
    return 0, doc, lines


def cmd_cert(args) -> tuple:
    cls = parse_class(args.cls, _surface(args))
    out = swcert.sw_certificate(cls)
    if isinstance(out, str):
        return 1, {"certified": False, "reason": out}, None
    return 0, {
        "certified": True,
        "class": str(out.cls),
        "dimension": str(out.dimension),
        "witness": str(out.witness),
        "magnitude": out.magnitude,
    }, None


def cmd_decompose(args) -> tuple:
    cls = parse_class(args.cls, _surface(args))
    out = swcert.non_extremal_witness(cls)
    if isinstance(out, str):
        return 0, {"extremal": True, "reason": out}, None
    return 0, {
        "extremal": False,
        "scale": out.scale,
        "summands": [
            {"class": str(p), "magnitude": c.magnitude, "dimension": str(c.dimension)}
            for p, c in out.summands
        ],
    }, None


def cmd_verify(args) -> tuple:
    checks = [fn() for fn in (verify.SUITES[args.suite] if args.suite else verify.ALL_CHECKS)]
    passed = sum(c.passed for c in checks)
    failed = len(checks) - passed
    rows = [{"name": c.name, "reference": c.reference,
             "status": "pass" if c.passed else "fail", "details": c.details} for c in checks]
    lines = [f"[{r['status'].upper()}] {r['name']}: {r['details']}" for r in rows]
    lines.append(f"{passed} passed, {failed} failed")
    doc = {"checks": rows, "summary": {"passed": passed, "failed": failed}}
    return (0 if failed == 0 else 1), doc, lines


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="exact curve-cone computations on rational and ruled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # parent parsers: each flag that several subcommands take is declared once
    as_json, paper_signs, one_class, on_surface = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    as_json.add_argument("--json", action="store_true")
    paper_signs.add_argument("--paper-signs", action="store_true",
                             help="render classes as coefficient tuples (a; b1, ..., bk)")
    one_class.add_argument("--class", dest="cls", required=True)
    where = on_surface.add_mutually_exclusive_group()
    where.add_argument("--surface", help="e.g. rational:k=3 or ruled:h=2")
    where.add_argument("--k", dest="surface", type="rational:k={}".format, metavar="K",
                       help="shorthand for rational:k=K")

    def leaf(parent, name, func, parents, **kwargs):
        p = parent.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "enumerate", cmd_enumerate, (on_surface, as_json, paper_signs),
             help="sphere classes with a given square")
    p.add_argument("--square", type=int, default=-1)
    p.add_argument("--nbound", type=int, default=2, help="materialize the non-positive-degree families up to n")
    p.add_argument("--families", action="store_true", help="print orbit families, not instances")

    p = leaf(sub, "squares", cmd_squares, (as_json,), help="nine-squares representations")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--any-sum", action="store_true", help="drop the zero-sum condition")

    psub = sub.add_parser("cremona", help="reduction and equivalence").add_subparsers(
        dest="action", required=True)
    leaf(psub, "reduce", cmd_reduce, (on_surface, as_json, one_class))
    p = leaf(psub, "equiv", cmd_equiv, (on_surface, as_json))
    p.add_argument("cls", metavar="A")
    p.add_argument("other", metavar="B")

    psub = sub.add_parser("cone", help="duals and the K-symplectic cone").add_subparsers(
        dest="action", required=True)
    p = leaf(psub, "dual", cmd_dual, (on_surface, as_json, paper_signs))
    rays = p.add_mutually_exclusive_group(required=True)
    rays.add_argument("--rays", help="comma-separated class literals")
    rays.add_argument("--rays-file", help="JSON file with surface and rays")
    leaf(psub, "ksymp", cmd_ksymp, (on_surface, as_json))

    p = leaf(sub, "nef-threshold", cmd_nef_threshold, (on_surface, as_json),
             help="sup t with tK + omega nef")
    p.add_argument("--omega", required=True)
    curves = p.add_mutually_exclusive_group(required=True)
    curves.add_argument("--curves", help="comma-separated extremal curves")
    curves.add_argument("--curves-file", help="configuration JSON supplying the curves")

    p = leaf(sub, "inflate", cmd_inflate, (as_json,), help="achieve dual rays by formal inflation")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--start", required=True, help="start class literal")
    p.add_argument("--ray", help="achieve a single ray")
    p.add_argument("--trace", type=int, help="also print N alternating coefficients of --ray")

    psub = sub.add_parser("config", help="configuration tools").add_subparsers(
        dest="action", required=True)
    leaf(psub, "validate", cmd_validate, (as_json,)).add_argument("file")
    p = leaf(psub, "blowdown", cmd_blowdown, (as_json,))
    p.add_argument("file")
    p.add_argument("--at", required=True, help="the -1 basis class, e.g. E3")
    p = leaf(psub, "catalog", cmd_catalog, (as_json,))
    p.add_argument("name", choices=CATALOGS)
    p.add_argument("--n", type=int, help="single parameter value (default 0,1,2)")

    psub = sub.add_parser("sw", help="wall-crossing certificates").add_subparsers(
        dest="action", required=True)
    leaf(psub, "cert", cmd_cert, (on_surface, one_class))
    leaf(psub, "decompose", cmd_decompose, (on_surface, one_class))

    p = leaf(sub, "verify-paper", cmd_verify, (as_json,), help="run the reproduction checks")
    p.add_argument("--suite", choices=sorted(verify.SUITES), help="run one suite only")
    p.set_defaults(indent=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, doc, lines = args.func(args)
        if lines is None or args.json:
            print(json.dumps(doc, indent=getattr(args, "indent", None)))  # verify-paper sets 2
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()  # a closed pipe raises here, and stdout then goes to devnull
        return code
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
