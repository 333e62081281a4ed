"""Command line front end.

Surfaces are written ``rational:k=2``, ``ruled:h=2`` (a trivial bundle,
optionally ``,k=1``) or ``nontrivial-ruled:h=1``; classes use the literal
syntax ``2H-E1-E2`` / ``U-3T`` with integer or fractional coefficients.
Exit status: 0 on success, 1 when a requested check fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    pair,
    DivisorClass,
    LatticeError,
    ParseError,
    SurfaceModel,
    format_class,
    nontrivial_ruled,
    parse_class,
    parse_class_list,
    rational_surface,
    sorted_classes,
    trivial_ruled,
)


class UsageError(ValueError):
    pass


def parse_surface(text: str) -> SurfaceModel:
    head, _, params = text.partition(":")
    kv = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            try:
                kv[key.strip()] = int(value)
            except ValueError:
                raise UsageError(f"bad surface parameter {item!r}") from None
    kind = head.strip().lower().replace("_", "-")
    try:
        if kind == "rational":
            return rational_surface(kv.get("k", 0))
        if kind in ("ruled", "trivial-ruled"):
            return trivial_ruled(kv.get("h", 1), kv.get("k", 0))
        if kind == "nontrivial-ruled":
            return nontrivial_ruled(kv.get("h", 1), kv.get("k", 0))
    except LatticeError as err:
        raise UsageError(str(err))
    raise UsageError(f"unknown surface kind {head!r}")


def _surface_from_args(args) -> SurfaceModel:
    if getattr(args, "surface", None):
        return parse_surface(args.surface)
    if getattr(args, "k", None) is not None:
        return rational_surface(args.k)
    raise UsageError("specify --surface or --k")


def _classes_from_arg(text: str, surface: SurfaceModel) -> list[DivisorClass]:
    return [parse_class(part, surface) for part in text.split(",") if part.strip()]


def _load_json(path: str, parse):
    """parse applied to the JSON object in path; an unreadable file, a
    document that is not an object or a missing key is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    if not isinstance(document, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    try:
        return parse(document)
    except KeyError as err:
        raise UsageError(f"{path} has no {err} entry") from None


def _parse_cone(data: dict):
    surface = SurfaceModel.from_json(data["surface"])
    return surface, parse_class_list(data.get("rays", []), surface)


def _print_classes(classes, args):
    if args.json:
        print(json.dumps({"classes": [str(c) for c in classes]}))
    else:
        for c in classes:
            print(format_class(c, paper_signs=args.paper_signs))


# -- subcommand handlers ----------------------------------------------------


def cmd_enumerate(args) -> int:
    surface = _surface_from_args(args)
    if args.genus != 0:
        raise UsageError("only genus-0 enumeration is finite; use --genus 0")
    if args.square > 0:
        raise UsageError("positive-square classes are not enumerable")
    families = enumeration.sphere_classes(surface, n_bound=args.nbound, square=args.square)
    if args.families:
        if args.json:
            print(json.dumps({"families": [str(f) for f in families]}))
        else:
            for f in families:
                print(f)
    else:
        _print_classes(sorted_classes(enumeration.family_instances(families)), args)
    return 0


def cmd_squares(args) -> int:
    reps = enumeration.nine_squares_representations(
        args.total, residue_sum_zero=not args.any_sum
    )
    if args.json:
        print(json.dumps({"total": args.total, "representations": [list(r) for r in reps]}))
    else:
        for r in reps:
            print(" ".join(str(x) for x in r))
        print(f"count: {len(reps)}")
    return 0


def cmd_cremona(args) -> int:
    surface = _surface_from_args(args)
    if args.action == "reduce":
        x = parse_class(args.cls, surface)
        out = cremona.cremona_reduce(x)
        if args.json:
            print(
                json.dumps(
                    {
                        "outcome": out.kind,
                        "result": str(out.result) if out.result else None,
                        "trace": [str(t) for t in out.trace],
                        "steps": out.steps,
                    }
                )
            )
        else:
            print(f"{out.kind} after {out.steps} steps")
            if out.kind == "reduced":
                print(f"reduced form: {out.result}")
            else:
                print("trace: " + " -> ".join(str(t) for t in out.trace))
        return 0
    x = parse_class(args.cls, surface)
    y = parse_class(args.other, surface)
    out = cremona.cremona_equivalent(x, y)
    if args.json:
        print(
            json.dumps(
                {"outcome": out.kind, "which": out.which, "path": [str(p) for p in out.path]}
            )
        )
    else:
        print(out.kind + (f" ({out.which})" if out.which else ""))
        if out.path:
            print("path: " + " -> ".join(str(p) for p in out.path))
    return 0


def cmd_cone(args) -> int:
    if args.action == "ksymp":
        surface = _surface_from_args(args)
        ks = cones.k_symplectic_cone(surface)
        if args.json:
            print(
                json.dumps(
                    {
                        "corners": [
                            {
                                "ray": str(c.ray),
                                "square": str(c.square),
                                "genus": str(c.genus),
                            }
                            for c in ks.corners
                        ],
                        "corners_ok": ks.corners_ok,
                    }
                )
            )
        else:
            for c in ks.corners:
                print(f"{c.ray}  square {c.square}  genus {c.genus}")
            print(f"all corners square 0/1 and genus 0: {ks.corners_ok}")
        return 0 if ks.corners_ok else 1
    # dual
    if args.rays_file:
        surface, rays = _load_json(args.rays_file, _parse_cone)
    else:
        surface = _surface_from_args(args)
        if not args.rays:
            raise UsageError("supply --rays or --rays-file")
        rays = _classes_from_arg(args.rays, surface)
    cone = cones.cone_from_rays(rays)
    dual = cones.dual_cone(cone)
    if args.json:
        print(json.dumps({
            "surface": dual.ambient.to_json(),
            "rays": [str(r) for r in dual.rays()],
            "facets": [str(f) for f in cone.rays()],
            "lineality": [str(v) for v in dual.lineality()],
        }))
    else:
        for r in dual.rays():
            print(format_class(r, paper_signs=args.paper_signs))
        for v in dual.lineality():
            print(f"{v} (lineality)")
    return 0


def cmd_nef_threshold(args) -> int:
    if args.curves_file:
        cfg = _load_config(args.curves_file)
        surface = cfg.surface
        curves = list(cfg.curves)
    else:
        surface = _surface_from_args(args)
        if not args.curves:
            raise UsageError("supply --curves or --curves-file")
        curves = _classes_from_arg(args.curves, surface)
    omega = parse_class(args.omega, surface)
    t0 = cones.nef_threshold(omega, curves)
    if args.json:
        print(json.dumps({"threshold": str(t0)}))
    else:
        print(t0)
    return 0


def _load_config(path: str) -> NegativeConfiguration:
    return _load_json(path, NegativeConfiguration.from_json)


def cmd_inflate(args) -> int:
    cfg = _load_config(args.config)
    start = parse_class(args.start, cfg.surface)
    achieved = inflation.achieve_all_rays(cfg.curves, start, cfg.extra_square_zero)
    wanted = None
    if args.ray:
        wanted = parse_class(args.ray, cfg.surface).primitive()
        if wanted not in achieved:
            raise UsageError(f"{wanted} is not an extremal ray of the positive dual")
    records = []
    for ray, res in sorted(achieved.items(), key=lambda kv: kv[0].coeffs):
        if wanted is not None and ray != wanted:
            continue
        records.append(
            {
                "ray": str(ray),
                "result": str(res.trace.result),
                "steps": [[str(c), str(e)] for c, e in res.trace.steps],
                "light_cone_limit": res.lightcone_limit,
            }
        )
    if args.json:
        print(json.dumps({"start": str(start), "achieved": records}))
    else:
        for rec in records:
            steps = ", ".join(f"{e} along {c}" for c, e in rec["steps"]) or "none"
            tag = " (light-cone limit)" if rec["light_cone_limit"] else ""
            print(f"{rec['ray']}: reached {rec['result']} via {steps}{tag}")
    if args.trace and wanted is not None:
        tight = [c for c in cfg.curves if pair(c, wanted) == 0]
        if len(tight) == 2:
            alt = inflation.alternate_inflate(
                inflation.max_inflate(start, tight[0])[0], tight[0], tight[1], args.trace
            )
            print("alternating coefficients:")
            print("  odd:  " + ", ".join(str(x) for x in alt.odd_coefficients))
            print("  even: " + ", ".join(str(x) for x in alt.even_coefficients))
    return 0


def cmd_config(args) -> int:
    if args.action == "validate":
        cfg = _load_config(args.file)
        rep = validate_configuration(cfg)
        if args.json:
            print(
                json.dumps(
                    {
                        "p1": {"passed": rep.p1.passed, "details": rep.p1.details},
                        "p2": {"passed": rep.p2.passed, "details": rep.p2.details},
                        "p3": {"passed": rep.p3.passed, "details": rep.p3.details},
                        "passed": rep.passed,
                    }
                )
            )
        else:
            for name, res in (("p1", rep.p1), ("p2", rep.p2), ("p3", rep.p3)):
                print(f"{name}: {'pass' if res.passed else 'FAIL'} -- {res.details}")
        return 0 if rep.passed else 1
    if args.action == "blowdown":
        cfg = _load_config(args.file)
        at = parse_class(args.at, cfg.surface)
        result = blow_down(cfg, at)
        if args.json:
            out = result.configuration.to_json()
            out["dropped"] = [str(d) for d in result.dropped]
            print(json.dumps(out))
        else:
            print("curves: " + ", ".join(str(c) for c in result.configuration.curves))
            if result.dropped:
                print("dropped (non-negative square): " + ", ".join(str(d) for d in result.dropped))
        return 0
    # catalog
    makers = {"cp2+1": catalog_cp2_1, "cp2+2": catalog_cp2_2, "cp2+3": catalog_cp2_3}
    if args.name not in makers:
        raise UsageError(f"unknown catalog {args.name!r}; choose from {sorted(makers)}")
    ns = (args.n,) if args.n is not None else (0, 1, 2)
    entries = makers[args.name](ns)
    if args.json:
        print(
            json.dumps(
                [
                    {"label": e.label(), **e.configuration.to_json()}
                    for e in entries
                ]
            )
        )
    else:
        for e in entries:
            minus_one = count_minus_one(e.configuration)[0]
            print(
                f"{e.label()}: "
                + ", ".join(str(c) for c in e.configuration.curves)
                + f"   [-1 curves: {minus_one}]"
            )
    return 0


def cmd_sw(args) -> int:
    surface = _surface_from_args(args)
    cls = parse_class(args.cls, surface)
    if args.action == "cert":
        out = swcert.sw_certificate(surface, cls)
        if isinstance(out, swcert.NoCertificate):
            print(json.dumps({"certified": False, "reason": out.reason}))
            return 1
        print(
            json.dumps(
                {
                    "certified": True,
                    "class": str(out.cls),
                    "dimension": str(out.dimension),
                    "witness": str(out.witness),
                    "magnitude": out.magnitude,
                }
            )
        )
        return 0
    out = swcert.non_extremal_witness(surface, cls)
    if isinstance(out, swcert.ExtremalReport):
        print(json.dumps({"extremal": True, "reason": out.reason}))
        return 0
    print(
        json.dumps(
            {
                "extremal": False,
                "scale": out.scale,
                "summands": [
                    {"class": str(p), "magnitude": c.magnitude, "dimension": str(c.dimension)}
                    for p, c in out.summands
                ],
            }
        )
    )
    return 0


def cmd_verify(args) -> int:
    report = verify.run_checks(args.suite)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for c in report.checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.details}")
        print(f"{report.passed} passed, {report.failed} failed")
    return 0 if report.failed == 0 else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="exact curve-cone computations on rational and ruled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--surface", help="e.g. rational:k=3 or ruled:h=2")
        p.add_argument("--k", type=int, help="shorthand for rational:k=K")

    p = sub.add_parser("enumerate", help="sphere classes with a given square")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--paper-signs", action="store_true",
                   help="render classes as coefficient tuples (a; b1, ..., bk)")
    p.add_argument("--square", type=int, default=-1)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--nbound", type=int, default=2, help="materialize the non-positive-degree families up to n")
    p.add_argument("--families", action="store_true", help="print orbit families, not instances")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("squares", help="nine-squares representations")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--any-sum", action="store_true", help="drop the zero-sum condition")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_squares)

    p = sub.add_parser("cremona", help="reduction and equivalence")
    psub = p.add_subparsers(dest="action", required=True)
    pr = psub.add_parser("reduce")
    common(pr)
    pr.add_argument("--json", action="store_true")
    pr.add_argument("--class", dest="cls", required=True)
    pr.set_defaults(func=cmd_cremona)
    pe = psub.add_parser("equiv")
    common(pe)
    pe.add_argument("--json", action="store_true")
    pe.add_argument("cls", metavar="A")
    pe.add_argument("other", metavar="B")
    pe.set_defaults(func=cmd_cremona)

    p = sub.add_parser("cone", help="duals and the K-symplectic cone")
    psub = p.add_subparsers(dest="action", required=True)
    pd = psub.add_parser("dual")
    common(pd)
    pd.add_argument("--json", action="store_true")
    pd.add_argument("--paper-signs", action="store_true",
                    help="render classes as coefficient tuples (a; b1, ..., bk)")
    pd.add_argument("--rays", help="comma-separated class literals")
    pd.add_argument("--rays-file", help="JSON file with surface and rays")
    pd.set_defaults(func=cmd_cone)
    pk = psub.add_parser("ksymp")
    common(pk)
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(func=cmd_cone)

    p = sub.add_parser("nef-threshold", help="sup t with tK + omega nef")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--omega", required=True)
    p.add_argument("--curves", help="comma-separated extremal curves")
    p.add_argument("--curves-file", help="configuration JSON supplying the curves")
    p.set_defaults(func=cmd_nef_threshold)

    p = sub.add_parser("inflate", help="achieve dual rays by formal inflation")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--start", required=True, help="start class literal")
    p.add_argument("--ray", help="achieve a single ray")
    p.add_argument("--trace", type=int, help="also print N alternating coefficients")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_inflate)

    p = sub.add_parser("config", help="configuration tools")
    psub = p.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("validate")
    pv.add_argument("file")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_config)
    pb = psub.add_parser("blowdown")
    pb.add_argument("file")
    pb.add_argument("--at", required=True, help="the -1 basis class, e.g. E3")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_config)
    pc = psub.add_parser("catalog")
    pc.add_argument("name", help="cp2+1, cp2+2 or cp2+3")
    pc.add_argument("--n", type=int, help="single parameter value (default 0,1,2)")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_config)

    p = sub.add_parser("sw", help="wall-crossing certificates")
    psub = p.add_subparsers(dest="action", required=True)
    for name in ("cert", "decompose"):
        pc = psub.add_parser(name)
        common(pc)
        pc.add_argument("--class", dest="cls", required=True)
        pc.set_defaults(func=cmd_sw)

    p = sub.add_parser("verify-paper", help="run the reproduction checks")
    p.add_argument("--suite", choices=sorted(verify.SUITES), help="run one suite only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (LatticeError, cones.ConeError, inflation.InflationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
