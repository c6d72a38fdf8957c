"""Command line driver.

Commands: ``generate`` emits reference measures; ``analyze``, ``lattice``,
``corona``, ``verify`` and ``capacity`` run the corresponding pipelines and
write JSON reports.  Exit codes: 0 success, 1 invalid input or an output
path that cannot be written, 2 baseline mismatch (argparse keeps its own
code 2 for malformed command lines).

Reports are canonical JSON with no wall-clock content by default, so a
repeated run with the same flags produces the same bytes; pass --stamp to
embed the current time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from ._util import dump_json, strided
# perfbench/tracer.py patches parallel_map here by name
from ._util import parallel_map  # noqa: F401
from .beta import beta_profile_rows, condition_check
from .corona import (
    DEFAULT_A_STOP,
    DEFAULT_TAU,
    build_corona,
    corona_to_json,
    packing_audit,
    tree_density_audit,
)
from .generators import cantor4, lipschitz_graph, segment, square_area
from .lattice import (
    DEFAULT_A0,
    DEFAULT_C0,
    boundary_audit,
    build_lattice,
    check_lattice,
    lattice_to_json,
)
from .measure import (
    Ball,
    WeightedPointMeasure,
    load_csv,
    load_json,
    save_csv,
    save_json,
)
from .operators import make_kernel
from .verify import (
    capacity_lower_bound,
    check_record,
    compare_baseline,
    make_report,
    t1_ball_check,
    verify_checks,
)
# perfbench/tracer.py patches these here by name
from .verify import (cotlar_check, main_lemma_check,  # noqa: F401
                     pointwise_domination_check)

# flags that name files or only change how a run is carried out; a
# report's config records every other parsed flag
_UNRECORDED = ("input", "out", "r_min", "stamp", "threads", "dump",
               "boundary_audit", "profile_csv", "baseline")


def _config(args) -> dict:
    return {key: value for key, value in vars(args).items()
            if key not in _UNRECORDED}


def _load_measure(path: str, r_min=None) -> WeightedPointMeasure:
    # main reports an unreadable file's OSError; loader errors name the path
    measure = load_json(path) if path.endswith(".json") else load_csv(path)
    if r_min is not None:
        measure = WeightedPointMeasure(
            measure.points, measure.weights, measure.target_dim, r_min=r_min
        )
    return measure


def _describe(path: str, measure: WeightedPointMeasure) -> dict:
    return {
        "path": path,
        "size": measure.size,
        "dim": measure.dim,
        "target_dim": measure.target_dim,
        "r_min": measure.r_min,
        "total_mass": measure.total_mass,
        "diameter": measure.diameter,
    }


def _write_report(args, input_desc, checks, baseline=None):
    """Write the report to --out; with --baseline, the baseline mismatches."""
    stamp = None
    if args.stamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    report = make_report(input_desc, checks, _config(args), stamp=stamp)
    failures = None
    # keyed on the flag: a baseline file holding JSON null is malformed
    if getattr(args, "baseline", None):
        try:
            failures = compare_baseline(report, baseline)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"{args.baseline}: not a baseline file "
                '(expected {"checks": {name: {"value": ..., ...}}})'
            ) from exc
        except ValueError as exc:
            raise ValueError(f"{args.baseline}: {exc}") from exc
        report["baseline_failures"] = failures
    dump_json(report, args.out)
    return failures


def _cmd_generate(args) -> int:
    if args.kind == "segment":
        measure = segment(args.count)
    elif args.kind == "lipschitz-graph":
        measure = lipschitz_graph(args.count, args.slope_amp, args.seed)
    elif args.kind == "cantor4":
        measure = cantor4(args.generation)
    else:
        measure = square_area(args.side)
    if args.out.endswith(".json"):
        save_json(measure, args.out)
    else:
        save_csv(measure, args.out)
    return 0


def _cmd_analyze(args) -> int:
    measure = _load_measure(args.input, args.r_min)
    diam = max(measure.diameter, measure.r_min)
    centroid = measure.weights @ measure.points / measure.total_mass
    radius = max(
        float(np.max(np.linalg.norm(measure.points - centroid, axis=1))),
        measure.r_min,
    )
    cond = condition_check(measure, Ball(centroid, radius),
                           scales_per_octave=args.scales_per_octave)
    checks = [
        # the centroid ball holds every atom, so its pass gives c0 as well
        check_record("growth_constant", cond["sup_density"], 1.0, measure.size,
                     {"exact": True, "floor": measure.r_min}),
        check_record("flatness_condition", cond["total"], cond["mass"],
                     cond["atoms"],
                     {"ball_radius": cond["ball_radius"],
                      "degenerate": cond["degenerate"],
                      "scales_per_octave": args.scales_per_octave}),
    ]
    if args.profile_csv:
        centers = strided(np.arange(measure.size), args.centers)
        rows_per_center = beta_profile_rows(
            measure, measure.points[centers], measure.r_min, diam,
            scales_per_octave=args.scales_per_octave)
        with open(args.profile_csv, "w", encoding="ascii") as fh:
            fh.write("center_index,r,beta,theta,integrand\n")
            for center, rows in zip(centers, rows_per_center):
                for r, beta, theta in rows:
                    fh.write(
                        f"{center},{r!r},{beta!r},{theta!r},"
                        f"{beta * beta * theta!r}\n"
                    )
    _write_report(args, _describe(args.input, measure), checks)
    return 0


def _cmd_lattice(args) -> int:
    measure = _load_measure(args.input, args.r_min)
    lattice = build_lattice(measure, a0=args.a0, c0=args.c0,
                            max_depth=args.max_depth, strict=args.strict)
    audit = check_lattice(lattice)
    checks = [check_record("lattice_invariants",
                           float(audit["nonconforming"]),
                           float(audit["cells"]), audit["cells"], audit)]
    if args.boundary_audit:
        worst = boundary_audit(lattice)
        checks.append(check_record(
            "boundary_layers", max(worst.values()), 1.0,
            audit["cells"] * len(worst),
            {str(k): v for k, v in worst.items()}))
    if args.dump:
        lattice_to_json(lattice, args.dump)
    _write_report(args, _describe(args.input, measure), checks)
    return 0


def _cmd_corona(args) -> int:
    measure = _load_measure(args.input, args.r_min)
    lattice = build_lattice(measure, a0=args.a0, c0=args.c0,
                            max_depth=args.max_depth)
    corona = build_corona(lattice, a_stop=args.a_stop, tau=args.tau)
    packing = packing_audit(corona, scales_per_octave=args.scales_per_octave)
    density = tree_density_audit(corona)
    checks = [
        check_record("packing", packing["lhs"], packing["rhs"],
                     packing["tops"],
                     {"jones_energy": packing["jones_energy"],
                      "scales_per_octave": args.scales_per_octave}),
        check_record("tree_density", density, args.a_stop, len(corona.tops),
                     {"a_stop": args.a_stop, "tau": args.tau}),
    ]
    if args.dump:
        corona_to_json(corona, args.dump)
    _write_report(args, _describe(args.input, measure), checks)
    return 0


def _cmd_verify(args) -> int:
    measure = _load_measure(args.input, args.r_min)
    # a baseline that cannot be read stops the command before any check
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, encoding="ascii") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{args.baseline}: {exc}") from exc
    kernel = make_kernel(args.kernel, measure.target_dim, measure.dim)
    lattice = build_lattice(measure, a0=args.a0, c0=args.c0,
                            max_depth=args.max_depth)
    corona = build_corona(lattice, a_stop=args.a_stop, tau=args.tau)

    rng = np.random.default_rng(args.seed)
    n_balls = min(args.samples, measure.size)
    centers = np.sort(rng.choice(measure.size, size=n_balls, replace=False))
    lo = min(4.0 * measure.r_min, measure.diameter) or measure.r_min
    hi = max(measure.diameter, lo * (1 + 1e-9))
    radii = np.exp(rng.uniform(np.log(lo), np.log(hi), n_balls))
    balls = [Ball(measure.points[c], max(float(r), measure.r_min))
             for c, r in zip(centers, radii)]

    main_lemma, cotlar, pointwise, packing = verify_checks(
        kernel, corona, scales_per_octave=args.scales_per_octave,
        max_samples=args.samples)
    checks = [
        main_lemma,
        t1_ball_check(measure, kernel, balls,
                      scales_per_octave=args.scales_per_octave),
        cotlar,
        pointwise,
        check_record("packing", packing["lhs"], packing["rhs"],
                     packing["tops"],
                     {"scales_per_octave": args.scales_per_octave}),
    ]
    failures = _write_report(args, _describe(args.input, measure), checks,
                             baseline)
    if failures:
        for line in failures:
            print(f"baseline mismatch: {line}", file=sys.stderr)
        return 2
    return 0


def _cmd_capacity(args) -> int:
    measures = [_load_measure(path, args.r_min) for path in args.input]
    record = capacity_lower_bound(measures,
                                  scales_per_octave=args.scales_per_octave)
    desc = {
        "inputs": [
            _describe(path, mu) for path, mu in zip(args.input, measures)
        ]
    }
    _write_report(args, desc, [record])
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser, inputs=None):
    parser.add_argument("--input", required=True, nargs=inputs,
                        help="measure file(s), .csv or .json")
    parser.add_argument("--out", required=True, help="report JSON path")
    parser.add_argument("--r-min", type=float, default=None,
                        help="override the measure resolution")
    parser.add_argument("--stamp", action="store_true",
                        help="embed the wall-clock time (breaks determinism)")


def _add_lattice_params(parser):
    parser.add_argument("--a0", type=float, default=DEFAULT_A0)
    parser.add_argument("--c0", type=float, default=DEFAULT_C0)
    parser.add_argument("--max-depth", type=int, default=None)


def _add_corona_params(parser):
    parser.add_argument("--a-stop", type=float, default=DEFAULT_A_STOP)
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betascope",
        description="multiscale flatness, cell lattices and singular "
                    "integral checks on weighted point measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a reference measure")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    seg = gen_sub.add_parser("segment")
    seg.add_argument("--count", type=int, required=True)
    graph = gen_sub.add_parser("lipschitz-graph")
    graph.add_argument("--count", type=int, required=True)
    graph.add_argument("--slope-amp", type=float, default=0.8)
    graph.add_argument("--seed", type=int, default=0)
    cantor = gen_sub.add_parser("cantor4")
    cantor.add_argument("--generation", type=int, required=True)
    square = gen_sub.add_parser("square-area")
    square.add_argument("--side", type=int, required=True)
    for sp in (seg, graph, cantor, square):
        sp.add_argument("--out", required=True, help="measure file (.csv or .json)")

    analyze = sub.add_parser("analyze", help="densities and flatness profiles")
    analyze.add_argument("--centers", type=_positive_int, default=12)
    analyze.add_argument("--profile-csv", default=None,
                         help="also export per-center flatness profiles")
    _add_common(analyze)

    lat = sub.add_parser("lattice", help="build the cell hierarchy and audit it")
    lat.add_argument("--strict", action="store_true")
    lat.add_argument("--boundary-audit", action="store_true")
    lat.add_argument("--dump", default=None, help="cell tree JSON path")
    _add_lattice_params(lat)
    _add_common(lat)

    cor = sub.add_parser("corona", help="stopping-time decomposition")
    _add_corona_params(cor)
    cor.add_argument("--dump", default=None, help="decomposition JSON path")
    _add_lattice_params(cor)
    _add_common(cor)

    ver = sub.add_parser("verify", help="run the inequality checks")
    ver.add_argument("--kernel", choices=("riesz", "cauchy"), default="riesz")
    _add_corona_params(ver)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=_positive_int, default=32)
    ver.add_argument("--baseline", default=None,
                     help="compare against stored regression values")
    _add_lattice_params(ver)
    _add_common(ver)

    cap = sub.add_parser("capacity", help="capacity lower bound of candidates")
    _add_common(cap, inputs="+")

    for sp in (analyze, ver, cap):
        sp.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for compatibility; every command "
                             "runs serially, so it changes nothing")
    for sp in (analyze, cor, ver, cap):
        sp.add_argument("--scales-per-octave", type=_positive_int, default=4)
    return parser


_DISPATCH = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "lattice": _cmd_lattice,
    "corona": _cmd_corona,
    "verify": _cmd_verify,
    "capacity": _cmd_capacity,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a float leaving range in an array stops the command at once,
        # through the ArithmeticError branch
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # capacity reads a list of inputs, generate none; a Python
        # float's OverflowError carries (errno, reason), numpy's the reason
        inputs = np.atleast_1d(getattr(args, "input", "the arguments"))
        print(f"error: a value computed from {', '.join(inputs)} left "
              f"float64 range ({exc.args[-1]})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
