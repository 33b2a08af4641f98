"""Batch command-line front end.

Subcommands: validate, effects, identify, criteria, reproduce, sweep,
sample, estimate. Models come either from a JSON file or from a builtin
family name (t1, t2, t3, pe, additive, separable) plus its parameters.
Every module error maps to a distinct nonzero exit code (see README).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import criteria, effects, identify, sample
from .engine import observational_law
from .errors import (
    DegenerateStratumError,
    DomainError,
    EnumerationSizeError,
    InternalConsistencyError,
    ReproductionError,
    ShapeError,
)
from .model import (
    Model,
    pe_counterexample,
    random_additive_scm,
    random_separable_scm,
    scm_from_json,
    thm1_counterexample,
    thm2_counterexample,
    thm3_counterexample,
    validate,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 3
EXIT_DEGENERATE = 4
EXIT_SIZE = 5
EXIT_REPRODUCTION = 6
EXIT_INTERNAL = 7
EXIT_IO = 8

BUILTIN_NAMES = ("t1", "t2", "t3", "pe", "additive", "separable")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _print_rows(rows: list[tuple[str, str]], output_format: str) -> None:
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")


def _load_model(args) -> Model:
    source = args.scm
    if source in BUILTIN_NAMES:
        if source == "t1":
            return thm1_counterexample(args.pi, args.beta)
        if source == "t2":
            pi0 = args.pi0 if args.pi0 is not None else 1.0 - args.pi1 - args.pi2
            return thm2_counterexample(pi0, args.pi1, args.pi2, args.beta)
        if source == "t3":
            return thm3_counterexample(
                args.pi3, (args.beta1, args.beta2, args.beta3, args.beta4), args.gamma
            )
        if source == "pe":
            return pe_counterexample(args.p)
        if source == "additive":
            return random_additive_scm(args.seed, shape=args.shape)
        return random_separable_scm(args.seed)
    with open(source) as fh:
        return scm_from_json(fh.read())


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scm", help="path to an SCM JSON file, or a builtin family name: "
                                    + ", ".join(BUILTIN_NAMES))
    parser.add_argument("--pi", type=float, default=0.5, help="t1: confounder noise probability")
    parser.add_argument("--beta", type=float, default=0.9, help="t1/t2: mediator noise probability")
    parser.add_argument("--pi0", type=float, default=None, help="t2: P(eps_L = 0); default 1-pi1-pi2")
    parser.add_argument("--pi1", type=float, default=0.3, help="t2: P(eps_L = 1)")
    parser.add_argument("--pi2", type=float, default=0.2, help="t2: P(eps_L = 2)")
    parser.add_argument("--pi3", type=float, default=0.1, help="t3: P(M(a) = 1)")
    parser.add_argument("--beta1", type=float, default=0.1, help="t3: P(Y(a,.) = (0,0))")
    parser.add_argument("--beta2", type=float, default=0.2, help="t3: P(Y(a,.) = (0,1))")
    parser.add_argument("--beta3", type=float, default=0.4, help="t3: P(Y(a,.) = (1,0))")
    parser.add_argument("--beta4", type=float, default=0.3, help="t3: P(Y(a,.) = (1,1))")
    parser.add_argument("--gamma", type=float, default=0.5, help="t3: P(Y(a*,.) = (1,1))")
    parser.add_argument("--p", type=float, default=0.5, help="pe: mediator probability")
    parser.add_argument("--seed", type=int, default=0, help="additive/separable: instance seed")
    parser.add_argument("--shape", choices=("basic", "confounded"), default="basic",
                        help="additive: graph shape")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="null-value tolerance for criterion verdicts")
    parser.add_argument("--format", dest="output_format", choices=("table", "csv"),
                        default="table")


def _cmd_validate(args) -> int:
    model = _load_model(args)
    violations = validate(model)
    if violations:
        for v in violations:
            print(v)
        return EXIT_VALIDATION
    print("valid")
    return EXIT_OK


def _cmd_effects(args) -> int:
    model = _load_model(args)
    report = effects.effect_report(model)
    _print_rows([(k, _fmt(v)) for k, v in report.rows()], args.output_format)
    return EXIT_OK


def _cmd_identify(args) -> int:
    model = _load_model(args)
    law = observational_law(model)
    rows: list[tuple[str, str]] = []
    rows.append(("psi_te", _fmt(identify.psi_te(law))))
    for m in law.m_support:
        rows.append((f"psi_cde({m})", _fmt(identify.psi_cde(law, m))))
        rows.append((f"psi_pe({m})", _fmt(identify.psi_pe(law, m))))
    rows.append(("psi_nie", _fmt(identify.psi_nie(law))))
    if law.has_l:
        rows.append(("psi_nie_r_L", _fmt(identify.psi_nie_r_L(law))))
        rows.append(("psi_nie_rl", _fmt(identify.psi_nie_rl(law))))
    for verdict in identify.check_all_assumptions(model):
        rows.append(
            (
                f"assumption_{verdict.assumption}",
                f"{'holds' if verdict.holds else 'fails'} "
                f"(worst {verdict.worst_violation:.3e}; {verdict.witness})",
            )
        )
    _print_rows(rows, args.output_format)
    return EXIT_OK


def _cmd_criteria(args) -> int:
    model = _load_model(args)
    status = criteria.null_status(model)
    report = effects.effect_report(model)
    rows = [
        ("sharp_null", str(status.sharp_null)),
        ("sharper_null", str(status.sharper_null)),
        ("monotonicity", status.monotonicity),
        ("overlap_condition", str(status.overlap_condition)),
    ]
    for key, witness in sorted(status.witnesses.items()):
        rows.append((f"witness[{key}]", witness))
    for v in criteria.criterion_verdicts(model, report, tol=args.tol):
        tag = "refutes" if v.refutes_criterion else ("ok" if v.premise_holds else "vacuous")
        rows.append(
            (f"{v.effect_name} / {v.criterion}", f"{_fmt(v.effect_value)} {tag}")
        )
    _print_rows(rows, args.output_format)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    tid = args.theorem.upper()
    explicit = {
        k: v
        for k, v in (
            ("pi", args.pi), ("beta", args.beta),
            ("pi0", args.pi0), ("pi1", args.pi1), ("pi2", args.pi2),
            ("beta1", args.beta1), ("beta2", args.beta2),
            ("beta3", args.beta3), ("beta4", args.beta4),
            ("gamma", args.gamma), ("p", args.p), ("m", args.m),
        )
        if v is not None
    }
    if explicit:
        record = criteria.reproduce(tid, explicit)
        _print_rows(record.rows(), args.output_format)
        return EXIT_OK
    grid = criteria.default_grid(tid)
    worst = 0.0
    for point in grid:
        record = criteria.reproduce(tid, point)
        worst = max(worst, record.difference)
    print(f"{tid}: {len(grid)} grid points reproduced; worst |closed - enumerated| = {worst:.3e}")
    return EXIT_OK


def _parse_grid(spec: str) -> list[dict[str, float]]:
    axes: list[tuple[str, list[float]]] = []
    for part in spec.split(","):
        name, _, rng = part.partition("=")
        if not rng:
            raise DomainError(f"bad grid axis {part!r}; expected name=lo:hi:count or name=v1|v2")
        if "|" in rng:
            values = [float(v) for v in rng.split("|")]
        else:
            pieces = rng.split(":")
            if len(pieces) != 3:
                raise DomainError(f"bad grid axis {part!r}; expected name=lo:hi:count")
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
            values = [lo] if count == 1 else [
                lo + (hi - lo) * i / (count - 1) for i in range(count)
            ]
        axes.append((name.strip(), values))
    points: list[dict[str, float]] = [{}]
    for name, values in axes:
        points = [dict(pt, **{name: v}) for pt in points for v in values]
    return points


def _cmd_sweep(args) -> int:
    points = _parse_grid(args.grid)
    build = criteria.FAMILIES[args.family]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    names = sorted({k for pt in points for k in pt})
    writer.writerow(
        names
        + ["effect", "value", "sharp_null", "sharper_null", "monotonicity", "refutes"]
    )
    for point in points:
        model = build(**point)
        report = effects.effect_report(model)
        status = criteria.null_status(model)
        value = report.value(args.effect)
        refuted = [
            v.criterion
            for v in criteria.criterion_verdicts(model, report, tol=args.tol)
            if v.effect_name == args.effect and v.refutes_criterion
        ]
        writer.writerow(
            [_fmt(point.get(nm, float("nan"))) for nm in names]
            + [
                args.effect,
                _fmt(value),
                status.sharp_null,
                status.sharper_null,
                status.monotonicity,
                "|".join(refuted),
            ]
        )
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = _load_model(args)
    ds = sample.draw_samples(model, args.n, args.sample_seed)
    sample.write_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    ds = sample.read_csv(args.data)
    est = sample.estimate(
        ds,
        args.estimand,
        n_boot=args.n_boot,
        seed=args.sample_seed,
        m=args.m,
        exposure_levels=(
            (args.a_star, args.a)
            if args.a_star is not None and args.a is not None
            else None
        ),
    )
    rows = [("estimand", est.estimand), ("value", _fmt(est.value)), ("n", str(ds.n))]
    if est.ci_low is not None:
        rows += [("ci_low", _fmt(est.ci_low)), ("ci_high", _fmt(est.ci_high)),
                 ("n_boot", str(est.n_boot))]
    _print_rows(rows, args.output_format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medscm",
        description="Exact mediation analysis for discrete structural causal models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("validate", _cmd_validate),
        ("effects", _cmd_effects),
        ("identify", _cmd_identify),
        ("criteria", _cmd_criteria),
    ):
        p = sub.add_parser(name)
        _add_model_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("reproduce", help="cross-check closed forms against enumeration")
    p.add_argument("theorem", choices=("T1", "T2", "T3", "S1", "PE", "t1", "t2", "t3", "s1", "pe"))
    for flag in ("pi", "beta", "pi0", "pi1", "pi2", "beta1", "beta2", "beta3", "beta4",
                 "gamma", "p", "m"):
        p.add_argument(f"--{flag}", type=float, default=None)
    p.add_argument("--format", dest="output_format", choices=("table", "csv"), default="table")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("sweep", help="evaluate a family over a parameter grid as CSV")
    p.add_argument("family", choices=sorted(criteria.FAMILIES))
    p.add_argument("--grid", required=True,
                   help="comma-separated axes, e.g. pi=0.05:0.95:21,beta=0.1|0.5|0.9")
    p.add_argument("--effect", default="nie_r")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="null-value tolerance for the refutation column")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("sample", help="draw a dataset to CSV")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("estimate", help="plug-in estimate from a CSV dataset")
    p.add_argument("data")
    p.add_argument("--estimand", required=True,
                   choices=sorted(identify.FUNCTIONALS))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-boot", type=int, default=1000)
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--a-star", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--format", dest="output_format", choices=("table", "csv"), default="table")
    p.set_defaults(fn=_cmd_estimate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DegenerateStratumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except EnumerationSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ReproductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRODUCTION
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
