"""Batch command-line front end.

Subcommands: validate, effects, identify, criteria, reproduce, sweep,
sample, estimate. Models come either from a JSON file or from a builtin
family of criteria.FAMILIES plus its parameters, whose flags the registry
generates. Each package error carries its exit code (see README).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from collections.abc import Mapping

from . import criteria, effects, identify, sample
from .engine import observational_law
from .errors import PARSE_EXIT_CODE, DegenerateStratumError, DomainError, MedscmError
from .model import Model, _require_valid, scm_from_json, validate


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


def _given(args, names) -> dict:
    """The named arguments the user gave, in the order of names."""
    return {name: value for name in names if (value := getattr(args, name)) is not None}


def _read_model(args) -> Model:
    params = _given(args, args.family_params)
    if args.scm in criteria.FAMILIES:
        return criteria.FAMILIES[args.scm](**params)
    if params:
        flags = ", ".join(f"--{name}" for name in params)
        raise DomainError(f"{args.scm}: family parameters ({flags}) given with a model file")
    with open(args.scm) as fh:
        return scm_from_json(fh.read())


def _add_family_args(parser: argparse.ArgumentParser, owners: Mapping) -> None:
    """One flag per parameter name of the owners, families or theorems; each reads its own."""
    takers: dict[str, list[tuple[str, criteria.Param]]] = {}
    for owner, spec in owners.items():
        for p in spec.params:
            takers.setdefault(p.name, []).append((owner, p))
    for name, declared in takers.items():
        first = declared[0][1]
        parser.add_argument(
            f"--{name}", type=first.type, choices=first.choices or None, default=None,
            help="; ".join(f"{owner}: {p.help} (default {p.default_text})"
                           for owner, p in declared),
        )
    parser.set_defaults(family_params=tuple(takers))


def _add_format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", dest="output_format", choices=("table", "csv"),
                        default="table")


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scm", help="path to an SCM JSON file, or a builtin family name: "
                                    + ", ".join(criteria.FAMILIES))
    _add_family_args(parser, criteria.FAMILIES)
    _add_format_arg(parser)


def _cmd_validate(args) -> int:
    model = _read_model(args)
    violations = validate(model)
    if violations:
        for v in violations:
            print(v)
        return 1
    print("valid")
    return 0


def _cmd_effects(args) -> int:
    model = _require_valid(_read_model(args), args.scm)
    report = effects.effect_report(model)
    _print_rows([(k, _fmt(v)) for k, v in report.rows()], args.output_format)
    return 0


def _cmd_identify(args) -> int:
    model = _require_valid(_read_model(args), args.scm)
    law = observational_law(model)
    rows: list[tuple[str, str]] = []
    undefined: list[DegenerateStratumError] = []

    def functional(name: str, fn, *args) -> None:
        try:
            rows.append((name, _fmt(fn(law, *args))))
        except DegenerateStratumError as exc:
            undefined.append(exc)
            rows.append((name, f"undefined ({exc})"))

    functional("psi_te", identify.psi_te)
    for m in law.m_support:
        functional(f"psi_cde({m})", identify.psi_cde, m)
        functional(f"psi_pe({m})", identify.psi_pe, m)
    functional("psi_nie", identify.psi_nie)
    if law.has_l:
        functional("psi_nie_r_L", identify.psi_nie_r_L)
        functional("psi_nie_rl", identify.psi_nie_rl)
    for verdict in identify.check_all_assumptions(model):
        rows.append(
            (
                f"assumption_{verdict.assumption}",
                f"{'holds' if verdict.holds else 'fails'} "
                f"(worst {verdict.worst_violation:.3e}; {verdict.witness})",
            )
        )
    _print_rows(rows, args.output_format)
    if undefined:
        raise undefined[0]   # exit 4, naming the first undefined functional's stratum
    return 0


def _cmd_criteria(args) -> int:
    model = _require_valid(_read_model(args), args.scm)
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
    return 0


def _cmd_reproduce(args) -> int:
    tid = args.theorem.upper()
    explicit = _given(args, args.family_params)
    if explicit:
        _print_rows(criteria.reproduce(tid, explicit).rows(), args.output_format)
        return 0
    grid = criteria.default_grid(tid)
    worst = 0.0
    for point in grid:
        record = criteria.reproduce(tid, point)
        worst = max(worst, record.difference)
    if args.output_format == "csv":
        _print_rows([("theorem", tid), ("points", str(len(grid))),
                     ("worst_difference", f"{worst:.3e}")], "csv")
    else:
        print(f"{tid}: {len(grid)} grid points reproduced; worst |closed - enumerated| = {worst:.3e}")
    return 0


def _parse_grid(spec: str) -> list[dict[str, float]]:
    axes: dict[str, list[float]] = {}
    for part in spec.split(","):
        name, _, rng = part.partition("=")
        name = name.strip()
        if not rng:
            raise DomainError(f"bad grid axis {part!r}; expected name=lo:hi:count or name=v1|v2")
        if name in axes:
            raise DomainError(f"grid axis {name!r} given twice")
        pieces = rng.split(":")
        listed = "|" in rng or len(pieces) == 1   # v1|v2|..., or one value v
        if not listed and len(pieces) != 3:
            raise DomainError(f"bad grid axis {part!r}; expected name=lo:hi:count")
        try:
            if listed:
                axes[name] = [float(v) for v in rng.split("|")]
            else:
                axes[name] = criteria._grid(float(pieces[0]), float(pieces[1]), int(pieces[2]))
        except ValueError as exc:
            raise DomainError(f"bad grid axis {part!r}: {exc}") from None
    return criteria._product(**axes)


def _cmd_sweep(args) -> int:
    points = _parse_grid(args.grid)
    # every point is evaluated before any output, so a failing point prints no partial table
    records = criteria.evaluate_points(args.family, points, args.effect, args.tol)
    names = sorted(points[0])
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        names
        + ["effect", "value", "sharp_null", "sharper_null", "monotonicity", "refutes"]
    )
    for record in records:
        writer.writerow(
            [_fmt(record.params[nm]) for nm in names]
            + [
                args.effect,
                _fmt(record.effect_value),
                record.status.sharp_null,
                record.status.sharper_null,
                record.status.monotonicity,
                "|".join(record.criteria_refuted),
            ]
        )
    return 0


def _cmd_sample(args) -> int:
    model = _require_valid(_read_model(args), args.scm)
    ds = sample.draw_samples(model, args.n, args.sample_seed)
    sample.write_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    if (args.a_star is None) != (args.a is None):
        raise DomainError("--a-star and --a must be given together")
    ds = sample.read_csv(args.data)
    est = sample.estimate(
        ds,
        args.estimand,
        n_boot=args.n_boot,
        seed=args.sample_seed,
        m=args.m,
        exposure_levels=None if args.a is None else (args.a_star, args.a),
    )
    rows = [("estimand", est.estimand), ("value", _fmt(est.value)), ("n", str(ds.n))]
    if est.ci_low is not None:
        rows += [("ci_low", _fmt(est.ci_low)), ("ci_high", _fmt(est.ci_high)),
                 ("n_boot", str(est.n_boot))]
    _print_rows(rows, args.output_format)
    return 0


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
    # criteria, the last of them, is the one that reads a tolerance
    p.add_argument("--tol", type=float, default=criteria.NULL_TOL,
                   help="null-value tolerance for criterion verdicts")

    p = sub.add_parser("reproduce", help="cross-check closed forms against enumeration",
                       description="With no parameter, run the theorem's default grid. A "
                       "point must give every parameter its closed form reads; of the "
                       "defaults below only t2's pi0 and --m apply.")
    theorems = criteria.THEOREMS
    p.add_argument("theorem", choices=[*theorems, *map(str.lower, theorems)])
    families = {t.family: criteria.FAMILIES[t.family] for t in theorems.values()}
    _add_family_args(p, families | theorems)
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("sweep", help="evaluate a family over a parameter grid as CSV")
    p.add_argument("family", choices=sorted(criteria.FAMILIES))
    p.add_argument("--grid", required=True,
                   help="comma-separated axes name=lo:hi:count, name=v1|v2|... or name=v, "
                        "e.g. pi=0.05:0.95:21,beta=0.1|0.5|0.9")
    p.add_argument("--effect", default="nie_r")
    p.add_argument("--tol", type=float, default=criteria.NULL_TOL,
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
    _add_format_arg(p)
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
    except (MedscmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, MedscmError) else PARSE_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
