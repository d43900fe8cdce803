"""Command line front end.

Three subcommands: `build` emits the bracket table and splitting data as
canonical JSON, `verify` runs named checks and reports one line per check,
`export` renders byte-stable views (brackets, cocommutators, r-matrix,
pairing matrix, representation matrices).

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
arguments or an impossible check/splitting combination, 3 output could
not be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import verify_jacobi
from .bialgebra import (SPAN_BUILDERS, build_r_matrix,
                        verify_chain_embedding, verify_coboundary,
                        verify_cocycle, verify_cojacobi, verify_cybe,
                        verify_subbialgebra, verify_twist)
from .cocommutator import cocommutator_from_structure, verify_delta_agreement
from .double import (casimir_double, casimir_quadratic, verify_casimir_form,
                     verify_closure, verify_compatibility,
                     verify_form_invariance, verify_pairing,
                     verify_reconstruction, verify_self_duality)
from .errors import ClosureError, RankError, SpecError
from .generators import SERIES, dimension, validate_series_rank
from .manin import SplittingSpec, split
from .reps import (ad_invariance_report, bosonic_rep, check_rep_size,
                   fermionic_rep, verify_casimir_commutes,
                   verify_rep_homomorphism)
from .serialize import (delta_json, dumps_canonical, element_json,
                        matrix_text_exact, table_text, wedge_json)

CHECKS = ("jacobi", "closure", "pairing", "reconstruction", "compatibility",
          "selfdual", "forminv", "delta-agree", "cocycle", "cojacobi",
          "subbialg", "coboundary", "cybe", "twist", "chain", "rep",
          "casimir")

# these manipulate the full set of central charges, so a mixed splitting
# has nothing for them to act on
_CANONICAL_ONLY = {"delta-agree", "twist"}

EXPORTS = ("brackets", "delta", "rmatrix", "pairing", "matrices")

# Largest algebra a subcommand is asked for. `verify --checks chain` also
# builds rank n+1, so the largest algebra any subcommand builds is D17
# (dimension 578, from D16), then A22 (552, from A21) and B16 and C16 (544,
# from B15 and C15). The bracket table alone grows with the square of the
# dimension: build_series at dimension 512 (D16) takes about 1.5 s on a
# 2-CPU Linux host, and A30 (dimension 992) 6 s.
MAX_DIMENSION = 512


def _natural_cutoffs(series, cutoff):
    """The cutoff of each natural representation of a series, in build
    order: None for the fermionic one, `cutoff` for the bosonic one."""
    return (([None] if series in ("A", "B", "D") else [])
            + ([cutoff] if series in ("A", "C") else []))


def _natural_reps(alg, cutoff):
    return [fermionic_rep(alg) if c is None else bosonic_rep(alg, c)
            for c in _natural_cutoffs(alg.series, cutoff)]


def _run_check(name, triple, args, reps):
    alg = triple.double
    if name == "jacobi":
        return [verify_jacobi(alg)]
    if name == "closure":
        return [verify_closure(triple)]
    if name == "pairing":
        return [verify_pairing(triple)]
    if name == "reconstruction":
        return [verify_reconstruction(triple)]
    if name == "compatibility":
        return [verify_compatibility(triple)]
    if name == "selfdual":
        return [verify_self_duality(triple)]
    if name == "forminv":
        return [verify_form_invariance(triple)]
    if name == "delta-agree":
        return [verify_delta_agreement(triple)]
    if name == "casimir":
        out = [verify_casimir_form(triple),
               ad_invariance_report(alg, casimir_quadratic(alg), "quadratic"),
               ad_invariance_report(alg, casimir_double(alg), "double")]
        for rep in reps:
            out.append(verify_casimir_commutes(
                alg, rep, casimir_quadratic(alg), "quadratic"))
        return out
    if name == "rep":
        return [verify_rep_homomorphism(alg, rep) for rep in reps]
    if name == "chain":
        # the canonical triple under verification is the chain's rank n
        small = triple if triple.spec.mode == "canonical" else None
        return [verify_chain_embedding(alg.series, alg.rank,
                                       small_triple=small)]
    if name == "cybe":
        return [verify_cybe(triple)]
    if name == "twist":
        return [verify_twist(triple)]

    # kept on the triple, so every check reads one table
    table = cocommutator_from_structure(triple)
    if name == "cocycle":
        return [verify_cocycle(alg, table)]
    if name == "cojacobi":
        return [verify_cojacobi(alg, table)]
    if name == "coboundary":
        return [verify_coboundary(triple, table)]
    if name == "subbialg":
        if args.sub in ("An", "Anc", "Dn") and triple.spec.mode != "canonical":
            raise SpecError(f"span {args.sub!r} needs the full set of "
                            "central charges")
        label, span = SPAN_BUILDERS[args.sub](triple)
        return [verify_subbialgebra(alg, table, span, label)]
    raise SpecError(f"unknown check {name!r}")


def _parse_checks(text, spec):
    if text == "all":
        names = list(CHECKS)
        if spec.mode != "canonical":
            names = [n for n in names if n not in _CANONICAL_ONLY]
        return names
    names = []
    for raw in text.split(","):
        name = raw.strip()
        if not name:
            continue
        if name not in CHECKS:
            raise SpecError(f"unknown check {name!r}; choose from "
                            + ", ".join(CHECKS))
        if spec.mode != "canonical" and name in _CANONICAL_ONLY:
            raise SpecError(f"check {name!r} needs the canonical splitting")
        if name not in names:
            names.append(name)
    if not names:
        raise SpecError("no checks selected; choose from " + ", ".join(CHECKS))
    return names


def _splitting_payload(triple):
    index = triple.double.index
    sides = {}
    for side, members in (("splus", triple.splus), ("sminus", triple.sminus)):
        sides[side] = [{"gen": gid.label,
                        "element": element_json(triple.elem(gid), index)}
                       for gid in members]
    sides["pairing"] = [
        {"minus": triple.sminus[m].label, "plus": triple.splus[p].label,
         "value": value.to_strings()}
        for m, row in enumerate(triple.pairing_rows)
        for p, value in sorted(row.items())]
    return sides


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _run_build(args):
    triple = split(args.series, args.rank, args.spec)
    alg = triple.double
    payload = alg.to_json()
    payload["spec"] = triple.spec.to_json()
    payload["dimension"] = alg.dim
    payload["splitting"] = _splitting_payload(triple)
    return _emit(dumps_canonical(payload), args.out)


def _run_verify(args):
    spec = SplittingSpec.parse(args.spec)
    names = _parse_checks(args.checks, spec)
    wants_reps = "rep" in names or "casimir" in names
    if wants_reps:
        # sized from series, rank and cutoff alone, so that an oversized
        # representation is refused before the algebra is built; a cutoff
        # below 2 is refused by bosonic_rep
        for cutoff in _natural_cutoffs(args.series, args.cutoff):
            if cutoff is None or cutoff >= 2:
                check_rep_size(args.series, args.rank, cutoff)
    triple = split(args.series, args.rank, spec)
    # built once, before any check runs
    reps = _natural_reps(triple.double, args.cutoff) if wants_reps else []
    reports = []
    for name in names:
        reports.extend(_run_check(name, triple, args, reps))
    passed = all(r.passed for r in reports)
    if args.json:
        payload = {
            "series": args.series,
            "rank": args.rank,
            "spec": triple.spec.to_json(),
            "passed": passed,
            "reports": [r.to_dict() for r in reports],
        }
        out = dumps_canonical(payload)
    else:
        lines = [r.summary() for r in reports]
        failed = sum(1 for r in reports if not r.passed)
        lines.append(f"{len(reports)} check(s): "
                     + ("all passed" if passed else f"{failed} failed"))
        out = "\n".join(lines) + "\n"
    code = _emit(out, args.out)
    if code:
        return code
    return 0 if passed else 1


def _matrices_text(alg, cutoff):
    blocks = []
    for rep in _natural_reps(alg, cutoff):
        header = f"# {rep.kind} space_dim {rep.space_dim}"
        if rep.cutoff is not None:
            header += f" cutoff {rep.cutoff}"
        blocks.append(header + "\n")
        for gid in alg.basis:
            blocks.append(f"gen {gid.label}\n")
            blocks.append(matrix_text_exact(rep.matrix(gid).entries))
    return "".join(blocks)


def _run_export(args):
    triple = split(args.series, args.rank, args.spec)
    alg = triple.double
    if args.what == "brackets":
        text = table_text(alg.to_json())
    elif args.what == "delta":
        payload = delta_json(alg.series, alg.rank, alg.basis,
                             cocommutator_from_structure(triple))
        payload["spec"] = triple.spec.to_json()
        text = dumps_canonical(payload)
    elif args.what == "rmatrix":
        payload = {"series": alg.series, "rank": alg.rank,
                   "spec": triple.spec.to_json()}
        for part, wedge in build_r_matrix(triple).items():
            payload[part] = wedge_json(wedge, alg.index)
        text = dumps_canonical(payload)
    elif args.what == "pairing":
        text = matrix_text_exact(
            {(m, p): value for m, row in enumerate(triple.pairing_rows)
             for p, value in row.items()})
    else:
        text = _matrices_text(alg, args.cutoff)
    return _emit(text, args.out)


def _add_common(parser):
    parser.add_argument("--series", default=None, choices=SERIES,
                        help="series letter (required here or in --config)")
    parser.add_argument("--rank", default=None, type=int,
                        help="rank >= 1 (required here or in --config)")
    parser.add_argument("--spec", default="canonical",
                        help='splitting: "canonical" or '
                             '"mixed:pairs=1-2;central=3"')
    parser.add_argument("--config", default=None,
                        help="JSON file with default option values")
    parser.add_argument("--out", default=None,
                        help="write output here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeld-forge",
        description="Build and verify centrally extended classical Lie "
                    "algebras, their Manin triples, and bialgebra data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit brackets and splitting data")
    _add_common(p_build)

    p_verify = sub.add_parser("verify", help="run checks")
    _add_common(p_verify)
    p_verify.add_argument("--checks", default="all",
                          help="comma separated subset of: " + ", ".join(CHECKS))
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted for compatibility, at least 1; "
                               "every check runs in one process")
    p_verify.add_argument("--cutoff", type=int, default=6,
                          help="occupation cutoff for the bosonic checks")
    p_verify.add_argument("--sub", default="splus",
                          choices=sorted(SPAN_BUILDERS),
                          help="span for the subbialg check")
    p_verify.add_argument("--json", action="store_true",
                          help="emit a JSON report instead of text lines")

    p_export = sub.add_parser("export", help="render one view, byte stable")
    _add_common(p_export)
    p_export.add_argument("--what", required=True, choices=EXPORTS)
    p_export.add_argument("--cutoff", type=int, default=6,
                          help="occupation cutoff for bosonic matrices")
    return parser


def _apply_config(parser, argv):
    """Load --config JSON as parser defaults, keeping flag overrides."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        with open(known.config, "r", encoding="ascii") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read config {known.config}: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError("config must be a JSON object")
    valid = {"series", "rank", "spec", "checks", "jobs", "cutoff", "sub",
             "json", "out"}
    unknown = set(data) - valid
    if unknown:
        raise SpecError("unknown config keys: " + ", ".join(sorted(unknown)))
    # a string is converted by argparse as the flag's text would be
    for key, value in data.items():
        if key == "json":
            ok, want = isinstance(value, bool), "true or false"
        elif key in ("rank", "jobs", "cutoff"):
            ok = isinstance(value, str) or type(value) is int
            want = "an integer or a string"
        else:
            ok, want = isinstance(value, str), "a string"
        if not ok:
            raise SpecError(f"config key {key!r} must be {want}, got "
                            f"{json.dumps(value)}")
    subparsers = [subparser for action in parser._subparsers._group_actions
                  for subparser in action.choices.values()]
    # argparse checks a flag's choices, never a default's
    for subparser in subparsers:
        for action in subparser._actions:
            if (action.dest in data and action.choices is not None
                    and data[action.dest] not in action.choices):
                raise SpecError(
                    f"config key {action.dest!r} must be one of "
                    f"{', '.join(action.choices)}, got "
                    f"{json.dumps(data[action.dest])}")
    for subparser in subparsers:
        subparser.set_defaults(**data)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        if args.series is None or args.rank is None:
            raise SpecError("--series and --rank are required, on the "
                            "command line or through --config")
        validate_series_rank(args.series, args.rank)
        if args.command == "verify" and args.jobs < 1:
            raise SpecError(f"--jobs must be at least 1, got {args.jobs}")
        dim = dimension(args.series, args.rank)
        if dim > MAX_DIMENSION:
            raise SpecError(f"{args.series}{args.rank} is too large: dimension "
                            f"{dim:,} exceeds the limit of {MAX_DIMENSION:,}")
        if args.command == "build":
            return _run_build(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_export(args)
    except (RankError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
