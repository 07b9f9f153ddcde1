"""Command-line interface.

Every operation is exposed as a subcommand with dual output: human-readable
text by default, the full JSON payload with ``--json``.  Exit codes: 0 for
success (and for verification commands, a true/consistent outcome), 1 for a
false verification, 2 for invalid input.  `run` alone turns a refusal into exit 2
and prints its text; `_fields` puts the name of the field at fault in that text.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager

from . import acceptance, classifier, elliptic, finite_geometry, lattice_core, root_config
from .groups import (
    DEFAULT_COSET_BOUND,
    MAX_COSET_BOUND,
    EnumerationBound,
    GroupPresentation,
    catalog_group,
    count_normal_subgroups,
    group_from_presentation,
    is_isomorphic,
)
from .lattice_core import typed


class CliError(Exception):
    pass


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise CliError(f"--{name} is required for this operation")
    return value


_MAX_DEPTH = 100  # far deeper than any k3lat input, far below the recursion limit


def _check_depth(obj):
    """``obj`` when it nests at most ``_MAX_DEPTH`` deep; deeper input would overflow
    the recursive parsers that read it, such as `parse_lattice` on a nested ``sum``."""
    stack = [(obj, 1)]
    while stack:
        x, depth = stack.pop()
        if isinstance(x, (list, dict)):
            if depth > _MAX_DEPTH:
                raise RecursionError
            stack.extend((y, depth + 1) for y in (x.values() if isinstance(x, dict) else x))
    return obj


def _load_json_arg(value: str):
    """Inline JSON, or a path to a JSON file, nested at most ``_MAX_DEPTH`` deep.  Its
    types are checked where a command reads it, by `typed`: a float, ``NaN`` or
    boolean where an integer belongs is refused by its path, and a key that no
    command reads is not checked."""
    text = value
    if not value.lstrip().startswith(("{", "[", '"')):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {value}: {exc}") from exc
    try:
        return _check_depth(json.loads(text))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CliError(f"JSON input is nested more than {_MAX_DEPTH} levels deep") from exc


def _fraction(x):
    """`json.dumps`'s hook for a Fraction: an int when integral, else "p/q"."""
    return int(x) if x.denominator == 1 else str(x)


def _group_arg(name: str):
    """Catalog group names, including C-style spellings like C2^4 or C10."""
    name = re.sub(r"\AC(\d+)\^(\d+)\Z", r"(Z/\1)^\2", name)
    return catalog_group(re.sub(r"\AC(\d+)\Z", r"Z/\1", name))


@contextmanager
def _fields(what: str):
    """Report a missing or malformed field of a JSON input as invalid input."""
    try:
        yield
    except KeyError as exc:
        raise CliError(f"bad {what}: missing field {exc}") from exc
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise CliError(f"bad {what}: {exc}") from exc


def _config_from_json(obj):
    with _fields("configuration"):
        return root_config.ChainConfiguration(
            ambient=lattice_core.parse_lattice(
                typed(obj, dict, "the top level")["ambient"], "ambient"
            ),
            p=typed(obj["p"], int, "p"),
            chains=typed(obj["chains"], [[[int]]], "chains"),
        )


# --------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, payload, human_lines)


def _cmd_lattice(args):
    if args.op == "snf":
        with _fields("matrix"):
            M = typed(_load_json_arg(_require(args, "matrix")), [[int]], "matrix")
            D, P, Q = lattice_core.smith_normal_form(M)
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        return 0, {"diagonal": diag, "D": D, "P": P, "Q": Q}, [f"diagonal: {diag}"]
    obj = _load_json_arg(_require(args, "lattice"))
    with _fields("lattice"):
        lat = lattice_core.parse_lattice(obj)
    if args.op == "disc":
        inv = lattice_core.discriminant_group(lat)
        return 0, {"invariants": list(inv.factors), "order": inv.order}, [
            f"discriminant group: {inv} (order {inv.order})"
        ]
    with _fields("basis"):
        basis = typed(_load_json_arg(_require(args, "basis")), [[int]], "basis")
    closure, glue = lattice_core.primitive_closure(lattice_core.EmbeddedSublattice(lat, basis))
    return 0, {"closure_basis": closure, "glue": list(glue.factors)}, [
        f"glue group: {glue}",
        f"closure basis: {closure}",
    ]


def _cmd_config(args):
    cfg = _config_from_json(_load_json_arg(args.config))
    witnesses = root_config.find_p_divisible_subsets(cfg)
    if args.op == "divisible":
        payload = [
            {
                "subset": list(w.subset),
                "coefficients": list(w.coefficients),
                "quotient_class": list(w.quotient_class),
            }
            for w in witnesses
        ]
        lines = [f"{len(witnesses)} divisible weighted subset(s)"]
        lines += [f"  subset {list(w.subset)} coefficients {list(w.coefficients)}" for w in witnesses]
        return 0, payload, lines
    primitive = not witnesses
    return (0 if primitive else 1), {"primitive": primitive}, [
        "primitive" if primitive else f"not primitive ({len(witnesses)} witnesses)"
    ]


def _cmd_geometry(args):
    if args.op == "hyperplanes":
        space = finite_geometry.affine_space(args.p, args.n)
        hyps = finite_geometry.affine_hyperplanes(space)
        payload = [list(h.members) for h in hyps]
        return 0, payload, [f"{len(hyps)} affine hyperplanes of size {space.p ** (space.n - 1)}"]
    if args.op == "kummer":
        lattice, cfg = finite_geometry.kummer_lattice()
        witnesses = root_config.find_p_divisible_subsets(cfg)
        payload = {
            "rank": lattice.rank,
            "determinant": lattice.det(),
            "discriminant_group": list(lattice_core.discriminant_group(lattice).factors),
            "divisible_subsets": [list(w.subset) for w in witnesses],
        }
        return 0, payload, [
            f"rank {lattice.rank}, determinant {lattice.det()}",
            f"{len(witnesses)} divisible subsets (30 eight-point + the full set)",
        ]
    if args.op == "lemma16":
        report = finite_geometry.hyperplane_covering_search()
        payload = {
            "pair_13": report.pair_13,
            "unique_12": list(report.unique_12),
            "none_11": list(report.none_11),
        }
        return (0 if report.pair_13 else 1), payload, [
            f"every 13-subset holds a crossing hyperplane pair: {report.pair_13}",
            f"12-subset with a unique hyperplane: {list(report.unique_12)}",
            f"11-subset with no hyperplane: {list(report.none_11)}",
        ]
    ok = finite_geometry.ag23_unique_six_set()
    return (0 if ok else 1), {"unique_six_set": ok}, [
        f"every 7-point subset holds exactly one line complement: {ok}"
    ]


def _cmd_fibration(args):
    obj = _load_json_arg(args.spec)
    with _fields("fibration"):
        spec = elliptic.parse_fibration(obj)
    if args.op == "validate":
        report = elliptic.validate_fibration(spec)
        payload = {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
            ],
        }
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in report.checks]
        return (0 if report.ok else 1), payload, lines
    if args.op == "height":
        h = elliptic.height(_require(args, "section"), spec)
        return 0, {"section": args.section, "height": h}, [f"h({args.section}) = {h}"]
    rel = _load_json_arg(_require(args, "relation"))
    with _fields("relation"):
        lhs = elliptic.parse_divisor(typed(rel, dict, "the top level")["lhs"], "lhs")
        rhs = elliptic.parse_divisor(rel["rhs"], "rhs")
        p = typed(rel["p"], int, "p")
    ok = elliptic.verify_divisibility_relation(spec, lhs, p, rhs)
    return (0 if ok else 1), {"verified": ok, "p": rel["p"]}, [
        f"relation {'holds' if ok else 'fails'} (p = {rel['p']})"
    ]


def _cmd_groups(args):
    if args.op == "build":
        if args.group and args.presentation:
            raise CliError("give either --group or --presentation, not both")
        if args.group:
            table = _group_arg(args.group)
        elif not args.presentation:
            raise CliError("--group or --presentation is required")
        elif args.bound > MAX_COSET_BOUND:
            raise CliError(f"--bound {args.bound} is above {MAX_COSET_BOUND} cosets")
        else:
            with _fields("presentation"):
                obj = typed(_load_json_arg(args.presentation), dict, "the top level")
                pres = GroupPresentation(tuple(typed(obj["gens"], [str], "gens")),
                                         tuple(typed(obj["rels"], [str], "rels")))
                table = group_from_presentation(pres, bound=args.bound)
        payload = {
            "order": table.order,
            "abelian": table.is_abelian(),
            "generator_images": table.generator_images,
        }
        return 0, payload, [f"order {table.order}, {'abelian' if table.is_abelian() else 'nonabelian'}"]
    if args.op == "normal-count":
        table = _group_arg(_require(args, "group"))
        if _require(args, "index") < 1:
            raise CliError(f"--index {args.index} is not a positive subgroup index")
        n = count_normal_subgroups(table, args.index)
        return 0, {"group": table.name, "index": args.index, "count": n}, [
            f"{table.name or 'group'} has {n} normal subgroup(s) of index {args.index}"
        ]
    a = _group_arg(_require(args, "group"))
    b = _group_arg(_require(args, "other"))
    ok = is_isomorphic(a, b)
    return (0 if ok else 1), {"isomorphic": ok}, [
        f"{a.name} and {b.name} are {'isomorphic' if ok else 'not isomorphic'}"
    ]


def _row_payload(row: classifier.TableRow):
    return {
        "table": row.table,
        "row": row.number,
        "p": row.p,
        "c": row.c,
        "condition": row.condition_text,
        "pi1": row.pi1.display(),
        "pi1_order": row.pi1.order(),
        "sing_y": row.sing_y,
        "realizable": row.realizable,
    }


def _cmd_classify(args):
    if args.surface == "k3":
        row = classifier.k3_classify(classifier.K3Input(args.p, args.c, args.facts))
    else:
        row = classifier.enriques_classify(
            classifier.EnriquesInput(args.p, args.c, w=args.w, cover=args.cover)
        )
    lines = [
        f"table {row.table}, row {row.number}",
        f"pi1 = {row.pi1.display()} (order {row.pi1.order()})",
    ]
    if row.sing_y is not None:
        lines.append(f"cover singularities: {row.sing_y}")
    if row.realizable != True:  # noqa: E712  - realizable is True or "unknown"
        lines.append("realizability: unknown")
    return 0, _row_payload(row), lines


def _cmd_table(args):
    realizable = {"true": True, "unknown": "unknown", None: None}[args.realizability]
    finite = {"finite": True, "infinite": False, None: None}[args.pi1]
    rows = classifier.table_lookup(
        args.table, row=args.row, p=args.p, c=args.c, finite=finite, realizable=realizable
    )
    lines = [
        f"row {r['no']}: p = {r['p']}, c = {r['c_min']}"
        + (f"..{r['c_max']}" if r["c_max"] != r["c_min"] else "")
        + f", pi1 = {classifier.Pi1Descriptor.from_json(r['pi1']).display()}"
        for r in rows
    ]
    return 0, rows, lines or ["no matching rows"]


def _cmd_lemma13(args):
    sols = classifier.cover_euler_solutions()
    payload = [{"p": p, "c": c, "cover": kind} for p, c, kind in sols]
    return 0, payload, [f"(p = {p}, c = {c}) -> {kind} cover" for p, c, kind in sols]


def _cmd_selftest(args):
    results = acceptance.run_all()
    payload = [
        {
            "criterion": r.number,
            "title": r.title,
            "passed": r.passed,
            "detail": r.detail,
            "seconds": round(r.seconds, 3),
        }
        for r in results
    ]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number} ({r.title}) "
        f"[{r.seconds:.2f}s]: {r.detail}"
        for r in results
    ]
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return (0 if ok else 1), payload, lines


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="k3lat",
        description="Exact lattice, finite-geometry and group computations for "
        "singular K3 and Enriques surface complements.",
    )
    top.add_argument("--json", action="store_true", help="emit the JSON payload")
    sub = top.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="Smith form, discriminant group, saturation")
    lat.add_argument("op", choices=["snf", "disc", "closure"])
    lat.add_argument("--matrix", help="integer matrix (JSON or file)")
    lat.add_argument("--lattice", help="lattice (catalog name, JSON or file)")
    lat.add_argument("--basis", help="list of vectors (JSON or file)")
    lat.set_defaults(func=_cmd_lattice)

    cfg = sub.add_parser("config", help="chain-configuration divisibility")
    cfg.add_argument("op", choices=["divisible", "primitive"])
    cfg.add_argument("--config", required=True, help="configuration (JSON or file)")
    cfg.set_defaults(func=_cmd_config)

    geo = sub.add_parser("geometry", help="finite-geometry models and searches")
    geo.add_argument("op", choices=["hyperplanes", "kummer", "lemma16", "ag23"])
    geo.add_argument("--p", type=int, default=2)
    geo.add_argument("--n", type=int, default=4)
    geo.set_defaults(func=_cmd_geometry)

    fib = sub.add_parser("fibration", help="elliptic fibration checks")
    fib.add_argument("op", choices=["validate", "height", "relation"])
    fib.add_argument("--spec", required=True, help="fibration (JSON or file)")
    fib.add_argument("--section", help="section name for height")
    fib.add_argument("--relation", help="relation (JSON or file)")
    fib.set_defaults(func=_cmd_fibration)

    grp = sub.add_parser("groups", help="finite group construction and queries")
    grp.add_argument("op", choices=["build", "normal-count", "iso"])
    grp.add_argument("--group", help="catalog group name")
    grp.add_argument("--presentation", help='{"gens": [...], "rels": [...]} (JSON or file)')
    grp.add_argument("--bound", type=int, default=DEFAULT_COSET_BOUND,
                     help=f"coset enumeration bound, at most {MAX_COSET_BOUND}")
    grp.add_argument("--index", type=int, help="subgroup index for normal-count")
    grp.add_argument("--other", help="second group for iso")
    grp.set_defaults(func=_cmd_groups)

    cls = sub.add_parser("classify", help="table classification from divisibility facts")
    cls.add_argument("surface", choices=["k3", "enriques"])
    cls.add_argument("--p", type=int, required=True)
    cls.add_argument("--c", type=int, required=True)
    cls.add_argument("--facts", help="K3 facts: primitive|nonprimitive|one_H|two_H|one_R|two_R")
    cls.add_argument("--w", help="quotient-side facts (Enriques)")
    cls.add_argument("--cover", help="cover-side facts (Enriques)")
    cls.set_defaults(func=_cmd_classify)

    tab = sub.add_parser("table", help="query the bundled classification tables")
    tab.add_argument("table", type=int, choices=[1, 2])
    tab.add_argument("--row", type=int)
    tab.add_argument("--p", type=int)
    tab.add_argument("--c", type=int)
    tab.add_argument("--pi1", choices=["finite", "infinite"])
    tab.add_argument("--realizability", choices=["true", "unknown"])
    tab.set_defaults(func=_cmd_table)

    sub.add_parser("lemma13", help="degree-p cover Euler enumeration").set_defaults(
        func=_cmd_lemma13
    )
    sub.add_parser("selftest", help="run the acceptance suite").set_defaults(func=_cmd_selftest)
    return top


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload, lines = args.func(args)
    except (CliError, ValueError, root_config.SearchSpaceError, EnumerationBound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=1, default=_fraction))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
