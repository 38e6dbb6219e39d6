"""Command-line surface for batch computation, verification and rendering.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import sys

from . import arrows, multiplicities, procedures, skew
from .partitions import check_grade, format_partition, parse_partition


def _parse_diagram(literal: str | None, pair: str | None) -> skew.SkewDiagram:
    if literal is not None and pair is not None:
        raise ValueError(f"give a diagram literal or --pair, not both: {literal!r} and {pair!r}")
    if pair is not None:
        literal = pair
    if literal is None:
        raise ValueError("give a diagram literal or --pair OUTER/INNER")
    if "/" in literal:
        outer_s, _, inner_s = literal.partition("/")
        return skew.skew_from_pair(parse_partition(outer_s), parse_partition(inner_s))
    return skew.parse_skew(literal)


def cmd_gamma(args) -> int:
    k = _parse_diagram(args.diagram, args.pair)
    member = skew.is_gamma(k)
    print(f"diagram: {skew.format_skew(k)}")
    print("member" if member else "non-member")
    for h in skew.covering(k):
        ok_hw = skew.width_condition(h)
        ok_d = skew.diagonal_condition(h)
        boxes = ",".join(f"({i},{j})" for i, j in sorted(h.boxes))
        print(
            f"hook {boxes}: ht={h.ht} wd={h.wd} "
            f"HW={'ok' if ok_hw else 'fail'} D={'ok' if ok_d else 'fail'}"
        )
    print(skew.render(k))
    return 0


def cmd_gen(args) -> int:
    span_cap = args.span_cap
    if args.flavor == "gamma":
        members = [
            k
            for k in skew.enumerate_skew_diagrams(args.max_size, span_cap)
            if skew.is_gamma(k)
        ]
    else:
        members = procedures.generate_upsilon(
            args.max_size, barred=(args.flavor == "upsilon-bar"), span_cap=span_cap
        )
    for k in sorted(members, key=lambda k: (k.size, k.rows)):
        print(skew.format_skew(k))
    return 0


def cmd_verify_equivalence(args) -> int:
    from . import verify

    return _print_check(verify.equivalence(args.max_size, args.span_cap))


def cmd_arrows(args) -> int:
    print(arrows.render_arrow_diagram(parse_partition(args.partition)))
    return 0


def cmd_pi(args) -> int:
    p = parse_partition(args.partition)
    for member in sorted(arrows.pi_set(p), key=lambda q: (-sum(q), q)):
        print(format_partition(member))
    return 0


def _print_matrix(m, fmt: str) -> None:
    if fmt == "text":
        print(multiplicities.matrix_text(m))
    elif fmt == "csv":
        print(multiplicities.matrix_csv(m), end="")
    else:
        print(multiplicities.matrix_json(m))


def cmd_cell_matrix(args) -> int:
    _print_matrix(multiplicities.cell_matrix(args.r), args.format)
    return 0


def cmd_cartan_matrix(args) -> int:
    _print_matrix(multiplicities.cartan_matrix(args.r), args.format)
    return 0


def cmd_verify_tl(args) -> int:
    try:
        lo, hi = map(int, args.q_range.split(":"))
    except ValueError:
        raise ValueError(f"--q-range must be LO:HI (integers): {args.q_range!r}") from None
    from . import verify

    return _print_check(verify.tl_relations(args.r_max, lo, hi))


def _check_line(res: verify.CheckResult) -> str:
    """One text line per check: params, counts, violations, seconds and
    the first witness."""
    params = ", ".join(f"{key}={value}" for key, value in res.params.items())
    counts = "".join(f" {key}={value}" for key, value in res.counts.items())
    line = (f"{res.name}({params}): {'pass' if res.ok else 'FAIL'} "
            f"checked={res.checked}{counts} violations={len(res.violations)} "
            f"seconds={res.seconds:.2f}")
    if res.violations:
        line += " witness: " + " ".join(
            f"{key}={value}" for key, value in res.violations[0].items())
    return line


def _print_check(res: verify.CheckResult) -> int:
    print(_check_line(res))
    return 0 if res.ok else 1


def cmd_verify_all(args) -> int:
    # refuse the grade before the first check runs, not at `tl_relations`
    check_grade(args.r_max, "r_max")
    from . import verify

    results = [check(args.max_size, args.r_max) for check in verify.REGISTRY.values()]
    ok = all(res.ok for res in results)
    if args.format == "json":
        import json

        print(json.dumps({
            "ok": ok,
            "seconds": round(sum(res.seconds for res in results), 3),
            "checks": {
                res.name: {
                    "params": res.params,
                    "checked": res.checked,
                    "violations": len(res.violations),
                    "ok": res.ok,
                    "seconds": round(res.seconds, 3),
                    "counts": res.counts,
                    "witness": res.violations[0] if res.violations else None,
                }
                for res in results
            },
        }))
    else:
        for res in results:
            print(_check_line(res))
        print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_render(args) -> int:
    k = _parse_diagram(args.diagram, args.pair)
    print(skew.render(k, contents=args.contents))
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="peribrauer",
        description="Skew-diagram combinatorics and decomposition matrices "
        "of periplectic Brauer algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="membership verdict and covering diagnostics")
    p.add_argument("diagram", nargs="?", default=None,
                   help="row-interval literal or OUTER/INNER pair")
    p.add_argument("--pair", help="outer/inner partition pair, e.g. [2,2]/[1]")
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("gen", help="list all members up to a size bound")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--span-cap", type=int, default=None,
                   help="content span bound (default max-size + 1)")
    p.add_argument("--flavor", choices=["upsilon", "upsilon-bar", "gamma"],
                   default="gamma")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify-equivalence",
                       help="three-way membership comparison over all diagrams")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--span-cap", type=int, default=None)
    p.set_defaults(fn=cmd_verify_equivalence)

    p = sub.add_parser("arrows", help="arrow diagram of a partition")
    p.add_argument("partition")
    p.set_defaults(fn=cmd_arrows)

    p = sub.add_parser("pi", help="partitions reachable by flipping arrow pairs")
    p.add_argument("partition")
    p.set_defaults(fn=cmd_pi)

    for name, fn in (("cell-matrix", cmd_cell_matrix),
                     ("cartan-matrix", cmd_cartan_matrix)):
        p = sub.add_parser(name, help=f"print the {name.split('-')[0]} matrix")
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--format", choices=["text", "csv", "json"], default="text")
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify-tl", help="operator relation check")
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--q-range", default="-8:8", help="LO:HI content range")
    p.set_defaults(fn=cmd_verify_tl)

    p = sub.add_parser("verify-all", help="run acceptance criteria 2-9")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("render", help="ASCII picture of a diagram")
    p.add_argument("diagram", nargs="?", default=None)
    p.add_argument("--pair")
    p.add_argument("--contents", action="store_true",
                   help="label boxes with content mod 10")
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # accept `--q-range -8:8` without the = form argparse would demand
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--q-range" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--q-range={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, multiplicities.ConsistencyError) as exc:
        if isinstance(exc, multiplicities.ConsistencyError):
            print(f"internal consistency failure: {exc}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
