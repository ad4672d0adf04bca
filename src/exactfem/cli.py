"""Command-line surface: index enumeration, node/shape tabulation, order
diagnostics, and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain error (degenerate simplex).  All rational output uses the exact
"num/den" form; --format json keeps stdout machine-parseable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import element as fe
from . import geometry as geo
from . import multiindex as mi
from .errors import DegenerateSimplexError
from .exact import rat_str
from .polynomial import monomial_str
from .verify import run_suite

SEED_ENV_VAR = "EXACTFEM_SEED"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactfem",
        description="Exact-arithmetic simplicial Lagrange elements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", help="enumerate a multi-index set")
    p.add_argument("--dim", "-d", type=int, required=True)
    p.add_argument("--degree", "-k", type=int, required=True)
    p.add_argument("--set", choices=mi.KINDS, default="A")
    p.add_argument("--zero-index", type=int, default=None)
    p.add_argument("--order", choices=mi.ORDERS, default=mi.DEFAULT_ORDER)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("nodes", help="tabulate the element nodes")
    p.add_argument("--dim", "-d", type=int, required=True)
    p.add_argument("--degree", "-k", type=int, required=True)
    p.add_argument("--vertices", type=str, default=None, help="vertex family JSON file")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("shape", help="print the shape-function basis")
    p.add_argument("--dim", "-d", type=int, required=True)
    p.add_argument("--degree", "-k", type=int, required=True)
    p.add_argument("--vertices", type=str, default=None, help="vertex family JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the exact-identity check suite")
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--lemma",
        action="append",
        default=None,
        metavar="ID",
        help="run only the named check ids (repeatable)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("orders", help="order diagnostics for the graded orders")
    p.add_argument("--dim", "-d", type=int, required=True)
    p.add_argument("--degree", "-k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load_vertices(path: str | None, d: int):
    """The reference simplex when no file is named, else the family in the file."""
    if path is None:
        return geo.reference_vertices(d)
    try:
        with open(path) as handle:
            data = json.load(handle)
        fam = geo.vertex_family_from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _ParseError(f"cannot read vertex family from {path}: {exc}") from exc
    if geo.family_dim(fam) != d:
        raise _ParseError(
            f"vertex family has dimension {geo.family_dim(fam)}, expected {d}"
        )
    return fam


class _ParseError(Exception):
    pass


def _label(alpha) -> str:
    return "(" + ", ".join(str(a) for a in alpha) + ")"


def _cmd_indices(args, out) -> int:
    if args.set == "Azero":
        if args.zero_index is None or not (1 <= args.zero_index <= args.dim):
            raise _ParseError("--set Azero needs --zero-index in [1..dim]")
    elif args.zero_index is not None:
        raise _ParseError("--zero-index only applies to --set Azero")
    data = mi.enumeration_json(args.dim, args.degree, args.set, args.zero_index, args.order)
    if args.format == "json":
        out.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([f"alpha_{i + 1}" for i in range(args.dim)])
        for alpha in data["indices"]:
            writer.writerow(alpha)
    else:
        head = f"# set={args.set} d={args.dim} k={args.degree} order={args.order}"
        if args.set == "Azero":
            head += f" zero_index={args.zero_index}"
        out.write(head + f" cardinal={data['cardinal']}\n")
        for alpha in data["indices"]:
            out.write(_label(alpha) + "\n")
    return 0


def _cmd_nodes(args, out) -> int:
    fam = geo.require_independent(_load_vertices(args.vertices, args.dim))
    nodes = fe.lagrange_nodes(fam, args.degree)
    if args.format == "json":
        data = fe.nodes_to_json_dict(fam, args.degree, nodes)
        out.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        out.write(fe.nodes_to_csv(args.dim, nodes))
    else:
        out.write(f"# nodes d={args.dim} k={args.degree} count={len(nodes)}\n")
        for alpha, pt in nodes:
            out.write(f"{_label(alpha)} -> {_label(rat_str(x) for x in pt)}\n")
    return 0


def _cmd_shape(args, out) -> int:
    fam = _load_vertices(args.vertices, args.dim)
    elem = fe.build_element(fam, args.degree)
    if args.format == "json":
        out.write(json.dumps(fe.element_to_json_dict(elem), indent=2, sort_keys=True) + "\n")
    else:
        out.write(
            f"# shape functions d={args.dim} k={args.degree} "
            f"count={len(elem.shape_functions)}\n"
        )
        for alpha, theta in zip(elem.node_index, elem.shape_functions):
            out.write(f"{_label(alpha)}: {_render_poly(theta)}\n")
    return 0


def _render_poly(p) -> str:
    if p.is_zero():
        return "0"
    bits = []
    for exp, coeff in p.sorted_terms():
        mono = monomial_str(exp)
        if mono:
            bits.append(f"{rat_str(coeff)}*{mono}" if coeff != 1 else mono)
        else:
            bits.append(rat_str(coeff))
    return " + ".join(bits)


def _cmd_verify(args, out) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    report = run_suite(args.dmax, args.kmax, args.samples, seed, only=args.lemma)
    out.write(report.to_json() if args.format == "json" else report.to_table())
    return 0 if report.passed else 1


def _cmd_orders(args, out) -> int:
    d, k = args.dim, args.degree
    if d < 1 or k < 1:
        raise _ParseError("orders diagnostics need dim >= 1 and degree >= 1")
    rows = []
    for order in mi.GRADED_ORDERS:
        degree_w = mi.condition_degree_monotone(order, d, k)
        embed = (
            mi.condition_dimension_embedding(order, d, k)
            if d >= 2
            else {"satisfied": True, "route": None, "front_witness": None,
                  "back_witness": None, "insert_witness": None}
        )
        vertex_w = mi.condition_vertex_numbering(order, d, k)
        embedding_witness = None
        if not embed["satisfied"]:
            embedding_witness = (
                embed["insert_witness"] or embed["front_witness"] or embed["back_witness"]
            )
        rows.append(
            {
                "order": order,
                "degree_monotone": degree_w is None,
                "degree_witness": degree_w,
                "dimension_embedding": embed["satisfied"],
                "embedding_route": embed["route"],
                "embedding_witness": embedding_witness,
                "vertex_numbering": vertex_w is None,
                "vertex_witness": vertex_w,
            }
        )
    if args.format == "json":
        out.write(json.dumps({"d": d, "k": k, "orders": rows}, indent=2, default=list) + "\n")
        return 0
    out.write(f"# order conditions at d={d} k={k}\n")
    out.write(f"{'order':<10} {'degree':<8} {'embedding':<16} {'vertices':<8}\n")
    for row in rows:
        # At d = 1 the embedding condition holds vacuously and has no route.
        route = row["embedding_route"]
        emb = "NO" if not row["dimension_embedding"] else f"yes via {route}" if route else "yes"
        out.write(
            f"{row['order']:<10} "
            f"{'yes' if row['degree_monotone'] else 'NO':<8} "
            f"{emb:<16} "
            f"{'yes' if row['vertex_numbering'] else 'NO':<8}\n"
        )
        for field in ("degree_witness", "embedding_witness", "vertex_witness"):
            if row[field] is not None:
                out.write(f"{'':10}   {field}: {row[field]}\n")
    return 0


_COMMANDS = {
    "indices": _cmd_indices,
    "nodes": _cmd_nodes,
    "shape": _cmd_shape,
    "verify": _cmd_verify,
    "orders": _cmd_orders,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except DegenerateSimplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
