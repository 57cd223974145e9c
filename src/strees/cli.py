"""Command-line surface for decomposition, bases, and verification.

Exit codes: 0 success, 1 domain or usage error, 2 verification failure.
Output is byte-deterministic for identical input and flags: JSON is emitted
with sorted keys, all vertex lists are sorted, and text lines follow the
underlying sorted structures. JSON is byte for byte what json.dumps(obj,
sort_keys=True, indent=2) writes, from a writer that skips the pure-Python
encoder any indent selects and writes exact counts of any size in full.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from . import exact
from .bases import tree_null_basis, tree_range_basis
from .decomposition import (
    atom_set,
    atom_set_to_json,
    classify,
    decompose,
    decomposition_to_json,
    invariant_report,
    render_dot,
    support_core,
)
from .errors import DomainError, StreesError, UsageError, VerificationError
from .generators import enumerate_trees, random_s_tree, random_tree
from .ops import CoalescencePlan, s_coalescence, stellare
from .tree import (
    Tree,
    VertexVector,
    int_text,
    parse_tree,
    tree_from_json,
    tree_to_edge_text,
    tree_to_json,
)
from .verify import check_tree, fixture_checks, sweep


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for verification
    # failures here, so route usage problems through the domain-error path
    def error(self, message: str):
        raise UsageError(message)


@cache
def _parser() -> _Parser:
    """The argument parser, built on first use and then reused."""
    p = _Parser(prog="strees", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def tree_cmd(name: str, help_: str, formats=("text", "json", "dot")):
        c = sub.add_parser(name, help=help_)
        c.add_argument("path", nargs="?", help="input file, '-' for stdin")
        c.add_argument("-i", "--input", help="input file, '-' for stdin")
        c.add_argument(
            "--format", choices=formats, default="text", help="output format"
        )
        return c

    tree_cmd("decompose", "split a tree into its null decomposition")
    tree_cmd("atoms", "split the supported parts into atoms")
    tree_cmd("null-basis", "signed basis of the null space", ("text", "json"))
    tree_cmd("range-basis", "signed basis of the column space", ("text", "json"))
    tree_cmd("invariants", "counts with every cross-formula verified", ("text", "json"))
    tree_cmd("classify", "structural classification flags", ("text", "json"))

    c = tree_cmd("stellare", "replace every vertex by a star of pendants")
    c.add_argument("--ks", required=True, help="comma-separated arities, one per vertex")

    c = sub.add_parser("coalesce", help="identify supported vertices of several trees")
    c.add_argument("path", nargs="?", help="plan JSON file, '-' for stdin")
    c.add_argument("-i", "--input", help="plan JSON file, '-' for stdin")
    c.add_argument("--format", choices=("text", "json", "dot"), default="text")

    c = sub.add_parser("verify", help="run the exact cross-check battery")
    c.add_argument("path", nargs="?", help="check one tree from a file")
    c.add_argument("-i", "--input", help="check one tree from a file")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--exhaustive-n", type=int, metavar="K",
                   help="check every labeled tree with at most K vertices")
    c.add_argument("--fixtures", action="store_true",
                   help="reproduce the shipped fixtures' numbers")

    c = sub.add_parser("random", help="seeded uniformly random labeled tree")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--s-tree", action="store_true",
                   help="compose a random tree whose support dominates (--n is the vertex budget)")
    c.add_argument("--format", choices=("text", "json", "dot"), default="text")

    c = sub.add_parser("enumerate", help="all labeled trees on n vertices")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--format", choices=("text", "json"), default="text")
    return p


def _read_source(args) -> str:
    if getattr(args, "path", None) and getattr(args, "input", None):
        raise UsageError("give the input either positionally or with -i, not both")
    src = getattr(args, "path", None) or getattr(args, "input", None)
    if src is None or src == "-":
        return sys.stdin.read()
    try:
        with open(src, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DomainError(f"cannot read {src}: {e.strerror}")


def _read_tree(args) -> Tree:
    return parse_tree(_read_source(args))


_str_text = json.encoder.encode_basestring_ascii


def _json_text(obj, pad: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it at indent pad.

    Dict keys are str. A VertexVector is written as its sparse list of
    {"coeff", "vertex"} entries in vertex order.
    """
    kind = type(obj)
    if kind is int:
        return int_text(obj)
    if kind is str:
        return _str_text(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = pad + "  "
    brackets = "[]"
    if kind is VertexVector:
        items = [
            f'{{\n{inner}  "coeff": {int(obj.entries[v])},\n{inner}  "vertex": {v}\n{inner}}}'
            for v in obj.support()
        ]
    elif kind is list or kind is tuple:
        if all(type(x) is int for x in obj):
            items = map(int_text, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
    elif kind is dict:
        brackets = "{}"
        items = [f"{_str_text(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}" if body else brackets


def _json_out(obj) -> str:
    return _json_text(obj, "") + "\n"


def _fmt_vector(x: VertexVector) -> str:
    return " ".join(f"{v}:{x.entries[v]:+d}" for v in x.support())


def _emit_tree(t: Tree, fmt: str, extra: dict | None = None, header: str = "") -> str:
    if fmt == "json":
        obj = {"tree": tree_to_json(t)}
        if extra:
            obj.update(extra)
        return _json_out(obj)
    if fmt == "dot":
        return render_dot(t, decompose(t), atom_set(t))
    return (header + tree_to_edge_text(t)) if header else tree_to_edge_text(t)


def _run_decompose(args) -> str:
    t = _read_tree(args)
    dec = decompose(t)
    if args.format == "json":
        return _json_out(decomposition_to_json(dec))
    if args.format == "dot":
        return render_dot(t, dec, atom_set(t))
    lines = [
        "support: " + " ".join(map(str, dec.support)),
        "core: " + " ".join(map(str, dec.core)),
    ]
    for p in dec.support_parts:
        lines.append("support part: " + " ".join(map(str, p.vertices)))
    for p in dec.nonsingular_parts:
        lines.append("nonsingular part: " + " ".join(map(str, p.vertices)))
    for u, v in dec.connection_edges:
        lines.append(f"connection edge: {u} {v}")
    return "\n".join(lines) + "\n"


def _run_atoms(args) -> str:
    t = _read_tree(args)
    ats = atom_set(t)
    if args.format == "json":
        return _json_out(atom_set_to_json(ats))
    if args.format == "dot":
        return render_dot(t, decompose(t), ats)
    lines = []
    for a, sc in zip(ats.atoms, ats.atom_support_cores):
        lines.append("atom: " + " ".join(map(str, a.vertices)))
        lines.append("  support: " + " ".join(map(str, sc.support)))
        lines.append("  core: " + " ".join(map(str, sc.core)))
    for u, v in ats.bond_edges:
        lines.append(f"bond edge: {u} {v}")
    return "\n".join(lines) + "\n"


def _run_null_basis(args) -> str:
    t = _read_tree(args)
    vectors = tree_null_basis(t)
    if args.format == "json":
        return _json_out({"vectors": vectors})
    if not vectors:
        return "null space is trivial\n"
    return "\n".join(_fmt_vector(x) for x in vectors) + "\n"


def _run_range_basis(args) -> str:
    t = _read_tree(args)
    rb = tree_range_basis(t)
    if args.format == "json":
        return _json_out({"vectors": rb.vectors, "roles": rb.roles})
    if not rb.vectors:
        return "column space is trivial\n"
    return (
        "\n".join(
            f"[{role}] {_fmt_vector(x)}" for x, role in zip(rb.vectors, rb.roles)
        )
        + "\n"
    )


def _run_invariants(args) -> str:
    t = _read_tree(args)
    rep = invariant_report(t)
    obj = {
        "order": rep.order,
        "rank": rep.rank,
        "nullity": rep.nullity,
        "matching_number": rep.matching_number,
        "max_matching_count": rep.max_matching_count,
        "independence_number": rep.independence_number,
        "support_size": rep.support_size,
        "core_size": rep.core_size,
        "nonsingular_vertex_count": rep.nonsingular_vertex_count,
        "checks": list(rep.checks),
    }
    if args.format == "json":
        return _json_out(obj)
    lines = [f"{k}: {int_text(obj[k])}" for k in obj if k != "checks"]
    lines += [f"check {name}: pass" for name in rep.checks]
    return "\n".join(lines) + "\n"


def _run_classify(args) -> str:
    t = _read_tree(args)
    rank = exact.tree_rank(t)
    sc = support_core(t)
    cls = classify(t)
    obj = {
        "order": t.order,
        "rank": rank,
        "nullity": t.order - rank,
        "support_size": sc.support_size,
        "core_size": sc.core_size,
        "support_tree": cls.is_support_tree,
        "nonsingular_tree": cls.is_nonsingular_tree,
        "atom": cls.is_atom,
        "basic": cls.is_basic,
        "max_core_degree": cls.max_core_degree,
    }
    if args.format == "json":
        return _json_out(obj)
    return "".join(f"{k}: {str(v).lower() if isinstance(v, bool) else int_text(v)}\n" for k, v in obj.items())


def _parse_ks(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"--ks needs comma-separated integers, got {text!r}")


def _run_stellare(args) -> str:
    t = _read_tree(args)
    res = stellare(t, _parse_ks(args.ks))
    extra = {
        "arities": list(res.arities),
        "pendants": {
            str(b): list(res.pendants_of(b)) for b in t.vertices
        },
    }
    return _emit_tree(res.tree, args.format, extra=extra)


def _run_coalesce(args) -> str:
    text = _read_source(args)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DomainError(f"plan is not valid JSON: {e.msg}")
    if not isinstance(obj, dict) or not isinstance(obj.get("parts"), list):
        raise DomainError('plan JSON needs a "parts" list')
    parts = []
    for entry in obj["parts"]:
        if not isinstance(entry, dict) or "tree" not in entry or "attach" not in entry:
            raise DomainError('each part needs "tree" and "attach"')
        parts.append((tree_from_json(entry["tree"]), entry["attach"]))
    res = s_coalescence(CoalescencePlan(tuple(parts)))
    return _emit_tree(
        res.tree,
        args.format,
        extra={"star_vertex": res.star_vertex},
        header=f"# star vertex {res.star_vertex}\n",
    )


def _run_verify(args) -> tuple[str, bool]:
    rows: list[tuple[str, bool, str]] = []
    src = getattr(args, "path", None) or getattr(args, "input", None)
    ran = False
    if src is not None:
        t = _read_tree(args)
        report = check_tree(t)
        for r in report.results:
            rows.append((r.name, r.ok, r.detail))
        ran = True
    if args.fixtures or not (ran or args.exhaustive_n is not None):
        for r in fixture_checks():
            rows.append((r.name, r.ok, r.detail))
        ran = True
    if args.exhaustive_n is not None:
        res = sweep(args.exhaustive_n)
        rows.append(
            (
                f"exhaustive_n_{args.exhaustive_n}",
                res.ok,
                f"{res.failed} of {res.total} trees failed",
            )
        )
        for n, idx, names, t in res.failures:
            # the tree as one line of JSON, which `strees verify -` reads back
            witness = json.dumps(tree_to_json(t), sort_keys=True)
            rows.append((f"tree n={n} #{idx}", False, f"{' '.join(names)}  tree {witness}"))
    ok = all(r[1] for r in rows)
    if args.format == "json":
        out = _json_out(
            {
                "ok": ok,
                "checks": [
                    {"name": name, "ok": good, "detail": detail}
                    for name, good, detail in rows
                ],
            }
        )
        return out, ok
    lines = [
        ("PASS " + name) if good else ("FAIL " + name + (f"  {detail}" if detail else ""))
        for name, good, detail in rows
    ]
    failed = sum(1 for r in rows if not r[1])
    lines.append(f"summary: {len(rows)} checks, {failed} failures")
    return "\n".join(lines) + "\n", ok


def _run_random(args) -> str:
    if args.s_tree:
        t = random_s_tree(args.n, args.seed)
    else:
        t = random_tree(args.n, args.seed)
    return _emit_tree(t, args.format)


def _run_enumerate(args) -> str:
    if args.format == "json":
        return _json_out({"trees": [tree_to_json(t) for t in enumerate_trees(args.n)]})
    blocks = [tree_to_edge_text(t) for t in enumerate_trees(args.n)]
    return "\n".join(blocks)


_HANDLERS = {
    "decompose": _run_decompose,
    "atoms": _run_atoms,
    "null-basis": _run_null_basis,
    "range-basis": _run_range_basis,
    "invariants": _run_invariants,
    "classify": _run_classify,
    "stellare": _run_stellare,
    "coalesce": _run_coalesce,
    "random": _run_random,
    "enumerate": _run_enumerate,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (try --help)")
        if args.command == "verify":
            out, ok = _run_verify(args)
            sys.stdout.write(out)
            return 0 if ok else 2
        sys.stdout.write(_HANDLERS[args.command](args))
        return 0
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except StreesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
