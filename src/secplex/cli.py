"""Command-line interface.

Every command reads one JSON document (see :mod:`secplex.documents`),
prints a deterministic report, and exits 0 on success, 1 on a domain
error, 2 on a usage or parse error.  Output is byte-identical for
identical inputs and flags.  ``--threads`` is accepted for compatibility
and has no effect: enumeration runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .documents import load_document, matrix_to_lists
from .errors import InputFormatError, SecplexError, WindowError
from .heights import as_fraction, is_subdivided, subdivision_number, validate_height
from .linalg import PrimeField, balanced_lift, normalized_chains
from .reeb import barcode_diagram, reeb_complex, reeb_graph
from .sections import (
    DEFAULT_CAP,
    build_truncation,
    enumerate_sections,
    face_rows,
    is_degenerate,
    word_label,
)
from .spectral import SpectralSequence, convergence_check, double_complex


def _heights_arg(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(as_fraction(part) for part in text.split(","))
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"bad height word {text!r}: {exc}")
    if any(a > b for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"height word {text!r} is decreasing")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secplex",
        description="Section spaces, Reeb complexes and the section "
        "spectral sequence of a height function on a finite simplicial set.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="JSON input document")
    common.add_argument(
        "--field", type=int, default=None, help="prime field modulus (default 2)"
    )
    common.add_argument(
        "--max-degree", type=int, default=None, metavar="N",
        help="largest certified total degree (default 3)",
    )
    common.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility; has no effect",
    )
    common.add_argument(
        "--cap", type=int, default=DEFAULT_CAP,
        help="abort a block's enumeration beyond this many candidates "
             "(simplices sharing a face with an already chosen neighbour)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check simplicial identities and height monotonicity")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", parents=[common],
                       help="print levels, subdivision number and generator counts")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sections", parents=[common],
                       help="list sections over one height word")
    p.add_argument("--heights", type=_heights_arg, required=True,
                   metavar="a0,a1,...", help="non-decreasing height word")
    p.add_argument("--q", type=int, default=0, help="largest vertical degree")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("reeb", parents=[common],
                       help="print one Reeb complex with differentials and homology")
    p.add_argument("--q", type=int, default=0, help="vertical homology degree")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("reeb-graph", parents=[common],
                       help="Reeb graph of a subdivided height function (DOT)")
    p.set_defaults(func=cmd_reeb_graph)

    p = sub.add_parser("barcode", parents=[common],
                       help="barcode-style diagram of section-space homology")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--max-q", type=int, default=None,
                   help="largest homology degree tracked (default max-degree - 1)")
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("ss", parents=[common],
                       help="dump one page of the section spectral sequence")
    p.add_argument("--page", type=int, default=2, metavar="r")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("homology", parents=[common],
                       help="homology of the base space over the chosen field")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("diag-check", parents=[common],
                       help="compare base, total-complex and diagonal homology")
    p.set_defaults(func=cmd_diag_check)
    return parser


def _load(args, need_heights: bool = True):
    X, h, doc = load_document(args.input)
    if need_heights and h is None:
        raise InputFormatError(
            f'{args.input} has no "heights"; this command needs them'
        )
    modulus = args.field if args.field is not None else doc.get("field", 2)
    if not isinstance(modulus, int) or isinstance(modulus, bool):
        raise InputFormatError(f'"field" must be an integer, got {modulus!r}')
    degree = (
        args.max_degree if args.max_degree is not None else doc.get("max_degree", 3)
    )
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise InputFormatError('"max_degree" must be a nonnegative integer')
    return X, h, PrimeField(modulus), degree


def cmd_validate(args) -> int:
    X, h, _, _ = _load(args, need_heights=False)
    problems = X.validate()
    checks = sum(
        m * (m + 1) // 2 for m in X.gen_dim if m >= 2
    )
    if problems:
        for line in problems:
            print(f"identity violation: {line}")
    else:
        print(f"identities: ok ({checks} relations checked)")
    if h is None:
        print("heights: none")
    else:
        levels = validate_height(h)
        print(f"heights: monotone over {len(levels)} levels")
    return 1 if problems else 0


def cmd_info(args) -> int:
    X, h, _, _ = _load(args)
    counts = ", ".join(
        f"dim {d}: {X.n_generators(d)}" for d in range(X.top_dim + 1)
    )
    print(f"name: {X.name or '(unnamed)'}")
    print(f"generators: {counts}")
    print("levels: " + ", ".join(str(a) for a in h.levels))
    print(f"subdivision number: {subdivision_number(h)}")
    print(f"subdivided: {'true' if is_subdivided(h) else 'false'}")
    return 0


def cmd_sections(args) -> int:
    X, h, _, _ = _load(args)
    word = args.heights
    if args.q < 0:
        raise InputFormatError("--q must be nonnegative")
    blocks = []
    index: dict = {}  # rows of the previous block, where vertical faces land
    for q in range(args.q + 1):
        secs = [
            sec
            for sec in enumerate_sections(X, h, word, q, cap=args.cap)
            if not is_degenerate(X, sec, "v")
        ]
        faces = face_rows(X, secs, "v", index) if q else [[] for _ in secs]
        index = {sec: i for i, sec in enumerate(secs)}
        blocks.append((q, secs, faces))
    if args.json:
        doc = {
            "format": "sset-v1",
            "kind": "sections",
            "word": [str(a) for a in word],
            "blocks": [
                {
                    "q": q,
                    "sections": [
                        {
                            "images": [X.label(ref) for ref in sec.images],
                            "vertical_faces": rows,
                        }
                        for sec, rows in zip(secs, faces)
                    ],
                }
                for q, secs, faces in blocks
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"sections over word ({word_label(word)})")
    for q, secs, faces in blocks:
        print(f"q={q}: {len(secs)} sections")
        for i, (sec, rows) in enumerate(zip(secs, faces)):
            images = ", ".join(X.label(ref) for ref in sec.images)
            line = f"  #{i}: {images}"
            if q >= 1:
                shown = ", ".join("deg" if f is None else f"#{f}" for f in rows)
                line += f"   vertical faces: {shown}"
            print(line)
    return 0


def cmd_reeb(args) -> int:
    X, h, field, degree = _load(args)
    if args.q < 0:
        raise InputFormatError("--q must be nonnegative")
    s = subdivision_number(h)
    trunc = build_truncation(X, h, degree=max(degree, s + args.q), cap=args.cap)
    rc = reeb_complex(trunc, field, args.q)
    print(f"Reeb complex in vertical degree {args.q} over GF({field.p})")
    for p in range(s + 1):
        basis = rc.complex.labels.get(p, [])
        print(f"p={p}: dimension {len(basis)}")
        if basis:
            print("  basis: " + ", ".join(basis))
    for p in range(1, s + 1):
        M = rc.differential(p)
        if M.size == 0:
            continue
        print(f"differential p={p} ({M.shape[0]} x {M.shape[1]}), rank {field.rank(M)}:")
        for row in matrix_to_lists(M):
            print("  " + str(row))
    print(
        "homology: ("
        + ", ".join(str(rc.betti(p)) for p in range(s + 1))
        + ")"
    )
    return 0


def cmd_reeb_graph(args) -> int:
    X, h, _, _ = _load(args)
    graph = reeb_graph(X, h, cap=args.cap)
    sys.stdout.write(graph.to_dot())
    b0, b1 = graph.homology()
    print(f"// components: {b0}, independent cycles: {b1}")
    return 0


def cmd_barcode(args) -> int:
    X, h, field, degree = _load(args)
    max_q = args.max_q if args.max_q is not None else max(degree - 1, 0)
    trunc = build_truncation(X, h, degree=max(degree, max_q + 1), cap=args.cap)
    diagram = barcode_diagram(trunc, field, max_q=max_q)
    if args.format == "json":
        print(json.dumps(diagram.to_dict(), indent=2))
    else:
        sys.stdout.write(diagram.to_dot())
    return 0


def cmd_ss(args) -> int:
    X, h, field, degree = _load(args)
    if args.page < 0:
        raise InputFormatError("--page must be nonnegative")
    trunc = build_truncation(X, h, degree=degree, cap=args.cap)
    dc = double_complex(trunc)
    ss = SpectralSequence(dc, field)
    page = ss.page(args.page)
    if args.json:
        entries = []
        for (p, q), d in sorted(page.dims.items()):
            e = page.entries[(p, q)]
            reps = []
            lifted = balanced_lift(e.representatives, field.p)
            labels = [
                f"({pp},{p + q - pp})#{i}"
                for pp in range(p + q + 1)
                for i in range(dc.dim(pp, p + q - pp))
            ]
            for j in range(d):
                reps.append(
                    [
                        [labels[r], int(lifted[r, j])]
                        for r in range(lifted.shape[0])
                        if lifted[r, j]
                    ]
                )
            entry = {"p": p, "q": q, "dimension": d, "representatives": reps}
            M = page.differentials.get((p, q))
            if M is not None:
                entry["differential"] = matrix_to_lists(balanced_lift(M, field.p))
            entries.append(entry)
        print(
            json.dumps(
                {
                    "format": "sset-v1",
                    "kind": "spectral-page",
                    "page": args.page,
                    "field": field.p,
                    "window": degree,
                    "entries": entries,
                },
                indent=2,
            )
        )
        return 0
    print(f"page {args.page} over GF({field.p}), window: total degree <= {degree}")
    nonzero = page.nonzero()
    if not nonzero:
        print("all entries in the window vanish")
    for p, q, d in nonzero:
        print(f"  ({p},{q}) = {d}")
    for p, q in sorted(page.differentials):
        rank = page.differential_rank(p, q)
        if rank:
            print(
                f"  differential ({p},{q}) -> ({p - args.page},{q + args.page - 1}): "
                f"rank {rank}"
            )
    return 0


def cmd_homology(args) -> int:
    X, h, field, degree = _load(args)
    labels, faces = X.chain_data(degree + 1)
    cx = normalized_chains(field, labels, faces)
    for n in range(degree + 1):
        print(f"H_{n} = {cx.betti(n)}")
    return 0


def cmd_diag_check(args) -> int:
    X, h, field, degree = _load(args)
    report = convergence_check(X, h, field, degree=min(degree, 2), cap=args.cap)
    for line in report.lines():
        print(line)
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(
            f"error: {exc} (rerun with --max-degree {exc.required_degree} "
            "or higher)",
            file=sys.stderr,
        )
        return 1
    except SecplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
