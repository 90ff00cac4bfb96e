"""The ``gridlab`` command-line front end.

Exit codes: 0 verdict-true/success, 1 verdict-false (counterexample or
witness found against the claim), 2 inconclusive (a guard or time limit
fired), 64 usage errors, 65 bad input files, 70 internal errors (any other
exception, traceback on stderr). Output is deterministic for fixed inputs
(``--seed`` of ``ramsey reduce`` and ``acceptance`` included) and does not
depend on ``--workers``, which shards the counterexample search of ``ramsey
verify/search`` and ``extension partition-ramsey``. Search subcommands emit
digest-carrying certificates that ``gridlab verify`` re-runs and compares by
SHA-256 digest.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Optional, Sequence

from .booldim import boolean_dim, is_boolean_realizer
from .engine import NODE_GUARD, time_limit
from .errors import (
    ContractViolation,
    DomainError,
    GridlabError,
    GuardExceeded,
    InvalidInput,
    Record,
)
from .extension import (
    Partition,
    build_conforming_embedding,
    nonuniform_counterexample_demo,
    partition_ramsey_search,
)
from .graphs import bipartite_edge_decomposition, degeneracy_coloring, \
    find_mono_induced_subgraph, is_bipartite, is_proper_coloring
from .grids import Subgrid, casual_embeddings, core, grid, grid_size, unique_realizer_check
from .poset import LinearExtension, is_isomorphic, linear_extensions
from .ramsey import (
    KIND_COMPARABILITY,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    check_core_reduction,
    hash_coloring,
    min_ramsey_n,
    reduce_comparability_product,
    reduce_subposet_product,
    verify_at,
)

EX_TRUE = 0
EX_FALSE = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
_THRESHOLD_EXIT = {"found": EX_TRUE, "not-found": EX_FALSE, "inconclusive": EX_INCONCLUSIVE}
# `ramsey reduce --m`: the core reduction reads it; the comparability
# reduction has no m and accepts only this default.
_REDUCE_M = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class RunResult(Record, frozen=False):
    exit_code: int
    output: str = ""
    certificate: Optional[dict] = None
    out_written: bool = False  # the handler already used --out itself


def _workers(text: str) -> int:
    """A ``--workers`` or ``GRIDLAB_WORKERS`` value: a positive integer."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """A ``--time-limit`` value: a non-negative number; NaN would never fire."""
    try:
        if float(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative number, got {text!r}")


def _guard(text: str) -> int:
    """A guard or cap value (``--guard``, ``--guard-elements``, ``--cap``,
    ``--d-max``, ``--max-colors``): a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _env_workers() -> str:
    return os.environ.get("GRIDLAB_WORKERS", "1")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridlab", description=__doc__)
    # A string default is converted by argparse, so a bad GRIDLAB_WORKERS is a
    # usage error like a bad --workers.
    parser.add_argument("--workers", type=_workers,
                        default=_env_workers(),
                        help="parallel workers for counterexample searches "
                             "(default: GRIDLAB_WORKERS or 1)")
    sub = parser.add_subparsers(dest="group", required=True)

    p = sub.add_parser("poset", help="poset file utilities")
    psub = p.add_subparsers(dest="command", required=True)
    info = psub.add_parser("info")
    info.add_argument("file")
    ext = psub.add_parser("extensions")
    ext.add_argument("file")
    ext.add_argument("--cap", type=_guard, default=12)
    iso = psub.add_parser("isomorphic")
    iso.add_argument("file_a")
    iso.add_argument("file_b")

    g = sub.add_parser("grid", help="grids, casual embeddings, cores")
    gsub = g.add_subparsers(dest="command", required=True)
    gc = gsub.add_parser("core")
    gc.add_argument("--s", type=int, required=True)
    gc.add_argument("--out")
    gca = gsub.add_parser("casual")
    gca.add_argument("--s", type=int, required=True)
    gca.add_argument("--t", type=int, default=2)
    gca.add_argument("--out")
    gur = gsub.add_parser("unique-realizer")
    gur.add_argument("--s", type=int, required=True)
    gur.add_argument("--out")

    r = sub.add_parser("ramsey", help="coloring reductions and Ramsey search")
    rsub = r.add_subparsers(dest="command", required=True)
    for name in ("verify", "search"):
        cmd = rsub.add_parser(name)
        cmd.add_argument("--kind", required=True,
                         choices=["comparability", "subgrid", "subposet"])
        cmd.add_argument("--t", type=int, required=True)
        cmd.add_argument("--r", type=int, required=True)
        cmd.add_argument("--m", type=int)
        cmd.add_argument("--l", type=int)
        cmd.add_argument("--p-chain", type=int, dest="p_chain",
                         help="pattern chain side for the comparability kind")
        cmd.add_argument("--guard", "--guard-colorings", type=_guard,
                         dest="guard_colorings", default=NODE_GUARD,
                         help="node budget for the coloring search")
        cmd.add_argument("--time-limit", type=_seconds, default=None)
        cmd.add_argument("--out")
        if name == "verify":
            cmd.add_argument("--n", type=int, required=True)
        else:
            cmd.add_argument("--n-max", type=int, required=True, dest="n_max")
    red = rsub.add_parser("reduce")
    red.add_argument("--from", dest="source", required=True,
                     choices=["comparability", "subposet"])
    red.add_argument("--n", type=int, required=True)
    red.add_argument("--t", type=int, default=2)
    red.add_argument("--m", type=int, default=_REDUCE_M)
    red.add_argument("--r", type=int, default=None,
                     help="color count (default 2); must match a --coloring file's")
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--coloring", help="input comparability coloring file (no --seed)")
    red.add_argument("--out")

    b = sub.add_parser("bdim", help="Boolean dimension")
    bsub = b.add_subparsers(dest="command", required=True)
    bc = bsub.add_parser("compute")
    bc.add_argument("file")
    bc.add_argument("--d-max", type=_guard, default=3, dest="d_max")
    bc.add_argument("--guard-elements", type=_guard, default=6)
    bc.add_argument("--out")
    bk = bsub.add_parser("check")
    bk.add_argument("poset_file")
    bk.add_argument("realizer_file")

    e = sub.add_parser("extension", help="matching-extension machinery")
    esub = e.add_subparsers(dest="command", required=True)
    ee = esub.add_parser("embed")
    ee.add_argument("--poset", required=True)
    ee.add_argument("--k", type=int, required=True)
    ee.add_argument("--parts", required=True,
                    help="partition of the axes, e.g. '0,1|2|3'")
    ee.add_argument("--m-order", dest="m_order",
                    help="comma-separated element indices for the shared extension")
    ep = esub.add_parser("partition-ramsey")
    ep.add_argument("--s", type=int, required=True)
    ep.add_argument("--t", type=int, required=True)
    ep.add_argument("--r", type=int, required=True)
    ep.add_argument("--k-max", type=int, required=True, dest="k_max")
    ep.add_argument("--guard", type=_guard, default=NODE_GUARD)
    ep.add_argument("--out")
    ed = esub.add_parser("demo")
    ed.add_argument("--poset", required=True)
    ed.add_argument("--m1", required=True)
    ed.add_argument("--m2", required=True)

    gr = sub.add_parser("graph", help="planar-class refutation")
    grsub = gr.add_subparsers(dest="command", required=True)
    ref = grsub.add_parser("refute")
    ref.add_argument("--host", required=True)
    ref.add_argument("--pattern", required=True)
    ref.add_argument("--max-colors", type=_guard, default=6, dest="max_colors")
    ref.add_argument("--out")

    v = sub.add_parser("verify", help="re-run a certificate")
    v.add_argument("certificate")

    a = sub.add_parser("acceptance", help="run the acceptance criteria")
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--criterion", type=int, action="append")
    return parser


def _strip_out(argv: Sequence[str]) -> list[str]:
    """argv without ``--out PATH`` or ``--out=PATH``, also as any prefix of
    ``--out`` that argparse takes for it: no certificate records where it is
    written, so no digest depends on it and no re-run writes."""
    out = []
    skip = False
    for token in argv:
        name = token.partition("=")[0]
        if skip:
            skip = False
        elif len(name) > 2 and "--out".startswith(name):
            skip = name == token
        else:
            out.append(token)
    return out


def _parse_order(text: str) -> LinearExtension:
    try:
        return LinearExtension(tuple(int(tok) for tok in text.split(",")))
    except (ValueError, ContractViolation) as exc:
        raise InvalidInput(f"bad order {text!r}: {exc}") from exc


def _parse_parts(text: str) -> Partition:
    try:
        return Partition.of([[int(tok) for tok in part.split(",")]
                             for part in text.split("|")])
    except (ValueError, ContractViolation) as exc:
        raise InvalidInput(f"bad partition {text!r}: {exc}") from exc


def _format_points(points) -> str:
    return "{" + ",".join("(" + ",".join(str(c) for c in pt) + ")"
                          for pt in sorted(points)) + "}"


def _cmd_poset(args, argv) -> RunResult:
    from .fileio import load_poset
    if args.command == "info":
        p = load_poset(args.file)
        lines = [f"elements: {p.n}",
                 f"strict relations: {p.relation_count()}",
                 f"incomparable pairs: {sum(1 for _ in p.incomparable_pairs())}"]
        return RunResult(EX_TRUE, "\n".join(lines))
    if args.command == "extensions":
        p = load_poset(args.file)
        exts = linear_extensions(p, cap=args.cap)
        labels = p.labels or [str(i) for i in range(p.n)]
        lines = [f"linear extensions: {len(exts)}"]
        lines += [" ".join(labels[x] for x in e.order) for e in exts]
        return RunResult(EX_TRUE, "\n".join(lines))
    p = load_poset(args.file_a)
    q = load_poset(args.file_b)
    mapping = is_isomorphic(p, q)
    if mapping is None:
        return RunResult(EX_FALSE, "not isomorphic")
    return RunResult(EX_TRUE, "isomorphic via " + " ".join(map(str, mapping)))


def _cmd_grid(args, argv) -> RunResult:
    if args.command == "core":
        if args.s < 1:
            raise ContractViolation("cores need s >= 1")
        points = core(Subgrid.full(args.s * args.s, 2))
        text = _format_points(points)
        cert = _certificate(argv, {"s": args.s}, "core",
                            [list(pt) for pt in sorted(points)])
        return RunResult(EX_TRUE, text, cert)
    if args.command == "casual":
        embs = casual_embeddings(args.s, args.t)
        lines = [f"casual embeddings of {args.s}^{args.t}: {len(embs)}"]
        for emb in embs:
            lines.append(_format_points(emb.images))
        cert = _certificate(argv, {"s": args.s, "t": args.t}, "enumerated",
                            [[list(img) for img in emb.images] for emb in embs])
        return RunResult(EX_TRUE, "\n".join(lines), cert)
    report = unique_realizer_check(args.s)
    verdict = report.unique and report.matches_lex_colex
    lines = [f"extensions: {report.extension_count}",
             f"realizer pairs: {len(report.realizer_pairs)}",
             f"unique and equal to {{lex, colex}}: {verdict}",
             f"obstruction I1: {report.obstruction_i1}",
             f"obstruction I2: {report.obstruction_i2}"]
    cert = _certificate(
        argv, {"s": args.s}, "unique" if verdict else "not-unique",
        {"extensions": report.extension_count,
         "pairs_checked": report.pairs_checked,
         "i1": [[list(x), list(y)] for x, y in report.obstruction_i1],
         "i2": [[list(x), list(y)] for x, y in report.obstruction_i2]})
    return RunResult(EX_TRUE if verdict else EX_FALSE, "\n".join(lines), cert)


def _cmd_ramsey(args, argv) -> RunResult:
    from .fileio import coloring_items, load_coloring, product_assignment, save_assignment
    if args.command == "reduce":
        # Every refusal comes before the grid is built, which takes seconds at t = 3.
        grid_size(args.n, args.t)
        r = 2 if args.r is None else args.r
        if args.source == "comparability":
            if args.m != _REDUCE_M:
                raise _UsageError("--m does not apply to --from comparability")
            if args.coloring and args.seed:
                raise _UsageError("--seed does not apply to a --coloring file")
            g = grid(args.n, args.t)
            if args.coloring:
                c = load_coloring(args.coloring, g)
                if args.r is not None and args.r != c.r:
                    raise InvalidInput(f"{args.coloring}: a {c.r}-coloring, not --r {args.r}")
                r = c.r
            else:
                c = hash_coloring(KIND_COMPARABILITY, r, args.seed)
            axes, colors = reduce_comparability_product(c, g)
        else:
            if args.coloring:
                raise _UsageError("--coloring needs --from comparability")
            check_core_reduction(args.n, args.t, args.m)
            g = grid(args.n, args.t)
            c = hash_coloring(KIND_SUBPOSET, r, args.seed)
            axes, colors = reduce_subposet_product(c, g, args.m)
        items, items_text = product_assignment(axes, colors)
        if args.out:
            save_assignment(args.out, KIND_SUBGRID, r, g, items)
        text = f"reduced {len(colors)} subgrid keys, colors used: {sorted(set(colors))}"
        cert = _certificate(argv,
                            {"from": args.source, "n": args.n, "t": args.t,
                             "m": args.m, "r": r, "seed": args.seed},
                            "reduced", items, items_text)
        return RunResult(EX_TRUE, text, cert, out_written=bool(args.out))

    # verify and search: the kind's pattern sizes (m, l)
    m, l = args.m, args.l
    if args.kind == "comparability":
        if m is not None:
            raise _UsageError("--m does not apply to the comparability kind")
        if l is not None and args.p_chain is not None:
            raise _UsageError("--l and --p-chain both give the pattern chain; give one")
        l = l if args.p_chain is None else args.p_chain
        if l is None:
            raise _UsageError("the comparability kind needs --p-chain or --l")
    elif args.p_chain is not None:
        raise _UsageError("--p-chain applies to the comparability kind only")
    elif m is None or l is None:
        raise _UsageError("grid kinds need --m and --l")
    size = {"n": args.n} if args.command == "verify" else {"n_max": args.n_max}
    params = {"kind": args.kind, "t": args.t, "r": args.r, "m": args.m,
              "l": args.l, "p_chain": args.p_chain, **size}
    guards = {"node_guard": args.guard_colorings, "workers": args.workers}
    if args.command == "verify":
        with time_limit(args.time_limit):
            verdict = verify_at(args.kind, args.t, args.r, m, l, args.n, **guards)
        witness = None
        if verdict.counterexample is not None:
            witness = coloring_items(verdict.counterexample, grid(args.n, args.t))
        cert = _certificate(argv, params, verdict.status, witness)
        lines = [f"verdict: {verdict.status}"]
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        code = {"true": EX_TRUE, "false": EX_FALSE,
                "inconclusive": EX_INCONCLUSIVE}[verdict.status]
        return RunResult(code, "\n".join(lines), cert)

    with time_limit(args.time_limit):
        result = min_ramsey_n(args.t, args.r, m, l, args.kind, args.n_max, **guards)
    return _threshold(argv, params, result, "n", args.n_max, lambda n: grid(n, args.t))


def _cmd_bdim(args, argv) -> RunResult:
    from .fileio import load_boolean_realizer, load_poset
    if args.command == "compute":
        p = load_poset(args.file)
        result = boolean_dim(p, d_max=args.d_max,
                             guard_elements=args.guard_elements)
        if result.dim is None:
            cert = _certificate(argv, {"file": "poset", "d_max": args.d_max}, "none", None)
            return RunResult(EX_FALSE,
                             f"no Boolean realizer with d <= {args.d_max}", cert)
        witness = {"orders": [list(o) for o in result.realizer.orders],
                   "accepted": sorted(result.realizer.accepted)}
        cert = _certificate(argv, {"file": "poset", "d_max": args.d_max},
                            f"dim={result.dim}", witness)
        lines = [f"boolean dimension: {result.dim}",
                 f"accepted: {sorted(result.realizer.accepted)}"]
        return RunResult(EX_TRUE, "\n".join(lines), cert)
    p = load_poset(args.poset_file)
    br = load_boolean_realizer(args.realizer_file)
    ok = is_boolean_realizer(p, br)
    return RunResult(EX_TRUE if ok else EX_FALSE,
                     "valid boolean realizer" if ok else "not a boolean realizer")


def _cmd_extension(args, argv) -> RunResult:
    from .fileio import load_poset
    if args.command == "embed":
        x = load_poset(args.poset)
        psi = _parse_parts(args.parts)
        if args.m_order:
            m = _parse_order(args.m_order)
        else:
            m = linear_extensions(x)[0]
        emb = build_conforming_embedding(x, m, args.k, psi)
        labels = x.labels or [str(i) for i in range(x.n)]
        lines = [f"embedding into grid({x.n}, {emb.t})"]
        lines += [f"{labels[i]} -> {chi}" for i, chi in enumerate(emb.heights)]
        return RunResult(EX_TRUE, "\n".join(lines))
    if args.command == "partition-ramsey":
        result = partition_ramsey_search(args.s, args.t, args.r, args.k_max,
                                         node_guard=args.guard, workers=args.workers)
        return _threshold(argv, {"s": args.s, "t": args.t, "r": args.r, "k_max": args.k_max},
                          result, "k", args.k_max, lambda k: None)
    x = load_poset(args.poset)
    report = nonuniform_counterexample_demo(x, _parse_order(args.m1),
                                            _parse_order(args.m2))
    labels = x.labels or [str(i) for i in range(x.n)]
    a, b = report.conflict_pair
    return RunResult(EX_TRUE,
                     f"conflict pair: ({labels[a]}, {labels[b]}); no single "
                     f"extension can conform to both orders")


def _cmd_graph(args, argv) -> RunResult:
    from .fileio import load_graph
    host = load_graph(args.host)
    pattern = load_graph(args.pattern)
    colors = degeneracy_coloring(host)
    used = len(set(colors))
    if used > args.max_colors:
        raise InvalidInput(
            f"host needs {used} colors; not {args.max_colors - 1}-degenerate")
    if not is_proper_coloring(host, colors):
        raise ContractViolation("greedy coloring is not proper")
    ec = bipartite_edge_decomposition(host, colors)
    for c in ec.color_set():
        ok, _ = is_bipartite(ec.class_graph(c))
        if not ok:
            raise ContractViolation(f"decomposition class {c} is not bipartite")
    pattern_bipartite, _ = is_bipartite(pattern)
    found = find_mono_induced_subgraph(host, pattern, ec)
    params = {"host_n": host.n, "pattern_n": pattern.n,
              "classes": len(ec.color_set()),
              "pattern_bipartite": pattern_bipartite}
    if found is None:
        cert = _certificate(argv, params, "no-monochromatic-copy", None)
        return RunResult(EX_TRUE,
                         f"{len(ec.color_set())} bipartite classes; no "
                         f"monochromatic induced copy of the pattern", cert)
    color, image = found
    cert = _certificate(argv, params, "monochromatic-copy",
                        {"class": color, "image": list(image)})
    return RunResult(EX_FALSE,
                     f"monochromatic copy in class {color}: {list(image)}", cert)


def _cmd_verify(args, argv) -> RunResult:
    from .fileio import certificate_head, parse_certificate, read_text
    path = args.certificate
    text = read_text(path)
    # A canonical file whose text hashes to its digest is answered from its
    # head. Any answer but "reproduced" needs the whole file to parse with
    # the payload's own digest.
    head = certificate_head(text)
    if head is None:
        cert = parse_certificate(path, text)
        head = cert["command"], cert["digest"]
    command, digest = head
    _refuse_verify(path, command)
    try:
        rerun = run(_strip_out(command))
    except Exception:
        parse_certificate(path, text)
        raise
    if rerun.certificate is not None and rerun.certificate["digest"] == digest:
        return RunResult(EX_TRUE, "certificate reproduced bit-exactly")
    parse_certificate(path, text)
    if rerun.certificate is None:
        if rerun.exit_code not in (EX_TRUE, EX_FALSE):
            return rerun  # a failed re-run keeps its own exit code, never "false"
        return RunResult(EX_DATAERR, "re-run produced no certificate")
    return RunResult(EX_FALSE, "re-run did not reproduce the certificate")


def _refuse_verify(path, command) -> None:
    """A certificate that re-runs ``verify`` would verify itself without end.

    A ``verify`` run writes no certificate, so no real certificate holds one.
    """
    try:
        group = _parser().parse_args(command).group
    except _UsageError:
        return  # the re-run answers 64 itself
    if group == "verify":
        raise InvalidInput(f"{path}: a certificate cannot re-run verify")


def _cmd_acceptance(args, argv) -> RunResult:
    from .acceptance import CRITERIA, DEFAULT_SEED, run_acceptance
    unknown = set(args.criterion or ()) - CRITERIA.keys()
    if unknown:
        raise _UsageError(f"argument --criterion: no criterion {min(unknown)} "
                          f"(choose from 1..{max(CRITERIA)})")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    results = run_acceptance(seed=seed, only=args.criterion)
    lines = [r.line() for r in results]
    for r in results:
        lines += [f"  {d}" for d in r.details]
    ok = all(r.passed for r in results)
    return RunResult(EX_TRUE if ok else EX_FALSE, "\n".join(lines))


def _threshold(argv, params, result, size: str, size_max: int, host) -> RunResult:
    """The certificate, line and exit code of a threshold scan over the sizes
    called ``size``, up to ``size_max``. Each counterexample is written by
    ``coloring_items`` against ``host(size)``, the grid its keys name (None
    when no key names a grid element)."""
    from .fileio import coloring_items
    witness = {f"{size}_found": result.found,
               "statuses": {str(x): v.status for x, v in result.verdicts.items()},
               "counterexamples": {str(x): coloring_items(c, host(x))
                                   for x, c in result.counterexamples().items()}}
    cert = _certificate(argv, params, result.status, witness)
    text = (f"minimal {size}: {result.found}" if result.found is not None
            else f"no {size} <= {size_max} ({result.status})")
    return RunResult(_THRESHOLD_EXIT[result.status], text, cert)


def _certificate(command, parameters, verdict, witness, witness_text=None) -> dict:
    from .fileio import make_certificate
    return make_certificate(command, parameters, verdict, witness, witness_text)


_PARSER: Optional[_Parser] = None


def _parser() -> _Parser:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    _PARSER.set_defaults(workers=_env_workers())  # read per call, like a fresh parser
    return _PARSER


def run(argv: Sequence[str]) -> RunResult:
    """Parse and execute; returns output, exit code, and any certificate."""
    try:
        args = _parser().parse_args(list(argv))
        handler = {
            "poset": _cmd_poset,
            "grid": _cmd_grid,
            "ramsey": _cmd_ramsey,
            "bdim": _cmd_bdim,
            "extension": _cmd_extension,
            "graph": _cmd_graph,
            "verify": _cmd_verify,
            "acceptance": _cmd_acceptance,
        }[args.group]
        result = handler(args, _strip_out(argv))
        out_path = getattr(args, "out", None)
        if out_path and result.certificate is not None and not result.out_written:
            from .fileio import save_certificate
            save_certificate(out_path, result.certificate)
        return result
    except _UsageError as exc:
        return RunResult(EX_USAGE, f"usage error: {exc}")
    except GuardExceeded as exc:
        return RunResult(EX_INCONCLUSIVE, f"inconclusive: {exc}")
    except (InvalidInput, DomainError, ContractViolation) as exc:
        return RunResult(EX_DATAERR, f"input error: {exc}")
    except GridlabError as exc:
        return RunResult(EX_DATAERR, f"error: {exc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        result = run(sys.argv[1:] if argv is None else list(argv))
    except Exception:
        # A crash must never read as a verdict: exit 1 means "false".
        traceback.print_exc()
        return EX_SOFTWARE
    if result.output:
        print(result.output)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
