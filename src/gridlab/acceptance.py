"""The acceptance gate: one runnable check per criterion, exact tolerances.

Each criterion returns a CriterionResult; the runner prints one PASS/FAIL
line per criterion. Everything is seeded and deterministic, and criterion 10
re-runs certificate-producing commands to assert byte-identical output.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import Callable, Iterable, Optional

from .booldim import boolean_dim, is_boolean_realizer, reconstruct_realizer
from .errors import ContractViolation, Record
from .extension import (
    Partition,
    all_good_check,
    antipodal_pairs,
    build_conforming_embedding,
    coarsenings,
    pair_to_partition,
    partition_ramsey_search,
    partition_to_pair,
    partitions_of_range,
)
from .graphs import (
    bipartite_edge_decomposition,
    degeneracy_coloring,
    find_mono_induced_subgraph,
    Graph,
    is_bipartite,
    is_proper_coloring,
    random_degenerate_graph,
)
from .grids import Subgrid, casual_embeddings, core, core_elements, enumerate_subgrids, \
    grid, unique_realizer_check
from .poset import (
    Poset,
    count_linear_extensions,
    dimension,
    find_realizer,
    induced_embeddings,
    induced_subposet,
    is_alternating_cycle,
    is_isomorphic,
    is_realizer,
    iter_bits,
    linear_extensions,
    make_antichain,
    make_chain,
    order_embedding_violation,
)
from .ramsey import (
    KIND_COMPARABILITY,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    FunctionColoring,
    find_monochromatic_copy,
    find_monochromatic_subgrid,
    hash_coloring,
    min_ramsey_n,
    reduce_comparability_to_subgrid,
    reduce_subposet_to_subgrid,
)

DEFAULT_SEED = 20260810


class CriterionResult(Record, frozen=False):
    number: int
    name: str
    passed: bool
    details: list[str]  # a fresh list by default
    seconds: float = 0.0

    def __init__(self, number: int, name: str, passed: bool,
                 details: Optional[list[str]] = None, seconds: float = 0.0):
        Record.__init__(self, number, name, passed, [] if details is None else details, seconds)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} ({self.seconds:.1f}s)"


def _check(result: CriterionResult, ok: bool, message: str) -> None:
    if not ok:
        result.passed = False
        result.details.append(f"violation: {message}")


# -- criterion 1: Lemma 6.3 exhaustive ------------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult(1, "two-extension realizer of s^2 is unique and {lex, colex}", True)
    expected_counts = {2: 2, 3: 42}
    for s, count in expected_counts.items():
        report = unique_realizer_check(s)
        _check(res, report.extension_count == count,
               f"s={s}: {report.extension_count} extensions, expected {count}")
        _check(res, count_linear_extensions(grid(s, 2)) == count,
               f"s={s}: recursive counter disagrees")
        _check(res, report.unique, f"s={s}: realizer pair not unique")
        _check(res, report.matches_lex_colex, f"s={s}: pair is not {{lex, colex}}")
        _check(res, report.method == "pairs+forced",
               f"s={s}: all-pairs scan did not run")
        g = grid(s, 2)
        for (x1, y1) in report.obstruction_i1:
            for (x2, y2) in report.obstruction_i2:
                pairs = [(g.index(x1), g.index(y1)), (g.index(x2), g.index(y2))]
                _check(res, is_alternating_cycle(g, pairs),
                       f"s={s}: obstruction cross pair is not an alternating cycle")
        res.details.append(f"s={s}: {count} extensions, {report.pairs_checked} pairs scanned")
    return res


# -- criterion 2: Lemma 6.4 exhaustive ------------------------------------------------


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult(2, "exactly two casual embeddings of 2^2 into 4^2, shared image", True)
    embs = casual_embeddings(2, 2)
    _check(res, len(embs) == 2, f"found {len(embs)} embeddings, expected 2")
    if len(embs) == 2:
        _check(res, embs[0].image_set() == embs[1].image_set(),
               "image sets differ between the two embeddings")
        g = grid(2, 2)
        for x in range(4):
            i, j = g.coords(x)
            _check(res, embs[0].images[x] == (2 * i + j, 2 * j + i),
                   f"lex-first image of {(i, j)} is {embs[0].images[x]}")
        res.details.append(f"image set {sorted(embs[0].image_set())}")
    return res


# -- criterion 3: Thm 6.2 reduction soundness at figure scale ---------------------------


def criterion_3(seed: int = DEFAULT_SEED, seeds: int = 100) -> CriterionResult:
    res = CriterionResult(3, "core reduction sound at m=2, l=3, n=9 over "
                             f"{seeds} seeded colorings", True)
    g = grid(9, 2)
    subgrids = list(enumerate_subgrids(9, 2, 4))
    cores = {sub.axes: core_elements(sub, g) for sub in subgrids}
    # (a) the reduced coloring agrees with c1-at-the-core on every 4-side subgrid
    for i in range(seeds):
        c1 = hash_coloring(KIND_SUBPOSET, 2, seed + i)
        c2 = reduce_subposet_to_subgrid(c1, g, 2)
        for sub in subgrids:
            if c2.assignment[sub.axes] != c1.color_of(cores[sub.axes]):
                _check(res, False, f"seed {seed + i}: c2 disagrees at {sub.axes}")
                break
    # cross-route: the core formula agrees with the casual-embedding image
    emb_image = casual_embeddings(2, 2)[0].image_set()
    rng = random.Random(seed)
    for _ in range(50):
        s1 = tuple(sorted(rng.sample(range(9), 4)))
        s2 = tuple(sorted(rng.sample(range(9), 4)))
        sub = Subgrid.of(s1, s2)
        via_embedding = frozenset((s1[a], s2[b]) for a, b in emb_image)
        _check(res, core(sub) == via_embedding,
               f"core formula and embedding image differ on {sub.axes}")
    # (b) projection rebuild: the core of every 4-side subgrid round-trips
    for sub in subgrids:
        pts = core(sub)
        s1 = tuple(sorted({p[0] for p in pts}))
        s2 = tuple(sorted({p[1] for p in pts}))
        _check(res, (s1, s2) == sub.axes, f"projections of core({sub.axes}) differ")
        _check(res, core(Subgrid.of(s1, s2)) == pts,
               f"core round-trip failed at {sub.axes}")
    # (b) at figure scale: every 2^2 subposet D of the core of the 9-side grid
    core_pts = sorted(core(Subgrid.full(9, 2)))
    g22 = grid(2, 2)
    checked = 0
    for quad in combinations(core_pts, 4):
        elems = [g.index(c) for c in quad]
        if is_isomorphic(induced_subposet(g, elems), g22) is None:
            continue
        checked += 1
        s1 = tuple(sorted(c[0] for c in quad))
        s2 = tuple(sorted(c[1] for c in quad))
        _check(res, core(Subgrid.of(s1, s2)) == frozenset(quad),
               f"D = {quad} is not the core of its projection subgrid")
    _check(res, checked > 0, "no 2^2 subposets found inside the core")
    res.details.append(f"{len(subgrids)} subgrids x {seeds} colorings; "
                       f"{checked} core subposets round-tripped")
    return res


# -- criterion 4: Prop 5.2 reduction soundness at n=4 -----------------------------------


def criterion_4(seed: int = DEFAULT_SEED, seeds: int = 100) -> CriterionResult:
    res = CriterionResult(4, "comparability reduction sound at n=4, t=2 over "
                             f"{seeds} seeded colorings", True)
    g = grid(4, 2)
    embeddings = casual_embeddings(2, 2)
    mono_events = 0
    for i in range(seeds):
        if i % 5 == 0:
            fixed = 1 + (i // 5) % 2
            c = FunctionColoring(KIND_COMPARABILITY, 2, lambda key, _f=fixed: _f)
        elif i % 5 == 1:
            c = hash_coloring(KIND_COMPARABILITY, 2, seed + i, bias_color=1, bias=0.95)
        else:
            c = hash_coloring(KIND_COMPARABILITY, 2, seed + i)
        reduced = reduce_comparability_to_subgrid(c, g)
        colors = set(reduced.assignment.values())
        if len(colors) != 1:
            continue
        mono_events += 1
        r0 = colors.pop()
        for emb in embeddings:
            elems = [g.index(coords) for coords in emb.images]
            for a, b in combinations(elems, 2):
                if g.comparable(a, b):
                    key = (a, b) if g.lt(a, b) else (b, a)
                    if c.color_of(key) != r0:
                        _check(res, False,
                               f"seed {seed + i}: casual copy pair {key} has "
                               f"color {c.color_of(key)} != {r0}")
    _check(res, mono_events >= 20, f"only {mono_events} monochromatic events")
    res.details.append(f"{mono_events} monochromatic reduced colorings exercised")
    return res


# -- criterion 5: Ramsey thresholds by brute force --------------------------------------


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult(5, "exact thresholds: pigeonhole 3, chain-triangle 6, "
                             "grid cells 5", True)
    pigeon = min_ramsey_n(1, 2, 1, 2, KIND_SUBGRID, 6)
    _check(res, pigeon.found == 3, f"pigeonhole threshold {pigeon.found} != 3")

    chain3 = min_ramsey_n(1, 2, 2, 3, KIND_COMPARABILITY, 7)
    _check(res, chain3.found == 6, f"chain-3 threshold {chain3.found} != 6")
    cex5 = chain3.verdicts.get(5)
    _check(res, cex5 is not None and cex5.counterexample is not None,
           "no archived counterexample at n=5")
    if cex5 and cex5.counterexample:
        escaped = find_monochromatic_copy(make_chain(5), make_chain(3),
                                          cex5.counterexample)
        _check(res, escaped is None, "archived n=5 coloring is not witness-free")

    cells = min_ramsey_n(2, 2, 1, 2, KIND_SUBGRID, 6)
    _check(res, cells.found == 5, f"grid-cell threshold {cells.found} != 5")
    archived = cells.counterexamples()
    _check(res, sorted(archived) == [2, 3, 4],
           f"archived counterexamples at {sorted(archived)}, expected [2, 3, 4]")
    for n, coloring in archived.items():
        _check(res, find_monochromatic_subgrid(n, 2, 1, 2, coloring) is None,
               f"archived n={n} cell coloring is not witness-free")
    res.details.append("thresholds 3 / 6 / 5 with counterexamples validated below each")
    return res


# -- criterion 6: Boolean dimension ------------------------------------------------------


def _all_posets_up_to_iso(n: int) -> list[Poset]:
    """Unlabeled posets on n elements, via upper-triangular closed relations."""
    reps: list[Poset] = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        up = [0] * n
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                up[i] |= 1 << j
        if any(up[j] & ~up[i] for i in range(n) for j in iter_bits(up[i])):
            continue  # not transitive
        p = Poset(up)
        if not any(is_isomorphic(p, q) for q in reps):
            reps.append(p)
    return reps


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    res = CriterionResult(6, "Boolean dimension: 1 on chains/antichains, 2 on the "
                             "grid, <= dim on all posets up to 5 elements", True)
    for k in range(1, 7):
        for p, name in ((make_chain(k), "chain"), (make_antichain(k), "antichain")):
            got = boolean_dim(p, d_max=2)
            _check(res, got.dim == 1, f"{name}({k}) has Boolean dimension {got.dim}")
            _check(res, got.realizer is not None and is_boolean_realizer(p, got.realizer),
                   f"{name}({k}) witness invalid")
    g = grid(2, 2)
    got = boolean_dim(g, d_max=3)
    _check(res, got.dim == 2, f"2^2 grid has Boolean dimension {got.dim}")
    _check(res, got.realizer is not None and is_boolean_realizer(g, got.realizer),
           "2^2 grid witness invalid")
    expected_counts = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
    swept = 0
    for n, expected in expected_counts.items():
        posets = _all_posets_up_to_iso(n)
        _check(res, len(posets) == expected,
               f"{len(posets)} posets on {n} elements, expected {expected}")
        for p in posets:
            d = dimension(p, max_d=3)
            bd = boolean_dim(p, d_max=d)
            swept += 1
            _check(res, bd.dim is not None and bd.dim <= d,
                   f"dim_B > dim on a {n}-element poset")
    res.details.append(f"{swept} posets swept (1+2+5+16+63 = 87)")
    return res


# -- criterion 7: Prop 3.1 reconstruction -------------------------------------------------


def _random_poset(rng: random.Random, n: int) -> Poset:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    up = [0] * n
    for i, j in pairs:
        if rng.random() < 0.4:
            up[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    return Poset(up)


def criterion_7(seed: int = DEFAULT_SEED, instances: int = 50) -> CriterionResult:
    res = CriterionResult(7, "signature-driven realizer reconstruction on "
                             f">= {instances} instances", True)
    from .booldim import BooleanRealizer, signature as pair_signature

    rng = random.Random(seed)
    built = 0
    raised = 0
    while built + raised < instances:
        n = rng.randint(4, 6)
        p = _random_poset(rng, n)
        d = dimension(p, max_d=3)
        rz = find_realizer(p, d)
        if rz is None:
            continue
        if built < (instances * 2 + 2) // 3:
            # Dual-twisted realizer: every comparable pair signs the same string.
            flips = [rng.random() < 0.5 for _ in range(d)]
            orders = tuple(
                (ext.dual() if flip else ext).order
                for ext, flip in zip(rz.extensions, flips))
            signature_str = "".join("0" if flip else "1" for flip in flips)
            br = BooleanRealizer(orders, frozenset({signature_str}))
            if not is_boolean_realizer(p, br):
                _check(res, False, "constructed Boolean realizer failed validation")
                break
            copy = sorted(rng.sample(range(n), rng.randint(2, min(4, n))))
            rz2 = reconstruct_realizer(p, br, copy, signature_str)
            sub = induced_subposet(p, copy)
            _check(res, is_realizer(sub, rz2.extensions),
                   "reconstructed extensions are not a realizer")
            built += 1
        else:
            # Random consistent orders; pick a copy whose comparable pairs
            # carry at least two signatures, then demand one of them.
            orders = tuple(tuple(rng.sample(range(n), n)) for _ in range(d + 1))
            comp_sigs = {(x, y): pair_signature(x, y, orders)
                         for x in range(n) for y in range(n) if p.lt(x, y)}
            non_sigs = {pair_signature(x, y, orders)
                        for x in range(n) for y in range(n)
                        if x != y and not p.lt(x, y)}
            if set(comp_sigs.values()) & non_sigs:
                continue
            br = BooleanRealizer(orders, frozenset(comp_sigs.values()))
            copy = None
            for _ in range(20):
                cand = sorted(rng.sample(range(n), rng.randint(3, n)))
                sigs = {s for (x, y), s in comp_sigs.items()
                        if x in cand and y in cand}
                if len(sigs) >= 2:
                    copy = cand
                    break
            if copy is None:
                continue
            want = sorted(sigs)[0]
            try:
                reconstruct_realizer(p, br, copy, want)
                _check(res, False, "non-monochromatic copy did not raise")
            except ContractViolation as exc:
                pair = getattr(exc, "offending_pair", None)
                ok = (pair is not None and pair[0] in copy and pair[1] in copy
                      and comp_sigs[pair] != want)
                _check(res, ok, "offending pair missing or wrong")
            raised += 1
    res.details.append(f"{built} reconstructions validated, {raised} rejections raised")
    return res


# -- criterion 8: extension-lab -----------------------------------------------------------


def _random_partition(rng: random.Random, ground: int, parts: int) -> Partition:
    labels = list(range(ground))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, ground), parts - 1))
    chunks = []
    prev = 0
    for cut in cuts + [ground]:
        chunks.append(labels[prev:cut])
        prev = cut
    return Partition.of(chunks)


def criterion_8(seed: int = DEFAULT_SEED, instances: int = 50) -> CriterionResult:
    res = CriterionResult(8, "antipodal counts, partition bijection, all-good "
                             "certificates, conforming embeddings, Rothschild search", True)
    for t in range(2, 11):
        _check(res, len(antipodal_pairs(t)) == 2 ** (t - 1) - 1,
               f"antipodal count wrong at t={t}")
    for t in range(2, 9):
        for pair in antipodal_pairs(t):
            _check(res, partition_to_pair(pair_to_partition(pair)) == pair,
                   f"bijection round trip failed for {pair.low}")
    rng = random.Random(seed)
    for _ in range(instances):
        t = rng.randint(3, 7)
        parts = rng.randint(3, min(t, 4))
        psi = _random_partition(rng, t, parts)
        k = rng.randint(1, min(t, 3))
        r0 = "".join(rng.choice("GB") for _ in range(k))
        if "B" not in r0:
            r0 = r0[:-1] + "B"
        colors = {two.canonical(): r0 for two in coarsenings(psi, 2)}
        verdict = all_good_check(psi, colors)
        _check(res, not verdict.verdict, "a B digit passed the all-good check")
        cert = verdict.certificate
        _check(res, cert is not None and
               is_alternating_cycle(cert.cube(), cert.cycle_pairs),
               "certificate is not a valid alternating cycle")
    embedded = 0
    while embedded < instances:
        n = rng.randint(3, 5)
        x = _random_poset(rng, n)
        exts = linear_extensions(x)
        m = rng.choice(exts)
        s = dimension(x, max_d=3) + rng.randint(0, 1)
        k = rng.randint(1, 2)
        total_parts = s + k
        t = total_parts + rng.randint(0, 2)
        axes = list(range(t))
        parts = [[axes[i]] for i in range(total_parts)]
        for extra in axes[total_parts:]:
            parts[rng.randrange(total_parts)].append(extra)
        psi = Partition.of(parts)
        emb = build_conforming_embedding(x, m, k, psi)
        first_axes = set()
        for part in psi.parts[:k]:
            first_axes |= set(part)
        _check(res, all(1 <= h <= x.n for chi in emb.heights for h in chi),
               "height out of range")
        _check(res, order_embedding_violation(x, emb.heights) is None,
               "embedding validation mismatch")
        for a in range(x.n):
            for b in range(x.n):
                if a != b and m.before(a, b):
                    for axis in first_axes:
                        _check(res, emb.heights[a][axis] <= emb.heights[b][axis],
                               "pair increasing in m has digit 1 on a shared axis")
        embedded += 1
    for s_eq_t in (2, 3):
        got = partition_ramsey_search(s_eq_t, s_eq_t, 3, s_eq_t + 2)
        _check(res, got.found == s_eq_t, f"s=t={s_eq_t} should give k0={s_eq_t}")
    roth = partition_ramsey_search(2, 3, 2, 7)
    _check(res, roth.found == 6, f"(s=2,t=3,r=2) gave {roth.found}, expected 6")
    for k, cex in roth.counterexamples().items():
        for pi in partitions_of_range(k, 3):
            colors = {cex.color_of(c.parts) for c in coarsenings(pi, 2)}
            _check(res, len(colors) > 1,
                   f"archived k={k} coloring has a monochromatic 3-partition")
    res.details.append(f"{instances} cycle certificates, {embedded} embeddings, "
                       f"Rothschild (2,3,2) -> 6")
    return res


# -- criterion 9: graph refutation ----------------------------------------------------------


def _graphs_up_to_iso(n: int) -> list[Graph]:
    """Unlabeled graphs on n vertices: the first edge mask of each class, told
    apart from the kept graphs with as many edges by an equal-size induced
    embedding, that is an isomorphism."""
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1

    def isomorphic(g: Graph, h: Graph) -> bool:
        non = [full ^ row for row in h.adj]
        checks = [[(u, h.adj if g.has_edge(u, v) else non) for u in range(v)] for v in range(n)]
        return next(induced_embeddings(range(n), checks, [full] * n), None) is not None

    reps: dict[int, list[Graph]] = {}  # edge count -> the kept graphs
    out = []
    for mask in range(1 << len(pairs)):
        g = Graph(n, [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1])
        kept = reps.setdefault(mask.bit_count(), [])
        if not any(isomorphic(g, h) for h in kept):
            kept.append(g)
            out.append(g)
    return out


def criterion_9(seed: int = DEFAULT_SEED, hosts: int = 20) -> CriterionResult:
    res = CriterionResult(9, "bipartite decomposition refutes every non-bipartite "
                             f"pattern on {hosts} seeded hosts", True)
    patterns = []
    expected_counts = {3: 4, 4: 11, 5: 34}
    for n, expected in expected_counts.items():
        graphs = _graphs_up_to_iso(n)
        _check(res, len(graphs) == expected,
               f"{len(graphs)} graphs on {n} vertices, expected {expected}")
        patterns.extend(g for g in graphs if not is_bipartite(g)[0])
    _check(res, len(patterns) >= 20, f"only {len(patterns)} non-bipartite patterns")
    searches = 0
    for i in range(hosts):
        rng = random.Random(seed + i)
        host = random_degenerate_graph(rng.randint(24, 30), 5, rng)
        _check(res, host.degeneracy() <= 5, f"host {i} is not 5-degenerate")
        colors = degeneracy_coloring(host)
        _check(res, is_proper_coloring(host, colors), f"host {i}: coloring not proper")
        _check(res, len(set(colors)) <= 6, f"host {i}: more than 6 colors")
        ec = bipartite_edge_decomposition(host, colors)
        _check(res, len(ec.color_set()) <= 15, f"host {i}: more than 15 classes")
        for c in ec.color_set():
            ok, _ = is_bipartite(ec.class_graph(c))
            _check(res, ok, f"host {i}: class {c} is not bipartite")
        for pattern in patterns:
            searches += 1
            found = find_mono_induced_subgraph(host, pattern, ec)
            _check(res, found is None,
                   f"host {i}: monochromatic copy of a non-bipartite pattern")
    res.details.append(f"{len(patterns)} patterns x {hosts} hosts, "
                       f"{searches} exhaustive searches, zero witnesses")
    return res


# -- criterion 10: determinism ---------------------------------------------------------------


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    import tempfile
    from pathlib import Path

    from . import cli
    from .fileio import canonical_json, save_graph, save_poset

    res = CriterionResult(10, "byte-identical certificates across repeated runs", True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        save_poset(tmp_path / "p.poset", grid(2, 2))
        host = random_degenerate_graph(12, 3, random.Random(seed))
        save_graph(tmp_path / "h.graph", host)
        save_graph(tmp_path / "g.graph", Graph(3, [(0, 1), (1, 2), (0, 2)]))
        commands = [
            ["grid", "core", "--s", "2"],
            ["grid", "core", "--s", "3"],
            ["grid", "unique-realizer", "--s", "2"],
            ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2",
             "--p-chain", "3", "--n", "5"],
            ["ramsey", "search", "--kind", "subgrid", "--t", "2", "--r", "2",
             "--m", "1", "--l", "2", "--n-max", "5"],
            ["extension", "partition-ramsey", "--s", "2", "--t", "3", "--r", "2",
             "--k-max", "6"],
            ["bdim", "compute", str(tmp_path / "p.poset"), "--d-max", "2"],
            ["graph", "refute", "--host", str(tmp_path / "h.graph"),
             "--pattern", str(tmp_path / "g.graph")],
            ["ramsey", "reduce", "--from", "comparability", "--n", "3", "--t", "2",
             "--seed", str(seed)],
        ]
        for argv in commands:
            first = cli.run(argv)
            second = cli.run(argv)
            _check(res, first.output == second.output,
                   f"stdout differs for {' '.join(argv)}")
            a = canonical_json(first.certificate) if first.certificate else None
            b = canonical_json(second.certificate) if second.certificate else None
            _check(res, a == b, f"certificate differs for {' '.join(argv)}")
            _check(res, first.exit_code == second.exit_code,
                   f"exit code differs for {' '.join(argv)}")
        res.details.append(f"{len(commands)} commands re-run byte-identically")
    return res


CRITERIA: dict[int, Callable[..., CriterionResult]] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_acceptance(seed: int = DEFAULT_SEED,
                   only: Optional[Iterable[int]] = None) -> list[CriterionResult]:
    numbers = sorted(only) if only else sorted(CRITERIA)
    results = []
    for number in numbers:
        start = time.monotonic()
        result = CRITERIA[number](seed)
        result.seconds = time.monotonic() - start
        results.append(result)
    return results
