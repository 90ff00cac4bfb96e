"""The benchmark's workloads: fixed request lists built from a seed.

Each request is one call into gridlab (``cli.run`` or a library function)
plus a check of its output. The checks do not trust the engine: verdicts and
thresholds are compared with known answers, archived counterexamples are
re-checked with the monochromatic-structure finders or the coarsening check,
reduced colorings are compared with the source coloring at the core,
structures are re-derived from grid coordinates, and every certificate must
be byte-identical across passes. Checks run outside the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Callable, Optional

OK = "ok"
INCONCLUSIVE = "inconclusive"

EX_TRUE, EX_FALSE, EX_INCONCLUSIVE = 0, 1, 2

# Known answers. Thresholds are the classical ones (pigeonhole cells 5,
# R(3,3) = 6, Rothschild (2,3,2) -> 6); copy counts were counted by an
# independent induced-subgraph matcher over the comparability digraphs; the
# probe census is the documented one for n = 4. The smoke check plants a
# wrong value here to prove that a wrong answer is caught.
KNOWN = {
    "cells_threshold": 5,
    "chain3_threshold": 6,
    "partition_threshold": 6,
    "copies": {(7, 2, 2, 2): 15876, (3, 3, 2, 3): 1331, (4, 2, 2, 2): 225},
    "probe4": (12, 64),
    "extensions": {(3, 2): 42, (2, 3): 48},
}

STRESS_GUARD = 100_000
SQUARE_PROFILE = sorted([(0, 3), (1, 1), (1, 1), (3, 0)])
CUBE_PROFILE = sorted([(0, 7)] + [(1, 3)] * 3 + [(3, 1)] * 3 + [(7, 0)])


class Failed(Exception):
    """A request's output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


@dataclass
class Request:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str]  # OK or INCONCLUSIVE; raises Failed


@dataclass
class Workload:
    requests: list
    stress_request: Optional[str] = None
    stress_guard: int = 0


@dataclass
class Certificates:
    """Digests of certificates seen so far; a later pass must reproduce them."""

    digests: dict = field(default_factory=dict)

    def seen(self, key: str, cert: dict) -> bool:
        """True if ``key`` produced this certificate before, False on first sight."""
        expect(cert is not None, "no certificate")
        digest = hashlib.sha256(canonical(cert).encode()).hexdigest()
        old = self.digests.get(key)
        if old is None:
            self.digests[key] = digest
            return False
        expect(old == digest, "certificate differs from an earlier pass")
        return True


# -- independent helpers --------------------------------------------------------


def coords_of(idx: int, k: int, t: int) -> tuple:
    """Grid coordinates; the leftmost coordinate is most significant."""
    out = []
    for _ in range(t):
        idx, c = divmod(idx, k)
        out.append(c)
    return tuple(reversed(out))


def index_of(coords, k: int) -> int:
    idx = 0
    for c in coords:
        idx = idx * k + c
    return idx


def below(a, b) -> bool:
    return a != b and all(x <= y for x, y in zip(a, b))


def profile(points) -> list:
    """Sorted (elements below, elements above) counts inside the point set."""
    return sorted((sum(below(b, a) for b in points), sum(below(a, b) for b in points))
                  for a in points)


def comparable_pair_count(n: int, t: int) -> int:
    return math.comb(n + 1, 2) ** t - n ** t


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _exit(out, code: int) -> dict:
    expect(out.exit_code == code, f"exit code {out.exit_code}, expected {code}: "
                                  f"{out.output[:120]}")
    return out.certificate


def _coloring(gl, kind: str, n: int, r: int, entries):
    """Rebuild a certificate's coloring witness without the file loader."""
    if kind == gl.KIND_SUBGRID:
        assignment = {tuple(tuple(axis) for axis in key): color for key, color in entries}
    else:
        assignment = {(index_of(a, n), index_of(b, n)): color for (a, b), color in entries}
    expect(len(assignment) == len(entries), "duplicate keys in the witness")
    return gl.MapColoring(kind, r, assignment)


def _witness_free(gl, kind: str, n: int, t: int, r: int, m: int, l: int, entries) -> None:
    """The archived coloring is total and has no monochromatic structure."""
    coloring = _coloring(gl, kind, n, r, entries)
    if kind == gl.KIND_SUBGRID:
        expect(len(coloring.assignment) == math.comb(n, m) ** t, "witness is not total")
        found = gl.find_monochromatic_subgrid(n, t, m, l, coloring)
    else:
        expect(len(coloring.assignment) == comparable_pair_count(n, t), "witness is not total")
        found = gl.find_monochromatic_copy(gl.grid(n, t), gl.grid(l, t), coloring)
    expect(found is None, f"archived n={n} coloring has a monochromatic structure")


# -- threshold-scan ---------------------------------------------------------------


def threshold_scan(gl, cli, seed: int, workdir, tiny: bool = False) -> Workload:
    certs = Certificates()
    witnesses: dict = {}

    def search(name, argv, kind, t, r, m, l, known):
        def check(out):
            w = _exit(out, EX_TRUE)["witness"]
            expect(w["n_found"] == KNOWN[known], f"threshold {w['n_found']}")
            cex = w["counterexamples"]
            expect(sorted(map(int, cex)) == list(range(l, KNOWN[known])),
                   f"counterexamples archived at {sorted(cex)}")
            if not certs.seen(name, out.certificate):
                for n, entries in cex.items():
                    _witness_free(gl, kind, int(n), t, r, m, l, entries)
            return OK
        return Request(name, lambda: cli.run(argv), check)

    def verify(name, argv, kind, t, r, m, l, n, verdict, pair=None):
        def check(out):
            if out.exit_code == EX_INCONCLUSIVE:
                return INCONCLUSIVE
            cert = _exit(out, {"true": EX_TRUE, "false": EX_FALSE}[verdict])
            expect(cert["verdict"] == verdict, f"verdict {cert['verdict']}")
            if pair is not None:  # the serial and --workers runs agree
                other = witnesses.setdefault(pair, canonical(cert["witness"]))
                expect(other == canonical(cert["witness"]), "witness depends on --workers")
            if not certs.seen(name, cert) and verdict == "false":
                _witness_free(gl, kind, n, t, r, m, l, cert["witness"])
            return OK
        return Request(name, lambda: cli.run(argv), check)

    def stress_check(out):
        if out.exit_code == EX_INCONCLUSIVE:
            certs.seen("stress", out.certificate)
            return INCONCLUSIVE
        cert = _exit(out, EX_FALSE)  # R(3,3,3) = 17, so n = 16 is never "true"
        if not certs.seen("stress", cert):
            _witness_free(gl, gl.KIND_COMPARABILITY, 16, 1, 3, 2, 3, cert["witness"])
        return OK

    sub = gl.KIND_SUBGRID
    comp = gl.KIND_COMPARABILITY
    requests = [
        search("cells-search", ["ramsey", "search", "--kind", "subgrid", "--t", "2", "--r", "2",
                                "--m", "1", "--l", "2", "--n-max", "6"],
               sub, 2, 2, 1, 2, "cells_threshold"),
        search("chain3-search", ["ramsey", "search", "--kind", "comparability", "--t", "1",
                                 "--r", "2", "--p-chain", "3", "--n-max", "7"],
               comp, 1, 2, 2, 3, "chain3_threshold"),
        Request("partition-search",
                lambda: cli.run(["extension", "partition-ramsey", "--s", "2", "--t", "3",
                                 "--r", "2", "--k-max", "7"]),
                lambda out: _partition_check(gl, certs, out)),
    ]
    guard = 1000 if tiny else STRESS_GUARD
    requests.append(Request(
        "stress", lambda: cli.run(["ramsey", "verify", "--kind", "comparability", "--t", "1",
                                   "--r", "3", "--p-chain", "3", "--n", "16",
                                   "--guard", str(guard)]),
        stress_check))
    if not tiny:
        chain11 = ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "3",
                   "--p-chain", "3", "--n", "11"]
        subposet6 = ["ramsey", "verify", "--kind", "subposet", "--t", "2", "--r", "2",
                     "--m", "1", "--l", "2", "--n", "6"]
        requests += [
            verify("chain3-r3-n11", chain11, comp, 1, 3, 2, 3, 11, "false", "chain11"),
            verify("chain3-r3-n11-workers2", ["--workers", "2"] + chain11,
                   comp, 1, 3, 2, 3, 11, "false", "chain11"),
            verify("cells-r3-n6", ["ramsey", "verify", "--kind", "subgrid", "--t", "2", "--r", "3",
                                   "--m", "1", "--l", "2", "--n", "6"],
                   sub, 2, 3, 1, 2, 6, "false"),
            verify("subposet-n6", subposet6, gl.KIND_SUBPOSET, 2, 2, 1, 2, 6, "true", "subposet6"),
            verify("subposet-n6-workers2", ["--workers", "2"] + subposet6,
                   gl.KIND_SUBPOSET, 2, 2, 1, 2, 6, "true", "subposet6"),
        ]
    # The seed only orders the requests: every instance here is a fixed one.
    random.Random(seed).shuffle(requests)
    return Workload(requests, "stress", guard)


def _partition_check(gl, certs, out) -> str:
    w = _exit(out, EX_TRUE)["witness"]
    expect(w["k_found"] == KNOWN["partition_threshold"], f"threshold {w['k_found']}")
    cex = w["counterexamples"]
    expect(sorted(map(int, cex)) == list(range(3, KNOWN["partition_threshold"])),
           f"counterexamples archived at {sorted(cex)}")
    if certs.seen("partition-search", out.certificate):
        return OK
    for k, entries in cex.items():
        colors = {tuple(tuple(part) for part in parts): color for parts, color in entries}
        for pi in gl.extension.partitions_of_range(int(k), 3):
            seen = {colors[c.parts] for c in gl.extension.coarsenings(pi, 2)}
            expect(len(seen) > 1, f"archived k={k} coloring has a monochromatic 3-partition")
    return OK


# -- reduction-sweep ----------------------------------------------------------------


def reduction_sweep(gl, cli, seed: int, workdir, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    n_sub, m, n_comp, seeds = (5, 2, 4, 1) if tiny else (9, 2, 10, 4)
    side = m * m
    certs = Certificates()
    requests = []
    for _ in range(seeds):
        s = rng.randrange(1, 2 ** 31)
        path = workdir / f"comparability-{s}.json"
        cert_path = workdir / f"reduce-subposet-{s}.cert.json"
        file_colors = _write_comparability_coloring(path, n_comp, rng)
        state: dict = {}
        c1 = gl.hash_coloring(gl.KIND_SUBPOSET, 2, s)
        c_hash = gl.hash_coloring(gl.KIND_COMPARABILITY, 2, s)
        requests += [
            Request(f"reduce-subposet-{s}",
                    lambda s=s: cli.run(["ramsey", "reduce", "--from", "subposet", "--n",
                                         str(n_sub), "--m", str(m), "--seed", str(s)]),
                    _core_reduction_check(gl, certs, f"reduce-subposet-{s}", n_sub, m, c1,
                                          state, random.Random(s), cert_path)),
            Request(f"scan-{s}",
                    lambda state=state: gl.find_monochromatic_subgrid(
                        n_sub, 2, side, side + 1, state["reduced"]),
                    _scan_check(n_sub, side, side + 1, state)),
            Request(f"reduce-comparability-{s}",
                    lambda s=s: cli.run(["ramsey", "reduce", "--from", "comparability",
                                         "--n", str(n_comp), "--seed", str(s)]),
                    _pair_reduction_check(certs, f"reduce-comparability-{s}", n_comp,
                                          lambda lo, hi, c=c_hash: c.color_of(
                                              (index_of(lo, n_comp), index_of(hi, n_comp))))),
            Request(f"reduce-file-{s}",
                    lambda path=path: cli.run(["ramsey", "reduce", "--from", "comparability",
                                               "--n", str(n_comp), "--coloring", str(path)]),
                    _pair_reduction_check(certs, f"reduce-file-{s}", n_comp,
                                          lambda lo, hi, d=file_colors: d[lo, hi])),
            Request(f"verify-subposet-{s}", lambda p=cert_path: cli.run(["verify", str(p)]),
                    _reproduced_check),
        ]
    return Workload(requests)


def _write_comparability_coloring(path, n: int, rng) -> dict:
    """A seeded 2-coloring of the comparabilities of n^2, in the coloring file format."""
    points = list(product(range(n), repeat=2))
    colors = {(a, b): rng.randint(1, 2) for a in points for b in points if below(a, b)}
    payload = {"format_version": 1, "kind": "coloring", "coloring_kind": "comparability",
               "r": 2, "n": n, "t": 2,
               "assignment": [[[list(a), list(b)], c] for (a, b), c in sorted(colors.items())]}
    path.write_text(canonical(payload) + "\n", encoding="utf-8")
    return colors


def _core_reduction_check(gl, certs, name, n, m, c1, state, rng, cert_path, spot: int = 64):
    """Spot-check the reduced coloring against c1 evaluated at the core.

    The certificate is saved for the ``gridlab verify`` request that follows.
    """
    side = m * m

    def check(out):
        cert = _exit(out, EX_TRUE)
        if certs.seen(name, cert):
            return OK
        colors = {tuple(tuple(axis) for axis in key): color for key, color in cert["witness"]}
        expect(len(colors) == len(cert["witness"]) == math.comb(n, side) ** 2,
               "reduced coloring is not total")
        for s1, s2 in rng.sample(sorted(colors), min(spot, len(colors))):
            core = tuple(sorted(index_of((s1[m * i + j], s2[m * j + i]), n)
                                for i in range(m) for j in range(m)))
            expect(colors[s1, s2] == c1.color_of(core), f"reduced color differs at {s1, s2}")
        state["reduced"] = gl.MapColoring(gl.KIND_SUBGRID, c1.r, colors)
        cert_path.write_text(canonical(cert) + "\n", encoding="utf-8")
        return OK
    return check


def _reproduced_check(out) -> str:
    _exit(out, EX_TRUE)
    expect(out.output == "certificate reproduced bit-exactly", out.output)
    return OK


def _scan_check(n, m, l, state):
    """Compare with a scan of the same subgrids in the same order, done here."""
    def check(out):
        if "scan" not in state:
            colors = state["reduced"].assignment
            state["scan"] = None
            for outer in product(combinations(range(n), l), repeat=2):
                inner = product(*[combinations(axis, m) for axis in outer])
                if len({colors[key] for key in inner}) == 1:
                    state["scan"] = outer
                    break
        got = None if out is None else out.subgrid.axes
        expect(got == state["scan"], f"scan returned {got}, expected {state['scan']}")
        return OK
    return check


def _pair_reduction_check(certs, name, n, color_of):
    """Every 2-side subgrid takes the color of its (least, greatest) pair."""
    def check(out):
        cert = _exit(out, EX_TRUE)
        if certs.seen(name, cert):
            return OK
        expect(len(cert["witness"]) == math.comb(n, 2) ** 2, "reduced coloring is not total")
        for (ax, ay), color in cert["witness"]:
            lo, hi = (ax[0], ay[0]), (ax[-1], ay[-1])
            expect(color == color_of(lo, hi), f"reduced color differs at {ax, ay}")
        return OK
    return check


# -- embedding-kernels ------------------------------------------------------------------


def embedding_kernels(gl, cli, seed: int, workdir, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    n = 4 if tiny else 7
    results: dict = {}
    planted, free = _copy_search_requests(gl, n, rng)
    hosts = [_graph_request(gl, size, rng, tiny) for size in ((10,) if tiny else (24, 27, 30))]
    # Heavy and light requests alternate, and the two copy searches that set
    # the median sit apart, so one slow stretch of the machine does not hit both.
    requests = [_copies_request(gl, results, n, 2, 2, SQUARE_PROFILE), planted, hosts[0]]
    if not tiny:
        requests += [_copies_request(gl, results, 3, 3, 2, CUBE_PROFILE), hosts[1],
                     Request("probe-4", lambda: gl.realizer_type_probe(4), _probe_check)]
    requests += [free, *hosts[2:], _poset_request(gl, rng, 1 if tiny else 6, tiny)]
    return Workload(requests)


def _suite(name, steps) -> Request:
    """One request made of several calls, each (call, check), run in order."""
    def check(outs):
        for (_, step_check), out in zip(steps, outs):
            step_check(out)
        return OK
    return Request(name, lambda: [call() for call, _ in steps], check)


def _copies_request(gl, results, k, t, s, shape):
    q, p = gl.grid(k, t), gl.grid(s, t)
    name = f"copies-{s}^{t}-in-{k}^{t}"

    def check(out):
        expect(len(out) == KNOWN["copies"][k, t, s, t], f"{len(out)} copy sets")
        first = results.setdefault(name, out)
        if first is not out:
            expect(out == first, "copy sets differ from an earlier pass")
            return OK
        expect(len(set(out)) == len(out), "duplicate copy sets")
        for elements in out:
            expect(profile([coords_of(e, k, t) for e in elements]) == shape,
                   f"{elements} does not induce {s}^{t}")
        return OK
    return Request(name, lambda: gl.enumerate_induced_copy_sets(q, p), check)


def _copy_search_requests(gl, n, rng):
    """Copies of 2^2 in n^2 under the highest-bit coloring, which has none.

    Color a comparable pair by the bit length of its rank difference. In a
    chain x < y < z with equal colors for (x, y) and (y, z) the difference
    for (x, z) has one more bit, so no copy of 2^2 is monochromatic. The
    planted coloring recolors the five pairs of one copy with a new color,
    which makes that copy the only monochromatic one.
    """
    points = [coords_of(e, n, 2) for e in range(n * n)]
    colors = {(a, b): (sum(points[b]) - sum(points[a])).bit_length()
              for a in range(n * n) for b in range(n * n) if below(points[a], points[b])}
    r = max(colors.values())
    q, p = gl.grid(n, 2), gl.grid(2, 2)
    free = gl.MapColoring(gl.KIND_COMPARABILITY, r, colors)
    low = index_of((n - 3, n - 3), n)
    above = [e for e in range(n * n) if below(points[low], points[e])]
    squares = [(x, y, top) for x, y, top in permutations(above, 3)
               if x < y and not below(points[x], points[y]) and not below(points[y], points[x])
               and below(points[x], points[top]) and below(points[y], points[top])]
    planted_set = (low,) + rng.choice(squares)
    planted_colors = dict(colors)
    for a, b in combinations(sorted(planted_set), 2):
        if below(points[a], points[b]):
            planted_colors[a, b] = r + 1
    planted = gl.MapColoring(gl.KIND_COMPARABILITY, r + 1, planted_colors)

    def planted_check(out):
        expect(out is not None, "planted copy not found")
        expect(sorted(out.elements) == sorted(planted_set), f"witness {out.elements}")
        expect(out.color == r + 1, f"witness color {out.color}")
        return OK

    def free_check(out):
        expect(out is None, f"monochromatic copy {out} under a copy-free coloring")
        return OK

    return [Request("mono-copy-planted", lambda: gl.find_monochromatic_copy(q, p, planted),
                    planted_check),
            Request("mono-copy-free", lambda: gl.find_monochromatic_copy(q, p, free),
                    free_check)]


def _probe_check(out) -> str:
    types, copies = KNOWN["probe4"]
    expect((out.distinct_types, out.copies_scanned) == (types, copies),
           f"probe found {out.distinct_types} types in {out.copies_scanned} copies")
    expect(sum(count for _, count in out.census) == copies, "census does not add up")
    expect(out.tie_free_census == out.census, "tie-free census differs")
    return OK


# Non-bipartite patterns on at most five vertices: triangle, paw, diamond, K4,
# C5, bowtie, house, K5. Each decomposition class is bipartite, so none of
# them has a monochromatic induced copy and every search is exhaustive.
NON_BIPARTITE = (
    (3, ((0, 1), (1, 2), (0, 2))),
    (4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    (4, ((0, 1), (1, 2), (0, 2), (1, 3), (2, 3))),
    (4, tuple(combinations(range(4), 2))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    (5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))),
    (5, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4))),
    (5, tuple(combinations(range(5), 2))),
)
PATH3 = (3, ((0, 1), (1, 2)))


def _graph_request(gl, n, rng, tiny):
    """Every pattern on a seeded host with back-degree at most 5 (5-degenerate)."""
    edges = []
    for v in range(1, n):
        for u in rng.sample(range(v), rng.randint(0, min(5, v))):
            edges.append((u, v))
    host = gl.Graph(n, edges)
    ec = gl.bipartite_edge_decomposition(host, gl.degeneracy_coloring(host))
    edge_class = dict(ec.colors)
    patterns = NON_BIPARTITE[:1] if tiny else NON_BIPARTITE
    steps = [(lambda pattern=gl.Graph(k, edges): gl.find_mono_induced_subgraph(host, pattern, ec),
              _none_check) for k, edges in patterns]
    # An induced path u - v - w in one class exists iff some v has two
    # non-adjacent neighbours joined to it by edges of one class.
    exists = any(
        edge_class[min(u, v), max(u, v)] == edge_class[min(v, w), max(v, w)]
        and not host.has_edge(u, w)
        for v in range(n) for u in range(n) for w in range(u + 1, n)
        if host.has_edge(u, v) and host.has_edge(v, w))

    def path_check(out):
        if out is None:
            expect(not exists, "missed a monochromatic induced path")
            return OK
        color, (a, b, c) = out
        expect(host.has_edge(a, b) and host.has_edge(b, c) and not host.has_edge(a, c),
               f"{(a, b, c)} is not an induced path")
        expect(edge_class[min(a, b), max(a, b)] == edge_class[min(b, c), max(b, c)] == color,
               f"path {(a, b, c)} is not in class {color}")
        return OK

    path = gl.Graph(*PATH3)
    steps.append((lambda: gl.find_mono_induced_subgraph(host, path, ec), path_check))
    return _suite(f"induced-host-{n}", steps)


def _none_check(out) -> str:
    expect(out is None, f"monochromatic copy {out} of a non-bipartite pattern")
    return OK


def _random_up(n, rng, density=0.4) -> list:
    up = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if (up[i] >> k) & 1:
                up[i] |= up[k]
    return up


def _lt(up, x, y) -> bool:
    return (up[x] >> y) & 1 == 1


def _extensions(up) -> set:
    n = len(up)
    return {order for order in permutations(range(n))
            if all(not _lt(up, order[j], order[i]) for i in range(n) for j in range(i + 1, n))}


def _automorphisms(up) -> set:
    n = len(up)
    return {perm for perm in permutations(range(n))
            if all(_lt(up, x, y) == _lt(up, perm[x], perm[y]) for x in range(n) for y in range(n))}


def _boolean_realizer_ok(up, orders, accepted) -> bool:
    n = len(up)
    pos = [{x: i for i, x in enumerate(order)} for order in orders]
    return all(("".join("1" if p[x] < p[y] else "0" for p in pos) in accepted) == _lt(up, x, y)
               for x in range(n) for y in range(n) if x != y)


def _poset_request(gl, rng, count, tiny):
    """Isomorphism, automorphisms, extensions and Boolean dimension on small posets."""
    steps = []
    cases = [_random_up(5, rng) for _ in range(count)]
    cases += [[sum(1 << j for j in range(i + 1, 5)) for i in range(5)], [0] * 5]
    for up in cases:
        n = len(up)
        perm = list(range(n))
        rng.shuffle(perm)
        up2 = [0] * n
        for x in range(n):
            for y in range(n):
                if _lt(up, x, y):
                    up2[perm[x]] |= 1 << perm[y]
        p, q = gl.Poset(up), gl.Poset(up2)
        total = all(_lt(up, x, y) or _lt(up, y, x) for x, y in combinations(range(n), 2))
        trivial = total or not any(up)

        def iso_check(out, up=up, up2=up2):
            expect(out is not None, "relabelled poset reported non-isomorphic")
            expect(all(_lt(up, x, y) == _lt(up2, out[x], out[y])
                       for x in range(n) for y in range(n)), f"{out} is not an isomorphism")
            return OK

        def aut_check(out, want=_automorphisms(up)):
            expect(len(out) == len(set(out)) and set(out) == want, f"{len(out)} automorphisms")
            return OK

        def ext_check(out, want=_extensions(up)):
            got = [e.order for e in out]
            expect(len(got) == len(set(got)) and set(got) == want, f"{len(got)} extensions")
            return OK

        def dim_check(out, up=up, trivial=trivial):
            expect(out.dim is not None and out.realizer is not None, "no Boolean realizer")
            expect(_boolean_realizer_ok(up, out.realizer.orders, out.realizer.accepted),
                   "Boolean realizer is invalid")
            # Dimension 1 means one order and one accepted string: a chain
            # or (nothing accepted) an antichain.
            expect((out.dim == 1) == trivial, f"Boolean dimension {out.dim}")
            return OK

        steps += [(lambda p=p, q=q: gl.is_isomorphic(p, q), iso_check),
                  (lambda p=p: gl.automorphisms(p), aut_check),
                  (lambda p=p: gl.linear_extensions(p), ext_check),
                  (lambda p=p: gl.boolean_dim(p, d_max=3), dim_check)]
    if not tiny:
        for k, t in KNOWN["extensions"]:
            steps.append((lambda g=gl.grid(k, t): gl.linear_extensions(g),
                          _equals(len, KNOWN["extensions"][k, t], "extensions")))
        square = gl.grid(2, 2)
        steps.append((lambda: gl.boolean_dim(square, d_max=3),
                      _equals(lambda out: out.dim, 2, "Boolean dimension")))
    return _suite("posets", steps)


def _equals(measure, want, what):
    def check(out):
        got = measure(out)
        expect(got == want, f"{what}: {got}, expected {want}")
        return OK
    return check


WORKLOADS = {
    "threshold-scan": threshold_scan,
    "reduction-sweep": reduction_sweep,
    "embedding-kernels": embedding_kernels,
}
