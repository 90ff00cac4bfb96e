"""Subgrid reductions, the monochromatic-subgrid scan and the subgrid structure
build against the Subgrid / core_elements reference; seeded hash colorings;
pinned reduce certificates; the reduce command's argument checks."""

import hashlib
import json
import math
import random
import re
from collections import Counter, namedtuple
from itertools import combinations, product as iproduct
from pathlib import Path

import pytest

from gridlab import cli, ramsey
from gridlab.errors import ContractViolation
from gridlab.fileio import (
    certificate_digest,
    load_coloring,
    save_certificate,
    save_coloring,
)
from gridlab.grids import Subgrid, core_elements, enumerate_subgrids, grid, subgrids_within
from gridlab.ramsey import (
    KIND_COMPARABILITY,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    FunctionColoring,
    MapColoring,
    comparability_keys,
    find_monochromatic_subgrid,
    hash_coloring,
    reduce_comparability_to_subgrid,
    reduce_subposet_to_subgrid,
    verify_grid_ramsey,
)


class _Recorder(FunctionColoring):
    """A coloring that logs every key it is asked about, in call order."""

    def __init__(self, inner):
        super().__init__(inner.kind, inner.r, inner.color_of)
        self.calls = []

    def color_of(self, key):
        self.calls.append(key)
        return super().color_of(key)


def _reference_subposet(c1, g, m):
    return {sub.axes: c1.color_of(core_elements(sub, g))
            for sub in enumerate_subgrids(g.k, 2, m * m)}


def _reference_comparability(c, g):
    out = {}
    for sub in enumerate_subgrids(g.k, g.t, 2):
        lo, hi = sub.min_max_coords()
        out[sub.axes] = c.color_of((g.index(lo), g.index(hi)))
    return out


def _reference_scan(n, t, m, l, coloring):
    """The subgrid scan over Subgrid objects, first mismatch ends an outer subgrid."""
    for outer in enumerate_subgrids(n, t, l):
        colors = set()
        for inner in subgrids_within(outer, m):
            colors.add(coloring.color_of(inner.axes))
            if len(colors) > 1:
                break
        else:
            return outer.axes, colors.pop()
    return None


@pytest.mark.parametrize("n, m, r", [(n, m, r) for m in (1, 2, 3) for n in range(m * m, 10)
                                     for r in (2, 3)])
def test_subposet_reduction_matches_core_reference(n, m, r):
    g = grid(n, 2)
    seed = 100 * n + 10 * m + r
    got = _Recorder(hash_coloring(KIND_SUBPOSET, r, seed))
    want = _Recorder(hash_coloring(KIND_SUBPOSET, r, seed))
    reduced = reduce_subposet_to_subgrid(got, g, m)
    reference = _reference_subposet(want, g, m)
    assert list(reduced.assignment.items()) == list(reference.items())
    assert got.calls == want.calls
    assert (reduced.kind, reduced.r) == (KIND_SUBGRID, r)


@pytest.mark.parametrize("n, t, r", [(n, 1, r) for n in range(2, 10) for r in (2, 3)]
                         + [(n, 2, r) for n in range(2, 10) for r in (2, 3)]
                         + [(n, 3, 2) for n in range(2, 6)])
def test_comparability_reduction_matches_reference(n, t, r):
    g = grid(n, t)
    seed = 100 * n + 10 * t + r
    got = _Recorder(hash_coloring(KIND_COMPARABILITY, r, seed))
    want = _Recorder(hash_coloring(KIND_COMPARABILITY, r, seed))
    reduced = reduce_comparability_to_subgrid(got, g)
    assert list(reduced.assignment.items()) == list(_reference_comparability(want, g).items())
    assert got.calls == want.calls


def test_reductions_stop_at_the_same_missing_key():
    g = grid(6, 2)
    keys = list(_reference_subposet(FunctionColoring(KIND_SUBPOSET, 1, lambda key: 1), g, 2))
    cores = [core_elements(Subgrid(axes), g) for axes in keys]
    partial = MapColoring(KIND_SUBPOSET, 2, {key: 1 for key in cores[:40]})
    with pytest.raises(ContractViolation, match=re.escape(f"missing key {cores[40]!r}")):
        reduce_subposet_to_subgrid(partial, g, 2)
    pairs = comparability_keys(g)
    partial = MapColoring(KIND_COMPARABILITY, 2, {key: 1 for key in pairs if key != (0, 35)})
    recorder = _Recorder(FunctionColoring(KIND_COMPARABILITY, 2, lambda key: 1))
    _reference_comparability(recorder, g)
    assert (0, 35) in recorder.calls
    with pytest.raises(ContractViolation, match=r"missing key \(0, 35\)"):
        reduce_comparability_to_subgrid(partial, g)


class _LazyKeysColoring(FunctionColoring):
    """A coloring whose bulk ``colors`` refuses a materialized key list."""

    def colors(self, keys):
        assert not isinstance(keys, (list, tuple))
        return [self.color_of(key) for key in keys]


@pytest.mark.parametrize("n, m", [(1, 1), (5, 1), (4, 2), (9, 2), (9, 3)])
def test_subposet_reduction_feeds_its_cores_lazily(n, m):
    g = grid(n, 2)
    inner = hash_coloring(KIND_SUBPOSET, 3, n + m)
    lazy = _LazyKeysColoring(KIND_SUBPOSET, 3, inner.color_of)
    reduced = reduce_subposet_to_subgrid(lazy, g, m)
    assert list(reduced.assignment.items()) == list(_reference_subposet(inner, g, m).items())


@pytest.mark.parametrize("m", [-1, 0])
def test_subposet_reduction_rejects_m_below_one(m):
    g = grid(9, 2)
    with pytest.raises(ContractViolation, match="m >= 1"):
        reduce_subposet_to_subgrid(hash_coloring(KIND_SUBPOSET, 2, 0), g, m)


def test_reductions_reject_sides_beyond_the_grid():
    with pytest.raises(ContractViolation, match=re.escape("needs m*m <= n, got m = 2, n = 3")):
        reduce_subposet_to_subgrid(hash_coloring(KIND_SUBPOSET, 2, 0), grid(3, 2), 2)
    with pytest.raises(ContractViolation, match="needs n >= 2, got 1"):
        reduce_comparability_to_subgrid(hash_coloring(KIND_COMPARABILITY, 2, 0), grid(1, 2))


_SCAN_CASES = [(t, m, l, n) for t, sizes in ((1, ((1, 2, 6), (2, 3, 7), (2, 4, 8), (3, 4, 8))),
                                             (2, ((1, 2, 4), (2, 3, 5), (1, 3, 5), (2, 4, 6))),
                                             (3, ((1, 2, 3), (1, 2, 4), (2, 3, 4)))
                                             ) for m, l, n in sizes]


@pytest.mark.parametrize("t, m, l, n", _SCAN_CASES)
@pytest.mark.parametrize("bias", [0.0, 0.6, 0.9])
def test_subgrid_scan_matches_reference(t, m, l, n, bias):
    seed = 1000 * t + 100 * m + 10 * l + n
    for r in (2, 3):
        base = hash_coloring(KIND_SUBGRID, r, seed, bias_color=r, bias=bias)
        got = _Recorder(base)
        found = find_monochromatic_subgrid(n, t, m, l, got)
        expected = _reference_scan(n, t, m, l, base)
        assert max(Counter(got.calls).values()) == 1  # no key is read twice
        if expected is None:
            assert found is None
        else:
            assert (found.subgrid.axes, found.color) == expected
            assert found.subgrid == Subgrid(expected[0])
            assert found.kind == KIND_SUBGRID


def test_subgrid_scan_finds_witnesses_on_biased_colorings():
    found = [find_monochromatic_subgrid(5, 2, 2, 3,
                                        hash_coloring(KIND_SUBGRID, 2, seed, bias_color=1,
                                                      bias=0.9))
             for seed in range(5)]
    assert any(w is not None and w.color == 1 for w in found)


def test_subgrid_scan_missing_key():
    n, t, m, l = 5, 2, 2, 3
    keys = [sub.axes for sub in enumerate_subgrids(n, t, m)]
    first_outer = {inner.axes for inner in subgrids_within(Subgrid.full(l, t), m)}
    inside = keys[1]
    outside = next(key for key in keys if key not in first_outer)
    coloring = MapColoring(KIND_SUBGRID, 2, {key: 1 for key in keys if key != inside})
    with pytest.raises(ContractViolation, match=re.escape(f"missing key {inside!r}")):
        find_monochromatic_subgrid(n, t, m, l, coloring)
    # The first outer subgrid is monochromatic, but the first row read, the
    # keys with first axis (0, 1), lacks ``outside``: the map is refused.
    assert outside[0] == (0, 1)
    coloring = MapColoring(KIND_SUBGRID, 2, {key: 1 for key in keys if key != outside})
    with pytest.raises(ContractViolation, match=re.escape(f"missing key {outside!r}")):
        find_monochromatic_subgrid(n, t, m, l, coloring)
    # Of two gaps, the one in the row read first is named, not the earlier key.
    gaps = {((0, 2), (0, 1)), ((0, 1), (3, 4))}
    coloring = MapColoring(KIND_SUBGRID, 2, {key: 1 for key in keys if key not in gaps})
    with pytest.raises(ContractViolation, match=re.escape("missing key ((0, 1), (3, 4))")):
        find_monochromatic_subgrid(n, t, m, l, coloring)
    # A gap in a row the scan never reads is not seen: the witness comes first.
    coloring = MapColoring(KIND_SUBGRID, 2, {key: 1 for key in keys if key[0] != (3, 4)})
    found = find_monochromatic_subgrid(n, t, m, l, coloring)
    assert found.subgrid == Subgrid.full(l, t) and found.color == 1


def _scan_outcome(n, t, m, l, coloring):
    """The scan's witness as (kind, color, axes), or its ContractViolation text."""
    try:
        found = find_monochromatic_subgrid(n, t, m, l, coloring)
    except ContractViolation as exc:
        return str(exc)
    return found and (found.kind, found.color, found.subgrid.axes)


def _expected_outcome(n, t, m, l, r, assignment):
    """``_scan_outcome`` from ``_reference_scan`` and the row order: a map that
    lacks keys is refused at the first missing key of the first row read (a
    row is one choice of the first t-1 axes' m-subsets, read whole when an
    outer prefix first needs it), unless a witness lies in an earlier prefix."""
    keys = [sub.axes for sub in enumerate_subgrids(n, t, m)]
    missing = [key for key in keys if key not in assignment]
    # Each missing key gets a color of its own, so no witness holds one (m < l).
    filled = {**assignment, **{key: r + 1 + i for i, key in enumerate(missing)}}
    found = _reference_scan(n, t, m, l, MapColoring(KIND_SUBGRID, r + len(missing), filled))
    if missing:
        first = {}
        for prefix in iproduct(combinations(range(n), l), repeat=t - 1):
            for row in iproduct(*(combinations(axis, m) for axis in prefix)):
                first.setdefault(row, prefix)
        order = {row: i for i, row in enumerate(first)}
        gap = min(missing, key=lambda key: (order[key[:-1]], key[-1]))
        if found is None or first[gap[:-1]] <= found[0][:-1]:
            return f"coloring is not total: missing key {gap!r}"
    return found and (KIND_SUBGRID, found[1], found[0])


def _scan_maps(n, t, m, rng):
    """(r, map) pairs over the m-subgrids of n^t: random, one-color-biased and
    constant maps for r in 1..3, and one with every key its own color."""
    keys = [sub.axes for sub in enumerate_subgrids(n, t, m)]
    for r in (1, 2, 3):
        yield r, {key: rng.randint(1, r) for key in keys}
        yield r, {key: r if rng.random() < 0.85 else rng.randint(1, r) for key in keys}
        yield r, dict.fromkeys(keys, r)
    yield len(keys), {key: i + 1 for i, key in enumerate(keys)}


class _CountingDict(dict):
    """A dict that counts its ``__getitem__`` calls per key."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("t, m, l, n", _SCAN_CASES)
def test_subgrid_scan_of_a_map_matches_the_key_by_key_scan(t, m, l, n):
    """The scan of a MapColoring, whose rows are read from the dict in one
    pass, of the same map behind a FunctionColoring, whose rows are read key
    by key through ``color_of``, and of unbiased hash colorings, whose rows
    are hashed in one loop, against ``_reference_scan``: total, partial (1-3
    keys removed) and padded maps, witness, None and error alike. No key is
    read twice, and a total map with no witness has every key read once."""
    rng = random.Random(1000 * t + 100 * m + 10 * l + n)
    keys = [sub.axes for sub in enumerate_subgrids(n, t, m)]
    outcomes = set()
    for r, colors in _scan_maps(n, t, m, rng):
        partial = [{key: c for key, c in colors.items() if key not in gone}
                   for gone in (set(rng.sample(keys, k)) for k in (1, 2, 3) * 3)]
        padded = {**colors, **{(tuple(range(n, n + m)),) * t: 1, ((0,) * (m + 1),) * t: r}}
        for assignment in [colors, padded] + partial:
            want = _expected_outcome(n, t, m, l, r, assignment)
            by_map = MapColoring(KIND_SUBGRID, r, assignment)
            by_key = _Recorder(MapColoring(KIND_SUBGRID, r, assignment))
            by_map.assignment = _CountingDict(by_map.assignment)
            assert _scan_outcome(n, t, m, l, by_map) == want
            assert _scan_outcome(n, t, m, l, by_key) == want
            for reads in (by_map.assignment.reads, Counter(by_key.calls)):
                assert max(reads.values()) == 1
                if want is None:
                    assert reads == Counter(keys)
            outcomes.add(type(want))
    assert outcomes == {type(None), tuple, str}
    for r in (2, 3):
        hashed = hash_coloring(KIND_SUBGRID, r, rng.randrange(1 << 30))
        assert _scan_outcome(n, t, m, l, hashed) == _expected_outcome(
            n, t, m, l, r, {key: hashed.color_of(key) for key in keys})


@pytest.mark.parametrize("t, m, l, n", [(1, 2, 4, 6), (2, 1, 2, 4), (2, 2, 3, 5),
                                        (3, 1, 2, 3), (3, 2, 3, 4)])
def test_subgrid_scan_of_a_map_reads_each_row_once(t, m, l, n):
    keys = [sub.axes for sub in enumerate_subgrids(n, t, m)]
    # Every key its own color: no l-subgrid is monochromatic, so every row is read.
    coloring = MapColoring(KIND_SUBGRID, len(keys), {key: i + 1 for i, key in enumerate(keys)})
    coloring.assignment = _CountingDict(coloring.assignment)
    assert find_monochromatic_subgrid(n, t, m, l, coloring) is None
    assert coloring.assignment.reads == Counter(keys)
    # A constant map's witness lies in the first outer prefix: only the rows of
    # that prefix's C(l, m)^(t-1) inner prefixes are read, each once.
    coloring = MapColoring(KIND_SUBGRID, 1, dict.fromkeys(keys, 1))
    coloring.assignment = _CountingDict(coloring.assignment)
    found = find_monochromatic_subgrid(n, t, m, l, coloring)
    assert found.subgrid == Subgrid.full(l, t) and found.color == 1
    rows = set(iproduct(combinations(range(l), m), repeat=t - 1))
    assert len(rows) == math.comb(l, m) ** (t - 1)
    assert coloring.assignment.reads == Counter(key for key in keys if key[:-1] in rows)


@pytest.mark.parametrize("t, m, l, n", [(1, 2, 3, 6), (2, 1, 2, 4), (2, 2, 3, 5), (3, 1, 2, 3)])
def test_subgrid_structures_match_reference(monkeypatch, t, m, l, n):
    seen = {}

    def capture(keys, structures, r, kind, node_guard, workers, symmetry=None):
        seen.update(keys=list(keys), structures=list(structures))
        return ramsey.Verdict("true")

    monkeypatch.setattr(ramsey, "run_engine", capture)
    verify_grid_ramsey(KIND_SUBGRID, t, 2, m, l, n)
    keys = [sub.axes for sub in enumerate_subgrids(n, t, m)]
    index = {key: i for i, key in enumerate(keys)}
    structures = [tuple(index[inner.axes] for inner in subgrids_within(outer, m))
                  for outer in enumerate_subgrids(n, t, l)]
    assert seen == {"keys": keys, "structures": structures}


def _expected_hash(seed, tag, key):
    digest = hashlib.blake2b(repr((seed, tag, key)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


_HASH_KEYS = [(KIND_COMPARABILITY, (0, 7)), (KIND_COMPARABILITY, (12, 80)),
              (KIND_SUBGRID, ((0, 1), (2, 3))), (KIND_SUBGRID, ((0, 2, 3, 8), (0, 1, 6, 8))),
              (KIND_SUBPOSET, (0, 5, 7, 9)), (KIND_SUBPOSET, (3,))]


@pytest.mark.parametrize("kind, key", _HASH_KEYS)
@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1, -3])
def test_hash_coloring_hashes_repr_of_seed_tag_key(kind, key, seed):
    for r in (2, 3, 5):
        plain = hash_coloring(kind, r, seed)
        assert plain.color_of(key) == 1 + _expected_hash(seed, "color", key) % r
        for bias in (0.3, 0.7):
            biased = hash_coloring(kind, r, seed, bias_color=r, bias=bias)
            u = _expected_hash(seed, "bias", key) / 2.0 ** 64
            want = r if u < bias else 1 + _expected_hash(seed, "color", key) % r
            assert biased.color_of(key) == want


def test_hash_coloring_is_reusable():
    c = hash_coloring(KIND_SUBPOSET, 3, 11)
    first = [c.color_of((k,)) for k in range(50)]
    assert [c.color_of((k,)) for k in range(50)] == first


# Digests measured before the reductions moved to axis tuples. The verify
# rows' last entry is the digest from when they recorded "seed": 0; restoring
# that field gives it back, and it names the test.
_REDUCE = ["ramsey", "reduce", "--from"]
_PINNED = [
    (_REDUCE + ["subposet", "--n", "9", "--m", "2", "--seed", "7"], "ffa2a3e07b97599b", None),
    (_REDUCE + ["subposet", "--n", "9", "--m", "3", "--r", "3", "--seed", "11"],
     "b81db2f287d7b651", None),
    (_REDUCE + ["subposet", "--n", "6", "--m", "1", "--r", "3", "--seed", "2"],
     "7a18ad22ec21559a", None),
    (_REDUCE + ["comparability", "--n", "10", "--seed", "4"], "d0b7b90f8c4f22b1", None),
    (_REDUCE + ["comparability", "--n", "4", "--t", "3", "--r", "3", "--seed", "9"],
     "4cda6c4275e3181e", None),
    (["ramsey", "verify", "--kind", "subgrid", "--t", "2", "--r", "2", "--m", "2", "--l", "3",
      "--n", "5"], "00f2a0004a784357", "dd95c1823f2482fd"),
    (["ramsey", "verify", "--kind", "subgrid", "--t", "3", "--r", "2", "--m", "1", "--l", "2",
      "--n", "3"], "695920de8622d3ee", "f1e0f4f8e208ca05"),
    (["ramsey", "verify", "--kind", "subgrid", "--t", "1", "--r", "2", "--m", "2", "--l", "3",
      "--n", "5"], "be4d1ab119ae5233", "c69077e62bafead4"),
]


@pytest.mark.parametrize("argv, digest, with_seed", [
    pytest.param(*pin, id=f"argv{i}-{pin[2] or pin[1]}") for i, pin in enumerate(_PINNED)])
def test_reduce_and_subgrid_certificates_are_pinned(argv, digest, with_seed):
    cert = cli.run(argv).certificate
    assert cert["digest"][:16] == digest
    if with_seed is not None:
        restored = dict(cert, parameters={**cert["parameters"], "seed": 0})
        assert certificate_digest(restored)[:16] == with_seed


def _write_coloring_file(path):
    g = grid(5, 2)
    rng = random.Random(5)
    save_coloring(path, MapColoring(KIND_COMPARABILITY, 3,
                                    {k: rng.randint(1, 3) for k in comparability_keys(g)}), g)


def test_reduce_from_coloring_file_is_pinned_and_verifies(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the certificate records the relative path
    _write_coloring_file("coloring.json")
    result = cli.run(_REDUCE + ["comparability", "--n", "5", "--coloring", "coloring.json",
                                "--out", "reduced.json"])
    assert result.exit_code == 0
    assert result.output == "reduced 100 subgrid keys, colors used: [1, 2, 3]"
    assert result.certificate["digest"][:16] == "2949deab983bccc2"
    # The file's r; recording the default 2 instead gives the earlier digest.
    assert result.certificate["parameters"]["r"] == 3
    restored = dict(result.certificate, parameters={**result.certificate["parameters"], "r": 2})
    assert certificate_digest(restored)[:16] == "e6b479d446641973"
    payload = json.loads((tmp_path / "reduced.json").read_text())
    assert payload["coloring_kind"] == KIND_SUBGRID and len(payload["assignment"]) == 100


def test_reduce_from_coloring_file_checks_r_and_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_coloring_file("coloring.json")  # a 3-coloring
    argv = _REDUCE + ["comparability", "--n", "5", "--coloring", "coloring.json"]
    result = cli.run(argv + ["--r", "2"])
    assert (result.exit_code, result.certificate) == (65, None)
    assert "3-coloring, not --r 2" in result.output
    result = cli.run(argv + ["--seed", "4"])
    assert (result.exit_code, result.certificate) == (64, None)
    assert "--seed" in result.output
    result = cli.run(argv + ["--r", "3", "--seed", "0"])
    assert result.exit_code == 0
    assert (result.certificate["parameters"]["r"], result.certificate["parameters"]["seed"]) \
        == (3, 0)
    Path("reduce.cert.json").write_text(json.dumps(result.certificate))
    assert cli.run(["verify", "reduce.cert.json"]).exit_code == 0


def test_verify_round_trip_of_a_reduce_certificate(tmp_path):
    out = tmp_path / "reduce.cert.json"
    argv = _REDUCE + ["subposet", "--n", "6", "--m", "2", "--seed", "3"]
    made = cli.run(argv)
    out.write_text(json.dumps(made.certificate))
    verified = cli.run(["verify", str(out)])
    assert (verified.exit_code, verified.output) == (0, "certificate reproduced bit-exactly")
    # A certificate whose digest matches its body but not the re-run.
    cert = dict(made.certificate, witness=made.certificate["witness"][:-1])
    cert["digest"] = certificate_digest(cert)
    out.write_text(json.dumps(cert))
    rerun = cli.run(["verify", str(out)])
    assert (rerun.exit_code, rerun.output) == (1, "re-run did not reproduce the certificate")
    # An altered body is caught by the digest check on load.
    cert["verdict"] = "tampered"
    out.write_text(json.dumps(cert))
    assert cli.run(["verify", str(out)]).exit_code == 65


def test_verify_checks_the_digest_over_the_file_and_answers_as_before(tmp_path):
    canonical, pretty = tmp_path / "reduce.cert.json", tmp_path / "pretty.json"
    cert = cli.run(_REDUCE + ["subposet", "--n", "6", "--m", "2", "--seed", "3"]).certificate
    save_certificate(canonical, cert)
    assert cli.run(["verify", str(canonical)]).exit_code == 0
    pretty.write_text(json.dumps(cert, indent=2))
    assert cli.run(["verify", str(pretty)]).exit_code == 0
    # The verdict edited in place, the digest left as it was.
    text = canonical.read_text()
    canonical.write_text(text.replace('"verdict":"reduced"', '"verdict":"edited"'))
    assert cli.run(["verify", str(canonical)]).exit_code == 65
    # A file in another layout can carry the SHA-256 of its own text: it passes
    # the check on load, and the payload's digest still answers 65, not 1.
    # With its command, the re-run does not reproduce it; without, it fails.
    mismatch = (65, f"input error: {pretty}: digest mismatch; payload was altered")
    for dropped in (("digest",), ("digest", "command")):
        rest = json.dumps({k: v for k, v in cert.items() if k not in dropped}, indent=1)[1:]
        own = hashlib.sha256(("{" + rest).encode()).hexdigest()
        pretty.write_text("{" + f'"digest":"{own}",' + rest + "\n")
        result = cli.run(["verify", str(pretty)])
        assert (result.exit_code, result.output) == mismatch


@pytest.mark.parametrize("field, value", [
    ("color", 1.5), ("color", True), ("r", 2.7), ("r", "2")])
def test_reduce_rejects_a_coloring_file_with_non_integer_colors_or_r(tmp_path, field, value):
    path = tmp_path / "coloring.json"
    g = grid(3, 2)
    save_coloring(path, MapColoring(KIND_COMPARABILITY, 2,
                                    {k: 1 for k in comparability_keys(g)}), g)
    payload = json.loads(path.read_text())
    if field == "r":
        payload["r"] = value
    else:
        entry = next(e for e in payload["assignment"] if e[0] == [[0, 0], [1, 1]])
        entry[1] = value
    path.write_text(json.dumps(payload))
    result = cli.run(_REDUCE + ["comparability", "--n", "3", "--coloring", str(path)])
    assert (result.exit_code, result.certificate) == (65, None)
    assert "integer" in result.output


def test_reduce_rejects_a_coloring_file_with_keys_that_are_no_comparable_pairs(tmp_path):
    # Every comparable pair of 2^2, then a reversed one and an incomparable one,
    # which the reduction would ignore.
    path, g = tmp_path / "coloring.json", grid(2, 2)
    save_coloring(path, MapColoring(KIND_COMPARABILITY, 2,
                                    {k: 1 for k in comparability_keys(g)}), g)
    payload = json.loads(path.read_text())
    payload["assignment"] += [[[[0, 1], [0, 0]], 1], [[[0, 1], [1, 0]], 2]]
    path.write_text(json.dumps(payload))
    result = cli.run(_REDUCE + ["comparability", "--n", "2", "--coloring", str(path)])
    assert (result.exit_code, result.certificate) == (65, None)
    assert result.output == \
        f"input error: {path}: key [[0,1],[0,0]] is not a comparable pair a < b"


def test_reduce_rejects_a_coloring_file_with_a_coordinate_that_is_not_an_int(tmp_path):
    # false and 0.0 equal 0, and true and 1.0 equal 1: the key once read as (0,0) < (1,1).
    path, g = tmp_path / "coloring.json", grid(2, 2)
    save_coloring(path, MapColoring(KIND_COMPARABILITY, 2,
                                    {k: 1 for k in comparability_keys(g)}), g)
    payload = json.loads(path.read_text())
    entry = next(e for e in payload["assignment"] if e[0] == [[0, 0], [1, 1]])
    entry[0] = [[False, 0.0], [True, 1.0]]
    path.write_text(json.dumps(payload))
    result = cli.run(_REDUCE + ["comparability", "--n", "2", "--coloring", str(path)])
    assert (result.exit_code, result.certificate) == (65, None)
    assert result.output == \
        f"input error: {path}: key [[false,0.0],[true,1.0]]: coordinate false is not an int"


@pytest.mark.parametrize("m", ["-1", "0"])
def test_reduce_cli_rejects_m_below_one(m):
    result = cli.run(_REDUCE + ["subposet", "--n", "9", "--m", m])
    assert result.exit_code == 65
    assert result.certificate is None
    assert "m >= 1" in result.output


def test_reduce_cli_rejects_m_with_comparability(tmp_path):
    # The comparability reduction has no m; only the default is accepted, so
    # one reduced coloring keeps one digest.
    for argv in (["--m", "7"], ["--m", "1"], ["--m", "7", "--coloring", str(tmp_path / "x")]):
        result = cli.run(_REDUCE + ["comparability", "--n", "4", *argv])
        assert (result.exit_code, result.certificate) == (64, None)
        assert "--m" in result.output
    default = cli.run(_REDUCE + ["comparability", "--n", "4", "--seed", "3"])
    explicit = cli.run(_REDUCE + ["comparability", "--n", "4", "--seed", "3", "--m", "2"])
    assert default.exit_code == explicit.exit_code == 0
    for field in ("parameters", "witness"):
        assert default.certificate[field] == explicit.certificate[field]


@pytest.mark.parametrize("argv, n, t, reduce", [
    (["subposet", "--n", "7", "--m", "2", "--r", "3", "--seed", "5"], 7, 2,
     lambda g: reduce_subposet_to_subgrid(hash_coloring(KIND_SUBPOSET, 3, 5), g, 2)),
    (["comparability", "--n", "4", "--t", "3", "--r", "3", "--seed", "9"], 4, 3,
     lambda g: reduce_comparability_to_subgrid(hash_coloring(KIND_COMPARABILITY, 3, 9), g)),
])
def test_reduce_out_loads_to_the_reduction(tmp_path, argv, n, t, reduce):
    out = tmp_path / "reduced.json"
    result = cli.run(_REDUCE + argv + ["--out", str(out)])
    assert result.exit_code == 0
    g = grid(n, t)
    loaded, want = load_coloring(out, g), reduce(g)
    assert (loaded.kind, loaded.r, loaded.assignment) == (want.kind, want.r, want.assignment)
    assert result.output == (f"reduced {len(want.assignment)} subgrid keys, "
                             f"colors used: {sorted(set(want.assignment.values()))}")


def test_reduce_cli_rejects_coloring_with_subposet(tmp_path):
    missing = tmp_path / "missing.json"
    result = cli.run(_REDUCE + ["subposet", "--n", "4", "--coloring", str(missing)])
    assert result.exit_code == 64
    assert "--coloring" in result.output
    _write_coloring_file(tmp_path / "present.json")
    result = cli.run(_REDUCE + ["subposet", "--n", "5", "--coloring",
                                str(tmp_path / "present.json")])
    assert result.exit_code == 64


@pytest.mark.parametrize("argv, code, message", [
    (["subposet", "--n", "16", "--t", "3", "--m", "2"], 65,
     "input error: the core reduction lives in two dimensions"),
    (["subposet", "--n", "9", "--t", "1", "--m", "2"], 65,
     "input error: the core reduction lives in two dimensions"),
    (["subposet", "--n", "9", "--m", "0"], 65,
     "input error: the core reduction needs m >= 1, got 0"),
    (["subposet", "--n", "9", "--m", "4"], 65,
     "input error: the core reduction needs m*m <= n, got m = 4, n = 9"),
    (["comparability", "--n", "16", "--t", "3", "--m", "7"], 64,
     "usage error: --m does not apply to --from comparability"),
    (["comparability", "--n", "16", "--t", "3", "--coloring", "x.json", "--seed", "4"], 64,
     "usage error: --seed does not apply to a --coloring file"),
    (["subposet", "--n", "0", "--m", "2", "--coloring", "x.json"], 65,
     "input error: grid needs k >= 1 and t >= 1"),
])
def test_reduce_cli_refuses_before_building_the_grid(monkeypatch, argv, code, message):
    built = []
    monkeypatch.setattr(cli, "grid", lambda *args: built.append(args) or grid(*args))
    result = cli.run(_REDUCE + argv)
    assert (result.exit_code, result.certificate, result.output) == (code, None, message)
    assert built == []
    assert cli.run(_REDUCE + ["subposet", "--n", "4", "--m", "2"]).exit_code == 0
    assert built == [(4, 2)]


_Point = namedtuple("_Point", "x y")
_BULK_KEYS = [(), (3,), *(tuple(range(5, 5 + k)) for k in range(2, 10)),
              (-4, 2 ** 70, -(2 ** 70)), ((0, 1), (2, 3)), ((0, 2, 3, 8), ((1,), (6, 8))),
              (True, False, 1.5, -0.0, float("inf")), _Point(1, 2), [1, 2], "key"]


@pytest.mark.parametrize("kind", [KIND_COMPARABILITY, KIND_SUBGRID, KIND_SUBPOSET,
                                  ramsey.KIND_PARTITION])
@pytest.mark.parametrize("seed", [0, 7, -3])
def test_hash_coloring_colors_keys_in_bulk_as_color_of_does(kind, seed):
    for r in (2, 3, 5):
        c = hash_coloring(kind, r, seed)
        assert "colors" in vars(c)  # the one-loop override, not Coloring.colors
        want = [1 + _expected_hash(seed, "color", key) % r for key in _BULK_KEYS]
        assert list(c.colors(_BULK_KEYS)) == want
        assert list(map(c.color_of, _BULK_KEYS)) == want
        assert list(c.colors(iter(_BULK_KEYS))) == want


def test_a_biased_hash_coloring_colors_keys_one_at_a_time():
    keys = [key for key in _BULK_KEYS if not isinstance(key, list)]
    for r in (2, 3):
        biased = hash_coloring(KIND_SUBGRID, r, 7, bias_color=r, bias=0.5)
        assert "colors" not in vars(biased)
        want = [r if _expected_hash(7, "bias", key) / 2.0 ** 64 < 0.5
                else 1 + _expected_hash(7, "color", key) % r for key in keys]
        assert list(biased.colors(keys)) == want == list(map(biased.color_of, keys))
        recorder = _Recorder(biased)
        assert list(recorder.colors(keys)) == want
        assert recorder.calls == keys


def test_colors_consumes_keys_lazily_and_stops_at_the_missing_one():
    keys = [(k, k + 1) for k in range(10)]
    partial = MapColoring(KIND_COMPARABILITY, 2, {key: 1 for key in keys if key != (6, 7)})
    consumed = []

    def produce():
        for key in keys:
            consumed.append(key)
            yield key

    # The default colors, here over the map's color_of, is lazy.
    colors = FunctionColoring(KIND_COMPARABILITY, 2, partial.color_of).colors(produce())
    assert consumed == []
    assert next(colors) == 1 and consumed == keys[:1]
    with pytest.raises(ContractViolation, match=re.escape("missing key (6, 7)")):
        list(colors)
    assert consumed == keys[:7]
    # A map's colors reads in one pass and stops at the same key.
    consumed.clear()
    with pytest.raises(ContractViolation, match=re.escape("coloring is not total: missing key (6, 7)")):
        partial.colors(produce())
    assert consumed == keys[:7]
    assert partial.colors(keys[:6]) == [1] * 6
    with pytest.raises(ContractViolation, match=re.escape("missing key (6, 7)")):
        [partial.color_of(key) for key in keys]


@pytest.mark.parametrize("bias", [float("nan"), -0.1, 1.5, float("inf")])
def test_hash_coloring_rejects_a_bias_outside_zero_to_one(bias):
    with pytest.raises(ContractViolation, match="outside \\[0, 1\\]"):
        hash_coloring(KIND_SUBGRID, 2, 7, bias_color=1, bias=bias)


def test_hash_coloring_rejects_a_positive_bias_without_a_bias_color():
    with pytest.raises(ContractViolation, match="needs a bias color"):
        hash_coloring(KIND_SUBGRID, 2, 7, bias=0.5)
    assert hash_coloring(KIND_SUBGRID, 2, 7, bias=0.0).color_of((0,)) == \
        hash_coloring(KIND_SUBGRID, 2, 7).color_of((0,))
    always = hash_coloring(KIND_SUBGRID, 3, 7, bias_color=2, bias=1.0)
    assert {always.color_of((k,)) for k in range(20)} == {2}
