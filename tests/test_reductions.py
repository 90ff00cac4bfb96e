"""Subgrid reductions, the monochromatic-subgrid scan and the subgrid structure
build against the Subgrid / core_elements reference; seeded hash colorings;
pinned reduce certificates; the reduce command's argument checks."""

import hashlib
import json
import random
import re

import pytest

from gridlab import cli, ramsey
from gridlab.errors import ContractViolation
from gridlab.fileio import certificate_digest, save_coloring
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


@pytest.mark.parametrize("m", [-1, 0])
def test_subposet_reduction_rejects_m_below_one(m):
    g = grid(9, 2)
    with pytest.raises(ContractViolation, match="m >= 1"):
        reduce_subposet_to_subgrid(hash_coloring(KIND_SUBPOSET, 2, 0), g, m)


def test_reductions_reject_sides_beyond_the_grid():
    with pytest.raises(ContractViolation):
        reduce_subposet_to_subgrid(hash_coloring(KIND_SUBPOSET, 2, 0), grid(3, 2), 2)
    with pytest.raises(ContractViolation):
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
        got, want = _Recorder(base), _Recorder(base)
        found = find_monochromatic_subgrid(n, t, m, l, got)
        expected = _reference_scan(n, t, m, l, want)
        assert got.calls == want.calls
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
    # The first outer subgrid is monochromatic, so the scan never reaches the gap.
    coloring = MapColoring(KIND_SUBGRID, 2, {key: 1 for key in keys if key != outside})
    found = find_monochromatic_subgrid(n, t, m, l, coloring)
    assert found.subgrid == Subgrid.full(l, t) and found.color == 1


@pytest.mark.parametrize("t, m, l, n", [(1, 2, 3, 6), (2, 1, 2, 4), (2, 2, 3, 5), (3, 1, 2, 3)])
def test_subgrid_structures_match_reference(monkeypatch, t, m, l, n):
    seen = {}

    def capture(keys, structures, r, kind, node_guard, workers):
        seen.update(keys=list(keys), structures=list(structures))
        return ramsey.Verdict("true")

    monkeypatch.setattr(ramsey, "_run_engine", capture)
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


# Digests measured before the reductions moved to axis tuples.
_REDUCE = ["ramsey", "reduce", "--from"]


@pytest.mark.parametrize("argv, digest", [
    (_REDUCE + ["subposet", "--n", "9", "--m", "2", "--seed", "7"], "ffa2a3e07b97599b"),
    (_REDUCE + ["subposet", "--n", "9", "--m", "3", "--r", "3", "--seed", "11"],
     "b81db2f287d7b651"),
    (_REDUCE + ["subposet", "--n", "6", "--m", "1", "--r", "3", "--seed", "2"],
     "7a18ad22ec21559a"),
    (_REDUCE + ["comparability", "--n", "10", "--seed", "4"], "d0b7b90f8c4f22b1"),
    (_REDUCE + ["comparability", "--n", "4", "--t", "3", "--r", "3", "--seed", "9"],
     "4cda6c4275e3181e"),
    (["ramsey", "verify", "--kind", "subgrid", "--t", "2", "--r", "2", "--m", "2", "--l", "3",
      "--n", "5"], "dd95c1823f2482fd"),
    (["ramsey", "verify", "--kind", "subgrid", "--t", "3", "--r", "2", "--m", "1", "--l", "2",
      "--n", "3"], "f1e0f4f8e208ca05"),
    (["ramsey", "verify", "--kind", "subgrid", "--t", "1", "--r", "2", "--m", "2", "--l", "3",
      "--n", "5"], "c69077e62bafead4"),
])
def test_reduce_and_subgrid_certificates_are_pinned(argv, digest):
    assert cli.run(argv).certificate["digest"][:16] == digest


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
    assert result.certificate["digest"][:16] == "e6b479d446641973"
    payload = json.loads((tmp_path / "reduced.json").read_text())
    assert payload["coloring_kind"] == KIND_SUBGRID and len(payload["assignment"]) == 100


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


@pytest.mark.parametrize("m", ["-1", "0"])
def test_reduce_cli_rejects_m_below_one(m):
    result = cli.run(_REDUCE + ["subposet", "--n", "9", "--m", m])
    assert result.exit_code == 65
    assert result.certificate is None
    assert "m >= 1" in result.output


def test_reduce_cli_rejects_coloring_with_subposet(tmp_path):
    missing = tmp_path / "missing.json"
    result = cli.run(_REDUCE + ["subposet", "--n", "4", "--coloring", str(missing)])
    assert result.exit_code == 64
    assert "--coloring" in result.output
    _write_coloring_file(tmp_path / "present.json")
    result = cli.run(_REDUCE + ["subposet", "--n", "5", "--coloring",
                                str(tmp_path / "present.json")])
    assert result.exit_code == 64
