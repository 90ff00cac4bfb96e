"""File formats: round trips, validation failures, certificate digests."""

import json
import random
from itertools import combinations, product

import pytest

from gridlab.booldim import BooleanRealizer
from gridlab.errors import ContractViolation, InvalidInput
from gridlab.extension import partition_ramsey_search
from gridlab.fileio import (
    canonical_json,
    certificate_digest,
    certificate_head,
    coloring_items,
    coloring_payload,
    load_boolean_realizer,
    load_certificate,
    load_coloring,
    load_graph,
    load_poset,
    make_certificate,
    product_assignment,
    save_boolean_realizer,
    save_certificate,
    save_coloring,
    save_graph,
    save_poset,
)
from gridlab.graphs import Graph
from gridlab.grids import enumerate_subgrids, grid
from gridlab.poset import Poset, is_isomorphic, make_chain
from gridlab.ramsey import KIND_COMPARABILITY, KIND_PARTITION, KIND_SUBGRID, KIND_SUBPOSET, \
    MapColoring, comparability_keys, hash_coloring, reduce_subposet_to_subgrid, verify_at


def test_poset_round_trip(tmp_path):
    p = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                          labels=["bot", "a", "b", "top"])
    path = tmp_path / "diamond.poset"
    save_poset(path, p)
    q = load_poset(path)
    assert q == p and q.labels == p.labels


def test_poset_loader_computes_closure(tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "poset",
        "elements": ["x", "y", "z"],
        "covers": [["x", "y"], ["y", "z"]]}))
    p = load_poset(path)
    assert p.lt(0, 2)


def test_poset_loader_rejects_cycles_and_bad_labels(tmp_path):
    path = tmp_path / "bad.poset"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "poset",
        "elements": ["x", "y"], "covers": [["x", "y"], ["y", "x"]]}))
    with pytest.raises(InvalidInput):
        load_poset(path)
    path.write_text(json.dumps({
        "format_version": 1, "kind": "poset",
        "elements": ["x"], "covers": [["x", "w"]]}))
    with pytest.raises(InvalidInput):
        load_poset(path)


def test_poset_loader_rejects_wrong_version(tmp_path):
    path = tmp_path / "old.poset"
    path.write_text(json.dumps({"format_version": 99, "kind": "poset",
                                "elements": ["x"], "covers": []}))
    with pytest.raises(InvalidInput):
        load_poset(path)


def test_graph_round_trip(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "c4.graph"
    save_graph(path, g)
    assert load_graph(path) == g


def test_coloring_round_trip(tmp_path):
    g = grid(3, 2)
    c = MapColoring(KIND_COMPARABILITY, 2,
                    {key: 1 + (i % 2) for i, key in
                     enumerate(comparability_keys(g))})
    path = tmp_path / "c.coloring"
    save_coloring(path, c, g)
    back = load_coloring(path, g)
    assert back.assignment == c.assignment and back.r == 2
    with pytest.raises(InvalidInput):
        load_coloring(path, grid(4, 2))


def _coloring_file_with(path, kind, raw_key) -> dict:
    """A 2-coloring file of 3^2 whose fifth key is ``raw_key``; its payload."""
    g = grid(3, 2)
    rng = random.Random(5)
    save_coloring(path, MapColoring(kind, 2, {key: rng.randint(1, 2)
                                              for key in comparability_keys(g)}), g)
    payload = json.loads(path.read_text())
    payload["assignment"][4][0] = raw_key
    path.write_text(json.dumps(payload))
    return payload


@pytest.mark.parametrize("kind", [KIND_COMPARABILITY, KIND_SUBPOSET])
@pytest.mark.parametrize("raw_key, message", [
    ([[0, 0], [3, 1]], "coordinate 3 outside 0..2"),
    ([[0, -1], [2, 1]], "coordinate -1 outside 0..2"),
    ([[0, "a"], [2, 1]], "'<=' not supported between instances of 'int' and 'str'"),
    ([[0, [1]], [2, 1]], "'<=' not supported between instances of 'int' and 'list'"),
    ([5, [2, 1]], "'int' object is not iterable"),
])
def test_load_coloring_refuses_a_malformed_coordinate_as_grid_index_does(
        tmp_path, kind, raw_key, message):
    path = tmp_path / "c.coloring"
    _coloring_file_with(path, kind, raw_key)
    with pytest.raises(InvalidInput) as info:
        load_coloring(path, grid(3, 2))
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("kind", [KIND_COMPARABILITY, KIND_SUBPOSET])
@pytest.mark.parametrize("raw_key", [[[0, 1], [2, 2]], [[0, 1], [1, 0, 2]], [[1], [2, 2]],
                                     [{}, [2, 2]]])
def test_load_coloring_reads_keys_as_grid_index_does(tmp_path, kind, raw_key):
    # The edited key is read as g.index reads its coordinates: a coordinate
    # list of the wrong length is refused with g.index's message, and so is a
    # dict, which reads as (). Otherwise the other entry of the key that the
    # edited one now names is dropped, since a key listed twice is refused.
    path, g = tmp_path / "c.coloring", grid(3, 2)
    payload = _coloring_file_with(path, kind, raw_key)
    try:
        for c in raw_key:
            g.index(tuple(c))
    except ContractViolation as refused:
        with pytest.raises(InvalidInput) as info:
            load_coloring(path, g)
        assert str(info.value) == f"{path}: {refused}"
        return

    def read(raw):
        a, b = (g.index(tuple(c)) for c in raw)
        return (a, b) if kind == KIND_COMPARABILITY else tuple(sorted((a, b)))

    payload["assignment"] = [item for i, item in enumerate(payload["assignment"])
                             if i == 4 or read(item[0]) != read(raw_key)]
    path.write_text(json.dumps(payload))
    want = {read(raw): color for raw, color in payload["assignment"]}
    assert list(load_coloring(path, g).assignment.items()) == list(want.items())


@pytest.mark.parametrize("raw_key", [
    [[0, 1], [0, 0]],  # a comparable pair, reversed
    [[0, 1], [1, 0]],  # an incomparable pair
    [[1, 1], [1, 1]],  # an element with itself
])
def test_load_coloring_refuses_a_comparability_key_that_is_no_comparable_pair(
        tmp_path, raw_key):
    # Every comparable pair of 2^2 is listed, so a key that is none would be
    # ignored by every use of the coloring.
    g = grid(2, 2)
    items = [[[list(g.coords(a)), list(g.coords(b))], 1] for a, b in comparability_keys(g)]
    path = tmp_path / "c.coloring"
    path.write_text(json.dumps({"format_version": 1, "kind": "coloring",
                                "coloring_kind": KIND_COMPARABILITY, "n": 2, "t": 2, "r": 2,
                                "assignment": items + [[raw_key, 2]]}))
    with pytest.raises(InvalidInput) as info:
        load_coloring(path, g)
    assert str(info.value) == \
        f"{path}: key {canonical_json(raw_key)} is not a comparable pair a < b"


@pytest.mark.parametrize("kind, first, again", [
    (KIND_COMPARABILITY, [[0, 0], [0, 1]], [[0, 0], [0, 1]]),
    (KIND_SUBPOSET, [[0, 0], [0, 1]], [[0, 1], [0, 0]]),  # one key, read sorted
])
def test_load_coloring_refuses_a_key_listed_twice(tmp_path, kind, first, again):
    path = tmp_path / "c.coloring"
    path.write_text(json.dumps({"format_version": 1, "kind": "coloring", "coloring_kind": kind,
                                "n": 2, "t": 2, "r": 2,
                                "assignment": [[first, 1], [[[0, 0], [1, 1]], 1], [again, 2]]}))
    with pytest.raises(InvalidInput) as info:
        load_coloring(path, grid(2, 2))
    assert str(info.value) == f"{path}: key {canonical_json(again)} is listed twice"


def test_subgrid_coloring_round_trip(tmp_path):
    g = grid(3, 2)
    c = MapColoring(KIND_SUBGRID, 3, {((0, 1), (1, 2)): 2, ((0, 2), (0, 1)): 3})
    path = tmp_path / "s.coloring"
    save_coloring(path, c, g)
    assert load_coloring(path, g).assignment == c.assignment


def test_boolean_realizer_round_trip(tmp_path):
    br = BooleanRealizer(((0, 1, 2), (2, 1, 0)), frozenset({"10", "11"}))
    path = tmp_path / "br.json"
    save_boolean_realizer(path, br)
    assert load_boolean_realizer(path) == br


def test_certificate_digest_and_tamper(tmp_path):
    cert = make_certificate(["grid", "core", "--s", "2"], {"s": 2}, "core",
                            [[0, 0], [1, 2], [2, 1], [3, 3]])
    assert cert["digest"] == certificate_digest(cert)
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    assert load_certificate(path) == cert
    path.write_text(json.dumps(cert, indent=2))  # another layout is re-encoded
    assert load_certificate(path) == cert
    tampered = dict(cert)
    tampered["verdict"] = "not-core"
    save_certificate(path, tampered)
    with pytest.raises(InvalidInput):
        load_certificate(path)
    path.write_text(json.dumps(tampered, indent=2))
    with pytest.raises(InvalidInput, match="digest mismatch"):
        load_certificate(path)


def test_a_file_that_is_not_utf8_is_bad_input(tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(b'{"kind": "certificate", "verdict": "\xff"}')
    with pytest.raises(InvalidInput, match="cannot read"):
        load_certificate(path)


def test_json_nested_too_deep_is_bad_input(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"command":' + "[" * 100_000 + "]" * 100_000 + "}")
    assert certificate_head(path.read_text()) is None
    with pytest.raises(InvalidInput, match="cannot read"):
        load_certificate(path)
    with pytest.raises(InvalidInput, match="cannot read"):
        load_poset(path)


def test_certificate_head_reads_only_a_canonical_file_that_hashes_to_its_digest(tmp_path):
    command = ["grid", "core", "--s", "2"]
    cert = make_certificate(command, {"s": 2}, "core", [[0, 0], [1, 2], [2, 1], [3, 3]])
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    text = path.read_text()
    assert certificate_head(text) == (command, cert["digest"])
    assert certificate_head(text.removesuffix("\n")) == (command, cert["digest"])
    digest = cert["digest"]
    for other in (json.dumps(cert, indent=2),  # another layout
                  text.replace('"core"', '"not-core"'),  # tampered
                  text[:text.index('"format_version"') + 5],  # truncated
                  text.replace(digest, digest.upper()),  # not lower-case hex
                  text.replace(digest, digest[:-1]),  # not 64 digits
                  text.replace('{"command":', '{ "command":'),
                  text.replace('"command":["grid",', '"command":[ "grid",')):
        assert certificate_head(other) is None


@pytest.mark.parametrize("command", [None, [1, 2], "grid", ["grid", 2]])
def test_a_certificate_command_must_be_a_list_of_strings(tmp_path, command):
    cert = make_certificate([], {}, "core", None)
    cert["command"] = command
    cert["digest"] = certificate_digest(cert)
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    assert certificate_head(path.read_text()) is None
    with pytest.raises(InvalidInput, match="command must be a list of strings"):
        load_certificate(path)
    del cert["command"]
    cert["digest"] = certificate_digest(cert)
    save_certificate(path, cert)
    with pytest.raises(InvalidInput, match="command must be a list of strings"):
        load_certificate(path)


def _grid_coords(e, g):
    """Coordinates of grid element e, the leftmost coordinate most significant."""
    out = []
    for _ in range(g.t):
        e, c = divmod(e, g.k)
        out.insert(0, c)
    return out


def _reference_assignment(coloring, g):
    """The coloring file's assignment: lists per axis or partition part,
    coordinates per element."""
    out = []
    for key, color in sorted(coloring.assignment.items()):
        if coloring.kind in (KIND_SUBGRID, KIND_PARTITION):
            raw = [list(part) for part in key]
        else:
            raw = [_grid_coords(e, g) for e in key]
        out.append([raw, color])
    return out


def _comparability_t3():
    g = grid(3, 3)
    rng = random.Random(3)
    return MapColoring(KIND_COMPARABILITY, 3,
                       {k: rng.randint(1, 3) for k in comparability_keys(g)}), g


def _subgrid():
    g = grid(7, 2)
    return reduce_subposet_to_subgrid(hash_coloring(KIND_SUBPOSET, 2, 5), g, 2), g


def _subposet():
    g = grid(3, 2)
    rng = random.Random(4)
    return MapColoring(KIND_SUBPOSET, 2,
                       {key: rng.randint(1, 2) for key in combinations(range(9), 4)}), g


@pytest.mark.parametrize("make", [_comparability_t3, _subgrid, _subposet],
                         ids=["comparability-t3", "subgrid", "subposet"])
def test_coloring_payload_matches_a_per_key_encoder(make):
    coloring, g = make()
    payload = coloring_payload(coloring, g)
    assert payload["assignment"] == _reference_assignment(coloring, g)
    assert json.loads(canonical_json(payload)) == payload


def test_save_poset_emits_cover_relation(tmp_path):
    p = make_chain(4)
    path = tmp_path / "chain.poset"
    save_poset(path, p)
    payload = json.loads(path.read_text())
    assert len(payload["covers"]) == 3  # transitive pairs are not stored
    assert is_isomorphic(load_poset(path), p) is not None


def _random_coloring(kind, keys, r, seed):
    rng = random.Random(seed)
    return MapColoring(kind, r, {key: rng.randint(1, r) for key in keys})


def _engine_counterexample(kind, t, r, m, l, n):
    verdict = verify_at(kind, t, r, m, l, n)
    assert verdict.status == "false"
    return verdict.counterexample, grid(n, t)


_WITNESSES = {
    "subgrid-t1": lambda: (_random_coloring(
        KIND_SUBGRID, [s.axes for s in enumerate_subgrids(7, 1, 3)], 2, 1), grid(7, 1)),
    "subgrid-t2": lambda: (_random_coloring(
        KIND_SUBGRID, [s.axes for s in enumerate_subgrids(6, 2, 2)], 3, 2), grid(6, 2)),
    "subgrid-t3": lambda: (_random_coloring(
        KIND_SUBGRID, [s.axes for s in enumerate_subgrids(4, 3, 2)], 2, 3), grid(4, 3)),
    "subgrid-r12": lambda: (_random_coloring(
        KIND_SUBGRID, [s.axes for s in enumerate_subgrids(6, 2, 2)], 12, 4), grid(6, 2)),
    # A full product whose dict was filled in shuffled order: it is written in key order.
    "subgrid-shuffled": lambda: (_random_coloring(
        KIND_SUBGRID, random.Random(6).sample([s.axes for s in enumerate_subgrids(6, 2, 3)],
                                              400), 3, 6), grid(6, 2)),
    "subgrid-t3-r12": lambda: (_random_coloring(
        KIND_SUBGRID, [s.axes for s in enumerate_subgrids(5, 3, 2)], 12, 7), grid(5, 3)),
    "comparability-r12": lambda: (_random_coloring(
        KIND_COMPARABILITY, comparability_keys(grid(3, 3)), 12, 5), grid(3, 3)),
    "comparability-engine": lambda: _engine_counterexample(KIND_COMPARABILITY, 2, 2, None, 2, 3),
    "subposet-engine": lambda: _engine_counterexample(KIND_SUBPOSET, 2, 2, 2, 3, 5),
    # The 2-partitions of [5], keyed by their parts; no grid is named.
    "partition-engine": lambda: (
        partition_ramsey_search(2, 3, 2, 5).counterexamples()[5], None),
    "one-key": lambda: (MapColoring(KIND_SUBGRID, 11, {((0, 2), (1, 3)): 10}), grid(4, 2)),
    "empty": lambda: (MapColoring(KIND_SUBPOSET, 2, {}), grid(3, 2)),
    # True == 1 as a dict key, but JSON writes it as true.
    "bool-colors": lambda: (MapColoring(KIND_SUBGRID, 2, {((0, 1), (0, 1)): True,
                                                          ((0, 1), (0, 2)): 1}), grid(3, 2)),
}


@pytest.mark.parametrize("name", list(_WITNESSES))
def test_coloring_items_match_a_per_key_encoder(name):
    coloring, g = _WITNESSES[name]()
    items, want = coloring_items(coloring, g), _reference_assignment(coloring, g)
    assert items == want
    assert canonical_json(items) == canonical_json(want)  # True == 1, but JSON writes true


@pytest.mark.parametrize("name", [name for name in _WITNESSES if name.startswith("subgrid-")])
def test_product_assignment_writes_a_full_product_as_the_per_key_reference(name):
    coloring, g = _WITNESSES[name]()
    axes = [sorted(set(axis_list)) for axis_list in zip(*coloring.assignment)]
    keys = list(product(*axes))
    assert len(keys) == len(coloring.assignment)
    items, text = product_assignment(axes, [coloring.assignment[key] for key in keys])
    assert items == _reference_assignment(coloring, g)
    assert text == canonical_json(items)
    cert = make_certificate(["ramsey", "reduce"], {"n": g.k}, "reduced", items, text)
    assert cert["digest"] == certificate_digest(cert)
    assert cert == make_certificate(["ramsey", "reduce"], {"n": g.k}, "reduced", items)


@pytest.mark.parametrize("count", [35, 37])
def test_product_assignment_refuses_a_color_list_of_the_wrong_length(count):
    axes = [list(combinations(range(4), 2))] * 2
    want = f"^{count} colors for the 36 keys of the product$"
    with pytest.raises(ContractViolation, match=want):
        product_assignment(axes, [1] * count)
