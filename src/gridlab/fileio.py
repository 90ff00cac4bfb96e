"""Structured-text (JSON) file formats and digest-carrying certificates.

Every format carries ``format_version``; loaders validate shape and
semantics and raise InvalidInput. Certificates digest their canonical JSON
payload, so re-running the recorded command must reproduce the verdict and
witness byte-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from itertools import chain, product
from operator import getitem
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .booldim import BooleanRealizer
from .errors import ContractViolation, InvalidInput
from .graphs import Graph
from .grids import GridPoset
from .poset import Poset
from .ramsey import (
    KIND_COMPARABILITY,
    KIND_PARTITION,
    KIND_SUBGRID,
    KIND_SUBPOSET,
    MapColoring,
)

FORMAT_VERSION = 1

PathLike = Union[str, Path]


# Payloads are trees of fresh lists and dicts, so the cycle check is waste.
# One encoder serves every call: json.dumps would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj)


def read_text(path: PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _parse_json(path: PathLike, text: str) -> dict:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInput(f"{path}: top-level value must be an object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise InvalidInput(f"{path}: unsupported format_version")
    return payload


def _read_json(path: PathLike) -> dict:
    return _parse_json(path, read_text(path))


def _write_json(path: PathLike, payload: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _labels_and_pairs(path: PathLike, payload: dict, labels_key: str, pairs_key: str,
                      nonempty: bool = False) -> tuple[list, list]:
    """A file's distinct str labels, and its label pairs (none when the list
    is missing) as index pairs."""
    labels = payload.get(labels_key)
    if not (_is_str_list(labels) and len(set(labels)) == len(labels)
            and (labels or not nonempty)):
        raise InvalidInput(f"{path}: {labels_key!r} must list distinct labels")
    entries = payload.get(pairs_key, [])
    if not (isinstance(entries, list) and
            all(_is_str_list(entry) and len(entry) == 2 for entry in entries)):
        raise InvalidInput(f"{path}: {pairs_key} must be label pairs")
    index = {label: i for i, label in enumerate(labels)}
    try:
        return labels, [(index[a], index[b]) for a, b in entries]
    except KeyError as exc:
        raise InvalidInput(f"{path}: {pairs_key} use unknown label {exc}") from exc


# -- posets --------------------------------------------------------------------


def poset_payload(p: Poset) -> dict:
    labels = list(p.labels) if p.labels is not None else [str(i) for i in range(p.n)]
    covers = []
    for a in range(p.n):
        for b in range(p.n):
            if p.lt(a, b) and not any(p.lt(a, z) and p.lt(z, b) for z in range(p.n)):
                covers.append([labels[a], labels[b]])
    return {"format_version": FORMAT_VERSION, "kind": "poset",
            "elements": labels, "covers": covers}


def save_poset(path: PathLike, p: Poset) -> None:
    _write_json(path, poset_payload(p))


def load_poset(path: PathLike) -> Poset:
    payload = _read_json(path)
    if payload.get("kind") != "poset":
        raise InvalidInput(f"{path}: not a poset file")
    elements, pairs = _labels_and_pairs(path, payload, "elements", "covers", nonempty=True)
    try:
        return Poset.from_covers(len(elements), pairs, labels=elements)
    except ContractViolation as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


# -- graphs --------------------------------------------------------------------


def graph_payload(g: Graph, labels: Optional[Sequence[str]] = None) -> dict:
    labels = list(labels) if labels is not None else [str(i) for i in range(g.n)]
    return {"format_version": FORMAT_VERSION, "kind": "graph",
            "vertices": labels,
            "edges": [[labels[u], labels[v]] for u, v in g.edges()]}


def save_graph(path: PathLike, g: Graph) -> None:
    _write_json(path, graph_payload(g))


def load_graph(path: PathLike) -> Graph:
    payload = _read_json(path)
    if payload.get("kind") != "graph":
        raise InvalidInput(f"{path}: not a graph file")
    vertices, edges = _labels_and_pairs(path, payload, "vertices", "edges")
    try:
        return Graph(len(vertices), edges)
    except ContractViolation as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


# -- grid colorings ---------------------------------------------------------------


def _key_reader(kind: str, g: GridPoset):
    """The reader of a coloring file's raw keys of ``kind`` against ``g``.

    Coordinates are looked up in one table per call; one the table misses,
    or an unhashable one, is read by ``g.index``, which refuses it with its
    message. A comparability key must be a pair a < b of ``g``.
    """
    if kind == KIND_SUBGRID:
        return lambda raw: tuple(tuple(axis) for axis in raw)
    # Index order is lexicographic order on coordinates.
    table = {c: e for e, c in enumerate(product(range(g.k), repeat=g.t))}

    def index(c) -> int:
        c = tuple(c)
        try:
            return table[c]
        except (KeyError, TypeError):  # TypeError: a list coordinate, say
            return g.index(c)

    up = g.up

    def pair(raw):
        a, b = raw
        a, b = index(a), index(b)
        if not up[a] >> b & 1:
            raise ContractViolation(f"key {canonical_json(raw)} is not a comparable pair a < b")
        return a, b

    return pair if kind == KIND_COMPARABILITY else lambda raw: tuple(sorted(map(index, raw)))


def product_assignment(axes: Sequence[Sequence[tuple]], colors: Sequence[int]
                       ) -> tuple[list, str]:
    """The assignment list of a subgrid coloring whose keys are the product of
    ``axes``, one sorted list of axes per dimension, and its text,
    ``canonical_json(items)``. ``colors`` are the keys' int colors in product
    order, which is key order, one per key. The items are those
    ``coloring_items`` gives for the same keys and colors as a ``MapColoring``.

    It works one block at a time, a block being one choice of the first
    axes. Each axis is encoded once, and so is each "last axis, color" tail
    of a key's text, for each color that occurs. A block's text is its head
    (``[[A,``) joined to the tails its colors pick.
    """
    size = math.prod(map(len, axes))
    if len(colors) != size:
        raise ContractViolation(f"{len(colors)} colors for the {size} keys of the product")
    if not size:
        return [], "[]"
    lists = [[list(axis) for axis in axis_list] for axis_list in axes]
    texts = [[canonical_json(axis) for axis in axis_list] for axis_list in lists]
    last = lists[-1]
    width = len(last)
    used = set(colors)
    tails = [{color: f"{text}],{color}]" for color in used} for text in texts[-1]]
    items: list = []
    blocks: list = []
    start = 0
    for prefix, prefix_text in zip(product(*lists[:-1]), product(*texts[:-1])):
        block = colors[start:start + width]
        start += width
        head = "[[" + "".join([text + "," for text in prefix_text])
        items += [[[*prefix, axis], color] for axis, color in zip(last, block)]
        blocks.append(head + ("," + head).join(map(getitem, tails, block)))
    return items, "[" + ",".join(blocks) + "]"


def coloring_items(coloring: MapColoring, g: Optional[GridPoset] = None) -> list:
    """A coloring's assignment list in key order, each key one list per part.

    An axis (subgrid) or a partition part is written as its list, a grid
    element (comparability, subposet) as its coordinates in ``g``. Each
    distinct part becomes one JSON list, shared by every key that holds it:
    there are far fewer of them than keys.
    """
    parts = set(chain.from_iterable(coloring.assignment))
    if coloring.kind in (KIND_SUBGRID, KIND_PARTITION):
        part = {x: list(x) for x in parts}
    else:
        part = {e: list(g.coords(e)) for e in parts}
    return [[[part[x] for x in key], color] for key, color in coloring.items()]


def _coloring_file(kind: str, r: int, g: GridPoset, assignment: list) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "coloring",
            "coloring_kind": kind, "r": r, "n": g.k, "t": g.t, "assignment": assignment}


def coloring_payload(coloring: MapColoring, g: GridPoset) -> dict:
    return _coloring_file(coloring.kind, coloring.r, g, coloring_items(coloring, g))


def save_coloring(path: PathLike, coloring: MapColoring, g: GridPoset) -> None:
    _write_json(path, coloring_payload(coloring, g))


def save_assignment(path: PathLike, kind: str, r: int, g: GridPoset, assignment: list) -> None:
    """Write the coloring file of an assignment list in key order, as
    ``save_coloring`` writes a coloring's."""
    _write_json(path, _coloring_file(kind, r, g, assignment))


def load_coloring(path: PathLike, g: GridPoset) -> MapColoring:
    payload = _read_json(path)
    if payload.get("kind") != "coloring":
        raise InvalidInput(f"{path}: not a coloring file")
    kind = payload.get("coloring_kind")
    if kind not in (KIND_COMPARABILITY, KIND_SUBGRID, KIND_SUBPOSET):
        raise InvalidInput(f"{path}: unknown coloring kind {kind!r}")
    if payload.get("n") != g.k or payload.get("t") != g.t:
        raise InvalidInput(f"{path}: coloring is for a {payload.get('n')}^"
                           f"{payload.get('t')} grid")
    r = payload.get("r")
    if type(r) is not int:  # bool is an int subclass, and not a color count
        raise InvalidInput(f"{path}: 'r' must be an integer, got {r!r}")
    key = _key_reader(kind, g)
    entries = payload.get("assignment", ())
    try:
        assignment = {key(raw): color for raw, color in entries}
    except (ContractViolation, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    if len(assignment) != len(entries):  # a key listed twice, which the dict kept once
        seen = set()
        for raw, _ in entries:
            k = key(raw)
            if k in seen:
                raise InvalidInput(f"{path}: key {canonical_json(raw)} is listed twice")
            seen.add(k)
    for color in assignment.values():
        if type(color) is not int:
            raise InvalidInput(f"{path}: color {color!r} is not an integer")
    try:
        return MapColoring(kind, r, assignment)
    except ContractViolation as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


# -- Boolean realizers -------------------------------------------------------------


def boolean_realizer_payload(br: BooleanRealizer) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": "boolean-realizer",
            "orders": [list(order) for order in br.orders],
            "accepted": sorted(br.accepted)}


def save_boolean_realizer(path: PathLike, br: BooleanRealizer) -> None:
    _write_json(path, boolean_realizer_payload(br))


def load_boolean_realizer(path: PathLike) -> BooleanRealizer:
    payload = _read_json(path)
    if payload.get("kind") != "boolean-realizer":
        raise InvalidInput(f"{path}: not a boolean-realizer file")
    orders, accepted = payload.get("orders"), payload.get("accepted")
    if not (isinstance(orders, list) and all(
            isinstance(order, list) and all(type(x) is int for x in order)
            for order in orders)):
        raise InvalidInput(f"{path}: 'orders' must be lists of integers")
    if not _is_str_list(accepted):
        raise InvalidInput(f"{path}: 'accepted' must be a list of strings")
    return BooleanRealizer(tuple(map(tuple, orders)), frozenset(accepted))


# -- certificates -------------------------------------------------------------------


def certificate_digest(payload: Mapping) -> str:
    body = {k: v for k, v in payload.items() if k != "digest"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def make_certificate(command: Sequence[str], parameters: Mapping,
                     verdict: str, witness, witness_text: Optional[str] = None) -> dict:
    """A certificate and its digest. ``witness_text``, when given, must be
    ``canonical_json(witness)``; the digest then hashes it as it stands."""
    head = {"format_version": FORMAT_VERSION, "kind": "certificate",
            "command": list(command), "parameters": dict(parameters), "verdict": verdict}
    if witness_text is None:
        witness_text = canonical_json(witness)
    # "witness" sorts after every other key, so it closes the body.
    body = f'{canonical_json(head)[:-1]},"witness":{witness_text}}}'
    return {**head, "witness": witness, "digest": hashlib.sha256(body.encode()).hexdigest()}


def save_certificate(path: PathLike, cert: Mapping) -> None:
    _write_json(path, cert)


def _text_digest(text: str, digest) -> Optional[str]:
    """SHA-256 of a canonical certificate file's text without its digest entry.

    In canonical layout that text is the digested body byte for byte, and the
    top-level entry is the first ``"digest":`` key: only ``"command"``, a list
    of strings, sorts before it. None when the entry is not there as written.
    """
    head, entry, tail = text.removesuffix("\n").partition(f'"digest":"{digest}",')
    if not entry:
        return None
    return hashlib.sha256((head + tail).encode()).hexdigest()


_DIGEST_ENTRY = re.compile(r',"digest":"([0-9a-f]{64})",')


def certificate_head(text: str) -> Optional[tuple[list, str]]:
    """The command and digest of a canonical certificate file's text.

    Only the command is decoded; the rest of the text is hashed, not parsed.
    None unless the file starts ``{"command":[...],"digest":"<hex>",`` and its
    text without that digest entry hashes to the digest.
    """
    if not text.startswith('{"command":'):
        return None
    try:
        command, end = json.JSONDecoder().raw_decode(text, 11)
    except (ValueError, RecursionError):
        return None
    entry = _DIGEST_ENTRY.match(text, end)
    if not _is_str_list(command) or entry is None:
        return None
    digest = entry.group(1)
    return (command, digest) if _text_digest(text, digest) == digest else None


def load_certificate(path: PathLike) -> dict:
    """Load a certificate whose digest matches its body."""
    return parse_certificate(path, read_text(path))


def parse_certificate(path: PathLike, text: str) -> dict:
    """The certificate in ``text``, read from ``path``, if its digest is
    ``certificate_digest`` of its payload, whatever the file's layout."""
    payload = _parse_json(path, text)
    if payload.get("kind") != "certificate":
        raise InvalidInput(f"{path}: not a certificate file")
    if "digest" not in payload:
        raise InvalidInput(f"{path}: certificate has no digest")
    if certificate_digest(payload) != payload["digest"]:
        raise InvalidInput(f"{path}: digest mismatch; payload was altered")
    if not _is_str_list(payload.get("command")):
        raise InvalidInput(f"{path}: command must be a list of strings")
    return payload
