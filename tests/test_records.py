"""Value records: equality, hashing, repr, immutability and pickling.

Every record class of the library is checked against the behaviour of a
frozen dataclass (or, for the two mutable ones, a plain dataclass): field-
tuple equality and hashing, the ``Name(field=value, ...)`` repr, refusal of
assignment and deletion, fresh default containers and pickle round trips.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from gridlab.acceptance import CriterionResult
from gridlab.booldim import BooleanDimResult, BooleanRealizer
from gridlab.cli import RunResult
from gridlab.errors import ContractViolation, Record
from gridlab.extension import (
    AllGoodResult,
    AlternatingCycleCertificate,
    AntipodalPair,
    ConformingEmbedding,
    NonuniformDemoReport,
    Partition,
)
from gridlab.graphs import EdgeColoring
from gridlab.grids import Subgrid, casual_embeddings, unique_realizer_check
from gridlab.poset import LinearExtension, Realizer, make_chain
from gridlab.ramsey import (
    BootstrapResult,
    BootstrapStep,
    MonoWitness,
    ProbeReport,
    ThresholdResult,
    Verdict,
    boolean_lattice_embed,
)

SRC = Path(__file__).resolve().parent.parent / "src"

_EXT = LinearExtension((1, 0, 2))
_SUB = Subgrid(((0, 2), (1, 3)))
_MONO = MonoWitness("subgrid", 1, _SUB)
_PART = Partition(((0, 2), (1,)))
_REALIZER = BooleanRealizer(((0, 1), (1, 0)), frozenset({"10", "01"}))

# (instance, field names in declaration order); the frozen records first.
FROZEN = [
    (_EXT, ("order",)),
    (Realizer((_EXT, _EXT.dual())), ("extensions",)),
    (_SUB, ("axes",)),
    (casual_embeddings(2, 2)[0], ("s", "t", "images")),
    (unique_realizer_check(2), ("s", "extension_count", "pairs_checked", "realizer_pairs",
                                "unique", "matches_lex_colex", "obstruction_i1",
                                "obstruction_i2", "method")),
    (_MONO, ("kind", "color", "subgrid", "elements")),
    (Verdict("false", None, "a reason"), ("status", "counterexample", "reason")),
    (ThresholdResult(3, "found", {3: Verdict("true")}), ("found", "status", "verdicts")),
    (BootstrapStep(make_chain(2), make_chain(3)), ("base", "witness")),
    (BootstrapResult(_MONO, 2), ("witness", "levels")),
    (boolean_lattice_embed(make_chain(2)), ("dimension", "vectors")),
    (ProbeReport(3, 27, (((1,), 2),), (((1,), 2),), (1,)),
     ("n", "copies_scanned", "census", "tie_free_census", "product_type")),
    (_PART, ("parts",)),
    (AntipodalPair("0110"), ("low",)),
    (AlternatingCycleCertificate(0, 1, (0,), (1,), (2,), "01", "10", ((0, 1), (2, 3))),
     ("digit", "axis", "part_a", "part_b", "part_c", "string_b", "string_c", "cycle_pairs")),
    (AllGoodResult(True, "G", None), ("verdict", "color", "certificate")),
    (ConformingEmbedding(2, _PART, (_EXT,), ((1, 2), (2, 1))),
     ("k", "partition", "extensions", "heights")),
    (NonuniformDemoReport((0, 1), 4), ("conflict_pair", "embeddings_checked")),
    (_REALIZER, ("orders", "accepted")),
    (BooleanDimResult(2, _REALIZER, 4), ("dim", "realizer", "d_max")),
    (EdgeColoring(3, (((0, 1), 0), ((1, 2), 1))), ("n", "colors")),
]
MUTABLE = [
    (RunResult(1, "out", {"a": 1}, True), ("exit_code", "output", "certificate", "out_written")),
    (CriterionResult(3, "name", False, ["d"], 1.5), ("number", "name", "passed", "details",
                                                      "seconds")),
]
ALL = FROZEN + MUTABLE


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    library = {cls for cls in subclasses(Record) if cls.__module__.startswith("gridlab.")}
    assert library == {type(record) for record, _ in ALL}
    assert len(library) == 23


def _ids(cases):
    return [type(record).__name__ for record, _ in cases]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("record, names", ALL, ids=_ids(ALL))
def test_record_equality_and_repr_follow_the_fields(record, names):
    cls = type(record)
    values = _values(record, names)
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert not cls(*values) != record
    assert record.__eq__(object()) is NotImplemented
    assert record != values
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("record, names", FROZEN, ids=_ids(FROZEN))
def test_frozen_record_hashes_its_field_tuple_and_refuses_edits(record, names):
    hashed = names[:2] if type(record) is ThresholdResult else names
    assert hash(record) == hash(_values(record, hashed))
    assert hash(type(record)(*_values(record, names))) == hash(record)
    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(record, names[0])
    assert _values(record, names) == _values(type(record)(*_values(record, names)), names)


@pytest.mark.parametrize("record, names", ALL, ids=_ids(ALL))
def test_record_survives_a_pickle_round_trip(record, names):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record
    assert _values(back, names) == _values(record, names)


def test_threshold_result_hash_ignores_its_verdicts():
    a = ThresholdResult(3, "found", {3: Verdict("true")})
    b = ThresholdResult(3, "found", {})
    assert hash(a) == hash(b) == hash((3, "found"))
    assert a != b  # the verdicts still take part in equality
    assert a == ThresholdResult(3, "found", {3: Verdict("true")})
    assert repr(b) == "ThresholdResult(found=3, status='found', verdicts={})"
    with pytest.raises(AttributeError, match="cannot assign to field 'verdicts'"):
        a.verdicts = {}


def test_default_containers_are_fresh_per_instance():
    first, second = ThresholdResult(None, "not-found"), ThresholdResult(None, "not-found")
    assert first.verdicts == {} and first.verdicts is not second.verdicts
    first.verdicts[1] = Verdict("false")
    assert second.verdicts == {}
    c1, c2 = CriterionResult(1, "a", True), CriterionResult(1, "a", True)
    assert c1.details == [] and c1.details is not c2.details and c1.seconds == 0.0
    c1.details.append("x")
    assert c2.details == []
    assert MonoWitness("subgrid", 0) == MonoWitness("subgrid", 0, None, None)
    assert Verdict("true") == Verdict("true", None, "")
    assert RunResult(0) == RunResult(0, "", None, False)


def test_mutable_records_take_assignment_and_are_unhashable():
    result = RunResult(0)
    result.output = "text"
    result.exit_code = 2
    assert result == RunResult(2, "text")
    criterion = CriterionResult(1, "a", True)
    criterion.passed = False
    criterion.seconds = 2.0
    assert criterion == CriterionResult(1, "a", False, [], 2.0)
    for record, _ in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)


def test_records_refuse_wrong_arguments():
    with pytest.raises(TypeError):
        Verdict()
    with pytest.raises(TypeError):
        Verdict("true", None, "", "extra")
    with pytest.raises(TypeError):
        Verdict("true", status="false")
    with pytest.raises(TypeError):
        Verdict("true", colour=1)
    with pytest.raises(TypeError):
        Partition()
    with pytest.raises(TypeError):
        LinearExtension((0,), (1,))


def test_derived_state_survives_keywords_and_pickling():
    ext = LinearExtension(order=(2, 0, 1))
    assert [ext.index(x) for x in range(3)] == [1, 2, 0]
    assert pickle.loads(pickle.dumps(ext)).index(2) == 0
    colors = EdgeColoring(n=3, colors=(((0, 1), 0), ((1, 2), 1)))
    assert pickle.loads(pickle.dumps(colors)).color_of(2, 1) == 1
    assert Partition(parts=((0,), (1,))).ground == 2


@pytest.mark.parametrize("build, message", [
    (lambda: Partition(((),)), "partition parts must be nonempty"),
    (lambda: Partition(((1, 0),)), "parts must be sorted and duplicate-free"),
    (lambda: Partition(((0, 0),)), "parts must be sorted and duplicate-free"),
    (lambda: Partition(((0, 1), (1, 2))), "parts must be disjoint"),
    (lambda: Partition(((0,), (2,))), "parts must cover 0..ground-1 exactly"),
    (lambda: Subgrid(((0, 1), ())), "subgrid axis sets must be nonempty"),
    (lambda: Subgrid(((1, 0),)), "subgrid axis sets must be sorted and duplicate-free"),
    (lambda: AntipodalPair(""), "antipodal strings are nonempty over {0,1}"),
    (lambda: AntipodalPair("012"), "antipodal strings are nonempty over {0,1}"),
    (lambda: AntipodalPair("10"), "the representative string starts with 0"),
    (lambda: AntipodalPair("000"), "the constant pair is not antipodal"),
    (lambda: LinearExtension((0, 0)), "order is not a permutation"),
    (lambda: LinearExtension((1, 2)), "order is not a permutation"),
    (lambda: LinearExtension((-1, 0)), "order is not a permutation"),
])
def test_validating_records_keep_their_messages(build, message):
    with pytest.raises(ContractViolation) as info:
        build()
    assert str(info.value) == message


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, gridlab.cli, gridlab.fileio; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
