"""The threshold scanner and its two adapters, the partition search on the
shared engine entry point, and the flags of `ramsey verify/search`."""

import pytest

from gridlab import ramsey
from gridlab.cli import run
from gridlab.extension import partition_ramsey_search
from gridlab.ramsey import KIND_PARTITION, KIND_SUBGRID, min_ramsey_n


def _cells(limit, **guards):
    return min_ramsey_n(2, 2, 1, 2, KIND_SUBGRID, limit, **guards)


def _partitions(limit, **guards):
    return partition_ramsey_search(2, 3, 2, limit, **guards)


# (adapter, first size, threshold, the size where node_guard=10 stops the scan)
@pytest.mark.parametrize("search, first, threshold, guarded", [
    (_cells, 2, 5, 4),
    (_partitions, 3, 6, 6),
])
def test_adapters_share_the_threshold_scan(search, first, threshold, guarded):
    res = search(threshold + 1)
    assert (res.found, res.status) == (threshold, "found")
    assert list(res.verdicts) == list(range(first, threshold + 1))
    assert sorted(res.counterexamples()) == list(range(first, threshold))

    res = search(threshold - 1)
    assert (res.found, res.status) == (None, "not-found")
    assert [v.status for v in res.verdicts.values()] == ["false"] * (threshold - first)

    res = search(threshold + 1, node_guard=10)
    assert (res.found, res.status) == (None, "inconclusive")
    assert list(res.verdicts) == list(range(first, guarded + 1))
    assert res.verdicts[guarded].status == "inconclusive"
    assert "node guard 10" in res.verdicts[guarded].reason
    assert sorted(res.counterexamples()) == list(range(first, guarded))


def test_partition_search_honours_workers(monkeypatch):
    calls = []
    search = ramsey.search_counterexample

    def recorder(num_keys, structures, r, node_guard, symmetry, workers):
        calls.append(workers)
        return search(num_keys, structures, r, node_guard, symmetry, workers)

    monkeypatch.setattr(ramsey, "search_counterexample", recorder)
    serial = partition_ramsey_search(2, 3, 2, 7)
    assert calls == [1, 1, 1, 1]  # k = 3, 4, 5, 6
    calls.clear()
    sharded = partition_ramsey_search(2, 3, 2, 7, workers=2)
    assert calls == [2, 2, 2, 2]
    assert (sharded.found, sharded.status) == (6, "found")
    cex = sharded.counterexamples()
    assert {k: c.kind for k, c in cex.items()} == dict.fromkeys([3, 4, 5], KIND_PARTITION)
    assert {k: c.assignment for k, c in cex.items()} == \
        {k: c.assignment for k, c in serial.counterexamples().items()}


_PARTITION = ["extension", "partition-ramsey", "--s", "2", "--t", "3", "--r", "2"]


def test_partition_ramsey_cli_exit_codes():
    res = run(_PARTITION + ["--k-max", "5"])
    assert (res.exit_code, res.output) == (1, "no k <= 5 (not-found)")
    assert res.certificate["verdict"] == "not-found"
    res = run(_PARTITION + ["--k-max", "7", "--guard", "10"])
    assert (res.exit_code, res.output) == (2, "no k <= 7 (inconclusive)")
    assert res.certificate["witness"]["statuses"]["6"] == "inconclusive"


def test_partition_ramsey_cli_witness_does_not_depend_on_workers():
    serial = run(_PARTITION + ["--k-max", "7"])
    sharded = run(["--workers", "2"] + _PARTITION + ["--k-max", "7"])
    assert (sharded.exit_code, sharded.output) == (0, "minimal k: 6")
    assert sharded.certificate["witness"] == serial.certificate["witness"]


_VERIFY = ["ramsey", "verify", "--kind", "subgrid", "--t", "2", "--r", "2", "--m", "1",
           "--l", "2", "--n", "3"]
_SEARCH = ["ramsey", "search", "--kind", "subgrid", "--t", "2", "--r", "2", "--m", "1",
           "--l", "2", "--n-max", "3"]


@pytest.mark.parametrize("argv", [_VERIFY, _SEARCH])
@pytest.mark.parametrize("flag", [["--seed", "0"], ["--guard-elements", "4096"]])
def test_removed_ramsey_flags_are_usage_errors(argv, flag):
    assert run(argv).exit_code in (0, 1)
    res = run(argv + flag)
    assert (res.exit_code, res.certificate) == (64, None)
    assert flag[0] in res.output


def test_comparability_kind_needs_a_pattern_side():
    res = run(["ramsey", "search", "--kind", "comparability", "--t", "1", "--r", "2",
               "--n-max", "5"])
    assert res.exit_code == 64 and "--p-chain or --l" in res.output
