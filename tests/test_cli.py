"""CLI surface: exit codes, printed forms, certificates, determinism."""

import json

import pytest

from gridlab import cli
from gridlab.booldim import boolean_dim
from gridlab.fileio import (certificate_digest, make_certificate, save_boolean_realizer,
                            save_certificate, save_graph, save_poset)
from gridlab.graphs import Graph
from gridlab.grids import grid
from gridlab.poset import Poset, make_chain


def test_grid_core_prints_expected_form():
    result = cli.run(["grid", "core", "--s", "2"])
    assert result.exit_code == 0
    assert result.output == "{(0,0),(1,2),(2,1),(3,3)}"


@pytest.mark.parametrize("s", ["0", "-1", "-2"])
def test_grid_core_refuses_s_below_one(tmp_path, s):
    # s * s would give -s the core of s, under a certificate recording -s.
    out = tmp_path / "core.json"
    result = cli.run(["grid", "core", "--s", s, "--out", str(out)])
    assert (result.exit_code, result.output, result.certificate) == (
        65, "input error: cores need s >= 1", None)
    assert not out.exists()


def test_ramsey_verify_exit_codes():
    true_run = cli.run(["ramsey", "verify", "--kind", "comparability",
                        "--t", "1", "--r", "2", "--p-chain", "3", "--n", "6"])
    assert true_run.exit_code == 0
    false_run = cli.run(["ramsey", "verify", "--kind", "comparability",
                         "--t", "1", "--r", "2", "--p-chain", "3", "--n", "5"])
    assert false_run.exit_code == 1
    assert false_run.certificate["verdict"] == "false"
    guarded = cli.run(["ramsey", "verify", "--kind", "comparability",
                       "--t", "1", "--r", "2", "--p-chain", "3", "--n", "6",
                       "--guard", "5"])  # 8 nodes settle it
    assert guarded.exit_code == 2


def test_ramsey_search_and_certificate_round_trip(tmp_path):
    out = tmp_path / "cells.json"
    result = cli.run(["ramsey", "search", "--kind", "subgrid", "--t", "2",
                      "--r", "2", "--m", "1", "--l", "2", "--n-max", "5",
                      "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == "minimal n: 5"
    verify = cli.run(["verify", str(out)])
    assert verify.exit_code == 0
    cert = json.loads(out.read_text())
    cert["witness"]["n_found"] = 4
    out.write_text(json.dumps(cert))
    assert cli.run(["verify", str(out)]).exit_code == 65


def test_verify_keeps_the_exit_code_of_a_failed_re_run(tmp_path):
    path = tmp_path / "old.json"
    command = ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2",
               "--p-chain", "3", "--n", "5", "--seed", "3"]  # --seed is no longer a flag
    save_certificate(path, make_certificate(command, {}, "false", None))
    direct = cli.run(command)
    assert direct.exit_code == 64
    assert cli.run(["verify", str(path)]) == direct


def test_verify_rejects_a_command_that_writes_no_certificate(tmp_path):
    save_poset(tmp_path / "v.poset", make_chain(3))
    command = ["poset", "info", str(tmp_path / "v.poset")]
    assert cli.run(command).exit_code == 0
    path = tmp_path / "info.json"
    save_certificate(path, make_certificate(command, {}, "true", None))
    result = cli.run(["verify", str(path)])
    assert (result.exit_code, result.output) == (65, "re-run produced no certificate")


def test_usage_and_input_errors(tmp_path):
    assert cli.run(["ramsey", "verify", "--kind", "subgrid", "--t", "1"]).exit_code == 64
    assert cli.run(["nonsense"]).exit_code == 64
    bad = tmp_path / "bad.poset"
    bad.write_text("{not json")
    assert cli.run(["poset", "info", str(bad)]).exit_code == 65


def test_subgrid_verify_rejects_t_below_one():
    result = cli.run(["ramsey", "verify", "--kind", "subgrid", "--t", "0", "--r", "2",
                      "--m", "1", "--l", "2", "--n", "4"])
    assert (result.exit_code, result.output) == (
        65, "input error: need t >= 1 and 1 <= m <= l <= n, got (0, 1, 2, 4)")


_KIND_SIZES = {"comparability": ["--t", "1", "--p-chain", "3"],
               "subgrid": ["--t", "2", "--m", "1", "--l", "2"],
               "subposet": ["--t", "2", "--m", "1", "--l", "2"]}


@pytest.mark.parametrize("r", ["0", "-2"])
@pytest.mark.parametrize("kind", sorted(_KIND_SIZES))
@pytest.mark.parametrize("command, size", [("verify", "--n"), ("search", "--n-max")])
def test_a_color_count_below_one_is_bad_input(tmp_path, r, kind, command, size):
    out = tmp_path / "cert.json"
    argv = ["ramsey", command, "--kind", kind, *_KIND_SIZES[kind], "--r", r, size, "4",
            "--out", str(out)]
    for workers in ([], ["--workers", "2"]):
        result = cli.run(workers + argv)
        assert (result.exit_code, result.output) == (
            65, "input error: color count must be positive")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # a scan whose sizes start past --n-max
    ["search", "--kind", "subgrid", "--t", "2", "--m", "1", "--l", "2", "--n-max", "1"],
    ["search", "--kind", "comparability", "--t", "1", "--p-chain", "3", "--n-max", "2"],
    # 20^3 has more 2x2x2 boxes than the structure guard allows
    ["verify", "--kind", "subgrid", "--t", "3", "--m", "1", "--l", "2", "--n", "20"],
], ids=["subgrid-empty-scan", "comparability-empty-scan", "past-the-structure-guard"])
def test_a_color_count_below_one_is_refused_before_any_size(argv):
    result = cli.run(["ramsey", *argv, "--r", "0"])
    assert (result.exit_code, result.output) == (65, "input error: color count must be positive")


# Flags that the kind does not read: each would be recorded in the certificate,
# and so change its digest, without changing the search.
_IGNORED_FLAGS = {
    "m-with-comparability": (["--kind", "comparability", "--t", "1", "--p-chain", "3",
                              "--m", "7"], "--m"),
    "l-with-p-chain": (["--kind", "comparability", "--t", "1", "--p-chain", "3",
                        "--l", "9"], "--l and --p-chain"),
    "p-chain-with-a-grid-kind": (["--kind", "subgrid", "--t", "2", "--m", "1", "--l", "2",
                                  "--p-chain", "3"], "--p-chain"),
}


@pytest.mark.parametrize("flags, named", list(_IGNORED_FLAGS.values()), ids=list(_IGNORED_FLAGS))
@pytest.mark.parametrize("command, size", [("verify", "--n"), ("search", "--n-max")])
def test_a_flag_the_kind_does_not_read_is_a_usage_error(monkeypatch, flags, named, command,
                                                        size):
    for search in ("verify_at", "min_ramsey_n"):
        monkeypatch.setattr(cli, search, lambda *args, **kwargs: pytest.fail("searched"))
    result = cli.run(["ramsey", command, *flags, "--r", "2", size, "5"])
    assert (result.exit_code, result.certificate) == (64, None)
    assert named in result.output


@pytest.mark.parametrize("side, code", [("3", 0), ("0", 65)])
def test_l_alone_gives_the_comparability_chain_as_p_chain_does(side, code):
    for command, size in (("verify", "--n"), ("search", "--n-max")):
        argv = ["ramsey", command, "--kind", "comparability", "--t", "1", "--r", "2", size, "6"]
        by_l, by_p_chain = cli.run(argv + ["--l", side]), cli.run(argv + ["--p-chain", side])
        assert (by_l.exit_code, by_l.output) == (by_p_chain.exit_code, by_p_chain.output)
        assert by_l.exit_code == code
        if code == 0:
            assert by_l.certificate["witness"] == by_p_chain.certificate["witness"]


@pytest.mark.parametrize("value", ["nan", "-0.5", "-inf", "soon"])
def test_a_time_limit_that_cannot_fire_is_a_usage_error(value):
    result = cli.run(["ramsey", "verify", "--kind", "subgrid", "--t", "2", "--r", "2",
                      "--m", "1", "--l", "2", "--n", "3", f"--time-limit={value}"])
    assert (result.exit_code, result.output) == (
        64, f"usage error: argument --time-limit: expected a non-negative number, got {value!r}")


def test_a_zero_time_limit_is_inconclusive():
    result = cli.run(["ramsey", "verify", "--kind", "subgrid", "--t", "3", "--r", "2",
                      "--m", "1", "--l", "2", "--n", "7", "--time-limit", "0"])
    assert result.exit_code == 2 and "time limit exceeded" in result.output


def test_a_time_limit_in_the_comparability_build_writes_a_certificate(tmp_path):
    # The copies of 3^2 in 8^2 are enumerated past an expired limit: the
    # verdict is inconclusive, and a search keeps its smaller sizes' statuses.
    argv = ["ramsey", "verify", "--kind", "comparability", "--t", "2", "--r", "2", "--l", "3",
            "--n", "8", "--time-limit", "0", "--out", str(tmp_path / "tl.json")]
    result = cli.run(argv)
    assert (result.exit_code, result.output) == (
        2, "verdict: inconclusive\nreason: time limit exceeded")
    assert json.loads((tmp_path / "tl.json").read_text())["verdict"] == "inconclusive"
    search = cli.run(["ramsey", "search", "--kind", "comparability", "--t", "2", "--r", "2",
                      "--l", "3", "--n-max", "8", "--time-limit", "0"])
    assert (search.exit_code, search.output) == (2, "no n <= 8 (inconclusive)")
    statuses = search.certificate["witness"]["statuses"]
    assert statuses["3"] == "false" and list(statuses.values())[-1] == "inconclusive"


_GUARDED = [
    (["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2", "--p-chain", "3",
      "--n", "4"], "--guard", "--guard/--guard-colorings"),
    (["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2", "--p-chain", "3",
      "--n", "4"], "--guard-colorings", "--guard/--guard-colorings"),
    (["ramsey", "search", "--kind", "subgrid", "--t", "2", "--r", "2", "--m", "1", "--l", "2",
      "--n-max", "4"], "--guard", "--guard/--guard-colorings"),
    (["extension", "partition-ramsey", "--s", "2", "--t", "2", "--r", "2", "--k-max", "3"],
     "--guard", "--guard"),
    (["bdim", "compute", "missing.poset"], "--guard-elements", "--guard-elements"),
    (["bdim", "compute", "missing.poset"], "--d-max", "--d-max"),
    (["poset", "extensions", "missing.poset"], "--cap", "--cap"),
    (["graph", "refute", "--host", "missing.graph", "--pattern", "missing.graph"],
     "--max-colors", "--max-colors"),
]


@pytest.mark.parametrize("argv, flag, shown", _GUARDED)
@pytest.mark.parametrize("value", ["-5", "-1", "x", "1.5"])
def test_a_guard_that_is_not_a_count_is_a_usage_error(argv, flag, shown, value):
    result = cli.run(argv + [f"{flag}={value}"])
    assert (result.exit_code, result.output, result.certificate) == (
        64, f"usage error: argument {shown}: expected a non-negative integer, got {value!r}",
        None)


def test_a_zero_guard_is_still_a_guard():
    result = cli.run(_GUARDED[0][0] + ["--guard", "0"])
    assert result.exit_code == 2
    assert "node guard 0 at depth 0/6" in result.output


def _write(path, payload):
    path.write_text(json.dumps({"format_version": 1, **payload}))
    return str(path)


@pytest.mark.parametrize("payload", [
    {"elements": ["x", "y"], "covers": 5},
    {"elements": ["x", ["y"]], "covers": []},
    {"elements": [0, 1], "covers": [[0, 1]]},
    {"elements": ["x", "y"], "covers": [["x", ["y"]]]},
    {"elements": ["x", "y"], "covers": [["x", "y", "x"]]},
    {"elements": [], "covers": []},
    {"covers": []},
], ids=["covers-not-a-list", "unhashable-label", "int-labels", "unhashable-pair-label",
        "triple", "empty", "no-elements"])
def test_a_malformed_poset_file_is_bad_input(tmp_path, payload):
    path = _write(tmp_path / "p.poset", {"kind": "poset", **payload})
    assert cli.run(["poset", "info", path]).exit_code == 65


@pytest.mark.parametrize("payload", [
    {"vertices": ["a", "b"], "edges": 5},
    {"vertices": ["a", ["b"]], "edges": []},
    {"vertices": [0, 1], "edges": [[0, 1]]},
    {"vertices": ["a", "b"], "edges": [["a", ["b"]]]},
    {"vertices": ["a", "b"], "edges": [["a", "c"]]},
    {"vertices": ["a", "a"]},
], ids=["edges-not-a-list", "unhashable-label", "int-labels", "unhashable-pair-label",
        "unknown-label", "repeated-label"])
def test_a_malformed_graph_file_is_bad_input(tmp_path, payload):
    host = _write(tmp_path / "h.graph", {"kind": "graph", **payload})
    pattern = _write(tmp_path / "g.graph", {"kind": "graph", "vertices": ["a"]})
    assert cli.run(["graph", "refute", "--host", host, "--pattern", pattern]).exit_code == 65


@pytest.mark.parametrize("payload", [
    {"orders": [["0", "1"]], "accepted": ["1"]},
    {"orders": [[0, 1]], "accepted": "1"},
    {"orders": [[True, False]], "accepted": ["1"]},
    {"orders": 5, "accepted": ["1"]},
    {"orders": [[0, 1]], "accepted": [1]},
    {"accepted": ["1"]},
], ids=["str-order", "accepted-a-string", "bool-order", "orders-not-a-list",
        "int-accepted", "no-orders"])
def test_a_malformed_boolean_realizer_file_is_bad_input(tmp_path, payload):
    save_poset(tmp_path / "p.poset", make_chain(2))
    realizer = _write(tmp_path / "br.json", {"kind": "boolean-realizer", **payload})
    result = cli.run(["bdim", "check", str(tmp_path / "p.poset"), realizer])
    assert result.exit_code == 65


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
def test_a_bad_worker_count_is_a_usage_error(monkeypatch, value):
    monkeypatch.delenv("GRIDLAB_WORKERS", raising=False)
    flag = cli.run(["--workers", value, "grid", "core", "--s", "2"])
    assert flag.exit_code == 64
    assert flag.output == ("usage error: argument --workers: "
                           f"expected a positive integer, got {value!r}")
    monkeypatch.setenv("GRIDLAB_WORKERS", value)
    assert cli.run(["grid", "core", "--s", "2"]) == flag
    assert cli.main(["grid", "core", "--s", "2"]) == 64  # no traceback, no exit 70


def test_the_worker_count_comes_from_the_environment(monkeypatch):
    monkeypatch.setenv("GRIDLAB_WORKERS", "3")
    assert cli._build_parser().parse_args(["grid", "core", "--s", "2"]).workers == 3
    monkeypatch.delenv("GRIDLAB_WORKERS")
    assert cli._build_parser().parse_args(["grid", "core", "--s", "2"]).workers == 1


def test_the_parser_built_once_still_reads_the_environment_per_call(monkeypatch):
    seen = []

    def record(args, argv):
        seen.append(args.workers)
        return cli.RunResult(0)

    monkeypatch.setattr(cli, "_cmd_grid", record)
    argv = ["grid", "core", "--s", "2"]
    monkeypatch.setenv("GRIDLAB_WORKERS", "2")
    assert cli.run(argv).exit_code == 0
    monkeypatch.delenv("GRIDLAB_WORKERS")
    assert cli.run(argv).exit_code == 0
    monkeypatch.setenv("GRIDLAB_WORKERS", "two")
    assert cli.run(argv).exit_code == 64
    assert cli.run(["--workers", "3"] + argv).exit_code == 0  # the flag overrides it
    assert seen == [2, 1, 3]


def test_poset_commands(tmp_path):
    path = tmp_path / "v.poset"
    save_poset(path, Poset.from_covers(3, [(0, 1), (0, 2)], labels=["r", "a", "b"]))
    info = cli.run(["poset", "info", str(path)])
    assert info.exit_code == 0 and "elements: 3" in info.output
    exts = cli.run(["poset", "extensions", str(path)])
    assert "linear extensions: 2" in exts.output
    other = tmp_path / "chain.poset"
    save_poset(other, make_chain(3))
    assert cli.run(["poset", "isomorphic", str(path), str(other)]).exit_code == 1
    assert cli.run(["poset", "isomorphic", str(path), str(path)]).exit_code == 0


def test_grid_unique_realizer_command():
    result = cli.run(["grid", "unique-realizer", "--s", "3"])
    assert result.exit_code == 0
    assert "unique and equal to {lex, colex}: True" in result.output
    assert result.certificate["verdict"] == "unique"


def test_bdim_commands(tmp_path):
    path = tmp_path / "grid.poset"
    save_poset(path, grid(2, 2))
    result = cli.run(["bdim", "compute", str(path), "--d-max", "3"])
    assert result.exit_code == 0
    assert "boolean dimension: 2" in result.output
    none_found = cli.run(["bdim", "compute", str(path), "--d-max", "1"])
    assert none_found.exit_code == 1


def test_bdim_check_accepts_a_realizer_and_refuses_an_altered_one(tmp_path):
    poset, realizer = tmp_path / "grid.poset", tmp_path / "br.json"
    save_poset(poset, grid(2, 2))
    found = boolean_dim(grid(2, 2), d_max=2).realizer
    save_boolean_realizer(realizer, found)
    result = cli.run(["bdim", "check", str(poset), str(realizer)])
    assert (result.exit_code, result.output) == (0, "valid boolean realizer")
    payload = json.loads(realizer.read_text())
    payload["accepted"] = sorted({"00", "01", "10", "11"} - found.accepted)
    realizer.write_text(json.dumps(payload))
    result = cli.run(["bdim", "check", str(poset), str(realizer)])
    assert (result.exit_code, result.output) == (1, "not a boolean realizer")


def test_acceptance_runs_one_criterion():
    result = cli.run(["acceptance", "--criterion", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("PASS criterion 2: ")


@pytest.mark.parametrize("number", ["11", "0", "-1"])
def test_an_unknown_acceptance_criterion_is_a_usage_error(number):
    argv = ["acceptance", "--criterion", "2", "--criterion", number]
    assert cli.run(argv) == cli.RunResult(
        64, f"usage error: argument --criterion: no criterion {number} (choose from 1..10)")
    assert cli.main(argv) == 64  # no traceback, no exit 70


def test_extension_commands(tmp_path):
    result = cli.run(["extension", "partition-ramsey", "--s", "2", "--t", "3",
                      "--r", "2", "--k-max", "7"])
    assert result.exit_code == 0 and result.output == "minimal k: 6"
    path = tmp_path / "x.poset"
    save_poset(path, make_chain(3))
    embed = cli.run(["extension", "embed", "--poset", str(path),
                     "--k", "1", "--parts", "0,1|2"])
    assert embed.exit_code == 0 and "embedding into grid(3, 3)" in embed.output
    demo_path = tmp_path / "ac.poset"
    save_poset(demo_path, Poset([0, 0]))
    demo = cli.run(["extension", "demo", "--poset", str(demo_path),
                    "--m1", "0,1", "--m2", "1,0"])
    assert demo.exit_code == 0 and "conflict pair" in demo.output


def test_graph_refute_command(tmp_path):
    host = tmp_path / "h.graph"
    save_graph(host, Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]))
    pattern = tmp_path / "g.graph"
    save_graph(pattern, Graph(3, [(0, 1), (1, 2), (0, 2)]))
    result = cli.run(["graph", "refute", "--host", str(host),
                      "--pattern", str(pattern)])
    assert result.exit_code == 0
    assert "no monochromatic induced copy" in result.output
    assert cli.run(["verify_cert"]).exit_code == 64


def test_graph_refute_reports_witness_for_bipartite_pattern(tmp_path):
    # A star decomposes into a single class, so an induced 3-path is found.
    host = tmp_path / "star.graph"
    save_graph(host, Graph(4, [(0, 1), (0, 2), (0, 3)]))
    pattern = tmp_path / "p3.graph"
    save_graph(pattern, Graph(3, [(0, 1), (1, 2)]))
    result = cli.run(["graph", "refute", "--host", str(host),
                      "--pattern", str(pattern)])
    assert result.exit_code == 1
    assert "monochromatic copy in class" in result.output


def test_poset_extensions_guard_is_inconclusive(tmp_path):
    path = tmp_path / "wide.poset"
    save_poset(path, Poset([0] * 14))
    result = cli.run(["poset", "extensions", str(path), "--cap", "12"])
    assert result.exit_code == 2


def test_a_coloring_file_listing_a_key_twice_is_bad_input(tmp_path):
    # Every comparable pair of 2^2 once, then the first one again in another color.
    pairs = [[[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 0], [1, 1]], [[0, 1], [1, 1]],
             [[1, 0], [1, 1]], [[0, 0], [0, 1]]]
    assignment = [[pair, 1 + i % 2] for i, pair in enumerate(pairs)]
    path = _write(tmp_path / "c.json", {"kind": "coloring", "coloring_kind": "comparability",
                                        "n": 2, "t": 2, "r": 2, "assignment": assignment})
    out = tmp_path / "reduced.coloring"
    result = cli.run(["ramsey", "reduce", "--from", "comparability", "--n", "2",
                      "--coloring", path, "--out", str(out)])
    assert (result.exit_code, result.output, result.certificate) == (
        65, f"input error: {path}: key [[0,0],[0,1]] is listed twice", None)
    assert not out.exists()


def test_ramsey_reduce_writes_coloring(tmp_path):
    out = tmp_path / "reduced.coloring"
    result = cli.run(["ramsey", "reduce", "--from", "subposet", "--n", "9",
                      "--t", "2", "--m", "2", "--seed", "7", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["coloring_kind"] == "subgrid"
    assert len(payload["assignment"]) == 15876


@pytest.mark.parametrize("command", [["grid", "core", "--s", "2"],
                                     ["grid", "casual", "--s", "2", "--t", "2"],
                                     ["grid", "unique-realizer", "--s", "2"]],
                         ids=lambda command: command[1])
def test_a_grid_certificate_does_not_record_its_out_path(tmp_path, command):
    certificates = [cli.run(command + out).certificate
                    for out in ([], ["--out", str(tmp_path / "a.json")],
                                ["--out", str(tmp_path / "b.json")],
                                [f"--out={tmp_path / 'c.json'}"],
                                ["--ou", str(tmp_path / "d.json")])]
    assert {cert["digest"] for cert in certificates} == {certificates[0]["digest"]}
    assert certificates[0]["command"] == command
    assert json.loads((tmp_path / "a.json").read_text()) == certificates[0]


# A drifted witness, and commands that record their --out, as grid
# certificates did before every command was stripped of it.
@pytest.mark.parametrize("change", ["witness", "--out", "--ou"])
def test_verify_answers_a_drifted_certificate_without_writing_it(tmp_path, change):
    path = tmp_path / "a.json"
    assert cli.run(["grid", "core", "--s", "2", "--out", str(path)]).exit_code == 0
    cert = json.loads(path.read_text())
    if change == "witness":
        cert["witness"] = [[0, 0]]
    else:
        cert["command"] = cert["command"] + [change, str(path)]
    cert["digest"] = certificate_digest(cert)
    save_certificate(path, cert)
    before = path.read_bytes()
    for _ in range(2):
        result = cli.run(["verify", str(path)])
        assert (result.exit_code, result.output) == (1, "re-run did not reproduce the certificate")
        assert path.read_bytes() == before


def test_main_prints_and_returns(capsys):
    code = cli.main(["grid", "core", "--s", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "{(0,0),(1,2),(2,1),(3,3)}"


def test_every_witness_subcommand_certificate_verifies(tmp_path):
    save_poset(tmp_path / "p.poset", grid(2, 2))
    save_graph(tmp_path / "h.graph", Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]))
    save_graph(tmp_path / "g.graph", Graph(3, [(0, 1), (1, 2), (0, 2)]))
    commands = [
        ["grid", "core", "--s", "2"],
        ["grid", "casual", "--s", "2", "--t", "2"],
        ["grid", "unique-realizer", "--s", "2"],
        ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2",
         "--p-chain", "3", "--n", "5"],
        ["ramsey", "verify", "--kind", "subgrid", "--t", "1", "--r", "2",
         "--m", "1", "--l", "2", "--n", "3"],
        ["ramsey", "verify", "--kind", "subposet", "--t", "1", "--r", "2",
         "--m", "2", "--l", "3", "--n", "6"],
        ["ramsey", "search", "--kind", "subgrid", "--t", "1", "--r", "2",
         "--m", "1", "--l", "2", "--n-max", "4"],
        ["ramsey", "reduce", "--from", "comparability", "--n", "3", "--t", "2",
         "--seed", "3"],
        ["bdim", "compute", str(tmp_path / "p.poset"), "--d-max", "2"],
        ["extension", "partition-ramsey", "--s", "2", "--t", "2", "--r", "2",
         "--k-max", "3"],
        ["graph", "refute", "--host", str(tmp_path / "h.graph"),
         "--pattern", str(tmp_path / "g.graph")],
    ]
    for i, argv in enumerate(commands):
        result = cli.run(argv)
        assert result.certificate is not None, argv
        path = tmp_path / f"cert{i}.json"
        from gridlab.fileio import save_certificate
        save_certificate(path, result.certificate)
        assert cli.run(["verify", str(path)]).exit_code == 0, argv


def test_unexpected_exception_exits_70_with_traceback(monkeypatch, capsys):
    def crash(args, argv):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_grid", crash)
    assert cli.main(["grid", "core", "--s", "2"]) == cli.EX_SOFTWARE == 70
    err = capsys.readouterr().err
    assert "Traceback" in err and "RecursionError" in err


# -- gridlab verify: the canonical head against the full load --------------------------


def _reference_verify(args, argv):
    """``gridlab verify`` as it was before the canonical head: load the whole file first."""
    from gridlab.errors import InvalidInput
    from gridlab.fileio import certificate_digest, load_certificate
    cert = load_certificate(args.certificate)

    def confirm_digest():
        if certificate_digest(cert) != cert["digest"]:
            raise InvalidInput(f"{args.certificate}: digest mismatch; payload was altered")

    try:
        rerun = cli.run(cert["command"])
    except Exception:
        confirm_digest()
        raise
    if rerun.certificate is not None and rerun.certificate["digest"] == cert["digest"]:
        return cli.RunResult(cli.EX_TRUE, "certificate reproduced bit-exactly")
    confirm_digest()
    if rerun.certificate is None:
        if rerun.exit_code not in (cli.EX_TRUE, cli.EX_FALSE):
            return rerun
        return cli.RunResult(cli.EX_DATAERR, "re-run produced no certificate")
    return cli.RunResult(cli.EX_FALSE, "re-run did not reproduce the certificate")


_VERIFY_SOURCES = {
    "reduce-subposet": ["ramsey", "reduce", "--from", "subposet", "--n", "5", "--m", "2",
                        "--seed", "7"],
    "search": ["ramsey", "search", "--kind", "subgrid", "--t", "2", "--r", "2", "--m", "1",
               "--l", "2", "--n-max", "5"],
    "verify-true": ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2",
                    "--p-chain", "3", "--n", "6"],
    "verify-false": ["ramsey", "verify", "--kind", "comparability", "--t", "1", "--r", "2",
                     "--p-chain", "3", "--n", "5"],
    "partition-ramsey": ["extension", "partition-ramsey", "--s", "2", "--t", "2", "--r", "2",
                         "--k-max", "3"],
}


def _self_digested(text):
    """``text`` with its digest replaced by the hash of its own text."""
    from gridlab.fileio import _text_digest
    start = text.index('"digest":"') + 10
    digest = _text_digest(text, text[start:start + 64])
    return text[:start] + digest + text[start + 64:]


def _verify_variants(cert):
    """File texts of one certificate, and whether ``gridlab verify`` re-runs each."""
    from gridlab.fileio import canonical_json, certificate_digest
    canonical = canonical_json(cert) + "\n"
    tampered = dict(cert, verdict="tampered")
    drifted = dict(cert, witness="drifted")
    drifted["digest"] = certificate_digest(drifted)
    version2 = dict(cert, format_version=2)
    version2["digest"] = certificate_digest(version2)
    cut = canonical[:(canonical.index('"format_version"') + len(canonical)) // 2]
    # Valid JSON outside canonical layout (the digest entry first) whose
    # digest is the hash of its own text, not of its payload.
    reordered = json.dumps({"digest": cert["digest"], **cert}, separators=(",", ":"))
    return {
        "canonical": (canonical, True),
        "indented": (json.dumps(cert, indent=2), True),
        "tampered": (canonical_json(tampered) + "\n", False),
        "tampered-indented": (json.dumps(tampered, indent=2), False),
        "drifted": (canonical_json(drifted) + "\n", True),
        "truncated": (cut, False),
        "truncated-self-digested": (_self_digested(cut), True),
        "format-version-2": (canonical_json(version2) + "\n", True),
        "reordered-self-digested": (_self_digested(reordered), False),
    }


def _count_reruns(monkeypatch, command):
    calls = []
    real_run = cli.run

    def counting(argv):
        if list(argv) == list(command):
            calls.append(argv)
        return real_run(argv)

    monkeypatch.setattr(cli, "run", counting)
    return calls


@pytest.mark.parametrize("source", sorted(_VERIFY_SOURCES))
def test_verify_answers_as_the_full_load_did(tmp_path, monkeypatch, source):
    command = _VERIFY_SOURCES[source]
    cert = cli.run(command).certificate
    for variant, (text, reruns) in _verify_variants(cert).items():
        path = tmp_path / f"{variant}.json"
        path.write_text(text)
        calls = _count_reruns(monkeypatch, command)
        got = cli.run(["verify", str(path)])
        assert len(calls) == reruns, (source, variant)
        monkeypatch.setattr(cli, "_cmd_verify", _reference_verify)
        want = cli.run(["verify", str(path)])
        monkeypatch.undo()
        assert (got.exit_code, got.output) == (want.exit_code, want.output), (source, variant)
    assert cli.run(["verify", str(tmp_path / "canonical.json")]).exit_code == 0
    assert cli.run(["verify", str(tmp_path / "drifted.json")]).exit_code == 1
    assert cli.run(["verify", str(tmp_path / "format-version-2.json")]).output.endswith(
        "unsupported format_version")
    assert cli.run(["verify", str(tmp_path / "reordered-self-digested.json")]).output.endswith(
        "digest mismatch; payload was altered")


def test_a_reproduced_canonical_certificate_is_never_loaded(tmp_path, monkeypatch):
    from gridlab import fileio
    cert = cli.run(_VERIFY_SOURCES["reduce-subposet"]).certificate
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(cert, indent=2))

    def parse(*args):
        raise AssertionError("the witness of a reproduced canonical file is parsed")

    monkeypatch.setattr(fileio, "load_certificate", parse)
    monkeypatch.setattr(fileio, "parse_certificate", parse)
    assert cli.run(["verify", str(path)]).exit_code == 0
    with pytest.raises(AssertionError):  # another layout is loaded in full
        cli.run(["verify", str(indented)])


def test_a_crashing_re_run_is_raised_after_the_digest_is_confirmed(tmp_path, monkeypatch):
    command = ["grid", "core", "--s", "2"]
    cert = cli.run(command).certificate
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    cut = tmp_path / "cut.json"
    text = path.read_text()
    cut.write_text(_self_digested(text[:text.index('"format_version"') + 5]))

    def crash(args, argv):
        raise RuntimeError("crashed")

    monkeypatch.setattr(cli, "_cmd_grid", crash)
    calls = _count_reruns(monkeypatch, command)
    with pytest.raises(RuntimeError):
        cli.run(["verify", str(path)])
    result = cli.run(["verify", str(cut)])  # a crash never hides bad input
    assert result.exit_code == 65 and "cannot read" in result.output
    assert len(calls) == 2  # once per verify


@pytest.mark.parametrize("command", [None, [1, 2], "grid"], ids=["null", "ints", "str"])
def test_a_malformed_command_is_an_input_error(tmp_path, command):
    from gridlab.fileio import certificate_digest
    cert = make_certificate(["grid", "core", "--s", "2"], {}, "core", None)
    cert["command"] = command
    cert["digest"] = certificate_digest(cert)
    missing = {k: v for k, v in cert.items() if k not in ("command", "digest")}
    missing["digest"] = certificate_digest(missing)
    for name, payload in (("cert", cert), ("missing", missing)):
        for layout, text in (("canonical", None), ("indented", json.dumps(payload, indent=2))):
            path = tmp_path / f"{name}-{layout}.json"
            if text is None:
                save_certificate(path, payload)
            else:
                path.write_text(text)
            result = cli.run(["verify", str(path)])
            assert (result.exit_code, result.output) == (
                65, f"input error: {path}: command must be a list of strings")


@pytest.mark.parametrize("prefix", [[], ["--workers", "2"], ["--work", "2"]],
                         ids=["plain", "workers", "abbreviated"])
def test_a_certificate_that_re_runs_verify_is_refused(tmp_path, monkeypatch, prefix):
    path = tmp_path / "self.json"
    command = prefix + ["verify", str(path)]
    save_certificate(path, make_certificate(command, {}, "true", None))
    verify = cli.run
    calls = _count_reruns(monkeypatch, command)
    result = verify(["verify", str(path)])  # counts only the re-runs
    assert (result.exit_code, result.output) == (
        65, f"input error: {path}: a certificate cannot re-run verify")
    assert calls == []
