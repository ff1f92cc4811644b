import gc
import hashlib
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycres import cli
from cycres.errors import InternalError, NotIrreducibleError, ValidationError

from conftest import INSTANCES, columns, export_text, parse_column, random_icb_digraph


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def inst(name):
    return str(INSTANCES / name)


def test_classify_echelon_weighted4(capsys):
    code, out, _ = run(capsys, "classify", inst("weighted4_echelon.json"))
    assert code == 0
    assert "ICB" in out
    assert "nu=(2, 3, 6, 6)" in out
    assert "delta=3" in out


def test_classify_reports_non_echelon_with_permutation(capsys):
    code, out, _ = run(capsys, "classify", inst("weighted4.json"))
    assert code == 0
    assert "nu=(3, 2, 6, 6)" in out
    assert "echelon=no" in out
    assert "perm=(2, 1, 3, 4)" in out


def test_classify_k4_json_format(capsys):
    code, out, _ = run(capsys, "classify", inst("k4.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "PCB"
    assert doc["nu"] == [1, 1, 1, 1]
    assert doc["delta"] == 1


def test_classify_reducible(capsys):
    code, out, _ = run(capsys, "classify", inst("reducible.json"))
    assert code == 0
    assert out.strip() == "CB (reducible)"


def test_resolve_k4(tmp_path, capsys):
    out_path = tmp_path / "k4_complex.json"
    code, out, _ = run(capsys, "resolve", inst("k4.json"), "--out", str(out_path))
    assert code == 0
    assert "ranks=[1, 7, 12, 6]" in out
    assert "minimal=true" in out
    doc = json.loads(out_path.read_text())
    assert doc["ranks"] == [1, 7, 12, 6]


def test_resolve_cycle4_not_minimal(capsys):
    code, out, err = run(capsys, "resolve", inst("cycle4.json"))
    assert code == 0
    assert "minimal=false" in err
    doc = json.loads(out)
    assert doc["ranks"] == [1, 7, 12, 6]


def test_resolve_reducible_exits_3(capsys):
    code, _, err = run(capsys, "resolve", inst("reducible.json"))
    assert code == 3
    assert "error" in err


def test_validation_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "arcs": [{"from": 2, "to": 2, "w": 1}]}')
    code, _, err = run(capsys, "resolve", str(bad))
    assert code == 2
    assert "loop" in err
    code, _, _ = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == 2
    # a 3-cycle, well formed both ways; each malformed copy changes one field
    arcs = [{"from": 1, "to": 2, "w": 1}, {"from": 2, "to": 3, "w": 1},
            {"from": 3, "to": 1, "w": 1}]
    matrix = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    for doc in ({"n": 3, "arcs": arcs}, {"matrix": matrix}):
        bad.write_text(json.dumps(doc))
        assert run(capsys, "classify", str(bad))[0] == 0
    malformed = [
        {"n": 3, "arcs": [dict(arcs[0], w=True)] + arcs[1:]},
        {"matrix": [[1.0, -1, 0], [0, 1, -1], [-1, 0, 1]]},
        {"matrix": [[1, "-1", 0], [0, 1, -1], [-1, 0, 1]]},
        {"n": "3", "arcs": arcs},
        {"n": 3, "arcs": 5},
        {"matrix": 5},
        # a valid digraph has no sinks, so it has at least n arcs
        {"n": 10**12, "arcs": arcs},
    ]
    contents = [json.dumps(doc).encode() for doc in malformed] + [
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the recursion limit
    ]
    # a weight one digit past the int-string digit limit (0: no limit)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        text = json.dumps({"n": 3, "arcs": [dict(arcs[0], w=0)] + arcs[1:]})
        contents.append(text.replace('"w": 0', '"w": ' + "9" * (digits + 1)).encode())
    for data in contents:
        bad.write_bytes(data)
        code, _, err = run(capsys, "classify", str(bad))
        assert code == 2, data[:80]
        assert err.startswith("error: "), err


def test_classify_refuses_a_mu_past_the_digit_limit(tmp_path, capsys):
    # each weight fits the int-string digit limit, but mu, a product of two
    # weights, does not: exit 2 with one error line in both formats, and
    # nothing on stdout (0: no limit)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        return
    w = 10 ** (digits * 3 // 4)
    arcs = [{"from": 1, "to": 2, "w": w + 1}, {"from": 2, "to": 3, "w": w + 3},
            {"from": 3, "to": 1, "w": 1}]
    path = tmp_path / "cycle3.json"
    path.write_text(json.dumps({"n": 3, "arcs": arcs}))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "classify", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: mu has too many digits") and err.count("\n") == 1, err


def test_verify_k4(capsys):
    code, out, _ = run(capsys, "verify", inst("k4.json"), "--max-degree", "6")
    assert code == 0
    assert "all checks passed" in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys, "verify", inst("cycle4.json"), "--max-degree", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_require_minimal_fails_on_cycle(capsys):
    code, out, _ = run(
        capsys, "verify", inst("cycle4.json"), "--max-degree", "4", "--require-minimal"
    )
    assert code == 1
    assert "require_minimal" in out


def test_main_runs_without_the_collector_and_gives_it_back(tmp_path, capsys, monkeypatch):
    # each command runs with the cyclic collector off; main restores the
    # caller's state whatever the exit code
    seen = []
    for name, command in list(cli.COMMANDS.items()):
        def recording(args, command=command):
            seen.append(gc.isenabled())
            return command(args)
        monkeypatch.setitem(cli.COMMANDS, name, recording)
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "arcs": 5}')
    cases = [
        (0, ["classify", inst("k4.json")]),
        (2, ["resolve", str(bad)]),
        (1, ["verify", inst("cycle4.json"), "--max-degree", "4", "--require-minimal"]),
    ]
    assert gc.isenabled()
    for code, argv in cases:
        assert run(capsys, *argv)[0] == code, argv
        assert gc.isenabled(), argv
    assert seen == [False, False, False]
    with pytest.raises(SystemExit):
        cli.main(["no-such-command", inst("k4.json")])
    capsys.readouterr()
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, "classify", inst("k4.json"))[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    # what main runs without the collector must be freed by reference
    # counting alone: nothing is left for gc.collect() on any bundled
    # instance, whether the command succeeds or refuses it.  main parses
    # with the one parser of the process; building it leaves argparse's own
    # cycles once, collected here before the runs
    cli.build_parser()
    out = str(tmp_path / "out.json")
    gc.collect()
    gc.disable()
    try:
        for path in sorted(INSTANCES.glob("*.json")):
            for argv in (
                ["resolve", str(path), "--out", out],
                ["gb", str(path)],
                ["homology", str(path)],
                ["classify", str(path)],
                ["classify", str(path), "--format", "json"],
                ["verify", str(path), "--format", "json"],
            ):
                code = run(capsys, *argv)[0]
                assert code == (3 if path.stem == "reducible" and argv[0] != "classify" else 0)
                assert gc.collect() == 0, (path.name, argv)
    finally:
        gc.enable()


def test_verify_runs_the_minimality_pass_once(capsys, monkeypatch):
    from cycres import cyc_complex, resolution_verify

    calls = []
    original = cyc_complex.minimality_check

    def counting(C):
        calls.append(C)
        return original(C)

    monkeypatch.setattr(cyc_complex, "minimality_check", counting)
    monkeypatch.setattr(resolution_verify, "minimality_check", counting)
    code, _, _ = run(capsys, "verify", inst("cycle4.json"), "--max-degree", "2")
    assert code == 0
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run(
        capsys, "verify", inst("cycle4.json"), "--max-degree", "2", "--require-minimal"
    )
    assert code == 1
    assert len(calls) == 2
    line = next(ln for ln in out.splitlines() if "require_minimal" in ln)
    assert line.endswith("  witness: non-minimal entry (2, 1, 2, -1)")


K4_GB = [
    "x1*x2*x3 - x4^3",
    "x2^2*x3^2 - x1^2*x4^2",
    "x1^2*x3^2 - x2^2*x4^2",
    "x1^2*x2^2 - x3^2*x4^2",
    "x3^3 - x1*x2*x4",
    "x2^3 - x1*x3*x4",
    "x1^3 - x2*x3*x4",
]


def test_gb_k4(capsys):
    code, out, _ = run(capsys, "gb", inst("k4.json"))
    assert code == 0
    assert out.splitlines() == K4_GB


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", inst("echelon6.json"), "--max-degree", "4")
    assert code == 0
    assert "graded_homology" in out


def test_omega_override(capsys):
    # enumerate the weighted instance from vertex 4 explicitly
    code, out, _ = run(capsys, "classify", inst("weighted4.json"), "--omega", "4")
    assert code == 0
    assert "perm=(2, 1, 3, 4)" in out


def test_omega_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "classify", inst("k4.json"), "--omega", "7")
    assert code == 2
    assert "omega" in err


def test_negative_max_degree_exits_2_for_every_command(capsys):
    for command in sorted(cli.COMMANDS):
        code, out, err = run(capsys, command, inst("k4.json"), "--max-degree", "-1")
        assert (code, out, err) == (2, "", "error: --max-degree must be nonnegative\n"), command


def test_flags_of_one_subcommand_are_refused_by_the_others(tmp_path, capsys):
    # --require-minimal is read by verify and --out by resolve alone, and
    # --max-degree by verify and homology; any other command refuses them
    # with exit 2 and one error line, before it reads the input or writes a
    # file.  --seed parses everywhere
    out_path = tmp_path / "out.json"
    for command in sorted(cli.COMMANDS):
        for flag, only, args in (
            ("--require-minimal", "verify", ["--require-minimal"]),
            ("--out", "resolve", ["--out", str(out_path)]),
            ("--max-degree", "verify and homology", ["--max-degree", "5"]),
        ):
            if command in only.split(" and "):
                continue
            assert run(capsys, command, inst("echelon6.json"), *args) == (
                2, "", f"error: {flag} applies to {only} only\n"
            ), command
    assert not out_path.exists()
    assert run(capsys, "gb", inst("k4.json"), "--seed", "3")[0] == 0


@pytest.mark.parametrize(
    "error, code",
    [(ValidationError, 2), (NotIrreducibleError, 3), (InternalError, 1)],
    ids=["ValidationError", "NotIrreducibleError", "InternalError"],
)
def test_each_error_class_has_one_exit_code(capsys, monkeypatch, error, code):
    def raising(args):
        raise error("stubbed refusal")

    monkeypatch.setitem(cli.COMMANDS, "classify", raising)
    assert run(capsys, "classify", inst("k4.json")) == (code, "", "error: stubbed refusal\n")


# sha256 of `cycres resolve <instance> --out`, pinned before the move from
# rational to integer coefficients; the output must not change by one byte.
RESOLVE_SHA256 = {
    "k4": "653659cceb38a9c907b6a5a081837d5212f1dc0b4d925c6bdca763112a2f51bc",
    "echelon6": "aa3f7cacb08c4ae3ad6d5ed415adbdebec6004c3da2a3c916b3d09d4d691e9ac",
    "weighted4": "631bfc8715d30c772a25335be0c0c80218f0e7050bd6cff3862f44a84bf7758a",
    "cycle4": "579ce047ce056f18fd6b2a6e85b01403c9d1ecc3d628d1212f1b4378507ddcf7",
}


@pytest.mark.parametrize("name", sorted(RESOLVE_SHA256))
def test_resolve_output_pinned(tmp_path, capsys, name):
    out_path = tmp_path / f"{name}.json"
    assert run(capsys, "resolve", inst(f"{name}.json"), "--out", str(out_path))[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == RESOLVE_SHA256[name]


# the same pin on random_icb_digraph(7, Random(2)), the seeded n = 7 instance
# (9,366 basis elements, merges on every level up to k = 6)
RESOLVE_N7_SEED2_SHA256 = "cbea3136a8e25d4a822887c95da7d4f73a1db55a65a1f60bd420bb71ba1d8b78"


def test_resolve_output_pinned_on_the_seeded_n7_instance(tmp_path, capsys):
    g = random_icb_digraph(7, random.Random(2))
    path = tmp_path / "n7.json"
    arcs = [{"from": a, "to": b, "w": w} for a, b, w in g.arcs]
    path.write_text(json.dumps({"n": g.n, "arcs": arcs}))
    out_path = tmp_path / "n7_resolved.json"
    assert run(capsys, "resolve", str(path), "--out", str(out_path))[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == RESOLVE_N7_SEED2_SHA256


@pytest.mark.parametrize("name", ["cycle4", "k4"])
def test_resolve_prints_the_out_document_to_stdout(tmp_path, capsys, name):
    code, out, err = run(capsys, "resolve", inst(f"{name}.json"))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RESOLVE_SHA256[name]
    assert err.startswith("ranks=[1, 7, 12, 6] minimal=")
    out_path = tmp_path / f"{name}.json"
    code, summary, _ = run(capsys, "resolve", inst(f"{name}.json"), "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == out.encode("utf-8")
    assert summary == err


class ClosingPipe(io.StringIO):
    """A stdout whose reader goes away after `limit` characters."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_resolve_into_a_closed_pipe_exits_2(capsys, monkeypatch):
    pipe = ClosingPipe(2000)
    monkeypatch.setattr(sys, "stdout", pipe)
    code, _, err = run(capsys, "resolve", inst("k4.json"))
    assert code == 2
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"]
    assert 0 < len(pipe.getvalue()) <= 2000


def test_resolve_and_gb_render_the_stored_column_order(tmp_path, capsys, monkeypatch):
    # export and gb print the stored order of the one complex built
    from cycres import cyc_complex, graph_core

    g = graph_core.parse_digraph((INSTANCES / "k4.json").read_text())
    C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    expected = export_text(C)

    monkeypatch.setattr(cyc_complex, "build_complex", lambda M: C)
    assert export_text(C) == expected
    out_path = tmp_path / "k4.json"
    assert run(capsys, "resolve", inst("k4.json"), "--out", str(out_path))[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == RESOLVE_SHA256["k4"]
    code, out, _ = run(capsys, "gb", inst("k4.json"))
    assert code == 0
    assert out.splitlines() == K4_GB
    code, out, _ = run(capsys, "gb", inst("k4.json"), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"groebner_basis": K4_GB}


# sha256 of the `cycres verify --format json` report with its "instance"
# field and every "millis" field removed, keys sorted.  Re-pinned when the
# default run came to check the complete lead identity: with
# graded_homology's "degrees" set back to that of the old default degree
# range (cycle4 7, echelon6 6, k4 13, weighted4 13), each report hashed to
# its previous pin (same verdicts, every other counter and witness equal).
VERIFY_SHA256 = {
    "cycle4": "b5c78945035cc7ddbf63ea563f123c5af083715df035de068ad8f0c1510f52e9",
    "cycle4_arcs": "b5c78945035cc7ddbf63ea563f123c5af083715df035de068ad8f0c1510f52e9",
    "echelon6": "bca5a2625f63f533e38f63bd981fd3933a99e786dd8265d5601485b4285b4cc3",
    "k4": "7666655f2ac9da1fd387e442004481d064345bf6938bd120a799fd8432a21aeb",
    "weighted4": "a187e948ae3bf4a6b0f6715e09637b19d49a75b038fb831fbf2011d2d54716c2",
    "weighted4_echelon": "a187e948ae3bf4a6b0f6715e09637b19d49a75b038fb831fbf2011d2d54716c2",
}


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_verify_report_pinned(capsys, name):
    code, out, _ = run(capsys, "verify", inst(f"{name}.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc.pop("instance") == inst(f"{name}.json")
    for check in doc["checks"]:
        assert type(check.pop("millis")) is int
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_SHA256[name]


# the same digest, for runs whose oracle degree bound reaches past the
# exponents the build needs: K4 (L_ii = 3) to degree 20, and a unit 3-cycle
# to degree 40, past the fields of its complex; re-pinned as above from
# the pins of the code that kept monomials as exponent tuples
WIDE_ORACLE_SHA256 = {
    "k4": ("20", "3d39f54c28652031a0a9fd2bcb08f52c0b4efedb48f2ec319cefcbb0eef941ff"),
    "cycle3": ("40", "05b27298fe96778ce48ae6b3c4a761c473a7a9ceb97b129d6fe7ac46bc95dea4"),
}


@pytest.mark.parametrize("name", sorted(WIDE_ORACLE_SHA256))
def test_verify_report_pinned_past_the_build_exponents(tmp_path, capsys, name):
    from cycres import cyc_complex, graph_core

    path = tmp_path / f"{name}.json"
    if name == "cycle3":
        arcs = [{"from": v, "to": v % 3 + 1, "w": 1} for v in (1, 2, 3)]
        path.write_text(json.dumps({"n": 3, "arcs": arcs}))
        # the oracle needs exponents up to 40, more than these fields hold
        g = graph_core.parse_digraph(path.read_text())
        C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
        assert C.ctx.cap < 40
    else:
        path.write_bytes((INSTANCES / "k4.json").read_bytes())
    d_max, expected = WIDE_ORACLE_SHA256[name]
    code, out, _ = run(capsys, "verify", str(path), "--format", "json", "--max-degree", d_max)
    assert code == 0
    doc = json.loads(out)
    doc.pop("instance")
    for check in doc["checks"]:
        assert type(check.pop("millis")) is int
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == expected


def test_verify_report_does_not_depend_on_the_seed(capsys):
    # --seed still parses, and every check is deterministic
    reports = []
    for seed in (["--seed", "0"], ["--seed", "9"], []):
        code, out, _ = run(capsys, "verify", inst("k4.json"), "--format", "json", *seed)
        assert code == 0
        doc = json.loads(out)
        for check in doc["checks"]:
            check.pop("millis")
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]


def test_homology_past_the_build_exponents(tmp_path, capsys):
    path = tmp_path / "cycle3.json"
    arcs = [{"from": v, "to": v % 3 + 1, "w": 1} for v in (1, 2, 3)]
    path.write_text(json.dumps({"n": 3, "arcs": arcs}))
    code, out, _ = run(capsys, "homology", str(path), "--max-degree", "40")
    assert code == 0
    assert "PASS  graded_homology (degrees=41)" in out
    code, out, _ = run(capsys, "homology", str(path), "--max-degree", "40", "--format", "json")
    assert code == 0
    [check] = json.loads(out)["checks"]
    assert (check["status"], check["counters"]) == ("pass", {"degrees": 41})


def test_ten_vertices_exit_2_before_any_enumeration(tmp_path, capsys, monkeypatch):
    from cycres import cyc_complex

    def refuse(*args):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(cyc_complex, "enumerate_basis", refuse)
    path = tmp_path / "cycle10.json"
    arcs = [{"from": v, "to": v % 10 + 1, "w": 1} for v in range(1, 11)]
    path.write_text(json.dumps({"n": 10, "arcs": arcs}))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0 and out.startswith("ICB")
    for command in ("resolve", "verify", "gb", "homology"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "n = 10 has 14,174,522 basis elements" in err


def refuse_pieces(monkeypatch):
    from cycres import resolution_verify

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle piece was built")

    monkeypatch.setattr(resolution_verify, "graded_piece_rank", refuse)
    monkeypatch.setattr(resolution_verify, "rank_sparse", refuse)
    return refuse


def test_the_lead_identity_proves_k4_to_degree_60_without_a_piece(capsys, monkeypatch):
    # the degree-54 piece would hold 265,200 columns, but the identity
    # holds to degree 60, so no piece is built and no budget applies
    refuse_pieces(monkeypatch)
    for command in ("verify", "homology"):
        code, out, _ = run(capsys, command, inst("k4.json"), "--max-degree", "60", "--format", "json")
        assert code == 0, command
        [check] = [c for c in json.loads(out)["checks"] if c["name"] == "graded_homology"]
        assert (check["status"], check["counters"]) == ("pass", {"degrees": 61}), command


def test_oversized_oracle_range_exits_2_before_any_piece(capsys, monkeypatch):
    import lead_ideal_reference
    from cycres import cyc_complex, resolution_verify

    refuse = refuse_pieces(monkeypatch)

    def refused(d_max, message):
        for command in ("verify", "homology"):
            code, out, err = run(capsys, command, inst("k4.json"), "--max-degree", d_max)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (command, d_max)

    # leads taken with ties broken by monomial fall short on K4, so the
    # oracle would eliminate every degree from there to 60: the widest of
    # those pieces is refused before the first is built
    monkeypatch.setattr(
        resolution_verify, "lead_ideals", lead_ideal_reference.monomial_tie_break_ideals
    )
    refused("60", "--max-degree 60 needs a degree-54 piece of 265,200 columns, "
                  "over the oracle's budget of 250,000")
    # a range spanning too many degrees is refused before the build
    monkeypatch.setattr(cyc_complex, "build_complex", refuse)
    for d_max in ("250001", "9" * 200):
        refused(d_max, f"--max-degree {d_max} spans more degrees than the oracle's budget "
                       "of 250,000")


def test_resolve_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "resolve", inst("k4.json"), "--out", str(a))[0] == 0
    assert run(capsys, "resolve", inst("k4.json"), "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_resolve_round_trip_reverify(tmp_path, capsys):
    out_path = tmp_path / "c.json"
    run(capsys, "resolve", inst("cycle4.json"), "--out", str(out_path))
    doc = json.loads(out_path.read_text())

    from cycres import cyc_complex, graph_core

    g = graph_core.parse_digraph((INSTANCES / "cycle4.json").read_text())
    C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
    assert doc["ranks"] == list(C.ranks())
    assert doc["nu"] == list(C.ctx.nu)
    for k in range(1, C.n):
        for j, col in enumerate(doc["diffs"][k - 1]):
            assert parse_column(col["poly"], C.ctx) == columns(C, k)[j]
    # verifying the rebuilt complex reproduces the same verdicts
    from cycres import resolution_verify as rv

    r1 = rv.full_verify(C, d_max=4)
    r2 = rv.full_verify(C, d_max=4)
    strip = lambda rep: [(c.name, c.ok, str(c.witness), c.counters) for c in rep.checks]
    assert strip(r1) == strip(r2)


# ---------------------------------------------------------------------------
# fuzzing: every input document ends in exit 0, 2 or 3, never a traceback

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.dictionaries(st.sampled_from(["n", "arcs", "matrix", "from", "to", "w"])
                          | st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=20,
)

arc_records = st.fixed_dictionaries(
    {"from": st.integers(0, 6), "to": st.integers(0, 6), "w": st.integers(-1, 3)}
)


@st.composite
def weighted_arc_documents(draw):
    """Arcs between every ordered pair of n <= 5 vertices, weight 0 = absent."""
    n = draw(st.integers(0, 5))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    arcs = [{"from": a, "to": b, "w": w} for (a, b), w in zip(pairs, weights) if w]
    return {"n": n, "arcs": arcs}


@st.composite
def small_matrices(draw):
    """Signed Laplacians of n <= 5 vertices, one entry sometimes changed."""
    n = draw(st.integers(0, 5))
    rows = [[-draw(st.integers(0, 3)) if i != j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = -sum(rows[i])
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(-3, 6))
    return {"matrix": rows}


documents = (
    json_values
    | st.builds(lambda n, arcs: {"n": n, "arcs": arcs}, st.integers(-1, 5),
                st.lists(arc_records, max_size=12))
    | weighted_arc_documents()
    | small_matrices()
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_fuzz_classify_and_verify_exit_codes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["classify", str(path)]) in (0, 2, 3)
    assert cli.main(["verify", str(path), "--max-degree", "2"]) in (0, 2, 3)


def test_resolve_and_gb_match_the_column_reference(tmp_path, capsys):
    # resolve and gb render the term positions; the reference renders the
    # columns the tower derives from them, column by column, so the two
    # cross-check positions against columns: the six verifiable bundled
    # instances, K5 with unit weights and seeded n = 4..7
    from cycres import cyc_complex, graph_core
    from cycres.poly_ring import term_tails
    from export_reference import column_str, to_json_dict

    paths = [INSTANCES / f"{name}.json" for name in (
        "cycle4", "cycle4_arcs", "echelon6", "k4", "weighted4", "weighted4_echelon"
    )]
    digraphs = [graph_core.validate_digraph(
        5, [(i, j, 1) for i in range(1, 6) for j in range(1, 6) if i != j]
    )] + [random_icb_digraph(n, random.Random(2)) for n in range(4, 8)]
    for i, g in enumerate(digraphs):
        paths.append(tmp_path / f"instance{i}.json")
        paths[-1].write_text(json.dumps(
            {"n": g.n, "arcs": [{"from": a, "to": b, "w": w} for a, b, w in g.arcs]}
        ))
    out = tmp_path / "complex.json"
    for path in paths:
        g = graph_core.parse_digraph(path.read_text())
        C = cyc_complex.build_complex(graph_core.prepare(graph_core.laplacian(g)))
        assert run(capsys, "resolve", str(path), "--out", str(out))[0] == 0
        reference = json.dumps(to_json_dict(C), indent=2, sort_keys=True) + "\n"
        assert out.read_text(encoding="utf-8") == reference, path.name
        lines = [column_str(f, term_tails(0, 1), C.ctx) for f in columns(C, 1)]
        code, text, _ = run(capsys, "gb", str(path))
        assert code == 0 and text == "\n".join(lines) + "\n", path.name
        code, text, _ = run(capsys, "gb", str(path), "--format", "json")
        assert code == 0 and json.loads(text) == {"groebner_basis": lines}, path.name
