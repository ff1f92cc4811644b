"""The traced benchmark run wraps package functions by name; every name it
lists must still resolve to a callable, or a refactor breaks tracing
silently.  The tracer's tables are read from its source, not executed."""

import ast
import importlib
import pathlib

import cycres
from conftest import scrambled_tower

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing_tables():
    """The literal MODULES, LAYER_FUNCTIONS and CHECK_FUNCTIONS of tracing.py."""
    wanted = {"MODULES", "LAYER_FUNCTIONS", "CHECK_FUNCTIONS"}
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in wanted
    }


def test_traced_layer_and_check_functions_exist():
    tables = tracing_tables()
    assert tables["LAYER_FUNCTIONS"] and tables["CHECK_FUNCTIONS"]
    for mod_name in tables["MODULES"]:
        importlib.import_module(f"cycres.{mod_name}")
    for mod_name, attr in tables["LAYER_FUNCTIONS"]:
        owner = getattr(cycres, mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"
    for check, fn_name in tables["CHECK_FUNCTIONS"].items():
        assert callable(getattr(cycres.resolution_verify, fn_name)), check


def test_oracle_calls_keep_the_shape_the_tracer_reads(monkeypatch):
    # the tracer counts rank_sparse rows and nonzeros from its argument,
    # oracle columns from graded_piece_rank's result, and takes the oracle's
    # assembly time as graded_piece_rank time minus the rank_sparse time
    # inside it; both are looked up through resolution_verify.  On K4's
    # tower as built the lead count proves every degree and no piece is
    # built; on a scrambled tower it falls short from degree 7, so degrees
    # 7..13 are eliminated, three pieces each
    rv = cycres.resolution_verify
    g = cycres.graph_core.digraph_from_matrix(
        [[3 if i == j else -1 for j in range(4)] for i in range(4)]
    )
    C = cycres.cyc_complex.build_complex(
        cycres.graph_core.prepare(cycres.graph_core.laplacian(g)), 13
    )
    scrambled_tower(C, 1)
    open_pieces = []
    ranks, pieces = [], []
    rank_sparse, graded_piece_rank = rv.rank_sparse, rv.graded_piece_rank

    def recording_rank(rows):
        ranks.append((len(open_pieces), rows))
        return rank_sparse(rows)

    def recording_piece(*args):
        open_pieces.append(args)
        result = graded_piece_rank(*args)
        open_pieces.pop()
        pieces.append((args[2], result))
        return result

    monkeypatch.setattr(rv, "rank_sparse", recording_rank)
    monkeypatch.setattr(rv, "graded_piece_rank", recording_piece)
    ok, witness, counters = rv.graded_homology_oracle(C, 13)
    assert ok, witness
    assert counters["degrees"] == 14
    assert len(ranks) == len(pieces) == 21
    assert sorted({d for d, _ in pieces}) == list(range(7, 14))
    for inside, rows in ranks:
        assert inside == 1
        assert isinstance(rows, list) and all(isinstance(row, dict) for row in rows)
    for _, result in pieces:
        assert isinstance(result, tuple) and len(result) == 2
        assert all(type(x) is int for x in result)
