"""Command-line driver.

Subcommands: classify | resolve | verify | gb | homology.  Inputs are UTF-8
JSON documents, either {"matrix": [[..]]} (signed Laplacian, takes
precedence) or {"n": .., "arcs": [{"from":., "to":., "w":.}, ..]}.

resolve, verify, gb and homology load their input through one loader,
which refuses a digraph of more than cyc_complex.MAX_VERTICES vertices and
an oversized --max-degree span as soon as the input is parsed, before the
Laplacian is built; classify has no vertex cap.

Exit codes: 0 success, 1 verification failure (or InternalError), 2 invalid
input (ValidationError), 3 class error (NotIrreducibleError: matrix not
irreducible where required).
"""

import argparse
import functools
import gc
import json
import sys
from contextlib import nullcontext

from . import cyc_complex, graph_core, intlinalg, resolution_verify
from .errors import InternalError, NotIrreducibleError, ValidationError
from .poly_ring import elem_str, term_tails

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_CLASS = 3


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path} is not UTF-8 text: {e}") from e
    return graph_core.parse_digraph(text)


def _build(args):
    """The complex of the input, packed for an explicit --max-degree: the
    loader of resolve, verify, gb and homology.  A vertex count past the
    cap and a bound spanning too many degrees are refused on the parsed
    digraph, before the Laplacian, the relabelling or any enumeration."""
    g = _load(args.input)
    cyc_complex.refuse_oversized_n(g.n)
    if args.d_max is not None:
        resolution_verify.refuse_oversized_span(args.d_max)
    M = graph_core.prepare(graph_core.laplacian(g), args.omega)
    return cyc_complex.build_complex(M, args.d_max or 0)


def _emit(args, payload, text):
    if args.fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_classify(args) -> int:
    g = _load(args.input)
    L = graph_core.laplacian(g)
    cls = graph_core.classify(L)
    if cls == "CB":
        _emit(args, {"class": "CB", "irreducible": False}, "CB (reducible)")
        return EXIT_OK
    mu = intlinalg.adjugate_row(L.signed_rows())
    nu = intlinalg.grading_vector(mu)
    already = graph_core.block_echelon_structure(L)
    M = graph_core.prepare(L, args.omega)
    delta = len(M.echelon)
    payload = {
        "class": cls,
        "mu": list(mu),
        "nu": list(nu),
        "echelon_input": already is not None,
        "delta": delta,
        "blocks": list(M.echelon),
        "perm": list(M.perm),
    }
    try:
        # the same ints go into the JSON document, so this also covers
        # --format json, before anything is printed
        text = (
            f"{cls}, mu={tuple(mu)}, nu={tuple(nu)}, "
            f"echelon={'yes' if already else 'no'}, delta={delta}, "
            f"blocks={tuple(M.echelon)}, perm={tuple(M.perm)}"
        )
    except ValueError as e:  # past the int-string digit limit
        raise ValidationError(f"mu has too many digits to print: {e}") from e
    _emit(args, payload, text)
    return EXIT_OK


def cmd_resolve(args) -> int:
    C = _build(args)
    minimal, _ = cyc_complex.minimality_check(C)
    # the document goes to --out or else stdout, the summary to the other stream
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        cyc_complex.export_json(C, fh)
        fh.write("\n")
    summary = f"ranks={list(C.ranks())} minimal={str(minimal).lower()}"
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    C = _build(args)
    report = resolution_verify.full_verify(C, d_max=args.d_max, instance=args.input)
    ok = report.passed
    if args.require_minimal:
        minimal, witness = cyc_complex.minimality_check(C)
        if not minimal:
            report.checks.append(
                resolution_verify.CheckResult(
                    "require_minimal", False, f"non-minimal entry {witness}", {}
                )
            )
            ok = False
    _emit(args, report.to_json_dict(), report.to_text())
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_gb(args) -> int:
    C = _build(args)
    lines = list(map("".join, zip(*elem_str(C.positions[1], term_tails(0, 1), C.ctx))))
    _emit(args, {"groebner_basis": lines}, "\n".join(lines))
    return EXIT_OK


def cmd_homology(args) -> int:
    C = _build(args)
    check = resolution_verify.run_check(
        "graded_homology", lambda: resolution_verify.graded_homology_oracle(C, args.d_max)
    )
    report = resolution_verify.VerificationReport(args.input, [check])
    _emit(args, report.to_json_dict(), report.to_text())
    return EXIT_OK if check.ok else EXIT_VERIFY_FAIL


COMMANDS = {
    "classify": cmd_classify,
    "resolve": cmd_resolve,
    "verify": cmd_verify,
    "gb": cmd_gb,
    "homology": cmd_homology,
}


@functools.cache
def build_parser():
    """The one parser of the process, built on the first call: a parser
    holds reference cycles of its own, which a new parser per main call
    would leave for the caller's collector."""
    ap = argparse.ArgumentParser(
        prog="cycres",
        description="Free resolutions of digraph lattice ideals, exactly verified.",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("input", help="path to a JSON instance file")
    ap.add_argument("--omega", type=int, default=None,
                    help="distinguished vertex for the distance enumeration (default: n)")
    ap.add_argument("--max-degree", type=int, default=None, dest="d_max",
                    help="verify and homology only: degree bound for the homology "
                         "oracle (default: every degree)")
    ap.add_argument("--format", choices=["text", "json"], default="text", dest="fmt")
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted and ignored: every check is deterministic")
    ap.add_argument("--require-minimal", action="store_true",
                    help="verify only: fail unless the complex is minimal")
    ap.add_argument("--out", default=None, help="resolve only: output path")
    return ap


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off.

    A build and every check free their objects by reference counting alone
    (the tests hold each command to leaving nothing for gc.collect()), so
    the collector's passes over the growing complex find nothing to free.
    The caller's collector state is restored on return.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv):
    args = build_parser().parse_args(argv)
    try:
        if args.d_max is not None and args.d_max < 0:
            raise ValidationError("--max-degree must be nonnegative")
        # a flag that only some subcommands read is refused by the others,
        # which would otherwise ignore it and exit 0
        for flag, given, commands in (
            ("--require-minimal", args.require_minimal, ("verify",)),
            ("--out", args.out is not None, ("resolve",)),
            ("--max-degree", args.d_max is not None, ("verify", "homology")),
        ):
            if given and args.command not in commands:
                raise ValidationError(f"{flag} applies to {' and '.join(commands)} only")
        return COMMANDS[args.command](args)
    except NotIrreducibleError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CLASS
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
