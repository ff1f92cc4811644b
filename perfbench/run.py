"""cycres benchmark: seeded instances through the real CLI, outputs checked.

    python3 perfbench/run.py --workload verify-n7 --seed 2 --seconds 35 --trace 0

Workloads (each instance is generated here from --seed, written as an
arc-list JSON file, and only that file is passed to the CLI):

  verify-n7   ``cycres verify --max-degree 12`` on the random n = 7 instance
              of the seed.  The structural passes are ~95% of the run and the
              oracle reaches no generator, so it shows poly_ring and
              verification-pass gains and is blind to oracle gains.
  oracle-k5   ``cycres verify --max-degree 13`` on the complete 5-vertex
              digraph with unit weights (the seed does not apply).  The
              exactness oracle is ~90% of the run and reaches all 149
              generators, so it shows oracle gains and is blind to poly_ring.
  resolve-n8  ``cycres resolve --out FILE`` on the random n = 8 instance of the
              seed (94,586 basis elements): build and export with no
              verification, so work moved into build shows here.

Every CLI run is a fresh process, one at a time; the degree bound and the
check seed are pinned, never left to CLI defaults.  Runs repeat while the
next one is expected to end within --seconds (at least one runs).  Before
them, one untimed ``classify`` run warms the bytecode cache and gives nu,
and SETUP_PROBES processes only import the CLI, to sample set-up time.

End-to-end metrics (--trace 0), medians over the runs of this process:
  wall_s       from the CLI starting (cycres imported) to process exit
  setup_s      from process start to cycres imported, before any input
  peak_rss_mb  peak resident memory of the CLI process
  passed_frac  share of launched processes whose output check passed

wall_s and setup_s are given at a reference core speed: each stopwatch
time is multiplied by the pace that launch.py measured in the same process
over the same interval, so that the drift of a shared core between runs
(up to 1.7x, lasting seconds to minutes) does not read as a change of the
program.  The stopwatch medians and the paces are printed in provenance.

With --trace 1 one more, traced, run follows; its spans around the public
functions of every layer (see tracing.py) give the per-layer metrics,
printed beside the end-to-end table.  The last stdout line is always the
JSON result; provenance is printed on the line before the tables.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import instances
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
LAUNCHER = HERE / "launch.py"
# CLI processes cache bytecode as an installed package does, whatever the
# calling environment says; the untimed classify run writes the cache.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

DEFAULT_SEED = 2
SETUP_PROBES = 10
RUN_TIMEOUT_S = 150
# sha256 of `cycres resolve --out` on random_icb_arcs(8, 2); resolve output
# must stay byte-identical (ROADMAP).
RESOLVE_N8_SHA256 = {2: "b4232a2ab883fd787e888ce2b45deef7260da9fbbfdffd3bc1ab4a42038c270f"}
CHECK_SEED = "0"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("passed_frac", "frac")]

# counters of the verify report, per check, recorded per layer
REPORT_COUNTERS = [
    ("degree0_groebner", "pairs"),
    ("module_quotients", "generators"),
    ("tau_syzygies", "elements"),
    ("schreyer_coverage", "generators"),
    ("graded_homology", "degrees"),
]
# counters the tracer computes from the arguments and results of layer calls
TRACE_COUNTERS = [
    ("intlinalg.rank_sparse_rows", "lower"),
    ("intlinalg.rank_sparse_nnz", "lower"),
    ("resolution_verify.oracle_pieces", "higher"),
    ("resolution_verify.oracle_cols", "higher"),
    ("resolution_verify.oracle_generators_reached", "higher"),
    ("resolution_verify.oracle_generators_total", "higher"),
]


@dataclass(frozen=True)
class Workload:
    command: str
    n: int
    seeded: bool
    max_degree: int = None

    def arcs(self, seed):
        if self.seeded:
            return instances.random_icb_arcs(self.n, seed)
        return instances.complete_arcs(self.n)

    def cli_args(self, instance, out):
        if self.command == "resolve":
            return ["resolve", str(instance), "--out", str(out)]
        return ["verify", str(instance), "--max-degree", str(self.max_degree),
                "--seed", CHECK_SEED, "--format", "json"]


WORKLOADS = {
    "verify-n7": Workload("verify", 7, True, max_degree=12),
    "oracle-k5": Workload("verify", 5, False, max_degree=13),
    "resolve-n8": Workload("resolve", 8, True),
}


@dataclass
class Launch:
    code: int
    setup_raw_s: float   # process start -> cycres imported
    wall_raw_s: float    # CLI started -> process exit
    setup_pace: float    # pace of the core after the import (launch.py)
    run_pace: float      # pace of the core while the CLI ran
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def setup_s(self):
        return self.setup_raw_s * self.setup_pace

    @property
    def wall_s(self):
        return self.wall_raw_s * self.run_pace

    @property
    def total_raw_s(self):
        return self.setup_raw_s + self.wall_raw_s


class LaunchError(Exception):
    pass


def launch(workdir, cli_args, trace_path="-", run_id="-"):
    """Run launch.py in a fresh process and wait for it to exit."""
    ready_path = workdir / "ready"
    ready_path.unlink(missing_ok=True)
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    cmd = [sys.executable, str(LAUNCHER), str(ready_path), str(trace_path), run_id, *cli_args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if not ready_path.exists():
        raise LaunchError(f"CLI never became ready (exit {proc.returncode}): {stderr[-2000:]}")
    rec = json.loads(ready_path.read_text())
    return Launch(proc.returncode, rec["ready"] - start, exited - rec["start"],
                  rec["setup_pace"], rec["run_pace"], usage.ru_maxrss / 1024,
                  out_path.read_text(encoding="utf-8", errors="replace"), stderr)


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else the reason

def _verify_report(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_verify(run, wl, ranks):
    report = _verify_report(run.stdout)
    if not isinstance(report, dict):
        return "no JSON report on stdout"
    checks = report.get("checks", [])
    names = [c.get("name") for c in checks]
    if names != tracing.CHECK_NAMES:
        return f"report lists checks {names}"
    failing = [c["name"] for c in checks if c.get("status") != "pass"]
    if failing:
        return f"checks not passing: {failing}"
    counters = {c["name"]: c.get("counters", {}) for c in checks}
    above = sum(ranks[2:])
    expected = {
        ("degree0_groebner", "pairs"): ranks[1] * (ranks[1] - 1) // 2,
        ("tau_syzygies", "elements"): above,
        ("schreyer_coverage", "generators"): above,
        ("graded_homology", "degrees"): wl.max_degree + 1,
    }
    for (check, key), value in expected.items():
        got = counters[check].get(key)
        if got != value:
            return f"{check}.{key} = {got}, expected {value}"
    return None


def check_resolve(run, out_path, ranks, pinned_sha):
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith(f"ranks={ranks} minimal="):
        return f"summary line {lines[-1:]} does not give ranks {ranks}"
    data = out_path.read_bytes()
    if pinned_sha is not None:
        digest = hashlib.sha256(data).hexdigest()
        return None if digest == pinned_sha else f"output sha256 {digest} != pinned {pinned_sha}"
    try:
        doc = json.loads(data)
    except ValueError:
        return "output is not JSON"
    if doc.get("ranks") != ranks:
        return f"output ranks {doc.get('ranks')} != {ranks}"
    cols = [len(level) for level in doc.get("diffs", [])]
    if cols != ranks[1:]:
        return f"columns per level {cols} != ranks {ranks[1:]}"
    return None


# ---------------------------------------------------------------------------
# metrics

def per_layer_metrics(trace, traced_wall_s, untraced_wall_s, report):
    """[(name, value, unit, better)] for every per-layer metric, in order."""
    total, self_time, calls = tracing.summarize(trace)
    layers = tracing.layer_span_names()
    checks = tracing.check_span_names()
    out = []
    for name in checks + layers:
        out.append((f"{name}_s", total.get(name, 0.0), "s", "lower"))
        out.append((f"{name}_self_s", self_time.get(name, 0.0), "s", "lower"))
    for name in layers:
        out.append((f"{name}_calls", calls.get(name, 0), "count", "lower"))
    counters = {c["name"]: c.get("counters", {}) for c in (report or {}).get("checks", [])}
    for check, key in REPORT_COUNTERS:
        out.append((f"resolution_verify.{check}.{key}",
                    counters.get(check, {}).get(key, 0), "count", "higher"))
    for key, better in TRACE_COUNTERS:
        out.append((key, trace["counters"].get(key, 0), "count", better))
    assembly = (total.get("resolution_verify.graded_piece_rank", 0.0)
                - total.get("intlinalg.rank_sparse", 0.0))
    out.append(("resolution_verify.oracle_assembly_s", assembly, "s", "lower"))
    cli_s = trace["done"] - trace["ready"]
    covered = sum(total.get(name, 0.0) for name in checks + ["cyc_complex.build_complex"])
    out.append(("trace.cli_s", cli_s, "s", "lower"))
    out.append(("trace.check_build_frac", covered / cli_s if cli_s else 0.0, "frac", "higher"))
    out.append(("trace.wall_s", traced_wall_s, "s", "lower"))
    out.append(("trace.overhead_s", traced_wall_s - untraced_wall_s, "s", "lower"))
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def print_tables(e2e, samples, layer):
    """End-to-end medians, then per-span total/self/calls, then the rest."""
    print(f"{'end-to-end metric':<48}{'median':>12}  unit   samples")
    for name, unit in END_TO_END:
        print(f"{name:<48}{e2e[name]:>12.6g}  {unit:<6} {samples[name]}")
    if not layer:
        return
    values = {name: value for name, value, _, _ in layer}
    shown = set()
    print(f"\n{'span (per-layer metric prefix)':<48}{'total _s':>12}{'self _self_s':>14}{'_calls':>10}")
    for span in tracing.check_span_names() + tracing.layer_span_names():
        keys = [f"{span}_s", f"{span}_self_s", f"{span}_calls"]
        shown.update(keys)
        calls = values.get(keys[2], "")
        print(f"{span:<48}{values[keys[0]]:>12.6g}{values[keys[1]]:>14.6g}{calls:>10}")
    print(f"\n{'per-layer metric':<48}{'value':>12}  unit")
    for name, value, unit, _ in layer:
        if name not in shown:
            print(f"{name:<48}{value:>12.6g}  {unit}")


# ---------------------------------------------------------------------------

def measure(args, workdir):
    wl = WORKLOADS[args.workload]
    data = instances.instance_bytes(wl.n, wl.arcs(args.seed))
    inst = workdir / "instance.json"
    inst.write_bytes(data)
    out = workdir / "complex.json"
    ranks = instances.expected_ranks(wl.n)
    cli_args = wl.cli_args(inst, out)
    pinned = RESOLVE_N8_SHA256.get(args.seed) if wl.command == "resolve" else None

    def check(run):
        if run.code != 0:
            detail = run.stderr.strip()[-500:] or check_verify(run, wl, ranks)
            return f"exit code {run.code}: {detail}"
        if wl.command == "resolve":
            problem = check_resolve(run, out, ranks, pinned)
            out.unlink(missing_ok=True)
            return problem
        return check_verify(run, wl, ranks)

    classified = launch(workdir, ["classify", str(inst), "--format", "json"])
    if classified.code != 0:
        raise LaunchError(f"classify failed: {classified.stderr.strip()[-2000:]}")
    cls = json.loads(classified.stdout)
    nu = [0] * wl.n
    for v, label in enumerate(cls["perm"]):   # nu in the order of the complex
        nu[label - 1] = cls["nu"][v]

    probes = [launch(workdir, []) for _ in range(SETUP_PROBES)]
    runs = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        run = launch(workdir, cli_args)
        problem = check(run)
        attempted += 1
        if problem:
            failed += 1
            print(f"output check failed: {problem}")
        runs.append(run)
        if time.perf_counter() - begin + run.total_raw_s > args.seconds:
            break
    launched = probes + runs

    def median(field, among=runs):
        return statistics.median(getattr(r, field) for r in among)

    e2e = {
        "wall_s": median("wall_s"),
        "setup_s": median("setup_s", launched),
        "peak_rss_mb": median("rss_mb"),
        "passed_frac": (attempted - failed) / attempted,
    }
    samples = {"wall_s": len(runs), "setup_s": len(launched),
               "peak_rss_mb": len(runs), "passed_frac": attempted}
    # what a stopwatch read, and the paces that scaled it (launch.py)
    raw = {"wall_raw_s": median("wall_raw_s"), "run_pace": median("run_pace"),
           "setup_raw_s": median("setup_raw_s", launched),
           "setup_pace": median("setup_pace", launched)}

    layer = None
    if args.trace:
        trace_path = workdir / "trace.json"
        traced = launch(workdir, cli_args, trace_path, workdir.name)
        problem = check(traced)
        attempted += 1
        if problem:
            failed += 1
            print(f"output check failed (traced run): {problem}")
        if not trace_path.exists():
            raise LaunchError(f"traced run wrote no trace: {traced.stderr.strip()[-2000:]}")
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        report = _verify_report(traced.stdout) if wl.command == "verify" else None
        layer = per_layer_metrics(trace, traced.wall_s, e2e["wall_s"], report)

    provenance = {
        "workload": args.workload,
        "seed": args.seed if wl.seeded else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_args": [a if a not in (str(inst), str(out)) else Path(a).name for a in cli_args],
        "degree_bound": wl.max_degree,
        "instance": {"sha256": hashlib.sha256(data).hexdigest(), "n": wl.n, "nu": nu, "ranks": ranks},
        "raw_medians": raw,
        "runs": {"measured": len(runs), "traced": 1 if args.trace else 0,
                 "setup_probes": SETUP_PROBES},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print_tables(e2e, samples, layer)
    if layer:
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in layer}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cycres" / "cli.py").is_file():
        print(f"error: no cycres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    except LaunchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
