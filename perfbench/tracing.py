"""Spans around the public functions of each cycres layer, from outside.

``Tracer.install`` replaces module attributes inside the traced process
only: every module of the package that holds a listed function gets a
wrapper in its place, so calls through ``from .x import f`` names are
caught as well.  The package sources are not edited.  Spans (name, start,
end, parent) are kept in memory and written once, when the run ends, under
the run id of the process.  ``summarize`` turns a written trace into
per-layer totals, self times, call counts and counters.
"""

import json
import time

# (module, attribute) of each layer function; the span is "module.attribute"
# with any class name dropped.
LAYER_FUNCTIONS = [
    ("graph_core", "parse_digraph"),
    ("graph_core", "prepare"),
    ("intlinalg", "adjugate_row"),
    ("intlinalg", "rank_sparse"),
    ("poly_ring", "OrderTower.add_level"),
    ("poly_ring", "divide"),
    ("poly_ring", "s_vector"),
    ("poly_ring", "elem_str"),
    ("cyc_complex", "build_complex"),
    ("cyc_complex", "enumerate_basis"),
    ("cyc_complex", "boundary"),
    ("cyc_complex", "export_json"),
    ("resolution_verify", "graded_piece_rank"),
]

# check name in the verify report -> the function full_verify calls for it.
# These are replaced in resolution_verify only, so that calls made by the
# CLI outside full_verify (minimality_check) are not counted as the check.
CHECK_FUNCTIONS = {
    "d_squared": "check_d_squared",
    "leading_term_formula": "check_leading_terms",
    "basis_images_distinct": "verify_distinct_images",
    "degree0_groebner": "verify_degree0_gb",
    "colon_stability": "verify_colon_stability",
    "module_quotients": "verify_module_quotients",
    "tau_syzygies": "verify_tau_identities",
    "schreyer_coverage": "verify_coverage_all",
    "minimality_vs_completeness": "minimality_check",
    "graded_homology": "graded_homology_oracle",
}
CHECK_NAMES = list(CHECK_FUNCTIONS)

MODULES = ["cli", "graph_core", "intlinalg", "poly_ring", "cyc_complex", "resolution_verify"]


def layer_span_names():
    return [f"{mod}.{attr.split('.')[-1]}" for mod, attr in LAYER_FUNCTIONS]


def check_span_names():
    return [f"resolution_verify.{name}" for name in CHECK_NAMES]


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []        # span names, one per wrapped function
        self.spans = []        # [name id, start, end, parent span index]
        self._stack = []
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """A stand-in for fn that records one span per call.

        ``before(args)`` and ``after(args, result)`` run outside the span,
        to update counters.
        """
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every listed function of the imported ``package`` modules."""
        modules = [getattr(package, m) for m in MODULES]
        hooks = {
            "intlinalg.rank_sparse": (self._count_rank_input, None),
            "resolution_verify.graded_piece_rank": (None, self._count_piece),
            "resolution_verify.graded_homology": (self._count_reach, None),
        }
        for mod_name, attr in LAYER_FUNCTIONS:
            owner = getattr(package, mod_name)
            *classes, fn_name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            if classes:
                setattr(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        rv = package.resolution_verify
        for check, fn_name in CHECK_FUNCTIONS.items():
            name = f"resolution_verify.{check}"
            setattr(rv, fn_name, self.wrap(name, getattr(rv, fn_name),
                                           *hooks.get(name, (None, None))))

    def _count_rank_input(self, args):
        rows = args[0]
        self.count("intlinalg.rank_sparse_rows", len(rows))
        self.count("intlinalg.rank_sparse_nnz", sum(map(len, rows)))

    def _count_piece(self, args, result):
        _, ncols = result
        self.count("resolution_verify.oracle_cols", ncols)
        self.count("resolution_verify.oracle_pieces", 1 if ncols else 0)

    def _count_reach(self, args):
        C, d_max = args[0], args[1]
        shifts = [s for level in C.shifts[1:] for s in level]
        self.count("resolution_verify.oracle_generators_total", len(shifts))
        self.count("resolution_verify.oracle_generators_reached",
                   sum(1 for s in shifts if s <= d_max))

    def dump(self, path, ready, done):
        doc = {
            "run_id": self.run_id,
            "ready": ready,
            "done": done,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def summarize(doc):
    """Per-span totals, self times and call counts from a written trace.

    A span's self time is its duration minus the durations of its direct
    children; calls are strictly nested, so children never overlap.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total = {name: 0.0 for name in names}
    self_time = dict(total)
    calls = {name: 0 for name in names}
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    return total, self_time, calls
