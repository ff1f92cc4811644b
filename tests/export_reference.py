"""The `resolve` document as one dict: the form ``cyc_complex.export_json``
streams, kept as the reference it is tested against.  Laid out by
``json.dumps(to_json_dict(C), indent=2, sort_keys=True)`` it is the text
the streamed export must write, byte for byte.
"""

from cycres.poly_ring import elem_str, term_tails


def to_json_dict(C):
    return {
        "n": C.n,
        "nu": list(C.ctx.nu),
        "ranks": list(C.ranks()),
        "shifts": [list(level) for level in C.shifts],
        "diffs": [
            [
                {"basis": j + 1, "poly": elem_str(f, tails, C.ctx)}
                for j, f in enumerate(C.diffs[k])
            ]
            for k in range(1, C.n)
            # the tail table is sized from the columns that read it
            for width in [1 + max((t[2] for f in C.diffs[k] for t in f), default=0)]
            for tails in [term_tails(k - 1, width)]
        ],
    }
