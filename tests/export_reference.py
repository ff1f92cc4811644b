"""The `resolve` document as one dict, rendered column by column from the
derived columns: the form ``cyc_complex.export_json`` streams from the term
positions, kept as the reference it is tested against, so that the two
cross-check the positions against the columns.  Laid out by
``json.dumps(to_json_dict(C), indent=2, sort_keys=True)`` it is the text
the streamed export must write, byte for byte.
"""

from conftest import columns
from cycres.poly_ring import term_tails


def column_str(column, tails, ctx):
    """Render one column, a sequence of (coeff, monomial, basis index)
    terms, in its stored order: each term's sign, |coeff| unless it is 1,
    its monomial's text (ctx.text) and tails[basis index] (see term_tails),
    the first term with its sign alone; "0" for no term.  Any int
    coefficient renders, and "*" joins it to a monomial: -2*x4, 2, 1."""
    if not column:
        return "0"
    out = []
    for coeff, mono, idx in column:
        text = ctx.text(mono)
        if abs(coeff) != 1:
            text = f"{abs(coeff)}*{text}" if text else str(abs(coeff))
        out += " + " if coeff > 0 else " - ", text or "1", tails[idx]
    text = "".join(out)
    return text[3:] if column[0][0] > 0 else "-" + text[3:]


def to_json_dict(C):
    return {
        "n": C.n,
        "nu": list(C.ctx.nu),
        "ranks": list(C.ranks()),
        "shifts": [list(level) for level in C.shifts],
        "diffs": [
            [
                {"basis": j + 1, "poly": column_str(f, tails, C.ctx)}
                for j, f in enumerate(columns(C, k))
            ]
            for k in range(1, C.n)
            # the tail table is sized from the columns that read it
            for width in [1 + max((t[2] for f in columns(C, k) for t in f), default=0)]
            for tails in [term_tails(k - 1, width)]
        ],
    }
