"""Monomials as exponent tuples: the plain operations that packed monomials
replace, kept as the reference the packed ones are tested against (as
linalg_reference keeps the dense rank).
"""


def degree(mono, nu):
    return sum(e * w for e, w in zip(mono, nu))


def wrlo_key(mono, nu):
    """Sort key realizing the weighted reverse lexicographic order."""
    return (degree(mono, nu), tuple(-e for e in reversed(mono)))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))
