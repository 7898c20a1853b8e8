"""Static data: the D=5 fixed-point class totals and the published table.

The D=5 totals sit below the reach of the class-number formulas; the
published table of (D, n) conditions is what the table pipeline reproduces
and diffs against.
"""

# PSL2(O) fixed-point class totals by isotropy order.  D=5 sits below the
# D > 12 threshold of the count formulas, so its totals are pinned here for
# counts_gamma0 (and certify the test-side class enumerator).
PSL_POINT_TOTALS = {
    5: {2: 2, 3: 2, 5: 2},
}


# ---------------------------------------------------------------------------
# the published classification table
# ---------------------------------------------------------------------------

# Families with no lower bound on n beyond n >= 3.
PUBLISHED_UNRESTRICTED = frozenset({
    193, 241, 313, 337, 409, 433, 457, 521, 569,
    593, 601, 617, 641, 673, 769, 809,
})
# Everything from here up passes for every n >= 3.
PUBLISHED_UNRESTRICTED_MIN = 853

# n >= 3 but n = 5 fails (the norm-4 prime (2)).
PUBLISHED_NOT5 = frozenset({
    157, 181, 277, 349, 373, 397, 421, 509, 541, 557,
    613, 653, 661, 677, 701, 709, 757, 773, 797, 821, 829,
})
# n >= 3 but n = 10 fails (the norm-9 prime (3)).
PUBLISHED_NOT10 = frozenset({137, 233, 281, 353, 449})
# n >= 3 but both n = 5 and n = 10 fail.
PUBLISHED_NOT5_NOT10 = frozenset({149, 173, 197, 269, 293, 317, 389, 461})

# Small discriminants with a real lower bound on n (and possibly extra
# exclusions above it).
PUBLISHED_SMALL = {
    113: (8, frozenset({10})),
    109: (6, frozenset()),
    101: (6, frozenset({10})),
    97: (5, frozenset()),
    89: (6, frozenset()),
    73: (7, frozenset()),
    61: (10, frozenset()),
    53: (12, frozenset()),
    41: (17, frozenset()),
    37: (20, frozenset()),
    29: (28, frozenset()),
    17: (62, frozenset()),
    13: (93, frozenset()),
}


def published_row(D: int):
    """(n_min, exclusions) as published, or None if D is not in the table."""
    if D >= PUBLISHED_UNRESTRICTED_MIN or D in PUBLISHED_UNRESTRICTED:
        return (3, frozenset())
    if D in PUBLISHED_NOT5:
        return (3, frozenset({5}))
    if D in PUBLISHED_NOT10:
        return (3, frozenset({10}))
    if D in PUBLISHED_NOT5_NOT10:
        return (3, frozenset({5, 10}))
    if D in PUBLISHED_SMALL:
        return PUBLISHED_SMALL[D]
    return None
