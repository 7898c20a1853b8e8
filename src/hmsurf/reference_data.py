"""Worked-example fixtures and the published classification table.

Everything here is static data: how the Atkin-Lehner involution acts on the
elliptic points of the small worked examples, the fixed-point class totals
for D=5 (below the reach of the class-number formulas), and the published
table of (D, n) conditions that the table pipeline reproduces and diffs
against.
"""

from __future__ import annotations

from .elliptic import ALFixedPoints

# ---------------------------------------------------------------------------
# small-discriminant fixed-point catalogues
# ---------------------------------------------------------------------------

# PSL2(O) fixed-point class totals by isotropy order.  D=5 sits below the
# D > 12 threshold of the count formulas, so its totals are pinned here for
# counts_gamma0 (and certify the test-side class enumerator).
PSL_POINT_TOTALS = {
    5: {2: 2, 3: 2, 5: 2},
}


# How the Atkin-Lehner involution acts on the Gamma0(P) elliptic points of
# the worked examples, keyed by (D, rational prime under P).  For both
# D=5 and D=13 with P=(2): the involution fixes the two order-2 points
# (producing one (4;1,1) and one (4;1,-1) point) and exchanges the order-3
# points pairwise.  For D=13 with P of norm 3 it exchanges everything.
AL_ACTION = {
    (5, 2): ALFixedPoints(order2_to_4_plus=1, order2_to_4_minus=1),
    (13, 2): ALFixedPoints(order2_to_4_plus=1, order2_to_4_minus=1),
    (13, 3): ALFixedPoints(),
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


def published_discriminants() -> list:
    """All discriminants the published table lists explicitly, ascending."""
    ds = set(PUBLISHED_UNRESTRICTED) | set(PUBLISHED_NOT5) \
        | set(PUBLISHED_NOT10) | set(PUBLISHED_NOT5_NOT10) \
        | set(PUBLISHED_SMALL)
    return sorted(ds)
