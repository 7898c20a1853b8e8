import copy
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from hmsurf import chern, field, forms, ntheory, zeta
from hmsurf.chern import classify, default_discriminants
from hmsurf.field import (
    FieldContext,
    FieldElement,
    FieldError,
    NarrowClassError,
    UnsupportedShapeError,
    _positive_generator,
    make_field,
    split_prime,
)
from hmsurf.forms import walk_element
from hmsurf.ntheory import is_prime, kronecker
from hmsurf.zeta import cusp_resolution, zeta_minus_one

from helpers import (ResidueField, divide_exact, full_principal_walk, linear_product,
                     load_audit_row, oracle_make_field, oracle_split_generators,
                     principal_form, real, unit_form_walk)

DISCS = (5, 8, 13, 17, 29)


def elt(D, n, m):
    """n + m*omega, always an algebraic integer."""
    return FieldElement.from_int(n, D) + FieldElement.omega(D) * FieldElement.from_int(m, D)


small = st.integers(-40, 40)
disc = st.sampled_from(DISCS)


@given(disc, small, small, small, small)
def test_ring_axioms_and_norm(D, n1, m1, n2, m2):
    x = elt(D, n1, m1)
    y = elt(D, n2, m2)
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).u == x.u + y.u


@given(disc, small, small)
def test_conjugation(D, n, m):
    x = elt(D, n, m)
    xb = x.conjugate()
    assert xb.conjugate() == x
    assert x + xb == FieldElement.from_int(x.u, D)
    assert x * xb == FieldElement.from_int(x.norm(), D)


@given(disc, small, small, small, small)
def test_divide_exact_roundtrip(D, n1, m1, n2, m2):
    x = elt(D, n1, m1)
    y = elt(D, n2, m2)
    if not y:
        return
    assert divide_exact(x * y, y) == x


def test_divide_exact_refuses():
    one = FieldElement.from_int(1, 13)
    two = FieldElement.from_int(2, 13)
    assert divide_exact(one, two) is None
    w = FieldElement.omega(13)
    assert divide_exact(w, two) is None
    assert divide_exact(w * 2, two) == w


@given(disc, small, small)
def test_signs_match_embeddings(D, n, m):
    x = elt(D, n, m)
    if not x:
        return
    for place in (0, 1):
        emb = (n + m * (1 + math.sqrt(D) * (1 if place == 0 else -1)) / 2
               if D % 4 == 1
               else n + m * math.sqrt(D) / 2 * (1 if place == 0 else -1))
        assert x.sign_at(place) == (1 if emb > 0 else -1), (x, place)


@given(disc, small, small, small, small)
def test_order_matches_first_embedding(D, n1, m1, n2, m2):
    x = elt(D, n1, m1)
    y = elt(D, n2, m2)
    if x == y:
        assert not (x < y) and not (y < x)
        return
    assert (x < y) == (real(x) < real(y))
    assert (x > y) == (y < x)
    assert (x <= y) == (not (y < x))


def test_fundamental_units_frozen():
    # (u, v) encodes (u + v*sqrt(D))/2
    expected = {5: (1, 1), 8: (2, 1), 13: (3, 1), 17: (8, 2), 29: (5, 1),
                769: (32734748155099080, 1180445209689554)}
    for D, pair in expected.items():
        eps = make_field(D).eps
        assert eps.as_pair() == pair, D
        assert eps.norm() == -1, D
        assert eps.sign_at(0) > 0 and real(eps) > 1


def test_fundamental_unit_is_smallest():
    # no unit strictly between 1 and eps: scan norm equations by brute force
    for D in DISCS:
        eps = make_field(D).eps
        top = real(eps)
        lim = int(2 * top) + 3
        for u in range(-lim, lim + 1):
            for v in range(-lim, lim + 1):
                if (u - v * D) % 2 or (u, v) == (0, 0):
                    continue
                if D % 4 == 0 and u % 2:
                    continue
                x = FieldElement(u, v, D)
                if abs(x.norm()) != 1:
                    continue
                val = real(x)
                assert not (1.000001 < val < top * 0.999999), (D, u, v)


def test_eps_is_the_largest_walk_unit():
    # make_field reads eps = (|u| + |v|*sqrt(D))/2 off the walk's unit eta;
    # the oracle is the largest of +-eta and +-eta', at every supported D
    checked = 0
    for D in [8] + [D for D in range(5, 20001, 4) if is_prime(D)]:
        try:
            F = make_field(D)
        except NarrowClassError:
            continue
        end, quotients = unit_form_walk(principal_form(D), D)
        eta = FieldElement(*walk_element(end, quotients), D)
        assert F.eps == max((eta, -eta, eta.conjugate(), -eta.conjugate())), D
        checked += 1
    assert checked == 2 + len(default_discriminants(20000))


def test_walk_unit_matches_the_linear_product():
    # the balanced step_product against the product taken one factor at a
    # time, at every supported D <= 20000 and at 10^9 + 9 (59,741 steps); the
    # walk's (u, v) is read off the oracle's bottom row, and its norm is -1
    for D in [5, 8] + default_discriminants(20000) + [10**9 + 9]:
        end, quotients = unit_form_walk(principal_form(D), D)
        m = linear_product((0, -1, 1, t) for t in quotients)
        assert forms.step_product(quotients) == m, D
        a1, b1, _ = end
        x, y = m[3], -m[2]  # first column of the inverse
        u, v = walk_element(end, quotients)
        assert (u, v) == (2 * a1 * x + b1 * y, y), D
        assert u * u - v * v * D == 4 * a1 == -4, D


def test_split_prime_generators_match_the_linear_product(monkeypatch):
    # every generator over p <= 50 at every supported D <= 2000, with the
    # balanced step_product and then with the one-factor-at-a-time oracle
    fields = [make_field(D) for D in [5, 8] + default_discriminants(2000)]
    primes = [p for p in range(2, 51) if is_prime(p)]

    def generators():
        return [[P.generator for P in split_prime(F, p)] for F in fields for p in primes]

    balanced = generators()
    monkeypatch.setattr(forms, "step_product",
                        lambda ts: linear_product((0, -1, 1, t) for t in ts))
    assert generators() == balanced


def test_the_certificate_builds_no_unit(monkeypatch):
    # default_discriminants reads only the walk's leading coefficients, while
    # make_field does take the product
    expected = default_discriminants(2000)

    def forbidden(ts):
        raise AssertionError("built a unit")

    monkeypatch.setattr(forms, "step_product", forbidden)
    assert default_discriminants(2000) == expected
    with pytest.raises(AssertionError, match="built a unit"):
        make_field(13)


def test_make_field_reads_the_full_walk_off_its_half():
    # the quotients and eps from the half walk and its mirror equal those of
    # the full walk, and every refusal has the full walk's type and message
    def outcome(build, D):
        try:
            return build(D)
        except FieldError as exc:
            return type(exc), str(exc)

    def fields(D):
        F = make_field(D)
        return (F.D, F.eps, F.quotients, F.walk)

    primes = [D for D in range(2001, 200_000, 4) if is_prime(D)]
    built = 0
    for D in [*range(-3, 2000), *primes, 1000033, 10000000061, 10**9 + 9]:
        got = outcome(fields, D)
        assert got == outcome(oracle_make_field, D), D
        built += isinstance(got[1], FieldElement)
    assert built == 2 + len(default_discriminants(200_000)) + 2


def test_no_full_principal_walk(monkeypatch):
    # the census of every walk: src/ walks forms only by forms._cycle_step,
    # round a cycle of reduced forms, and forms._reduce, to a reduced form.
    # Across make_field, split_prime, exact and bound classify, the cusp,
    # zeta, the sweep and audit_row.py's domain check, make_field and each
    # h+ = 1 certificate take exactly (l + 1)/2 cycle steps (the half walk,
    # with l the period of the oracle's full walk), split_prime takes no cycle
    # step and one reduction (none at an inert p), and nothing else walks or
    # lists the reduced forms
    audit_row = load_audit_row()
    for module in (forms, field, zeta, chern):
        assert not {"rho_step", "unit_form_walk"} & set(vars(module)), module

    def half_steps(D):  # (l + 1)/2 from the oracle's full walk f_0, ..., f_l
        return len(full_principal_walk(D)) // 2

    steps = reductions = 0
    cycle_step, reduce = forms._cycle_step, forms._reduce

    def counted_step(form, D, s):
        nonlocal steps
        steps += 1
        return cycle_step(form, D, s)

    def counted_reduce(form, D, s):
        nonlocal reductions
        reductions += 1
        return reduce(form, D, s)

    def forbidden(*args):
        raise AssertionError("listed the reduced forms")

    monkeypatch.setattr(forms, "_cycle_step", counted_step)
    monkeypatch.setattr(forms, "_reduce", counted_reduce)
    monkeypatch.setattr(field, "_reduce", counted_reduce)
    monkeypatch.setattr(forms, "reduced_indefinite_forms", forbidden)
    monkeypatch.setattr(forms, "h_narrow_indefinite", forbidden)

    def census(run):
        nonlocal steps, reductions
        steps = reductions = 0
        result = run()
        return result, (steps, reductions)

    primes = [p for p in range(2, 60) if is_prime(p)]
    for D in (5, 8, 13, 1000033, 10**9 + 9):
        F, walked = census(lambda: make_field(D))
        assert walked == (half_steps(D), 0) and 2 * walked[0] == len(F.quotients) + 1, D
        assert census(lambda: (cusp_resolution(F), zeta_minus_one(D)))[1] == (0, 0), D
        for p in primes:
            assert census(lambda: split_prime(F, p))[1] == (0, kronecker(D, p) >= 0), (D, p)
    for D, q in ((13, 3), (13, 4), (29, 9), (1000033, 3)):
        assert census(lambda: classify(D, q))[1] == (half_steps(D), int(q == 3)), (D, q)
    for D in (13, 97, 853, 1000033):
        assert census(lambda: classify(D, 3, mode="bound"))[1] == (half_steps(D), 0), D
    sweep = [D for D in range(13, 2001, 4) if is_prime(D)]
    assert census(lambda: default_discriminants(2000))[1] == (
        sum(map(half_steps, sweep)), 0)
    for D in (109, 229):
        assert census(lambda: audit_row.main(["--disc", str(D)]))[1] == (half_steps(D), 0), D


def test_split_prime_matches_the_signed_walk():
    # the generators read off the stored half walk equal those of the oracle's
    # signed rho walk from (p, b, c), b in [0, 2p), to the first form
    # (+-1, b', c'): at every table D and D = 5, 8, every prime p < 400
    # (4p^2 > D, and the ramified p = D), and at 10^9 + 9 and 10^10 + 33 at
    # split p on both sides of sqrt(D)/2 (15,811 and 50,000)
    checked = 0
    for D in [5, 8] + default_discriminants():
        F = make_field(D)
        for p in filter(is_prime, range(2, 400)):
            if kronecker(D, p) >= 0:
                assert [P.generator for P in split_prime(F, p)] == (
                    oracle_split_generators(F, p)), (D, p)
                checked += 1
    assert checked == 2458
    for D, ps in ((10**9 + 9, (3, 15803, 15823)), (10**10 + 33, (3, 49999, 50023))):
        F = make_field(D)
        assert {4 * p * p > D for p in ps} == {False, True}, D
        for p in ps:
            assert kronecker(D, p) == 1, (D, p)
            assert [P.generator for P in split_prime(F, p)] == (
                oracle_split_generators(F, p)), (D, p)


def test_make_field_contents():
    F = make_field(13)
    assert isinstance(F, FieldContext)
    assert F.D == 13 and F.eps.norm() == -1
    assert F.eps_plus == F.eps * F.eps
    assert F.eps_plus.sign_at(0) > 0 and F.eps_plus.sign_at(1) > 0
    assert FieldElement(3, 1, F.D) == F.eps


@pytest.mark.parametrize(
    "D,exc",
    [
        (12, UnsupportedShapeError),   # fundamental but even, not 8
        (21, UnsupportedShapeError),   # fundamental but composite
        (10, UnsupportedShapeError),   # 2 mod 4: not a discriminant
        (9, UnsupportedShapeError),    # square
        (4, UnsupportedShapeError),    # below the supported range
        (-7, UnsupportedShapeError),
        (229, NarrowClassError),       # prime 1 mod 4 but class number 3
    ],
)
def test_make_field_rejections(D, exc):
    with pytest.raises(exc):
        make_field(D)


def test_make_field_refuses_without_factoring_or_counting(monkeypatch):
    # the shape test is a primality test and h+ != 1 is read off the
    # certificate: no squarefree test and no list of reduced forms
    def forbidden(D):
        raise AssertionError(f"factored or counted the classes of {D}")

    monkeypatch.setattr(ntheory, "squarefree", forbidden)
    monkeypatch.setattr(forms, "reduced_indefinite_forms", forbidden)
    monkeypatch.setattr(forms, "h_narrow_indefinite", forbidden)
    for D, exc in ((9, UnsupportedShapeError), (45, UnsupportedShapeError),
                   (1000000000102000000002457, UnsupportedShapeError),
                   (318665857834031151167461, UnsupportedShapeError),
                   (229, NarrowClassError), (10000000061, NarrowClassError)):
        with pytest.raises(exc, match=f"D={D} "):
            make_field(D)


def test_split_prime_frozen():
    # frozen (splitting, q, generator, omega image): inert, ramified, split,
    # p = 2 both ways, and the largest fundamental unit among the table D
    frozen = {
        (13, 2): [("inert", 4, 4, 0, None)],
        (13, 13): [("ramified", 13, 13, -3, 7)],
        (13, 3): [("split", 3, 5, -1, 0), ("split", 3, 5, 1, 1)],
        (8, 2): [("ramified", 2, 4, -1, 0)],
        (17, 2): [("split", 2, 5, 1, 0), ("split", 2, 5, -1, 1)],
        (769, 3): [("split", 3, 68102706505996, 2455846407646, 0),
                   ("split", 3, 68102706505996, -2455846407646, 1)],
    }
    for (D, p), want in frozen.items():
        got = [(P.splitting, P.q, P.generator.u, P.generator.v, P.omega_image)
               for P in split_prime(make_field(D), p)]
        assert got == want, (D, p)


def test_split_prime_whole_range():
    # every D <= 10^4 with h+ = 1, every p < 200: a totally positive generator
    # of norm p that neither neighbouring associate beats on the key and that
    # the generator search leaves fixed, and over a split p two distinct omega
    # images whose generators are conjugates
    for D in default_discriminants(10**4):
        F = make_field(D)
        for p in filter(is_prime, range(2, 200)):
            primes = split_prime(F, p)
            if primes[0].splitting == "inert":
                continue
            for P in primes:
                g = P.generator
                assert g.norm() == p and g.sign_at(0) > 0 and g.sign_at(1) > 0, (D, p)
                neighbours = (g, g * F.eps_plus, g * F.eps_plus.conjugate())
                assert min(neighbours, key=lambda z: (abs(z.u) + abs(z.v), z.u, z.v)) == g, (D, p)
                assert _positive_generator(g, F) == g, (D, p)
            assert len({P.omega_image for P in primes}) == len(primes), (D, p)
            if primes[0].splitting == "split":
                assert primes[0].generator.conjugate() == primes[1].generator, (D, p)


def test_split_prime_rejects_composite():
    F = make_field(13)
    with pytest.raises(FieldError):
        split_prime(F, 6)
    with pytest.raises(FieldError):
        split_prime(F, 1)


def test_context_squares_its_own_eps(monkeypatch):
    # FieldContext is built from D alone: it takes no eps, quotients or walk,
    # so its eps_plus is always its own eps squared; copy and pickle restore
    # the slots without walking again
    for D in (5, 8, 13, 1000033):
        F = FieldContext(D)
        assert F == make_field(D) and F.eps_plus == F.eps * F.eps, D
    with pytest.raises(TypeError):
        FieldContext(F.D, F.eps, F.quotients, F.walk)

    def forbidden(*args):
        raise AssertionError("walked the principal cycle")

    monkeypatch.setattr(forms, "_cycle_step", forbidden)
    for twin in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
        assert twin == F and twin.eps_plus == F.eps_plus


def test_prime_is_built_from_its_generator():
    # D, f, q and omega_image follow from p, the splitting and the generator:
    # at every table D and every prime p < 200, a prime's generator maps to 0
    # in F_p when omega maps to omega_image, and f is 2 exactly at an inert p
    for D in default_discriminants():
        F = make_field(D)
        for p in filter(is_prime, range(2, 200)):
            for P in split_prime(F, p):
                g = P.generator
                assert (P.D, P.f, P.q) == (D, 2 if P.splitting == "inert" else 1,
                                           p ** P.f), (D, p)
                if P.f == 2:
                    assert P.omega_image is None and g == FieldElement.from_int(p, D)
                    continue
                rat = (g.u - g.v) // 2  # g = rat + v*omega, D odd
                assert 0 <= P.omega_image < p and (rat + g.v * P.omega_image) % p == 0, (D, p)


def test_prime_membership_and_reduction():
    # x lies in P exactly when it reduces to zero in O/P, a ring map
    F = make_field(13)
    for P in split_prime(F, 2) + split_prime(F, 3) + split_prime(F, 13):
        R = ResidueField(P)
        assert R.reduce(P.generator) == R.reduce(P.generator * F.omega) == R.zero
        assert R.reduce(FieldElement.from_int(1, F.D)) != R.zero
        rng = random.Random(3)
        for _ in range(40):
            x = elt(13, rng.randint(-9, 9), rng.randint(-9, 9))
            y = elt(13, rng.randint(-9, 9), rng.randint(-9, 9))
            assert R.reduce(x + y) == R.add(R.reduce(x), R.reduce(y))
            assert R.reduce(x * y) == R.mul(R.reduce(x), R.reduce(y))
        if P.f == 1:
            assert R.reduce(F.omega) == P.omega_image
        else:  # P = (2)
            assert R.reduce(F.omega) != R.zero


@pytest.mark.parametrize("D,p,q", [(13, 2, 4), (29, 3, 9)])
def test_residue_field_is_a_field(D, p, q):
    F = make_field(D)
    (P,) = split_prime(F, p)
    R = ResidueField(P)
    els = list(R.elements())
    assert len(els) == q
    zero, one = R.zero, R.one
    assert zero in els and one in els and zero != one
    # exhaustive field axioms for these tiny fields
    for a in els:
        assert R.add(a, zero) == a
        assert R.mul(a, one) == a
        assert any(R.add(a, b) == zero for b in els)
        if a != zero:
            assert any(R.mul(a, b) == one for b in els)
        power = a
        for _ in range(q - 1):
            power = R.mul(power, a)
        assert power == a  # Frobenius fixed-point identity x^q = x
        for b in els:
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            for c in els:
                assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
                assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))


def test_residue_reduce_is_ring_map():
    F = make_field(17)
    for p in (2, 3, 13):
        for P in split_prime(F, p):
            R = ResidueField(P)
            rng = random.Random(p)
            for _ in range(60):
                x = elt(17, rng.randint(-20, 20), rng.randint(-20, 20))
                y = elt(17, rng.randint(-20, 20), rng.randint(-20, 20))
                assert R.reduce(x + y) == R.add(R.reduce(x), R.reduce(y))
                assert R.reduce(x * y) == R.mul(R.reduce(x), R.reduce(y))
            assert R.reduce(FieldElement.from_int(P.p, 17)) == R.zero
