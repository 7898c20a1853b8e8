"""The public library functions that take a discriminant, fuzzed over small
integers: each call returns, or raises a ValueError subclass (the library's
documented refusals), and does so at once."""

import time

from hypothesis import given, settings, strategies as st

import hmsurf
from hmsurf.field import FieldError

from helpers import is_supported

TIME_BOUND_S = 1.0  # every call below takes a few ms at most on one core

CALLS = {
    "make_field": lambda D, k: hmsurf.make_field(D),
    "zeta_minus_one": lambda D, k: hmsurf.zeta_minus_one(D),
    "local_chern_divisor_sum": lambda D, k: hmsurf.local_chern_divisor_sum(D),
    "h_definite": lambda D, k: hmsurf.h_definite(D),
    "h_narrow_indefinite": lambda D, k: hmsurf.h_narrow_indefinite(D),
    "h_bound": lambda D, k: hmsurf.h_bound(D),
    "c1sq_lower_bound": lambda D, k: hmsurf.c1sq_lower_bound(D, k),
    "c2_lower_check": lambda D, k: hmsurf.c2_lower_check(D, k),
    "classify_exact": lambda D, k: hmsurf.classify(D, k),
    "classify_bound": lambda D, k: hmsurf.classify(D, k, mode="bound"),
    "theorem_table": lambda D, k: hmsurf.theorem_table([D]),
    "default_discriminants": lambda D, k: hmsurf.default_discriminants(D),
}


def _outcome(call, D, k):
    """The call's value or the exception it raised, and its wall time."""
    start = time.perf_counter()
    try:
        result = call(D, k)
    except Exception as exc:  # noqa: BLE001 - the test judges the type
        result = exc
    return result, time.perf_counter() - start


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CALLS)),
       D=st.one_of(st.integers(-50, 2000), st.sampled_from((5, 8, 13, 17, 29, 853))),
       k=st.integers(-5, 60))
def test_library_calls_on_a_discriminant_return_or_refuse(name, D, k):
    # k is the prime norm of classify and the degree of the two bounds
    result, seconds = _outcome(CALLS[name], D, k)
    assert seconds < TIME_BOUND_S, (name, D, k, seconds)
    if isinstance(result, Exception):
        assert isinstance(result, ValueError), (name, D, k, repr(result))
    if name in ("make_field", "theorem_table"):
        # the field test decides make_field; the table takes only supported
        # D > 12, refusing every unsupported D as no field
        ok = is_supported(D) and (name == "make_field" or D > 12)
        assert (not isinstance(result, Exception)) == ok, (name, D, repr(result))
        if not is_supported(D):
            assert isinstance(result, FieldError), (name, D, repr(result))
