"""The certified terms on mpmath's interval kernels: the same endpoints as the
`iv` expressions they replace (tests/helpers.py), and no shared precision."""

import ast
import contextlib
import io
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import finf, fnan, fninf, from_man_exp, mpi_log, mpi_pos

from hmsurf import cli
from hmsurf.chern import P_CASES, _c1sq_intervals, _total, _volume_floor
from hmsurf.ntheory import is_fundamental_discriminant
from hmsurf.numeric import (_log_int, _point, least_clearing, lower_rational, sqrt_log_over_pi,
                            upper_rational)

from helpers import interval_precision, iv_c1sq_intervals, iv_c2_floor, iv_sqrt_log_over_pi

SRC = Path(__file__).resolve().parents[1] / "src" / "hmsurf"
FUNDAMENTAL = [D for D in range(13, 2001) if is_fundamental_discriminant(D)]
NS = (1, 3, 5, 10)
ZETA_MODES = ("exact", "bound")


def _assert_terms_match(D, bits):
    got = _c1sq_intervals(D, NS, P_CASES, ZETA_MODES, bits)
    want = iv_c1sq_intervals(D, NS, P_CASES, ZETA_MODES, bits)
    assert got.keys() == want.keys()
    for key, (vol, cterm, pen, total) in want.items():
        assert got[key] == (vol._mpi_, cterm._mpi_, pen._mpi_), (D, bits, key)
        assert _total(*got[key], bits) == total._mpi_, (D, bits, key)


@pytest.mark.parametrize("bits", (128, 256))
def test_kernel_terms_match_iv(bits):
    for D in FUNDAMENTAL + [1000033, 10 ** 10 + 33]:
        _assert_terms_match(D, bits)
        for n in (3, 5, 10):
            assert _volume_floor(D, n, 360, bits) == iv_c2_floor(D, n, bits)._mpi_, (D, n)
        for N in (3 * D, 4 * D):
            assert sqrt_log_over_pi(N, bits) == iv_sqrt_log_over_pi(N, bits)._mpi_, N
    # integers wider than the precision are rounded outward, as iv rounds them
    wide = (2 ** bits - 1, 2 ** bits + 1, 3 ** 90, -(3 ** 90))
    with interval_precision(bits):
        for k in wide:
            assert _point(k, bits) == iv.mpf(k)._mpi_, k
    for n in wide[:3]:
        assert _volume_floor(13, n, 360, bits) == iv_c2_floor(13, n, bits)._mpi_, n


@pytest.mark.parametrize("bits", (1024, 8192))
def test_kernel_terms_match_iv_at_high_precision(bits):
    for D in (13, 109, 557, 853, 1000033):
        _assert_terms_match(D, bits)
        assert _volume_floor(D, 5, 360, bits) == iv_c2_floor(D, 5, bits)._mpi_, D
        assert sqrt_log_over_pi(3 * D, bits) == iv_sqrt_log_over_pi(3 * D, bits)._mpi_, D


@pytest.mark.parametrize("bits", (128, 129))
def test_log_takes_no_guard_bits(bits):
    # iv.log is mpi_log at the context's precision.  At 156434 the same log
    # taken with 10 guard bits and rounded back has other endpoints, so a
    # kernel that added them would not reproduce iv.
    k = 156434
    with interval_precision(bits):
        assert _log_int(k, bits) == iv.log(k)._mpi_
    assert mpi_pos(mpi_log(_point(k, bits), bits + 10), bits) != _log_int(k, bits)


def test_no_module_uses_iv_or_a_shared_precision(monkeypatch):
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert all(alias.name != "iv" for alias in node.names), path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "iv"), path.name

    def refuse(ctx, value):
        raise AssertionError("a shared mpmath precision was set")

    for ctx in (iv, mpmath.mp):
        for name in ("prec", "dps"):
            getter = getattr(type(ctx), name).fget
            monkeypatch.setattr(type(ctx), name, property(getter, refuse))
    for argv in (["table", "--dmax", "853"],
                 ["--precision", "129", "classify", "--disc", "89", "--prime-norm", "9",
                  "--mode", "bound"],
                 ["elliptic", "--disc", "109", "--prime-norm", "3", "--mode", "bound"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    for name, module in sys.modules.items():
        if name.startswith("hmsurf"):
            assert all(value is not iv for value in vars(module).values()), name


def test_least_clearing_in_integers_and_refusing_non_finite_endpoints():
    # the least n with 2n - 3 - 4 > 0, and with (3/8)n - 20 - 7/2 > 0
    assert least_clearing(_point(2, 128), _point(-3, 128), _point(4, 128)) == 4
    step, base, bar = ((from_man_exp(m, e),) * 2 for m, e in ((3, -3), (-5, 2), (7, -1)))
    assert least_clearing(step, base, bar) == 63
    # the endpoint each argument's bound reads: lo(step), lo(base), hi(bar)
    one = _point(1, 128)
    for bad in (finf, fninf, fnan):
        for args in (((bad, bad), one, one), (one, (bad, bad), one), (one, one, (bad, bad))):
            with pytest.raises(ArithmeticError, match="non-finite"):
                least_clearing(*args)
        with pytest.raises(ArithmeticError, match="non-finite"):
            lower_rational((bad, bad))
        with pytest.raises(ArithmeticError, match="non-finite"):
            upper_rational((bad, bad))
