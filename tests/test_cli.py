import contextlib
import hashlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from hmsurf import cli, elliptic
from hmsurf.chern import c1sq_lower_bound, norm_achievable
from hmsurf.config import ConfigError, RunConfig, load_config, parse_config_lines
from hmsurf.field import FieldError, make_field
from hmsurf.numeric import (
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    PrecisionError,
    check_precision,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


# ---------------------------------------------------------------------------
# subcommand round-trips
# ---------------------------------------------------------------------------

def test_cli_field(capsys):
    data = run_json(capsys, "field", "--disc", "13")
    assert data["D"] == 13
    assert (data["omega"]["u"], data["omega"]["v"]) == (1, 1)
    assert (data["eps"]["u"], data["eps"]["v"]) == (3, 1)
    assert data["eps_norm"] == -1
    assert (data["eps_plus"]["u"], data["eps_plus"]["v"]) == (11, 3)
    assert data["h_plus"] == 1


def test_cli_classnumber(capsys):
    neg = run_json(capsys, "classnumber", "--disc", "-23")
    assert neg["h"] == 3 and neg["kind"] == "definite"
    pos = run_json(capsys, "classnumber", "--disc", "13")
    assert pos["h"] == 1 and pos["kind"] == "narrow_indefinite"
    code, out, err = run(capsys, "classnumber", "--disc", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_cli_classnumber_refuses_above_its_limits(capsys):
    for disc in (-cli.MAX_DEFINITE_N - 3, cli.MAX_NARROW_D + 1, -(10 ** 18) - 3):
        start = time.perf_counter()
        code, out, err = run(capsys, "classnumber", "--disc", str(disc))
        assert time.perf_counter() - start < 1, disc
        assert code == 2 and out == "", disc
        message = json.loads(err)["error"]["message"]
        assert str(cli.MAX_DEFINITE_N) in message and str(cli.MAX_NARROW_D) in message


def test_cli_zeta_and_cusp(capsys):
    z = run_json(capsys, "zeta", "--disc", "13")
    assert z["zeta"] == [1, 6]
    c = run_json(capsys, "cusp", "--disc", "13")
    assert c["cycle"] == [5, 2, 2] and c["m"] == 3 and c["c"] == -3


def test_cli_elliptic_any_prime_norm(capsys):
    # both primes split at D = 769, whose eps has 51 bits, so elements of
    # norm +-q have large coordinates; a norm above 10^18 is still quick
    for q in (1000039, 10**18 + 3):
        for mode in ("exact", "bound"):
            start = time.perf_counter()
            data = run_json(capsys, "elliptic", "--disc", "769", "--prime-norm",
                            str(q), "--mode", mode)
            assert time.perf_counter() - start < 1.0, (q, mode)
            assert data["prime"]["norm"] == q and data["prime"]["splitting"] == "split"


def test_cli_elliptic_full_group(capsys):
    data = run_json(capsys, "elliptic", "--disc", "13")
    e = data["counts"]["entries"]
    assert (e["a2"], e["a3_plus"], e["a3_minus"]) == (2, 2, 2)
    assert data["prime"] is None
    assert data["counts"]["mode"] == "exact"


def test_cli_elliptic_level_and_refine(capsys):
    data = run_json(capsys, "elliptic", "--disc", "13", "--prime-norm", "3",
                    "--refine")
    assert data["prime"]["p"] == 3 and data["prime"]["norm"] == 3
    e = data["counts"]["entries"]
    assert (e["a2"], e["a3_plus"], e["a3_minus"]) == (0, 2, 2)
    r = data["refined"]["entries"]
    assert (r["a3_plus"], r["a3_minus"], r["a4_plus"], r["a4_minus"]) == (1, 1, 0, 0)
    assert data["refined"]["group"] == "w_gamma0"


def test_cli_elliptic_bound_mode(capsys):
    data = run_json(capsys, "elliptic", "--disc", "853", "--prime-norm", "3",
                    "--mode", "bound")
    e = data["counts"]["entries"]
    assert e["a3_plus"] == [60, 1]  # class-number upper estimate
    assert e["a3_minus"] is None  # bounds track the plus side only
    assert data["counts"]["mode"] == "upper_bound"
    # full-group counts have no bound variant
    code, _, err = run(capsys, "elliptic", "--disc", "13", "--mode", "bound")
    assert code == 2 and "prime-norm" in json.loads(err)["error"]["message"]


def test_cli_elliptic_refine_needs_fixture(capsys):
    # the involution fixes nothing away from an inert (2) or (3), so any
    # other prime refines without stored data
    for D, q in ((13, 17), (17, 2)):
        data = run_json(capsys, "elliptic", "--disc", str(D), "--prime-norm",
                        str(q), "--refine")
        r, g0 = data["refined"]["entries"], data["counts"]["entries"]
        assert r["a4_plus"] == r["a6_plus"] == 0 and 2 * r["a3_plus"] == g0["a3_plus"]
        assert r["a2"] is None
    # an inert (2) or (3) refines too, with the action in closed form
    for q in (4, 9):
        code, _, _ = run(capsys, "elliptic", "--disc", "29", "--prime-norm", str(q),
                         "--refine")
        assert code == 0, q
    # a D = 5 order-5 level is refused, counts and refinement alike
    code, out, err = run(capsys, "elliptic", "--disc", "5", "--prime-norm", "11",
                         "--refine")
    assert code == 2 and out == ""
    assert "orders 2 and 3" in json.loads(err)["error"]["message"]


def test_cli_elliptic_has_no_method_flag(capsys):
    code, out, _ = run(capsys, "elliptic", "--help")
    assert code == 0 and "--refine" in out and "--method" not in out


def test_cli_failed_cross_check_exits_3(capsys, monkeypatch):
    real = elliptic.counts_gamma0

    def odd_a3(F, P):
        counts = real(F, P)
        return elliptic.EllipticCounts(**{**counts.entries(), "a3_plus": 3}, mode=counts.mode,
                                       group_tag=counts.group_tag, notes=counts.notes)

    monkeypatch.setattr(elliptic, "counts_gamma0", odd_a3)
    code, out, err = run(capsys, "elliptic", "--disc", "13", "--prime-norm", "17",
                         "--refine")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "InconsistentCountsError"


def test_cli_parser_is_reused_after_a_bad_flag(capsys):
    argv = ("elliptic", "--disc", "13", "--prime-norm", "3", "--refine")
    first = run(capsys, *argv)
    assert run(capsys, "elliptic", "--disc", "13", "--no-such-flag")[0] == 2
    assert run(capsys, *argv) == first and first[0] == 0


def _field_exists(D):
    try:
        make_field(D)
    except FieldError:
        return False
    return True


def _exact_level_supported(D, q):
    """Exact mode takes every achievable level of a supported field with
    D > 12, and D = 5 away from its order-5 levels q = 0, 1 mod 5."""
    return _field_exists(D) and norm_achievable(D, q) and (
        D > 12 or (D == 5 and q % 5 not in (0, 1)))


def _exits_cleanly(argv):
    """Run hmsurf on argv: it exits 0 with JSON on stdout, or 2 with the JSON
    error object on stderr, never with a traceback.  Returns (code, stderr)."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert set(json.loads(err.getvalue())["error"]) == {"type", "message"}, argv
    return code, err.getvalue()


FUZZ_D = st.one_of(st.integers(-20, 900), st.sampled_from((5, 13, 17, 29)))
FUZZ_Q = st.one_of(st.integers(-5, 250), st.sampled_from((4, 9, 11)))


@settings(max_examples=150, deadline=None)
@given(cmd=st.sampled_from(("elliptic", "classify")), D=FUZZ_D, q=FUZZ_Q,
       refine=st.booleans(), mode=st.sampled_from((None, "exact", "bound")))
def test_cli_exit_codes_fuzzed(cmd, D, q, refine, mode):
    argv = [cmd, "--disc", str(D), "--prime-norm", str(q)]
    if mode is not None:
        argv += ["--mode", mode]
    if refine and cmd == "elliptic":
        argv.append("--refine")
    code, err = _exits_cleanly(argv)
    if mode != "bound" and _exact_level_supported(D, q):
        assert code == 0, (argv, err)


@settings(max_examples=100, deadline=None)
@given(D=FUZZ_D, q=FUZZ_Q, mode=st.sampled_from((None, "exact", "bound")),
       zeta_mode=st.sampled_from(("exact", "bound")))
def test_cli_classify_zeta_mode_fuzzed(D, q, mode, zeta_mode):
    # --zeta-mode is for bound mode only: exact mode refuses it
    argv = ["classify", "--disc", str(D), "--prime-norm", str(q), "--zeta-mode", zeta_mode]
    code, err = _exits_cleanly(argv + (["--mode", mode] if mode else []))
    if mode != "bound":
        assert code == 2 and "bound mode only" in err, (argv, err)


@settings(max_examples=150, deadline=None)
@given(cmd=st.sampled_from(("field", "zeta", "cusp")), D=st.integers(-20, 2000))
def test_cli_field_zeta_cusp_exit_codes_fuzzed(cmd, D):
    code, err = _exits_cleanly([cmd, "--disc", str(D)])
    assert (code == 0) == _field_exists(D), (cmd, D, err)


@settings(max_examples=100, deadline=None)
@given(N=st.integers(-10**5, 10**5))
def test_cli_classnumber_exit_codes_fuzzed(N):
    _exits_cleanly(["classnumber", "--disc", str(N)])


@settings(max_examples=30, deadline=None)
@given(dmax=st.integers(-5, 300), flags=st.sampled_from(
    ((), ("--strict-n",), ("--zeta-mode", "bound"), ("--zeta-mode", "exact"))))
def test_cli_table_exit_codes_fuzzed(dmax, flags):
    _exits_cleanly(["table", "--dmax", str(dmax), *flags])


LABELS = st.sampled_from(("a", "b", "c", "d", "e"))
TREE_LINES = st.one_of(
    st.lists(st.integers(0, 6), max_size=6).map(  # a tree: vertex i + 1 hangs off a parent <= i
        lambda ps: [f"v{min(p, i)} v{i + 1}" for i, p in enumerate(ps)] or ["v0"]),
    st.lists(st.lists(st.sampled_from(("a", "b", "c", "a#b", "#", "")), max_size=3).map(
        " ".join), max_size=6))


@settings(max_examples=100, deadline=None)
@given(lines=TREE_LINES, members=st.lists(st.one_of(LABELS, st.sampled_from(
    ("v0", "v1", "v3", "v6"))), min_size=1, max_size=4), raw=st.binary(max_size=4))
def test_cli_tree_center_exit_codes_fuzzed(tmp_path_factory, lines, members, raw):
    # generated trees and malformed files: loops, repeated edges, cycles, three
    # labels on a line, a set off the tree, and bytes that are not UTF-8
    infile = tmp_path_factory.getbasetemp() / "fuzz_tree.txt"
    infile.write_bytes("\n".join(lines).encode() + raw)
    _exits_cleanly(["tree-center", "--in", str(infile), "--set", ",".join(members)])


def test_cli_classify_exact(capsys):
    data = run_json(capsys, "classify", "--disc", "13", "--prime-norm", "4")
    assert data["verdict"] == "inconclusive"
    assert data["c1_sq"] == [-3, 1]
    assert data["chi"] == {"const": [5, 4], "a2_coeff": [1, 8],
                           "text": "5/4 + 1/8*a2"}
    assert "a2_symbolic" in data["notes"]
    assert data["n"] == 5 and data["mode"] == "exact"


def test_cli_classify_bound(capsys):
    data = run_json(capsys, "classify", "--disc", "13", "--prime-norm", "103",
                    "--mode", "bound")
    assert data["verdict"] == "general_type"
    assert "c2_check:pass" in data["notes"]
    code, _, err = run(capsys, "classify", "--disc", "13", "--prime-norm", "6")
    assert code == 2 and "norm 6" in json.loads(err)["error"]["message"]


def test_cli_table(capsys, tmp_path):
    out_csv = tmp_path / "rows.csv"
    out_diff = tmp_path / "diff.json"
    data = run_json(capsys, "table", "--dmax", "100",
                    "--out", str(out_csv), "--diff", str(out_diff))
    assert [r["D"] for r in data["rows"]] == [13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    by_d = {r["D"]: r for r in data["rows"]}
    assert by_d[13]["n_min"] == 93
    assert by_d[29]["exclusions"] == [[5, "p2_inert"], [10, "p3_inert"]]
    assert data["diff"]["compared"] == 10
    assert [e["D"] for e in data["diff"]["discrepancies"]] == [89]

    csv_text = out_csv.read_text(encoding="utf-8")
    assert csv_text == data["csv"]
    lines = csv_text.splitlines()
    assert lines[0] == "D,n_min,exclusions,n_min_alt,exclusions_alt"
    assert lines[1].startswith("13,93,")
    assert json.loads(out_diff.read_text(encoding="utf-8")) == data["diff"]


def test_cli_table_deterministic(capsys):
    code1, out1, _ = run(capsys, "table", "--dmax", "60")
    code2, out2, _ = run(capsys, "table", "--dmax", "60")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1) == json.loads(out2)


def test_cli_table_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "table", "--dmax", "40")
    assert code == 0
    assert out.splitlines()[0] == "D,n_min,exclusions,n_min_alt,exclusions_alt"
    assert not out.lstrip().startswith("{")
    # csv output makes no sense elsewhere
    code, _, err = run(capsys, "--format", "csv", "zeta", "--disc", "13")
    assert code == 2 and "table" in json.loads(err)["error"]["message"]


def test_cli_pretty_format(capsys):
    code, out, _ = run(capsys, "--format", "pretty", "zeta", "--disc", "13")
    assert code == 0
    assert "D: 13" in out and "zeta:" in out
    assert not out.startswith("{")


# sha256 of `hmsurf --format pretty ...` stdout: the pretty format shows what
# the JSON holds, so its bytes are as fixed as the JSON's
PRETTY_SHA256 = {
    "field --disc 13":
        "a9acbdb623cd35338c1e11a6b14cbfb09ac144d96f05281c5bbd0505f6ab323e",
    "classify --disc 13 --prime-norm 4":
        "447a87db0da43960dff1e21e9fb6cb8eeb530d13d8ccfcaba23280403321e984",
    "classify --disc 13 --prime-norm 103 --mode bound":
        "13c9d90937350114308128ce172441bf9d858ac6412abb0efa989e1cef54e3c5",
    "elliptic --disc 13 --prime-norm 3 --refine":
        "ea31676f7003b3121b9342a77dae9de179da20d75bcc1af2237c4acf2c730657",
    "elliptic --disc 29 --prime-norm 4 --mode bound --refine":
        "a07a34787ebb330246804c1f88b6fed2257c1c6e3e3a88b2a58a97cedf2b45aa",
    "table --dmax 200":
        "ef49a97e41e2de3160789ed488055721fe245eb552f200fcf7492d24c20dec39",
}


@pytest.mark.parametrize("command", sorted(PRETTY_SHA256))
def test_cli_pretty_bytes_pinned(capsys, command):
    code, out, err = run(capsys, "--format", "pretty", *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PRETTY_SHA256[command]


# sha256 of `hmsurf table ...` JSON stdout in the variants the README's default
# table does not pin: closed-form rows, the band and the tail must not move it
TABLE_SHA256 = {
    # the diff's breakdown prints raw endpoints: at the precision ceiling
    # and at an odd precision these pin every kernel call behind them
    "--precision 8192 table --dmax 853":
        "9c3fdefa590019934c07ba48ad3c8925669b4a754f62e71a565ed59e242dc0a0",
    "--precision 129 table --dmax 853":
        "3b11bb0cd30b8ae69c9a774086f517769e246a1bd8475affb6d8878bd071ba8e",
    "table --dmax 853 --strict-n":
        "0b94b51a5f113bc990c532667f8598e13bf0b6f71df6161205b0b4addc1fae46",
    "table --dmax 853 --zeta-mode bound":
        "e07dff7644b3f5b68c32785937730d26cf6ab8ef4ecf90b36a76a91c9d88d4ec",
    "table --dmax 853 --zeta-mode exact":
        "63af871f8693116dd9df575cc6948862536e9515741faa3f40a08ca509dbe1c1",
    "table --dmax 2000":
        "c13f8bfad129493a0a5001d3905a631a4b7bff5b1645f2a0094eb5936dcb9984",
    "table --dmax 10000":
        "c09315717fa0fcb1b85e19cce5896c7c5c019f413dd484d6a52741cde93b0d9d",
    "table --dmax 10000 --strict-n":
        "d15bda85f8582852ad15c261c6e24fc558f5582ee2356c4aa963778edb12a831",
    "table --dmax 10000 --zeta-mode bound":
        "6ded6fc35fc3d70e75977880a0c556f77894951362985e0c0e0c02e91f43cf6d",
    "table --dmax 10000 --zeta-mode exact":
        "c28acf77120b00d31bcedc1867500c39328a0bf4f99d68ea368748fb103ffeea",
    "table --dmax 11000 --zeta-mode bound":
        "e5a87b823bfc6425e8857b2d564c13c2f50e6c82d64db15b114a2a44b994a886",
}


@pytest.mark.parametrize("command", sorted(TABLE_SHA256))
def test_cli_table_bytes_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TABLE_SHA256[command]


def test_cli_tree_center(capsys, tmp_path):
    infile = tmp_path / "tree.txt"
    infile.write_text("a b\nb c\nc d\n", encoding="utf-8")
    dot = tmp_path / "tree.dot"
    data = run_json(capsys, "tree-center", "--in", str(infile),
                    "--set", "a,d", "--dot", str(dot))
    assert data["kind"] == "edge" and data["center"] == ["b", "c"]
    assert data["distances"] == {"a": 1, "d": 1}
    assert dot.read_text(encoding="utf-8").startswith("graph tree {")
    # a label given twice is one member of the set, in "set" as in "distances"
    again = run_json(capsys, "tree-center", "--in", str(infile), "--set", "a,a,d")
    assert again["set"] == ["a", "d"] and again == data

    code, _, err = run(capsys, "tree-center", "--in", str(infile), "--set", "a,z")
    assert code == 2 and "subset" in json.loads(err)["error"]["message"]
    code, _, err = run(capsys, "tree-center", "--in", str(tmp_path / "nope"),
                       "--set", "a")
    assert code == 2 and json.loads(err)["error"]["type"] == "FileNotFoundError"


# ---------------------------------------------------------------------------
# exit codes and global flags
# ---------------------------------------------------------------------------

def test_cli_exit_codes(capsys, monkeypatch):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys)  # subcommand is required
    assert code == 2
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "field" in out

    def boom(args, cfg):
        raise RuntimeError("internal cross-check failed")

    monkeypatch.setitem(cli.HANDLERS, "zeta", boom)
    code, out, err = run(capsys, "zeta", "--disc", "13")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {"type": "RuntimeError",
                                        "message": "internal cross-check failed"}


def test_cli_field_prints_eps_of_any_size(capsys):
    # eps at D = 10^9 + 9 has ~30,000 digits, past Python's int-to-str limit
    code, out, err = run(capsys, "field", "--disc", "1000000009")
    assert code == 0 and err == ""
    data = json.loads(out, parse_int=str)  # int() would meet the limit here
    assert len(data["eps"]["u"]) > 4300 and data["eps_norm"] == "-1"
    if hasattr(sys, "get_int_max_str_digits"):
        # lifted only for the run: argument parsing and the caller keep it
        limit = sys.get_int_max_str_digits()
        assert limit
        code, out, err = run(capsys, "field", "--disc", "9" * (limit + 1))
        assert code == 2 and out == "" and "invalid int value" in err
        assert sys.get_int_max_str_digits() == limit


def test_cli_refuses_an_unproved_prime(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin at 2..37;
    # psi_13 passes at 2..41, beyond which a pass proves nothing
    for argv in (("field", "--disc", "318665857834031151167461"),
                 ("classify", "--disc", "13", "--prime-norm", "318665857834031151167461"),
                 ("field", "--disc", "3317044064679887385961981"),
                 ("classify", "--disc", "13", "--prime-norm", "3317044064679887385961981")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
    assert "3317044064679887385961981" in json.loads(err)["error"]["message"]


def test_cli_precision_floor(capsys):
    code, _, err = run(capsys, "--precision", "64", "zeta", "--disc", "13")
    assert code == 2 and "floor" in json.loads(err)["error"]["message"]
    data = run_json(capsys, "--precision", "256", "classify",
                    "--disc", "13", "--prime-norm", "4")
    assert data["c1_sq"] == [-3, 1]
    run_json(capsys, "--precision", "8192", "classify", "--disc", "13",
             "--prime-norm", "103", "--mode", "bound")
    code, out, err = run(capsys, "--precision", "8193", "zeta", "--disc", "13")
    assert code == 2 and out == ""
    assert "8192-bit ceiling" in json.loads(err)["error"]["message"]


def test_cli_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# run settings\noutput = pretty\nprecision_bits = 192\n",
                       encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(cfgfile), "zeta", "--disc", "13")
    assert code == 0 and "D: 13" in out and not out.startswith("{")
    # CLI flag outranks the file
    code, out, _ = run(capsys, "--config", str(cfgfile), "--format", "json",
                       "zeta", "--disc", "13")
    assert code == 0 and json.loads(out)["D"] == 13


# ---------------------------------------------------------------------------
# config layer
# ---------------------------------------------------------------------------

def test_runconfig_validation():
    assert RunConfig().precision_bits == MIN_PRECISION_BITS
    with pytest.raises(ConfigError):
        RunConfig(mode="fuzzy")
    with pytest.raises(ConfigError):
        RunConfig(output="yaml")
    with pytest.raises(ConfigError):
        RunConfig(precision_bits=64)
    assert RunConfig(precision_bits=MAX_PRECISION_BITS).precision_bits == 8192
    with pytest.raises(ConfigError, match="ceiling"):
        RunConfig(precision_bits=MAX_PRECISION_BITS + 1)
    with pytest.raises(ConfigError):
        RunConfig(precision_bits=True)
    with pytest.raises(ConfigError):
        RunConfig(strict_n="yes")


def test_interval_precision_limits():
    for bits in (MIN_PRECISION_BITS, MAX_PRECISION_BITS):
        check_precision(bits)
        assert c1sq_lower_bound(109, 5, precision_bits=bits) > 0
    for bits, word in ((MIN_PRECISION_BITS - 1, "floor"),
                       (MAX_PRECISION_BITS + 1, "ceiling")):
        with pytest.raises(PrecisionError, match=word):
            check_precision(bits)
        with pytest.raises(PrecisionError, match=word):
            c1sq_lower_bound(109, 5, precision_bits=bits)


def test_parse_config_lines():
    fields = parse_config_lines([
        "# comment",
        "",
        "mode = bound",
        "strict_n = yes",
        "precision_bits=200  # inline note",
        "output=json",
    ])
    assert fields == {"mode": "bound", "strict_n": True, "precision_bits": 200,
                      "output": "json"}
    for line in ("volume = 11", "cache_path = /tmp/x"):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_lines([line])
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_lines(["just words"])
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_lines(["precision_bits = lots"])
    with pytest.raises(ConfigError, match="not a boolean"):
        parse_config_lines(["strict_n = maybe"])


def test_load_config(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("mode=bound\nstrict_n=1\n", encoding="utf-8")
    cfg = load_config(str(p))
    assert cfg.mode == "bound" and cfg.strict_n is True
    assert load_config(None) == RunConfig()
    bad = tmp_path / "bad.cfg"
    bad.write_text("precision_bits=16\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="floor"):
        load_config(str(bad))
