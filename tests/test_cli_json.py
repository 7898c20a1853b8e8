"""`cli._dumps` writes the bytes of the stdlib encoder it replaced, and the
stdlib's pure-Python encoder stays off the output path."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from hmsurf import cli
from hmsurf.field import FieldElement

from test_readme import DIGESTS, TREE, _run, readme_examples


def stdlib_dumps(payload) -> str:
    """The oracle: the stdlib call `cli._dumps` is byte-identical to."""
    return json.dumps(payload, sort_keys=True, indent=2, default=cli._json_value) + "\n"


@pytest.fixture
def checked(monkeypatch):
    """Check every payload `cli.main` writes against the oracle, inside the
    run (where `main` has lifted the int-to-str digit limit); returns the
    list of payloads seen."""
    seen = []
    dumps = cli._dumps

    def spy(payload):
        text = dumps(payload)
        assert text == stdlib_dumps(payload)
        seen.append(payload)
        return text

    monkeypatch.setattr(cli, "_dumps", spy)
    return seen


def _main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_dumps_matches_the_stdlib_on_every_command(checked, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tree.txt").write_text(TREE, encoding="utf-8")
    runs = readme_examples()
    runs += [["table", "--dmax", "853", *flags, "--diff", "d.json"]
             for flags in ([], ["--strict-n"], ["--zeta-mode", "bound"],
                           ["--zeta-mode", "exact"])]
    runs += [[cmd, "--disc", D] for cmd in ("cusp", "field")
             for D in ("1000033", "1000000009")]
    runs += [["classify", "--disc", "29", "--prime-norm", "9"],
             ["classify", "--disc", "853", "--prime-norm", "3", "--mode", "bound"],
             ["elliptic", "--disc", "29", "--prime-norm", "4", "--refine"],
             ["elliptic", "--disc", "13"]]
    for argv in runs:
        assert _main(argv) == 0, argv
    # five table runs, the README's among them, also wrote a --diff file
    assert len(checked) == len(runs) + 5
    assert max(p["eps"].u.bit_length() for p in checked if "eps" in p) > 100_000


def test_dumps_escapes_labels_as_the_stdlib_does(checked, tmp_path):
    labels = ["é", "日本", 'a"b', "c\\d", "x\x01y", "z\x7f", "\x08q", "😀", "/"]
    tree = tmp_path / "tree.txt"
    tree.write_text("".join(f"root {v}\n" for v in labels), encoding="utf-8")
    assert _main(["tree-center", "--in", str(tree), "--set", ",".join(labels[:3])]) == 0
    assert _main(["tree-center", "--in", str(tree), "--set", ",".join(labels[3:])]) == 0
    assert set(checked[0]["set"]) | set(checked[1]["set"]) == set(labels)


def test_dumps_matches_the_stdlib_on_error_payloads(checked, tmp_path, monkeypatch):
    assert _main(["field", "--disc", "45"]) == 2
    assert _main(["tree-center", "--in", str(tmp_path / "nö \"file\""), "--set", "a"]) == 2

    def boom(args, cfg):
        raise RuntimeError("cross-check failed: ε\n\t\\")

    monkeypatch.setitem(cli.HANDLERS, "zeta", boom)
    assert _main(["zeta", "--disc", "13"]) == 3
    assert [list(p) for p in checked] == [["error"]] * 3


def test_dumps_matches_the_stdlib_on_edge_shapes():
    e = FieldElement(3, 1, 13)
    payloads = [
        {}, [], (), "", 0, -7, None, True, False, 10 ** 40, Fraction(-3, 4), e,
        {"a": {}, "b": [], "c": {"d": {"e": []}}, "f": [[], {}, [[]]]},
        {"ints": [1, True, 2], "bools": [False, True], "neg": [-1, 0, 10 ** 30]},
        {"t": (1, 2, (3, ("x", None))), "one": (5,), "mixed": [1, "1", [1]]},
        {"z": 1, "a": 2, "M": 3, "é": 4, "": 5, "a b": [Fraction(1, 2), e]},
        [[1, 2], [3, [4, [5]]], {"k": [e, e]}],
    ]
    for p in payloads:
        assert cli._dumps(p) == stdlib_dumps(p), p


def test_dumps_refuses_a_non_str_key():
    for p in ({1: "a"}, {"a": {None: 1}}, [{(1, 2): 3}], {True: 1}):
        with pytest.raises(TypeError):
            cli._dumps(p)


def test_no_command_runs_the_pure_python_encoder(capsys, tmp_path, monkeypatch):
    # json.dumps with indent builds its encoder with _make_iterencode
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"a": 1}, indent=2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tree.txt").write_text(TREE, encoding="utf-8")
    for argv in readme_examples():
        assert _run(argv, capsys) == DIGESTS[" ".join(argv)], argv
    assert cli.main(["table", "--dmax", "853", "--diff", "d.json"]) == 0
    assert json.loads(capsys.readouterr().out)["diff"] == json.loads(
        (tmp_path / "d.json").read_text(encoding="utf-8"))
