"""The README stays true: its CLI examples print the same bytes, its global
flags are the parser's global options, and the public names resolve."""

import hashlib
import re
import shlex
from pathlib import Path

import hmsurf
from hmsurf import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# A fixed small tree for the tree-center example.
TREE = "a b\nb c\nc d\nb e\ne f\n"

# SHA-256 of each example's stdout, and of the files it writes, as the
# package printed them before the class-number cache and the float rotation
# snap were removed.
DIGESTS = {
    "field --disc 13": {
        "stdout": "eac461156786dfd3a026c0a922a82ee51538ab8795b5d4cda7f7fd664fde81ec",
    },
    "zeta --disc 13": {
        "stdout": "1b4278a77e6ece4dd34d0693e786ce71ccaf16d357be354356b759057ec136b9",
    },
    "cusp --disc 13": {
        "stdout": "04b23670d6a56bbb312d7280fb0f8b02eb647d5b7184f06cf8de315cbb4d95cf",
    },
    "classnumber --disc -23": {
        "stdout": "b61c6d81e1b6e12139a95362e6081dcbed53b15f1c08119650fc6d0cd654031b",
    },
    "elliptic --disc 13 --prime-norm 3 --refine": {
        "stdout": "a74c6a9261cf8f0eab4c2119eed4684e6d48553ec422ec53bfac0694ce3cf9ab",
    },
    "classify --disc 13 --prime-norm 4": {
        "stdout": "40f0b46f5f0bda5abdb56abeb1870fbcef70beb6ff83752d155dfda88cc03dfc",
    },
    "classify --disc 13 --prime-norm 103 --mode bound": {
        "stdout": "a084d467fef3bc701731d4c71cbb1dfb0708f5133a91bfafd9a50eaa5de39f4a",
    },
    "table --dmax 853 --out rows.csv --diff diff.json": {
        "stdout": "f8b77477955915a1de25240c5e16de0333591b60c60ead2d4f60fca1eab6626f",
        "--out": "a5da441bea9630bd5f9c24b4666108f524674bbbb905ed20ecadabf7155c04d4",
        "--diff": "adda549f6566e43a3f0047a086833082bb6ea3b1f2108c5cf3feacbdd8bf41e7",
    },
    "tree-center --in tree.txt --set a,d --dot tree.dot": {
        "stdout": "40b13e628e743a1e7f38d4ef45e2fed014bac52beb6f8cc9c7e70d3ec1733baa",
        "--dot": "1a63b8a189398693e4524b8aee96e1bfe7eff5c9318c8575aaa2cd6246b20169",
    },
}


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def readme_examples() -> "list[list[str]]":
    """The `hmsurf ...` lines of the CLI section, comments stripped."""
    block = _section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        argv = shlex.split(line.split("#", 1)[0])
        if argv and argv[0] == "hmsurf":
            out.append(argv[1:])
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, capsys) -> dict:
    assert cli.main(argv) == 0
    out = {"stdout": _sha(capsys.readouterr().out.encode("utf-8"))}
    for flag in ("--out", "--diff", "--dot"):
        if flag in argv:
            out[flag] = _sha(Path(argv[argv.index(flag) + 1]).read_bytes())
    return out


def test_readme_examples_byte_for_byte(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tree.txt").write_text(TREE, encoding="utf-8")
    examples = readme_examples()
    assert len(examples) == len(DIGESTS)
    for argv in examples:
        assert _run(argv, capsys) == DIGESTS[" ".join(argv)], argv


def test_readme_global_flags_match_parser():
    para = _section("CLI").split("Global flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", para))
    parser = cli.build_parser()
    options = {opt for action in parser._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}


def test_public_names_resolve():
    for name in hmsurf.__all__:
        assert getattr(hmsurf, name) is not None, name
    # the class enumerator is a test oracle (tests/helpers.py), not API
    assert "counts_gamma0" in hmsurf.__all__
    oracle = {"enumerate_elliptic_reps", "counts_gamma0_from_reps",
              "CompletenessError", "EllipticClassRep", "matrix_order"}
    assert not oracle & set(hmsurf.__all__)
