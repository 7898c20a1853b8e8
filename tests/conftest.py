import re

# One human-readable line per acceptance criterion in the terminal summary.
# The tests live in test_acceptance.py and are named test_criterion_<k>_*.

_CRIT = re.compile(r"test_acceptance.*::test_criterion_(\d+)")

_DESCR = {
    1: "exact zeta special values (1/30, 1/6, 1/12) under 1 ms",
    2: "cusp cycle Chern number cross-check over the whole table",
    3: "definite class numbers vs reduced-form oracle and the sqrt(N)log(N)/pi bound",
    4: "D=13 norm-4 exact Chern pipeline (c1^2=-3, c2=18+3/2*a2, chi>=2, inconclusive)",
    5: "classification table reproduction, exclusion flags, discrepancy report",
    6: "modular curve integrality forcing, adjunction, genus checks",
    7: "Gamma0(P) root counts vs projective residue oracle; involution refinement",
    8: "tree centre vs all-pairs oracle; invariance and equidistance properties",
}

_outcomes = {}


def pytest_runtest_logreport(report):
    m = _CRIT.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        _outcomes[num] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _outcomes[num] = "SKIP"
    elif report.failed:  # setup/teardown error
        _outcomes[num] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_outcomes):
        terminalreporter.write_line(
            "criterion %d %s - %s" % (num, _outcomes[num], _DESCR.get(num, ""))
        )
