"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import itertools
import tempfile

import pytest

import ops
import run


def first_sessions(workload, seed, count=3):
    refused = run.refused(run.load_goldens(workload))
    return list(itertools.islice(ops.sessions(workload, seed, ops.load_pools(), refused), count))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_one_seed_always_gives_the_same_ops(workload):
    count = 6 if workload == "sweep" else 3
    assert first_sessions(workload, 11, count) == first_sessions(workload, 11, count)
    assert first_sessions(workload, 11, count) != first_sessions(workload, 12, count)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_seeded_op_has_a_golden(workload):
    goldens = run.load_goldens(workload)
    for seed in range(5):
        for session in first_sessions(workload, seed, 6):
            for argv, _, _ in session:
                assert ops.op_key(argv) in goldens


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_session_has_the_same_known_failures(workload):
    goldens = run.load_goldens(workload)
    refused = run.refused(goldens)
    per_session = {(len(session), sum(ops.op_key(argv) in refused for argv, _, _ in session))
                   for seed in range(5) for session in first_sessions(workload, seed, 6)}
    assert len(per_session) == 1


def test_check_statuses():
    assert run.check(("0", "abc"), "0", "abc") == "ok"
    assert run.check(("0", "abc"), "0", "abd") == "wrong"
    assert run.check(("0", "abc"), "2", "abc") == "wrong"
    assert run.check(("3", "-"), "3", "e3b0") == "known_fail"
    assert run.check(("3", "-"), "0", "abc") == "unverified"
    assert run.check(("3", "-"), "raise:ValueError", "e3b0") == "wrong"
    assert run.check(("0", "abc"), "raise:ValueError", "e3b0") == "wrong"
    assert run.check(None, "0", "abc") == "unknown"


def test_corrupted_golden_turns_the_op_into_a_failure():
    session = [(["zeta", "--disc", "13"], True, 13), (["cusp", "--disc", "13"], False, 13)]
    goldens = run.load_goldens("queries")
    key = ops.op_key(session[0][0])
    rc, dig = goldens[key]
    corrupted = dict(goldens)
    corrupted[key] = (rc, "0" * len(dig))
    with tempfile.TemporaryDirectory() as work:
        good, _ = run.execute([session], work, goldens)
        bad, _ = run.execute([session], work, corrupted)
    assert [r["status"] for r in good] == ["ok", "ok"]
    assert [r["status"] for r in bad] == ["wrong", "ok"]
    assert bad[0]["status"] in run.FAILED and bad[0]["status"] in run.INCORRECT


def test_traced_session_prints_the_same_stdout():
    session = [(["classify", "--disc", "13", "--prime-norm", "103", "--mode", "bound"], False, 13),
               (["classnumber", "--disc", "-23"], False, None)]
    goldens = run.load_goldens("queries")
    with tempfile.TemporaryDirectory() as work:
        plain, _ = run.execute([session], work, goldens)
        traced, replies = run.execute([session], work, goldens, trace=True)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    functions = replies[0]["rollup"]["functions"]
    assert functions["chern.c1sq_lower_bound"][0] == 1
    assert functions["forms.h_definite"][0] == 1


def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert run.tail(values) == (990, 99, 10)
    assert run.tail(list(range(1, 101))) == (90, 90, 10)
    assert run.tail(list(range(1, 11)))[1:] == (50, 5)
