import concurrent.futures
import contextlib
import dataclasses
import functools
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import kunits
import kunits.cli as cli_module
from kunits.cli import _decimal_text, _write_ints, main

from oracles import (
    brute_cyclic_product_k_units,
    brute_divisors,
    brute_factor_map,
    brute_gen_carmichael,
    brute_is_prime,
    brute_k_units_by_order,
    brute_korselt,
    brute_liar_count,
    brute_phi,
    brute_rdu_is_one,
    brute_unit_exponent,
    scan_k_units,
    smallest_divisors,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class _Hang(Exception):
    """Raised by ``deadline`` when a call runs past its wall time."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise _Hang in the main thread after seconds of wall time, so that a hang
    fails the test instead of stopping the run (as perfbench's worker does)."""

    def expire(signum, frame):
        raise _Hang(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestStats:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "5", "--k", "2")
        assert code == 0
        assert "du   2" in out
        assert "rdu  2" in out
        assert "pdu  1/2" in out

    def test_json_schema(self, capsys):
        code, obj, _ = run_json(capsys, "stats", "--n", "5", "--k", "2")
        assert code == 0
        assert obj["command"] == "stats"
        assert obj["input"] == {"n": "5", "k": "2"}
        assert obj["result"] == {
            "phi": "4",
            "du": "2",
            "pdu": {"num": "1", "den": "2"},
            "rdu": "2",
        }

    def test_trivial_modulus(self, capsys):
        code, obj, _ = run_json(capsys, "stats", "--n", "1", "--k", "7")
        assert code == 0
        assert obj["result"]["du"] == "1"
        assert obj["result"]["rdu"] == "1"

    def test_rdu_one_at_264(self, capsys):
        code, obj, _ = run_json(capsys, "stats", "--n", "264", "--k", "10")
        assert code == 0
        assert obj["result"]["rdu"] == "1"

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "--n", "0", "--k", "2")
        assert code == 2
        assert "error" in err

    def test_usage_error_exits_2(self, capsys):
        assert main(["stats", "--n", "5"]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestUnits:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "units", "--n", "5", "--k", "2")
        assert code == 0
        assert out.strip() == "1 4"

    def test_k_one(self, capsys):
        code, out, _ = run(capsys, "units", "--n", "7", "--k", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_divisor_of_24_has_all_units(self, capsys):
        code, out, _ = run(capsys, "units", "--n", "24", "--k", "2")
        assert code == 0
        assert out.split("\n")[0] == "1 5 7 11 13 17 19 23"

    def test_oracle_ok(self, capsys):
        code, out, _ = run(capsys, "units", "--n", "24", "--k", "2", "--oracle")
        assert code == 0
        assert "oracle ok" in out

    def test_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        real = cli_module.k_unit_stats

        def lying_stats(n, k, **kw):
            stats = real(n, k, **kw)
            object.__setattr__(stats, "du", stats.du + 1)
            return stats

        monkeypatch.setattr(cli_module, "k_unit_stats", lying_stats)
        code, _, err = run(capsys, "units", "--n", "24", "--k", "2", "--oracle")
        assert code == 1
        assert "mismatch" in err

    @pytest.mark.parametrize(
        "residues, message",
        [
            # the right count, one residue that is not a 2-unit mod 24
            ([1, 5, 7, 11, 13, 17, 19, 22], "residue 22 is not a k-unit: 22^2 = 4 mod 24"),
            ([1, 7, 5, 11, 13, 17, 19, 23], "the residues do not strictly ascend at 5"),
            ([1, 5, 5, 11, 13, 17, 19, 23], "the residues do not strictly ascend at 5"),
            # 25 = 1 mod 24 is a 2-unit, but not a residue
            ([1, 5, 7, 11, 13, 17, 19, 25], "the residues leave [0, 24)"),
            # ascending, but negative: written by the list route, as str writes it
            ([-23, 1, 5, 7, 11, 13, 17, 19], "the residues leave [0, 24)"),
        ],
    )
    def test_oracle_checks_each_residue_apart_from_the_construction(
        self, capsys, monkeypatch, residues, message
    ):
        monkeypatch.setattr(
            cli_module, "_k_units", lambda n, k, bound: np.array(residues, dtype=np.int64)
        )
        for as_json in (False, True):
            argv = ["units", "--n", "24", "--k", "2", "--oracle"] + ["--json"] * as_json
            code, out, err = run(capsys, *argv)
            assert (code, err) == (1, f"oracle mismatch: {message}\n"), argv
            if as_json:
                result = json.loads(out)["result"]
                assert result["oracle"] == {"expected_count": "8", "matched": False}
                assert result["residues"] == [str(a) for a in residues]
            else:
                assert out == " ".join(map(str, residues)) + "\n"

    def test_oracle_checks_every_slice(self, capsys, monkeypatch):
        # every unit of 2 * 100003 is a 100002-unit; an even number in a later
        # slice keeps the order and the count, but is not a unit
        n, k = 200006, 100002
        units = np.array(kunits.enumerate_k_units(n, k, bound=n), dtype=np.int64)
        units[cli_module._SLICE] += 1
        a = int(units[cli_module._SLICE])
        monkeypatch.setattr(cli_module, "_k_units", lambda n, k, bound: units)
        argv = ["units", "--n", str(n), "--k", str(k), "--bound", str(n), "--oracle"]
        code, _, err = run(capsys, *argv)
        assert code == 1
        power = pow(a, k, n)
        assert err == f"oracle mismatch: residue {a} is not a k-unit: {a}^{k} = {power} mod {n}\n"

    def test_the_oracle_works_by_n_not_by_the_bits_of_k(self, capsys):
        # a residue is raised to gcd(k, lambda(n)): lambda(9999990) = 180, so k = 720 * 10^600,
        # of 2003 bits, is checked by the squarings of k = 180 and gives its result
        results = []
        for k in (180, 720 * 10**600):
            start = time.process_time()
            argv = ["units", "--n", "9999990", "--k", str(k), "--json", "--oracle"]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and time.process_time() - start < 2
            results.append(out.split('"result": ', 1)[1])
        assert results[0] == results[1]
        assert results[0].startswith('{"count": "1866240", "oracle": {"expected_count": "1866240"')

    def test_unallocatable_units_are_refused(self, capsys, monkeypatch):
        # a raised bound lets du outgrow memory; the allocation is faked,
        # never made
        real = np.empty

        def failing(shape, *args, **kwargs):
            if shape == 40487 * 40486:
                raise MemoryError
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing)
        n = 40487**2
        argv = ["units", "--n", str(n), "--k", str(40487 * 40486), "--bound", str(n)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            f"capability error: the {40487 * 40486} k-units modulo {n} do not fit in memory\n"
        )

    def test_enumeration_bound_exits_3(self, capsys):
        code, _, err = run(capsys, "units", "--n", "10000001", "--k", "2")
        assert code == 3
        assert "capability" in err

    def test_bound_flag_overrides(self, capsys):
        code, _, _ = run(capsys, "units", "--n", "1000", "--k", "2", "--bound", "999")
        assert code == 3


class TestSolve:
    def test_k2_human(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "2")
        assert code == 0
        assert "n_max   24" in out
        assert "count   8" in out
        assert "A       {3}" in out
        assert "B       {}" in out

    def test_k252_json(self, capsys):
        code, obj, _ = run_json(capsys, "solve", "--k", "252")
        assert code == 0
        assert obj["result"]["n_max"] == "153185861359440"
        assert obj["result"]["count"] == "7680"
        assert obj["result"]["set_a"] == ["5", "13", "19", "29", "37", "43", "127"]
        assert obj["result"]["set_b"] == [["3", "3"], ["7", "2"]]

    def test_odd_k(self, capsys):
        code, obj, _ = run_json(capsys, "solve", "--k", "3")
        assert code == 0
        assert obj["result"]["n_max"] == "2"
        assert obj["result"]["count"] == "2"
        assert obj["result"]["parity"] == "odd"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "2", "--enumerate")
        assert code == 0
        assert "solutions  1 2 3 4 6 8 12 24" in out

    def test_enumerate_with_limit_marks_truncation(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "252", "--enumerate", "--limit", "5")
        assert code == 0
        assert "solutions  1 2 3 4 5" in out
        assert "truncated to 5 of 7680" in out

    def test_cap_exceeded_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "--k", "30030", "--enumerate")
        assert code == 3
        assert "cap" in err

    def test_prime_candidate_past_psi13_exits_3(self, capsys):
        # 9 * 2**81 + 1 is a prime past the certified Miller-Rabin limit
        code, out, err = run(capsys, "solve", "--k", str(9 * 2**81))
        assert (code, out) == (3, "")
        assert "3317044064679887385961981" in err

    def test_k_past_the_candidate_cap_exits_3_at_once(self, capsys):
        # 2**4000 has only composite candidates past psi_13, but proving them all
        # would take minutes; the k of 4001 bits is refused before any is tried
        with deadline(5):
            code, out, err = run(capsys, "solve", "--k", str(2**4000))
        assert (code, out) == (3, "")
        assert "a k of 4001 bits" in err and "at most 256 bits" in err

    def test_k_of_more_divisors_than_the_cap_exits_3_at_once(self, capsys):
        # k is below psi_13; its 1,572,864 divisors are refused before any is built
        k = 3284987174500756508784000
        with deadline(5):
            code, out, err = run(capsys, "solve", "--k", str(k))
        assert (code, out) == (3, "")
        assert err == f"capability error: {k} has 1572864 divisors, above the enumeration cap 1000000\n"

    def test_composite_candidate_past_psi13_is_answered(self, capsys):
        # 3 * 2**80 + 1, the one candidate past the limit, is composite
        code, out, _ = run(capsys, "solve", "--k", str(3 * 2**80))
        assert code == 0
        assert "count   8159232" in out

    def test_limit_above_the_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(kunits.solver, "SOLUTION_CAP", 10)
        code, out, err = run(capsys, "solve", "--k", "252", "--enumerate", "--limit", "11")
        assert (code, out) == (3, "")
        assert "7680 solutions" in err and "cap 10" in err
        code, out, _ = run(capsys, "solve", "--k", "252", "--enumerate", "--limit", "10")
        assert code == 0
        assert "truncated to 10 of 7680" in out

    def test_bound_is_not_the_enumeration_cap(self, capsys):
        # --bound is the factorization bound; the solution cap stays SOLUTION_CAP
        code, obj, _ = run_json(capsys, "solve", "--k", "252", "--enumerate", "--bound", "100")
        assert code == 0
        solutions = [int(n) for n in obj["result"]["solutions"]]
        assert len(solutions) == 7680
        assert solutions[0] == 1 and solutions[-1] == 153185861359440
        assert obj["result"]["truncated"] is False

    def test_limit_without_enumerate_exits_2(self, capsys):
        code, _, _ = run(capsys, "solve", "--k", "2", "--limit", "3")
        assert code == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
    def test_n_max_past_the_int_str_digit_limit(self, capsys):
        # n_max of this k has 4578 digits, past the default limit of 4300
        k = 17167417344000
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "solve", "--k", str(k), "--json")
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == 4300
            code, text, err = run(capsys, "solve", "--k", str(k))
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            n_max = kunits.solve_rdu_one(k).n_max
            assert len(str(n_max)) == 4578
            assert int(json.loads(out)["result"]["n_max"]) == n_max
            assert f"n_max   {n_max}\n" in text
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
    def test_threads_leave_the_int_str_digit_limit_alone(self, capsys):
        # main writes n_max (4578 digits) without lifting the process-wide limit,
        # so no thread can save or restore another thread's setting
        saved = sys.get_int_max_str_digits()
        codes, errors = [], []

        def solve_20_times():
            try:
                for _ in range(20):
                    codes.append(main(["solve", "--k", "17167417344000"]))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=solve_20_times) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        capsys.readouterr()
        assert not any(thread.is_alive() for thread in threads)
        assert (errors, codes) == ([], [0] * 40)
        assert sys.get_int_max_str_digits() == saved

    def test_enumerate_solves_once(self, capsys, monkeypatch):
        solves, primality = [], []
        real_solve, real_certified = kunits.solver.solve_rdu_one, kunits.solver._certified_prime

        def counted_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        def counted_certified(*args, **kwargs):
            primality.append(args)
            return real_certified(*args, **kwargs)

        monkeypatch.setattr(cli_module, "solve_rdu_one", counted_solve)
        monkeypatch.setattr(kunits.solver, "solve_rdu_one", counted_solve)
        monkeypatch.setattr(kunits.solver, "_certified_prime", counted_certified)
        code, out, _ = run(capsys, "solve", "--k", "720720", "--enumerate", "--limit", "10")
        assert code == 0
        assert "truncated to 10 of" in out
        assert (len(solves), len(primality)) == (1, 192)


class TestClassify:
    def test_carmichael(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "561")
        assert code == 0
        assert "carmichael     true" in out
        # the verdict is always reported, so there is no --carmichael flag
        assert run(capsys, "classify", "--n", "561", "--carmichael")[0] == 2

    def test_liars(self, capsys):
        code, obj, _ = run_json(capsys, "classify", "--n", "561", "--liars")
        assert code == 0
        assert obj["result"]["fermat_liars"] == "320"
        code, out, _ = run(capsys, "classify", "--n", "561", "--liars")
        assert code == 0
        assert "\nfermat-liars   320\n" in out

    def test_liars_on_even_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "10", "--liars")
        assert code == 2

    def test_gen_carmichael(self, capsys):
        code, obj, _ = run_json(capsys, "classify", "--n", "1806", "--gen-carmichael", "1")
        assert code == 0
        assert obj["result"]["gen_carmichael"] == [["1", True]]

    def test_gen_carmichael_answers_far_above_10_7(self):
        # The closed form factors n once; checking every residue would take hours.
        src = str(Path(kunits.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "kunits.cli", "classify", "--n", "1000000000001",
             "--gen-carmichael", "0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "factorization     73 * 137 * 99990001\n" in proc.stdout
        assert proc.stdout.endswith("gen-carmichael:0  false\n")

    def test_knodel(self, capsys):
        code, obj, _ = run_json(capsys, "classify", "--n", "4", "--knodel", "2")
        assert code == 0
        assert obj["result"]["knodel"] == [["2", True]]

    def test_failure_reason_shown(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "45")
        assert code == 0
        assert "not squarefree" in out

    def test_evidence_line(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "561")
        assert code == 0
        assert "3 * 11 * 17" in out

    # One n for every reason string.  1859 = 11 * 13^2 also has 11 - 1 not
    # dividing 1858, and the reason must still be the square.
    REASON_GRID = [
        (
            1, "1", "false", "false  (1 is not composite)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "1 is not composite", "composite": false, "factorization": [], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            2, "2", "false", "false  (2 is even)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "2 is even", "composite": false, "factorization": [["2", "1"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            4, "2^2", "true", "false  (4 is even)", "false", "true",
            '{"carmichael": false, "carmichael_reason": "4 is even", "composite": true, "factorization": [["2", "2"]], "gen_carmichael": [], "knodel": [["1", false], ["2", true]]}',
        ),
        (
            9, "3^2", "true", "false  (not squarefree: 3^2 divides 9)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "not squarefree: 3^2 divides 9", "composite": true, "factorization": [["3", "2"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            13, "13", "false", "false  (13 is prime)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "13 is prime", "composite": false, "factorization": [["13", "1"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            15, "3 * 5", "true", "false  (5 - 1 does not divide 15 - 1)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "5 - 1 does not divide 15 - 1", "composite": true, "factorization": [["3", "1"], ["5", "1"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            45, "3^2 * 5", "true", "false  (not squarefree: 3^2 divides 45)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "not squarefree: 3^2 divides 45", "composite": true, "factorization": [["3", "2"], ["5", "1"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            75, "3 * 5^2", "true", "false  (not squarefree: 5^2 divides 75)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "not squarefree: 5^2 divides 75", "composite": true, "factorization": [["3", "1"], ["5", "2"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
        (
            561, "3 * 11 * 17", "true", "true", "true", "false",
            '{"carmichael": true, "carmichael_reason": null, "composite": true, "factorization": [["3", "1"], ["11", "1"], ["17", "1"]], "gen_carmichael": [], "knodel": [["1", true], ["2", false]]}',
        ),
        (
            1105, "5 * 13 * 17", "true", "true", "true", "false",
            '{"carmichael": true, "carmichael_reason": null, "composite": true, "factorization": [["5", "1"], ["13", "1"], ["17", "1"]], "gen_carmichael": [], "knodel": [["1", true], ["2", false]]}',
        ),
        (
            1859, "11 * 13^2", "true", "false  (not squarefree: 13^2 divides 1859)", "false", "false",
            '{"carmichael": false, "carmichael_reason": "not squarefree: 13^2 divides 1859", "composite": true, "factorization": [["11", "1"], ["13", "2"]], "gen_carmichael": [], "knodel": [["1", false], ["2", false]]}',
        ),
    ]

    @pytest.mark.parametrize(
        "n,factorization,composite,carmichael,knodel1,knodel2,result",
        REASON_GRID,
        ids=[str(row[0]) for row in REASON_GRID],
    )
    def test_reason_grid(self, capsys, n, factorization, composite, carmichael, knodel1, knodel2, result):
        argv = ["classify", "--n", str(n), "--knodel", "1", "--knodel", "2"]
        rows = [("n", str(n)), ("factorization", factorization), ("composite", composite),
                ("carmichael", carmichael), ("knodel:1", knodel1), ("knodel:2", knodel2)]
        assert run(capsys, *argv) == (0, "".join(f"{k:<15}{v}\n" for k, v in rows), "")
        envelope = '{"command": "classify", "input": {"n": "%d"}, "result": %s}\n' % (n, result)
        assert run(capsys, *argv, "--json") == (0, envelope, "")


class TestSweep:
    def test_const_2(self, capsys):
        code, out, _ = run(capsys, "sweep", "--from", "1", "--to", "2000", "--rule", "const:2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[:-1] == ["1", "2", "3", "4", "6", "8", "12", "24"]
        assert lines[-1] == "hits=8 skipped=0"

    def test_carmichael_sweep(self, capsys):
        code, obj, _ = run_json(
            capsys,
            "sweep",
            "--from",
            "3",
            "--to",
            "3000",
            "--rule",
            "n-1",
            "--composite-only",
            "--odd-only",
        )
        assert code == 0
        assert obj["result"]["hits"] == ["561", "1105", "1729", "2465", "2821"]

    def test_carmichael_sweep_full_range(self, capsys):
        code, obj, _ = run_json(
            capsys,
            "sweep",
            "--from",
            "3",
            "--to",
            "100000",
            "--rule",
            "n-1",
            "--composite-only",
            "--odd-only",
        )
        assert code == 0
        assert obj["result"]["hit_count"] == "16"
        assert obj["result"]["hits"][0] == "561"

    def test_csv(self, capsys):
        code, out, err = run(capsys, "sweep", "--from", "1", "--to", "30", "--rule", "const:2", "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,exponent"
        assert lines[1] == "1,2"
        assert "hits=" in err

    def test_csv_with_json_exits_2(self, capsys):
        # the JSON used to be written and --csv dropped without a word
        argv = ["sweep", "--from", "1", "--to", "30", "--rule", "const:2", "--csv", "--json"]
        assert run(capsys, *argv) == (2, "", "error: --csv cannot be combined with --json\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
    @pytest.mark.parametrize(
        "rule", ["poly:0,1" + "0" * 4299, "1" + "0" * 4299 + "*n+0"], ids=["poly", "linear"]
    )
    def test_csv_exponent_past_the_int_str_digit_limit(self, capsys, rule):
        # the exponent of 16 is 16 * 10^4299, of 4301 digits, past the default
        # limit of 4300; lambda(16) = 4 divides it
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            argv = ["sweep", "--from", "16", "--to", "16", "--rule", rule, "--csv"]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "hits=1 skipped=0\n")
            assert out == "n,exponent\n16,16" + "0" * 4299 + "\n"
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_csv_rejected_elsewhere(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 561\n")
        for argv in (
            ["stats", "--n", "5", "--k", "2"],
            ["units", "--n", "5", "--k", "2"],
            ["solve", "--k", "2"],
            ["classify", "--n", "561"],
            ["oeis-check", str(path), "--predicate", "carmichael"],
        ):
            code, out, err = run(capsys, *argv, "--csv")
            assert (code, out) == (2, ""), argv
            assert err.endswith("kunits: error: unrecognized arguments: --csv\n"), argv

    def test_malformed_rule_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--from", "1", "--to", "10", "--rule", "bogus")
        assert code == 2
        assert "rule" in err

    def test_skip_reporting(self, capsys):
        code, obj, _ = run_json(capsys, "sweep", "--from", "1", "--to", "10", "--rule", "n-5")
        assert code == 0
        assert obj["result"]["skipped"] == ["1", "2", "3", "4", "5"]


class _Slot(NamedTuple):
    """A place where the CLI reads an integer from outside; {} stands for the literal."""

    argv: list[str]  # <bfile> names a file holding ``line``
    line: str | None
    past_limit: str  # the refusal of a literal past the int-to-str digit limit
    malformed: str  # the slot's wording for other text, of the text it names ({!r})
    named: str = "{}"


def _option(argv, name):
    past_limit = f"argument {name}: integer of 4301 digits exceeds the digit limit"
    return _Slot(argv, None, past_limit, f"argument {name}: invalid int value: {{!r}}\n")


_INTEGER_SLOTS = {
    "--n": _option(["stats", "--n", "{}", "--k", "2"], "--n"),
    "--k": _option(["stats", "--n", "5", "--k", "{}"], "--k"),
    "--bound": _option(["classify", "--n", "561", "--bound", "{}"], "--bound"),
    "--from": _option(["sweep", "--from", "{}", "--to", "16", "--rule", "n-1"], "--from"),
    "--to": _option(["sweep", "--from", "16", "--to", "{}", "--rule", "n-1"], "--to"),
    "solve --limit": _option(["solve", "--k", "2", "--limit", "{}"], "--limit"),
    "oeis-check --limit": _option(
        ["oeis-check", "<bfile>", "--predicate", "carmichael", "--limit", "{}"], "--limit"
    )._replace(line="1 561"),
    "--knodel": _option(["classify", "--n", "561", "--knodel", "{}"], "--knodel"),
    "--gen-carmichael": _option(["classify", "--n", "561", "--gen-carmichael", "{}"], "--gen-carmichael"),
    "rule": _Slot(
        ["sweep", "--from", "16", "--to", "16", "--rule", "const:{}"],
        None,
        "error: rule integer of 4301 digits exceeds the digit limit",
        "error: malformed exponent rule {!r}; expected ",
        "const:{}",
    ),
    "predicate": _Slot(
        ["oeis-check", "<bfile>", "--predicate", "knodel:{}"],
        "1 561",
        "error: predicate parameter of 4301 digits exceeds the digit limit",
        "error: predicate {!r} needs an integer parameter\n",
        "knodel:{}",
    ),
    "b-file index": _Slot(
        ["oeis-check", "<bfile>", "--predicate", "carmichael"],
        "{} 561",
        "error: line 1: index of 4301 digits exceeds the digit limit",
        "error: line 1: non-integer token in {!r}\n",
        "{} 561",
    ),
    "b-file value": _Slot(
        ["oeis-check", "<bfile>", "--predicate", "carmichael"],
        "1 {}",
        "error: line 1: value of 4301 digits exceeds the digit limit",
        "error: line 1: non-integer token in {!r}\n",
        "1 {}",
    ),
}
# Whitespace splits b-file tokens, so no b-file token can hold a padded literal.
_MALFORMED = [
    pytest.param(slot, text, id=f"{slot}-{text!r}")
    for slot in _INTEGER_SLOTS
    for text in ("1_0", "\u0663", " 5")
    if not (slot.startswith("b-file") and text == " 5")
]


class TestIntegerSlots:
    """Every integer from outside is read by one reader, ``arith._read_int``: ASCII
    [+-]?[0-9]+, refused by its digit count past the int-to-str digit limit, and in the
    slot's own words otherwise."""

    @staticmethod
    def _run(capsys, tmp_path, slot, literal):
        path = tmp_path / "b.txt"
        if slot.line is not None:
            path.write_text(slot.line.format(literal) + "\n", encoding="utf-8")
        return run(capsys, *(arg.replace("<bfile>", str(path)).format(literal) for arg in slot.argv))

    @pytest.mark.parametrize("name", _INTEGER_SLOTS)
    def test_past_the_digit_limit_exits_2(self, capsys, tmp_path, name):
        slot = _INTEGER_SLOTS[name]
        code, out, err = self._run(capsys, tmp_path, slot, "9" * 4301)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300 and "4301 digits" in err
        assert err.endswith(slot.past_limit + "\n")
        if name == "rule":  # refused as an --n of 4301 digits is
            assert err == "error: rule integer of 4301 digits exceeds the digit limit\n"

    @pytest.mark.parametrize("name, literal", _MALFORMED)
    def test_other_text_is_malformed(self, capsys, tmp_path, name, literal):
        slot = _INTEGER_SLOTS[name]
        code, out, err = self._run(capsys, tmp_path, slot, literal)
        assert (code, out) == (2, "")
        assert slot.malformed.format(slot.named.format(literal)) in err


class TestOeisCheck:
    def test_match(self, capsys, tmp_path):
        path = tmp_path / "b002997.txt"
        path.write_text("1 561\n2 1105\n3 1729\n", encoding="utf-8")
        code, out, _ = run(capsys, "oeis-check", str(path), "--predicate", "carmichael", "--limit", "2000")
        assert code == 0
        assert "match" in out

    def test_extra_value_reported_not_assumed(self, capsys, tmp_path):
        # A014117-style file listing 1; the predicate set starts at 2
        path = tmp_path / "b014117.txt"
        path.write_text("0 1\n1 2\n2 6\n3 42\n4 1806\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "oeis-check", str(path), "--predicate", "gen-carmichael:1", "--limit", "2000"
        )
        assert code == 1
        assert "extra      1" in out
        assert "MISMATCH" in out

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n", encoding="utf-8")
        code, out, _ = run(capsys, "oeis-check", str(path), "--predicate", "carmichael")
        assert code == 0
        assert "compared   0" in out

    def test_parse_error_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 561\noops\n", encoding="utf-8")
        code, _, err = run(capsys, "oeis-check", str(path), "--predicate", "carmichael")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("limit, code", [("-5", 2), ("-1", 2), ("0", 0)])
    def test_negative_limit_is_refused(self, capsys, tmp_path, limit, code):
        path = tmp_path / "c.b"
        path.write_text("1 561\n2 1105\n", encoding="utf-8")
        argv = ["oeis-check", str(path), "--predicate", "carmichael", "--limit", limit]
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert (out, err) == ("", "error: limit must be >= 0, got " + limit + "\n")
        else:
            assert "compared   0" in out and "verdict    match" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "oeis-check", str(tmp_path / "nope.txt"), "--predicate", "carmichael")
        assert code == 2

    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 561\n# caf\xe9\n2 1105\n")
        code, out, err = run(capsys, "oeis-check", str(path), "--predicate", "carmichael")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "line 2" in err

    def test_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "oeis-check", str(tmp_path), "--predicate", "carmichael")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("predicate", ["knodel:0", "rdu-one:0", "rdu-one:-4", "carmichael:3"])
    def test_bad_predicate_parameter_exits_2(self, capsys, tmp_path, predicate):
        path = tmp_path / "b.txt"
        path.write_text("1 4\n2 6\n", encoding="utf-8")
        code, _, err = run(capsys, "oeis-check", str(path), "--predicate", predicate)
        assert code == 2
        assert err.startswith("error:")

    def test_gen_carmichael_bound_is_only_the_factorization_bound(self, capsys, tmp_path):
        path = tmp_path / "b014117.txt"
        path.write_text("0 1\n1 2\n2 6\n3 42\n4 1806\n", encoding="utf-8")
        argv = ["oeis-check", str(path), "--predicate", "gen-carmichael:1", "--limit", "2000"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert [n for n in range(1, 2001) if brute_gen_carmichael(n, 1)] == [2, 6, 42, 1806]
        assert "missing    none\n" in out
        assert "extra      1\n" in out

    def test_sieved_predicates_agree_with_the_point_path(self, capsys, tmp_path):
        from kunits import is_carmichael, is_knodel, is_rdu_one

        cases = {
            "carmichael": is_carmichael,
            "knodel:1": lambda n: is_knodel(n, 1),
            "knodel:3": lambda n: is_knodel(n, 3),
            "rdu-one:24": lambda n: is_rdu_one(n, 24),
        }
        for name, predicate in cases.items():
            values = [n for n in range(1, 3001) if predicate(n)]
            path = tmp_path / "b.txt"
            path.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values, 1)), encoding="utf-8")
            code, obj, _ = run_json(capsys, "oeis-check", str(path), "--predicate", name, "--limit", "3000")
            assert (code, obj["result"]["matched"]) == (0, True), name
            assert obj["result"]["compared"] == str(len(values))

    def test_unknown_predicate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 2\n", encoding="utf-8")
        code, _, _ = run(capsys, "oeis-check", str(path), "--predicate", "wat")
        assert code == 2

    def test_unknown_parameterless_predicate_is_named(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 2\n", encoding="utf-8")
        code, out, err = run(capsys, "oeis-check", str(path), "--predicate", "bogus")
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown predicate 'bogus'; "
            "expected carmichael | knodel:I | gen-carmichael:K | rdu-one:K\n"
        )

    def test_knodel_predicate(self, capsys, tmp_path):
        from kunits import is_knodel

        values = [n for n in range(1, 200) if is_knodel(n, 2)]
        path = tmp_path / "b050990.txt"
        path.write_text("".join(f"{i+1} {v}\n" for i, v in enumerate(values)), encoding="utf-8")
        code, _, _ = run(capsys, "oeis-check", str(path), "--predicate", "knodel:2", "--limit", "199")
        assert code == 0

    def test_rdu_one_predicate_round_trip(self, capsys, tmp_path):
        code, obj, _ = run_json(capsys, "solve", "--k", "10", "--enumerate")
        sols = obj["result"]["solutions"]
        path = tmp_path / "rdu10.txt"
        path.write_text("".join(f"{i+1} {v}\n" for i, v in enumerate(sols)), encoding="utf-8")
        code, _, _ = run(capsys, "oeis-check", str(path), "--predicate", "rdu-one:10", "--limit", "264")
        assert code == 0


class TestRangeBound:
    """A range of more than RANGE_BOUND n is refused with exit 3 before any sieving."""

    def test_oeis_check_past_the_range_bound_exits_3(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 561\n2 1000000000000000\n", encoding="utf-8")
        with deadline(10):
            code, out, err = run(capsys, "oeis-check", str(path), "--predicate", "carmichael")
        assert (code, out) == (3, "")
        assert err.startswith("capability error: ") and "range bound" in err

    @pytest.mark.parametrize("top", [10**9 + 1, 10**9 + 2])
    def test_oeis_check_just_past_the_range_bound_exits_3(self, capsys, tmp_path, top):
        # [3, top] holds at most RANGE_BOUND n, but [1, top] holds more
        path = tmp_path / "b.txt"
        path.write_text(f"1 561\n2 {top}\n", encoding="utf-8")
        with deadline(10):
            code, out, err = run(capsys, "oeis-check", str(path), "--predicate", "carmichael")
        assert (code, out) == (3, "")
        assert err.startswith("capability error: ") and "range bound" in err

    def test_sweep_past_the_range_bound_exits_3(self, capsys):
        with deadline(10):
            code, out, err = run(capsys, "sweep", "--from", "1", "--to", str(10**15), "--rule", "n-1")
        assert (code, out) == (3, "")
        assert err.startswith("capability error: ") and "range bound" in err


class TestBoundFlag:
    COMMANDS = {
        "stats": ["stats", "--n", "5", "--k", "2"],
        "units": ["units", "--n", "5", "--k", "2"],
        "solve": ["solve", "--k", "2", "--enumerate"],
        "classify": ["classify", "--n", "561", "--gen-carmichael", "1"],
        "sweep": ["sweep", "--from", "1", "--to", "30", "--rule", "const:2"],
        "oeis-check": ["oeis-check", "{bfile}", "--predicate", "gen-carmichael:1", "--limit", "100"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bound_below_1_exits_2(self, capsys, tmp_path, command):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 2\n2 6\n3 42\n", encoding="utf-8")
        argv = [arg.format(bfile=bfile) for arg in self.COMMANDS[command]]
        assert run(capsys, *argv)[0] == 0
        for bound in ("0", "-3", "7") if command == "oeis-check" else ("0", "-3"):
            code, out, err = run(capsys, *argv, "--bound", bound)
            assert (code, out) == (2, ""), bound
            if command == "oeis-check":  # it factors nothing, so it takes no --bound
                assert err.endswith(f"kunits: error: unrecognized arguments: --bound {bound}\n")
            else:
                assert err == f"error: --bound must be >= 1, got {bound}\n"

    def test_each_command_keeps_its_own_default(self, capsys, monkeypatch):
        # units works up to ENUMERATION_BOUND, and every other command factors up to
        # SUPPORTED_BOUND, whichever command ran before in the process
        semiprime = 1000000007 * 1000000009  # beyond rho's budget for a bound of 10**7
        bounds = []
        real = cli_module.factorize

        def recorded(n, *, bound):
            bounds.append(bound)
            return real(n, bound=bound)

        monkeypatch.setattr(cli_module, "factorize", recorded)
        for _ in range(2):
            assert run(capsys, "units", "--n", str(10**7), "--k", "2")[0] == 0
            code, out, err = run(capsys, "units", "--n", str(10**7 + 1), "--k", "2")
            assert (code, out) == (3, "")
            assert "enumeration bound 10000000" in err
            code, out, _ = run(capsys, "stats", "--n", str(semiprime), "--k", "2")
            assert code == 0
            assert out.startswith(f"n    {semiprime}\n")
        assert bounds == [2**64 - 1] * 2


class TestRhoBudget:
    """The work budget is chosen where n is factored: by factorize's bound, which --bound
    sets, and by no keyword of the functions that read n's factorization."""

    N = 1000003 * 1000033  # past 768 modular multiplications, inside the default budget
    COMMANDS = {
        "stats": ["stats", "--n", str(N), "--k", "2"],
        "classify": ["classify", "--n", str(N)],
        "solve": ["solve", "--k", str(2 * N)],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bound_flag_sets_the_budget(self, capsys, command):
        assert run(capsys, *self.COMMANDS[command])[0] == 0
        code, out, err = run(capsys, *self.COMMANDS[command], "--bound", "1048576")
        assert (code, out) == (3, "")
        assert err.startswith("capability error: ")
        assert "after 765 of 768 modular multiplications" in err

    def test_bound_flag_cannot_lift_the_rho_cap(self, capsys, monkeypatch):
        # two 50-bit primes below --bound 2**200: rho stops at the cap, not at the bound
        monkeypatch.setattr(kunits.arith, "_WORK_CAP", 768)
        argv = ["stats", "--n", "673572628042771384973556338657", "--k", "2", "--bound", str(2**200)]
        with deadline(5):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "after 765 of 768 modular multiplications; the limit is the cap per call" in err

    def test_a_sweep_has_one_budget(self, capsys):
        # 10**9 n from 2**62: a fresh budget per cofactor would take days of rho
        argv = ["sweep", "--from", str(2**62), "--to", str(2**62 + 10**9 - 1), "--rule", "n-1"]
        with deadline(60):
            code, out, err = run(capsys, *argv, "--odd-only", "--composite-only")
        assert (code, out) == (3, "")
        assert "modular multiplications; the limit is the cap per call" in err

    def test_ecm_answers_two_50_bit_primes_at_a_large_bound(self, capsys):
        # rho alone would stop at the cap after about 8 s; ECM splits n in well under a second
        p, q = 621334231200341, 1084074551536477
        with deadline(5):
            code, obj, _ = run_json(capsys, "stats", "--n", str(p * q), "--k", "2", "--bound", str(2**200))
        assert code == 0
        assert obj["result"]["phi"] == str((p - 1) * (q - 1))

    def test_refusal_bound_is_not_a_rho_budget(self):
        # two 50-bit primes: neither p - 1, rho nor ECM splits n within the default
        # budget, and is_generalized_carmichael's bound only refuses n above it
        n = 562949953433657 * 562950941075639
        with deadline(2), pytest.raises(kunits.CapabilityError):
            kunits.is_generalized_carmichael(n, 0, bound=2**200)


class TestOutputContracts:
    def test_byte_identical_reruns(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, err = run(capsys, "solve", "--k", "252", "--enumerate", "--limit", "20", "--json")
            assert code == 0
            outputs.append((out, err))
        assert outputs[0] == outputs[1]

    def test_round_trip_solutions_all_have_rdu_one(self, capsys):
        for k in ("2", "10", "24"):
            code, obj, _ = run_json(capsys, "solve", "--k", k, "--enumerate")
            assert code == 0
            for div in obj["result"]["solutions"]:
                code, stats, _ = run_json(capsys, "stats", "--n", div, "--k", k)
                assert code == 0
                assert stats["result"]["rdu"] == "1", (k, div)

    def test_json_integers_are_strings_even_when_huge(self, capsys):
        code, obj, _ = run_json(capsys, "solve", "--k", "30030")
        assert isinstance(obj["result"]["n_max"], str)
        assert int(obj["result"]["n_max"]) > 2**53

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["solve", "--help"]) == 0
        capsys.readouterr()


@functools.lru_cache(maxsize=None)
def _units_and_du(n, k):
    return scan_k_units(n, k), kunits.k_unit_stats(n, k).du


def _units_reference(n, k, oracle, as_json):
    """units output as the whole-list construction writes it."""
    units, du = _units_and_du(n, k)
    if as_json:
        result = {"count": str(len(units)), "residues": [str(a) for a in units]}
        if oracle:
            result["oracle"] = {"expected_count": str(du), "matched": du == len(units)}
        obj = {"command": "units", "input": {"n": str(n), "k": str(k)}, "result": result}
        return json.dumps(obj, sort_keys=True) + "\n"
    text = " ".join([str(a) for a in units]) + "\n"
    if oracle:
        text += f"oracle ok: count {len(units)} matches the closed form\n"
    return text


def _solve_reference(capsys, k, limit, as_json, solutions=None):
    """solve --enumerate output as the whole-list construction writes it, from
    one str per value of the Python-int divisors of n_max."""
    sol = kunits.solve_rdu_one(k)
    if solutions is None:
        solutions = smallest_divisors(sol.n_max_factorization(), limit)
    truncated = len(solutions) < sol.count
    if as_json:
        result = {
            "parity": sol.k_parity,
            "beta": str(sol.beta),
            "m": str(sol.m),
            "set_a": [str(p) for p in sol.set_a],
            "set_b": [[str(q), str(e)] for q, e in sol.set_b],
            "n_max": str(sol.n_max),
            "count": str(sol.count),
            "solutions": [str(d) for d in solutions],
            "truncated": truncated,
        }
        obj = {"command": "solve", "input": {"k": str(k)}, "result": result}
        return json.dumps(obj, sort_keys=True) + "\n"
    # the table is written before the solutions, as without --enumerate
    code, table, _ = run(capsys, "solve", "--k", str(k))
    assert code == 0
    text = table + "solutions  " + " ".join(str(d) for d in solutions) + "\n"
    if truncated:
        text += f"... truncated to {len(solutions)} of {sol.count}\n"
    return text


def _seeded_wheel_moduli():
    # n <= 10^5 divisible by wheel primes, so the oracle scan tiles by w > 1
    rng = random.Random(6)
    wheels = (2, 6, 10, 30, 210, 2310, 30030, 13, 26, 77)
    return sorted({w * rng.randrange(1, 10**5 // w + 1) for w in wheels})


class _NoPythonInts(np.ndarray):
    """An array that refuses to hand out its values as Python ints."""

    def tolist(self):
        raise AssertionError("tolist() on the units path")

    def __iter__(self):
        raise AssertionError("iteration on the units path")


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


_NO_INT64 = np.array([], dtype=np.int64)


def _arrays(values):
    """values as an int64 array and, where they all fit, as a uint32 one (the units residues)."""
    arrays = [np.array(values, dtype=np.int64)]
    if all(0 <= v < 2**32 for v in values):
        arrays.append(np.array(values, dtype=np.uint32))
    return arrays


def _as_int64_or_rest(values):
    """The ways to hand values to _write_ints: all in an array, int64 or, where
    they fit, uint32, or all in the rest."""
    return [*((array, ()) for array in _arrays(values)), (_NO_INT64, values)]


class TestWriteInts:
    VALUES = [0, 9, 10, 99, 100, 3037000499, 2**63 - 1, 5]

    @pytest.mark.parametrize("quote, sep", [('"', ", "), ("", " ")])
    def test_arrays_and_lists_write_the_same_text(self, capsys, quote, sep):
        for values in (self.VALUES, self.VALUES[::-1], []):
            expected = sep.join(quote + str(v) + quote for v in values)
            for given, rest in _as_int64_or_rest(values):
                _write_ints(given, quote, sep, rest)
                assert capsys.readouterr().out == expected, (given, rest)

    def test_lists_take_ints_past_int64(self, capsys):
        _write_ints(_NO_INT64, '"', ", ", [2**63, 3, 127589793288205521873600])
        assert capsys.readouterr().out == '"9223372036854775808", "3", "127589793288205521873600"'
        # the solve solutions: the int64 part, then the rest
        _write_ints(np.array([1, 2**63 - 1], dtype=np.int64), '"', ", ", [2**63])
        assert capsys.readouterr().out == '"1", "9223372036854775807", "9223372036854775808"'

    @pytest.mark.parametrize("quote, sep", [('"', ", "), ("", " ")])
    def test_slices_join_with_one_separator(self, monkeypatch, quote, sep):
        monkeypatch.setattr(cli_module, "_SLICE", 3)
        # 0 to 8 values: no slice, whole slices only, and a short last slice
        for size in range(len(self.VALUES) + 1):
            values = self.VALUES[:size]
            texts = [quote + str(v) + quote for v in values]
            for given, rest in _as_int64_or_rest(values):
                writes = _Writes()
                monkeypatch.setattr(cli_module, "sys", SimpleNamespace(stdout=writes))
                _write_ints(given, quote, sep, rest)
                slices = [sep.join(texts[i : i + 3]) for i in range(0, size, 3)]
                assert writes.parts == slices[:1] + [sep + s for s in slices[1:]], given
                assert "".join(writes.parts) == sep.join(texts)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
    def test_the_rest_passes_the_int_str_digit_limit(self, capsys):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            _write_ints(np.array([1], dtype=np.int64), "", " ", [2**63, 10**5000 + 1])
            out = capsys.readouterr().out
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)
        assert out == "1 9223372036854775808 1" + "0" * 4999 + "1"

    @pytest.mark.parametrize("quote, sep", [('"', ", "), ("", " ")])
    def test_the_rest_starts_a_slice_of_its_own(self, monkeypatch, quote, sep):
        monkeypatch.setattr(cli_module, "_SLICE", 3)
        low, high = [1, 2, 3, 4], [2**63, 2**64]
        writes = _Writes()
        monkeypatch.setattr(cli_module, "sys", SimpleNamespace(stdout=writes))
        _write_ints(np.array(low, dtype=np.int64), quote, sep, high)
        texts = [quote + str(v) + quote for v in low + high]
        joined = [sep.join(texts[:3]), sep + texts[3], sep + sep.join(texts[4:])]
        assert writes.parts == joined


_TEXT_STYLES = [('"', ", "), ("", " ")]  # units --json, plain units
# 0, 1, 9, each side of every power of ten in int64, (n - 1) at the largest
# n the scan takes, and the int64 maximum
_DECIMAL_EDGES = sorted(
    [
        0,
        1,
        9,
        *(10**j + d for j in range(1, 19) for d in (-1, 0, 1)),
        3037000499,
        2**63 - 1,
    ]
)


def _joined(values, quote, sep):
    return sep.join(quote + str(v) + quote for v in values)


class TestDecimalText:
    @pytest.mark.parametrize("quote, sep", _TEXT_STYLES)
    def test_powers_of_ten_and_the_int64_edges(self, quote, sep):
        below_2_32 = [v for v in _DECIMAL_EDGES if v < 2**32]
        for values in (_DECIMAL_EDGES, below_2_32, *([v] for v in _DECIMAL_EDGES)):
            for array in _arrays(values):
                got = _decimal_text(array, quote, sep)
                assert got == _joined(values, quote, sep), (values, array.dtype)

    @pytest.mark.parametrize("quote, sep", _TEXT_STYLES)
    def test_strided_values_and_unsorted_ones_take_the_list_route(self, capsys, quote, sep):
        # repeated values, and digit counts that one run spans or skips
        values = sorted([*_DECIMAL_EDGES[::-1], *_DECIMAL_EDGES[::3], 5, 50, 5, 5000000])
        array = np.array(values, dtype=np.int64)
        assert _decimal_text(array, quote, sep) == _joined(values, quote, sep)
        assert _decimal_text(array[::2], quote, sep) == _joined(values[::2], quote, sep)
        # the run bounds are searched in the values, so _write_ints hands only
        # ascending ones to _decimal_text and writes the others as a list
        _write_ints(np.array([5, 50, 5], dtype=np.int64), quote, sep)
        assert capsys.readouterr().out == _joined([5, 50, 5], quote, sep)

    @pytest.mark.parametrize("quote, sep", _TEXT_STYLES)
    def test_empty(self, quote, sep):
        assert _decimal_text(np.array([], dtype=np.int64), quote, sep) == ""

    def test_digit_tables(self):
        powers_of_ten, quads = cli_module._digit_tables()
        assert powers_of_ten.tolist() == [10**j for j in range(1, 19)]
        assert quads.tobytes() == b"".join(b"%04d" % i for i in range(10000))

    def test_negative_values_take_the_list_route(self, capsys):
        for values in ([3, -1], [-1, 3]):
            _write_ints(np.array(values, dtype=np.int64), "", " ")
            assert capsys.readouterr().out == _joined(values, "", " ")

    @given(
        st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 10**5), max_size=80),
        st.sampled_from(_TEXT_STYLES),
    )
    @settings(max_examples=300)
    def test_matches_str_join(self, values, style):
        quote, sep = style
        values.sort()
        for array in _arrays(values):
            assert _decimal_text(array, quote, sep) == _joined(values, quote, sep), array.dtype


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")
class TestDigitsPastTheLimit:
    """_digits past the int-to-str digit limit, where it splits through decimal,
    against str with the limit lifted."""

    @staticmethod
    def _check(n):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = cli_module._digits(n)
            assert sys.get_int_max_str_digits() == 640
            sys.set_int_max_str_digits(0)
            assert got == str(n)
        finally:
            sys.set_int_max_str_digits(saved)

    @given(st.integers(1, 2 * 10**5), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_str(self, bits, rng, negative):
        n = rng.getrandbits(bits)
        self._check(-n if negative else n)

    def test_powers_of_ten_and_two(self):
        for n in (10**5000 - 1, 10**5000, 2**20000, -(10**5000 + 1)):
            self._check(n)

    def test_a_million_bits(self):
        self._check(random.Random(38).getrandbits(10**6) | 1 << (10**6 - 1))


class TestStreamedOutput:
    @pytest.mark.parametrize("n", [1, 2, 5, 24, 127, 128, 129, 9999991, *_seeded_wheel_moduli()])
    def test_units_matches_the_whole_list_output(self, capsys, n):
        for k in (1, 2, 12, 720):
            for oracle, as_json in product((False, True), repeat=2):
                argv = ["units", "--n", str(n), "--k", str(k)]
                argv += ["--oracle"] * oracle + ["--json"] * as_json
                code, out, err = run(capsys, *argv)
                assert (code, err) == (0, ""), argv
                assert out == _units_reference(n, k, oracle, as_json), argv

    # n = 1, 2, primes and multiples of 30030 are in the test above
    @pytest.mark.parametrize(
        "n, k",
        [
            (100003, 100002),  # every unit of a prime, from 1 digit to 6
            (9999990, 720),  # the largest in bulk_output: 1866240 residues
            (30030 * 33301, 2),  # above 10^9: residues from 1 digit to 10
        ],
    )
    def test_units_text_grid(self, capsys, n, k):
        bound = ["--bound", str(n)] * (n > 10**7)
        for oracle, as_json in product((False, True), repeat=2):
            argv = ["units", "--n", str(n), "--k", str(k), *bound]
            argv += ["--oracle"] * oracle + ["--json"] * as_json
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == _units_reference(n, k, oracle, as_json), argv

    def test_units_writes_int64_residues_without_python_ints(self, capsys, monkeypatch):
        real = cli_module._k_units
        monkeypatch.setattr(
            cli_module, "_k_units", lambda n, k, bound: real(n, k, bound).view(_NoPythonInts)
        )
        n, k = 30030 * 7, 60
        for as_json in (False, True):
            argv = ["units", "--n", str(n), "--k", str(k), "--oracle"] + ["--json"] * as_json
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == _units_reference(n, k, True, as_json), argv

    @pytest.mark.parametrize(
        "k",
        [1, 2, 3, 10, 12, 24, 252, 720, 5040, 720720]
        + [2**60, 2**61, 2**64 + 12, 2**92, 2**93, 2**100],
    )
    def test_solve_matches_the_whole_list_output(self, capsys, k):
        # perfbench's SOLVABLE_KS, two highly composite k, both sides of 2^63, the
        # prime 2^64 + 13 in n_max and solutions past 2^63 that are products of two
        # others past it (2^93, 2^100), at every limit that moves a boundary
        sol = kunits.solve_rdu_one(k)
        cap = kunits.SOLUTION_CAP
        everything = smallest_divisors(sol.n_max_factorization(), min(sol.count, cap))
        below = sum(d < 2**63 for d in everything)
        limits = (None, 0, 1, 5, 7, below, sol.count - 1, sol.count, sol.count + 1, 10**6)
        for limit in dict.fromkeys(limits):
            argv = ["solve", "--k", str(k), "--enumerate"] + ["--limit", str(limit)] * (
                limit is not None
            )
            if sol.count > cap and (limit is None or limit > cap):
                for extra in ([], ["--json"]):
                    assert run(capsys, *argv, *extra)[:2] == (3, ""), argv
                continue
            for as_json in (False, True):
                expected = _solve_reference(capsys, k, limit, as_json, everything[:limit])
                code, out, err = run(capsys, *argv, *["--json"] * as_json)
                assert (code, err) == (0, ""), argv
                assert out == expected, (argv, as_json)

    @pytest.mark.parametrize("k", [720, 2**61])
    def test_solve_writes_the_int64_part_without_python_ints(self, capsys, monkeypatch, k):
        real = cli_module._solutions

        def no_python_ints(sol, limit):
            low, high = real(sol, limit)
            return low.view(_NoPythonInts), high

        monkeypatch.setattr(cli_module, "_solutions", no_python_ints)
        for as_json in (False, True):
            argv = ["solve", "--k", str(k), "--enumerate"] + ["--json"] * as_json
            expected = _solve_reference(capsys, k, None, as_json)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out == expected, argv

    def test_oracle_mismatch_still_writes_the_residues(self, capsys, monkeypatch):
        real = cli_module.k_unit_stats

        def lying_stats(n, k, **kw):
            stats = real(n, k, **kw)
            object.__setattr__(stats, "du", stats.du + 1)
            return stats

        monkeypatch.setattr(cli_module, "k_unit_stats", lying_stats)
        code, obj, err = run_json(capsys, "units", "--n", "24", "--k", "2", "--oracle")
        assert code == 1
        assert err == "oracle mismatch: closed form expects 9 k-units, enumeration found 8\n"
        assert obj["result"]["residues"] == ["1", "5", "7", "11", "13", "17", "19", "23"]
        assert obj["result"]["oracle"] == {"expected_count": "9", "matched": False}

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["units", "--n", "10000001", "--k", "2"], 3),
            (["units", "--n", "4000000000", "--k", "2", "--bound", "5000000000"], 3),
            (["units", "--n", "10000001", "--k", "2", "--json", "--oracle"], 3),
            (["solve", "--k", "30030", "--enumerate"], 3),
            (["solve", "--k", "30030", "--enumerate", "--json"], 3),
            (["units", "--n", "0", "--k", "2"], 2),
            (["units", "--n", "5", "--k", "0", "--json"], 2),
            (["units", "--n", "5", "--k", "2", "--csv"], 2),
            (["solve", "--k", "2", "--limit", "3"], 2),
            (["solve", "--k", "2", "--enumerate", "--limit", "-1", "--json"], 2),
        ],
    )
    def test_refusals_write_nothing(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        if "--csv" in argv:  # argparse's refusal: its usage, then this line
            assert err.splitlines()[-1] == "kunits: error: unrecognized arguments: --csv"
        else:
            assert err.startswith("capability error: " if code == 3 else "error: ")

    @pytest.mark.parametrize(
        "argv, limit_mb",
        [
            # the whole-list output peaked at 225 MB and 47 MB
            (["units", "--n", "9999990", "--k", "720", "--json", "--oracle"], 40),
            (["solve", "--k", "720", "--enumerate", "--json"], 30),
        ],
    )
    def test_peak_memory_is_bounded(self, tmp_path, argv, limit_mb):
        # stdout goes to a file so that the written text is not counted;
        # numpy reports its buffers to tracemalloc
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        values = obj["result"].get("residues", obj["result"].get("solutions"))
        assert obj["result"]["count"] == str(len(values))
        assert peak < limit_mb * 2**20


    def test_solve_720_peak_memory(self):
        # the solutions below 2^63 are held as int64, and only the 1647 above
        # as Python ints: 5.3 MB traced, against 16.6 MB for one int and one
        # str per solution
        with open(os.devnull, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                code = main(["solve", "--k", "720", "--enumerate", "--json"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20


# The CLI contract fuzzer: edge numbers of every command, plain, --json and --csv.
_PSI12, _PSI13 = kunits.arith._MR_PSI[11:]
_CHERNICK = 15576893431219669577615842353855121  # (6m + 1)(12m + 1)(18m + 1), 38- and 39-bit primes
_PAST_LIMIT = "9" * 4301  # past the int-to-str digit limit as a literal
_UNREAD = ["abc", "1_0", _PAST_LIMIT]  # text that no integer slot reads
_NUMBERS = [
    *map(str, [0, 1, 2, 3, -1, 561, 3037000499, 3037000500, 2**63 - 1, 2**63 + 1]),
    *map(str, [2**64 - 1, 2**64 + 1, _PSI12, _PSI13, _PSI13 + 1, _CHERNICK, 2**200]),
    *_UNREAD,
]
_KS = [*map(str, [0, 1, 2, 3, -1, 252, 720720, 3037000500, 2**64, 2**200, 2**4000]), *_UNREAD]
_LIMITS = ["0", "5", "1000", "-1", "3037000499", *_UNREAD]
_BOUNDS = ["-1", "0", "1", "2", "1000", str(2**200), "1_0", _PAST_LIMIT]
_RULES = [
    *("const:2", "const:0", "n", "n-1", "n+1", "n-0", "2*n+1", "0*n+1", "poly:1,0,1", "poly:-5,1"),
    "bogus",
    "const:" + _PAST_LIMIT,
    "poly:0,1" + "0" * 4299,  # an exponent of 4301 digits at n = 16
    "1" + "0" * 4299 + "*n+0",
]
_PREDICATES = ["carmichael", "knodel:1", "knodel:2", "gen-carmichael:1", "rdu-one:720", "rdu-one:3"]
_PREDICATES += ["knodel:x", "prime", "knodel:" + _PAST_LIMIT]
_BFILES = {
    "empty.txt": b"",
    "carmichael.txt": b"# A002997\n\n1 561\n2 1105\n3 1729\n",
    "unsorted.txt": b"1 1105\n2 561\n",
    "duplicated.txt": b"1 561\n2 561\n",
    "negative.txt": b"1 -5\n",
    "not-utf8.txt": b"1 561\n\xff\xfe\n",
    "above-range.txt": b"1 2000000000\n",
    "huge.txt": b"1 %d\n" % 2**200,
    "malformed.txt": b"1 abc\n",
    "past-limit.txt": f"1 561\n2 {_PAST_LIMIT}\n".encode(),
    "underscore.txt": b"1 5_61\n",
}
# Wrong constructions of the units residues, as units --oracle reports them.
_RESIDUES = [None, (-23, 1, 5, 7, 11, 13, 17, 19), (1, 7, 5, 11), (1, 5, 7, 11, 13, 17, 19, 25), ()]


@st.composite
def _argvs(draw):
    def pick(values):
        return draw(st.sampled_from(values))

    def flag(*args):  # the args, or nothing
        return list(args) * draw(st.booleans())

    command = pick(["stats", "units", "solve", "classify", "sweep", "oeis-check"])
    if command == "stats":
        argv = ["stats", "--n", pick(_NUMBERS), "--k", pick(_KS)]
    elif command == "units":
        argv = ["units", "--n", pick(_NUMBERS), "--k", pick(_KS), *flag("--oracle")]
    elif command == "solve":
        argv = ["solve", "--k", pick(_KS), *flag("--enumerate"), *flag("--limit", pick(_LIMITS))]
    elif command == "classify":
        argv = ["classify", "--n", pick(_NUMBERS), *flag("--liars")]
        argv += [arg for i in draw(st.lists(st.sampled_from(_KS), max_size=2)) for arg in ("--knodel", i)]
        argv += flag("--gen-carmichael", pick(_KS))
    elif command == "sweep":
        lo = pick(_NUMBERS)
        hi = pick(_NUMBERS) if lo in _UNREAD or draw(st.booleans()) else str(int(lo) + pick([0, 1, 100, 5000]))
        if draw(st.integers(0, 3)) == 0:  # 10**9 n from 2**62, where every n may need rho
            lo, hi = str(2**62), str(2**62 + 10**9 - 1)
        argv = ["sweep", "--from", lo, "--to", hi, "--rule", pick(_RULES)]
        argv += flag("--composite-only") + flag("--odd-only")
    else:
        argv = ["oeis-check", "<bfiles>/" + pick([*_BFILES, "missing.txt", ""]), "--predicate"]
        argv += [pick(_PREDICATES), *flag("--limit", pick(_LIMITS))]
    if command != "oeis-check":  # it factors nothing, so it takes no --bound
        argv += flag("--bound", pick(_BOUNDS))
    return argv + pick([[], ["--json"], ["--csv"]])


@pytest.fixture(scope="module")
def bfiles(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bfiles")
    for name, data in _BFILES.items():
        (folder / name).write_bytes(data)
    return folder


class TestContractFuzzer:
    """Every run of main ends with an exit code of the contract and no traceback,
    writes nothing to stdout on a refusal, writes canonical JSON with --json and
    leaves the process's int-to-str digit limit as it was."""

    @given(argv=_argvs(), residues=st.sampled_from(_RESIDUES))
    @example(argv=["sweep", "--from", "16", "--to", "16", "--rule", _RULES[-2], "--csv"], residues=None)
    @example(argv=["sweep", "--from", "16", "--to", "16", "--rule", _RULES[-1], "--csv"], residues=None)
    @example(argv=["units", "--n", "24", "--k", "2", "--oracle"], residues=_RESIDUES[1])
    # No shrink phase: a draw that hangs costs 5 s a run, and shrinking one ran for a minute
    # before it reported; without it the failing argv shows after two runs.
    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.explicit, Phase.generate),
    )
    def test_every_run_keeps_the_contract(self, bfiles, argv, residues):
        argv = [arg.replace("<bfiles>", str(bfiles)) for arg in argv]
        real = cli_module._k_units

        def construction(n, k, bound):
            # the real refusals first, then the wrong residues
            units = real(n, k, bound)
            return units if residues is None else np.array(residues, dtype=np.int64)

        out, err = io.StringIO(), io.StringIO()
        digits = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = digits()
        try:
            with (
                mock.patch.object(kunits.arith, "_WORK_CAP", 1 << 12),
                mock.patch.object(cli_module, "_k_units", construction),
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
                deadline(5),
            ):
                code = main(argv)
        except _Hang as exc:
            # raised afresh, naming argv: the alarm may land on a frame without a
            # line number, whose traceback pytest cannot render
            raise _Hang(f"{exc}: {argv}") from None
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert digits() == before
        text = out.getvalue()
        if code in (2, 3):
            assert text == "", argv
            assert len(err.getvalue().encode()) < 1024, argv
        elif "--json" in argv:
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", argv


# The library contract fuzzer: every callable of kunits.__all__, fed integers of 0 to 300 bits
# of either sign, their numpy twins, bools, floats, Fractions and Factorizations.
_SMALL = st.integers(1, 600)  # where the oracles reach
_WIDE = st.integers(1, 300).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
# Each kind by its weight in this list: five draws in seven an int or a Factorization >= 1, so
# that most calls of two integers get two.
_KINDS = [_SMALL, _SMALL, _WIDE, _WIDE, _SMALL.map(kunits.factorize)]
_KINDS += [st.integers(-3, 0) | _WIDE.map(lambda v: -v)]
_KINDS += [st.booleans() | st.floats() | st.fractions()]
_VALUE = st.sampled_from(_KINDS).flatmap(lambda kind: kind)
# The bound of enumerate_k_units and the limit of the solutions, as ints at most 10**4: the
# caller's bound is the memory an answer may take, and below it none holds more values.
_CAPPED = st.one_of(st.integers(-3, 10**4), st.booleans(), st.floats(), st.fractions())
# lo with a hi of a few hundred n on from it, so that a range is sieved within the deadline
_RANGE = _VALUE.flatmap(
    lambda lo: st.tuples(
        st.just(lo), st.integers(-2, 300).map(lambda d: lo + d) if type(lo) is int else _VALUE
    )
)
_FLAGS = {name: st.booleans() for name in ("composite_only", "odd_only", "squarefree_only")}
_BOUND_ARG = {"bound": _VALUE}


def _args(*args, optional=None, **kwargs):
    """A draw of positional args and keyword args, the optional ones present or not."""
    return st.tuples(st.tuples(*args), st.fixed_dictionaries(kwargs, optional=optional or {}))


def _ranged(*more, optional=None):
    return _RANGE.flatmap(lambda r: _args(st.just(r[0]), st.just(r[1]), *more, optional=optional))


_LIBRARY_CALLS = {
    "Factorization": _args(_VALUE, st.lists(st.tuples(_VALUE, _VALUE), max_size=3)),
    "is_prime": _args(_VALUE, optional=_BOUND_ARG),
    "factorize": _args(_VALUE, optional=_BOUND_ARG),
    "divisors": _args(_VALUE),
    "CyclicDecomposition": _args(st.lists(_VALUE, max_size=3)),
    "unit_group_structure": _args(_VALUE),
    "euler_phi": _args(_VALUE),
    "carmichael_lambda": _args(_VALUE),
    "lambda_range": _ranged(optional={**_BOUND_ARG, "odd_only": st.booleans()}),
    "du_k_product": _args(
        _VALUE, st.lists(st.integers(1, 40), max_size=3).map(kunits.CyclicDecomposition)
    ),
    "k_unit_stats": _args(_VALUE, _VALUE),
    "enumerate_k_units": _args(_VALUE, _VALUE, bound=_CAPPED),
    "solve_rdu_one": _args(_VALUE, optional=_BOUND_ARG),
    "enumerate_rdu_one_solutions": _args(_VALUE, st.none() | _CAPPED, optional=_BOUND_ARG),
    "is_rdu_one": _args(_VALUE, _VALUE),
    "check_korselt_general": _args(_VALUE, _VALUE),
    "count_fermat_liars": _args(_VALUE),
    "korselt_failure": _args(_VALUE),
    "is_carmichael": _args(_VALUE),
    "is_knodel": _args(_VALUE, _VALUE),
    "is_generalized_carmichael": _args(_VALUE, _VALUE, optional=_BOUND_ARG),
    "classify": _args(
        _VALUE,
        liars=st.booleans(),
        knodel_indices=st.lists(_VALUE, max_size=2).map(tuple),
        gen_carmichael_ks=st.lists(_VALUE, max_size=2).map(tuple),
    ),
    "parse_rule": _args(
        st.text(max_size=8) | _VALUE.map(lambda v: f"const:{v}") | _VALUE.map(lambda v: f"{v}*n+1")
    ),
    "sweep": _ranged(
        st.sampled_from(["n-1", "n+2", "const:12", "2*n+1", "poly:-5,0,1"]).map(kunits.parse_rule),
        optional={**_FLAGS, **_BOUND_ARG},
    ),
    "compare_bfile": _args(
        st.just(kunits.BFile.parse_text("1 561\n2 1105\n3 1729\n")),
        st.frozensets(st.integers(-3, 2000)),
        st.none() | _VALUE,
    ),
}
# The records and errors hold what they are given, and check nothing: built from values.
_RECORD_FIELDS = {
    "KUnitStats": 5,
    "RduOneSolution": 8,
    "ClassificationReport": 8,
    "SweepResult": 2,
    "LambdaSegment": 4,
    "ComparisonReport": 4,
    "BFile": 2,
    "ExponentRule": 2,
    "BFileParseError": 2,
    "DomainError": 1,
    "CapabilityError": 1,
}
_LIBRARY_CALLS.update({name: _args(*[_VALUE] * size) for name, size in _RECORD_FIELDS.items()})
# Each function is drawn four times as often as each record or range: a range past 2**64 builds
# its tables of the primes below 2**24 in about 0.1 s.
_RANGES = ["lambda_range", "sweep"]
_FUNCTIONS = sorted(set(_LIBRARY_CALLS) - set(_RECORD_FIELDS) - set(_RANGES))
_NAMES = st.sampled_from(_FUNCTIONS * 4 + _RANGES + sorted(_RECORD_FIELDS))
# The calls that take text, or hold any value: every other call refuses a float, Fraction or str.
_NOT_INTEGERS = {"parse_rule", *_RECORD_FIELDS}


def _twin(value):
    """The numpy integer equal to an int that fits one, looking into tuples and lists."""
    if type(value) is int:
        if -(1 << 63) <= value < 1 << 64:
            return np.int64(value) if value < 1 << 63 else np.uint64(value)
    elif type(value) in (tuple, list):
        return type(value)(map(_twin, value))
    elif type(value) is dict:
        return {key: _twin(v) for key, v in value.items()}
    return value


def _ints_only(value):
    """Whether every integer in value, a result of the library, is a Python int (or a bool
    verdict), looking into tuples, lists and the fields of its dataclasses."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return all(map(_ints_only, value))
    if isinstance(value, Fraction):
        return _ints_only((value.numerator, value.denominator))
    return type(value) in (int, bool) or not isinstance(value, (int, np.integer))


def _non_integers(value):
    """Whether value holds a float, a Fraction or a str, looking into tuples and lists."""
    if isinstance(value, (tuple, list)):
        return any(map(_non_integers, value))
    return isinstance(value, (float, Fraction, str))


def _library_outcome(name, args, kwargs):
    """What kunits.<name>(*args, **kwargs) gives at a work cap of 2**12: its result, with a
    range's segments as lists, or the type of its DomainError or CapabilityError."""
    try:
        with mock.patch.object(kunits.arith, "_WORK_CAP", 1 << 12), deadline(5):
            result = getattr(kunits, name)(*args, **kwargs)
            if name == "lambda_range":
                result = [tuple(array.tolist() for array in segment) for segment in result]
    except (kunits.DomainError, kunits.CapabilityError) as exc:
        return type(exc)
    except _Hang as exc:
        raise _Hang(f"{exc}: {name}{args}{kwargs}") from None
    if isinstance(result, BaseException):  # a built error, equal to another by its args
        return type(result), result.args
    return result


@functools.cache
def _composite(n):
    return sum(brute_factor_map(n).values()) > 1


def _agrees_with_the_oracles(name, args, kwargs, result):
    """Whether an answer agrees with tests/oracles.py, where the oracles reach: n <= 600."""
    n = args[0].n if args and isinstance(args[0], kunits.Factorization) else args[0] if args else None
    if type(n) is not int or not 1 <= n <= 600 or name in _RECORD_FIELDS or name == "parse_rule":
        return True
    k = args[1] if len(args) > 1 and type(args[1]) is int and args[1] >= 1 else None
    if name in ("factorize", "Factorization"):
        return result.factors == tuple(sorted(brute_factor_map(n).items()))
    if name == "is_prime":
        return result == brute_is_prime(n)
    if name == "divisors":
        return result == brute_divisors(n)
    if name == "unit_group_structure":
        return (result.group_order, lcm(*result.orders)) == (brute_phi(n), _unit_exponent(n))
    if name == "euler_phi":
        return result == brute_phi(n)
    if name == "carmichael_lambda":
        return result == _unit_exponent(n)
    if name in ("k_unit_stats", "enumerate_k_units") and k:
        units = brute_k_units_by_order(n, (k,))[0]
        return result.du == len(units) if name == "k_unit_stats" else result == units
    if name in ("is_rdu_one", "check_korselt_general") and k:
        return result == brute_rdu_is_one(n, k)
    if name == "count_fermat_liars":
        return result == brute_liar_count(n)
    if name in ("korselt_failure", "is_carmichael"):
        return (result is None if name == "korselt_failure" else result) == brute_korselt(n)
    if name == "is_knodel" and k:
        return result == (n > k and _composite(n) and brute_rdu_is_one(n, n - k))
    if name == "is_generalized_carmichael" and type(args[1]) is int:
        return result == brute_gen_carmichael(n, args[1])
    if name == "classify":
        knodel = [
            (i, n > i and _composite(n) and brute_rdu_is_one(n, n - i)) for i, _ in result.knodel_for
        ]
        gen = [(k, brute_gen_carmichael(n, k)) for k, _ in result.gen_carmichael_for]
        return (result.carmichael, list(result.knodel_for), list(result.gen_carmichael_for)) == (
            brute_korselt(n), knodel, gen
        )
    if name == "solve_rdu_one":
        return all((result.n_max % m == 0) == brute_rdu_is_one(m, n) for m in range(1, 61))
    if name == "enumerate_rdu_one_solutions":
        return result == sorted(result) and all(brute_rdu_is_one(s, n) for s in result if s <= 600)
    if name == "lambda_range":
        return all(lam == _unit_exponent(m) for s in result for m, lam in zip(s[0], s[1]) if m <= 200)
    if name == "sweep":
        rule = args[2]
        return all(brute_rdu_is_one(h, rule(h)) for h in result.hits if h <= 600)
    if name == "du_k_product":
        return result == brute_cyclic_product_k_units(args[1].orders, n)
    return True


_unit_exponent = functools.cache(brute_unit_exponent)


class TestLibraryContractFuzzer:
    """Every call of the library answers, or refuses with DomainError or CapabilityError, within
    5 s; refuses a non-integer for an integer parameter; answers in Python ints; gives an int and
    its numpy twin the same outcome; and agrees with the oracles where they reach."""

    def test_every_callable_is_drawn(self):
        callables = {name for name in kunits.__all__ if callable(getattr(kunits, name))}
        assert set(_LIBRARY_CALLS) == callables

    @given(call=_NAMES.flatmap(lambda name: st.tuples(st.just(name), _LIBRARY_CALLS[name])))
    @example(call=("factorize", ((2.5,), {})))
    @example(call=("is_prime", ((2.0,), {})))
    @example(call=("carmichael_lambda", ((561,), {})))
    @example(call=("factorize", ((10**30 + 57,), {"bound": -1})))
    # No shrink phase, as in the CLI fuzzer: a draw that hangs costs 5 s a run.
    @settings(
        max_examples=1000,
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.explicit, Phase.generate),
    )
    def test_every_call_keeps_the_contract(self, call):
        name, (args, kwargs) = call
        outcome = _library_outcome(name, args, kwargs)
        refused = outcome in (kunits.DomainError, kunits.CapabilityError)
        if name not in _NOT_INTEGERS and _non_integers((args, kwargs)):
            # refused by the gate; the limit of the solutions is read once they are solved, so
            # there a CapabilityError of the solver may come first
            expected = {kunits.DomainError}
            if name == "enumerate_rdu_one_solutions":
                expected.add(kunits.CapabilityError)
            assert outcome in expected, (name, args, kwargs, outcome)
        assert refused or _ints_only(outcome), (name, args, kwargs, outcome)
        assert _library_outcome(name, _twin(args), _twin(kwargs)) == outcome, (name, args, kwargs)
        assert refused or _agrees_with_the_oracles(name, args, kwargs, outcome), (name, args, kwargs)

    # The probes of the library at its edges: numpy integers, which lambda_range hands out, at each
    # function they broke, and non-integers and a bound below 1, which some answered.
    ANSWERED = {
        "factorize": lambda: kunits.factorize(np.int64(91)),
        "factorize_big": lambda: kunits.factorize(np.uint64(2**63 + 29)),  # a prime past 2**32
        "is_prime_big": lambda: kunits.is_prime(np.uint64(2**63 + 29)),
        "solve_rdu_one_big": lambda: kunits.solve_rdu_one(np.uint64(2 * (2**61 - 1))),
        "k_unit_stats": lambda: kunits.k_unit_stats(np.int64(561), np.int32(12)),
        "carmichael_lambda": lambda: kunits.carmichael_lambda(np.int64(561)),
        "is_carmichael": lambda: kunits.is_carmichael(np.int64(561)),
        "korselt_failure": lambda: kunits.korselt_failure(np.int16(15)),
        "is_rdu_one": lambda: kunits.is_rdu_one(np.int64(561), np.int64(80)),
        "classify": lambda: kunits.classify(np.int64(561), knodel_indices=(np.int8(2),)),
        "divisors": lambda: kunits.divisors(np.int64(720)),
        "enumerate_k_units": lambda: kunits.enumerate_k_units(np.int64(15), np.int64(2)),
        "by_hand": lambda: kunits.Factorization(
            np.int64(12), ((np.int64(2), np.int64(2)), (np.uint8(3), 1))
        ),
        "bools": lambda: kunits.k_unit_stats(True, True),
    }
    REFUSED = {
        "factorize_float": lambda: kunits.factorize(2.5),
        "factorize_fraction": lambda: kunits.factorize(Fraction(7, 2)),
        "factorize_str": lambda: kunits.factorize("91"),
        "is_prime_float": lambda: kunits.is_prime(2.0),
        "negative_bound": lambda: kunits.factorize(10**30 + 57, bound=-1),
        "k_unit_stats_float_k": lambda: kunits.k_unit_stats(12, 2.0),
        "solve_rdu_one_float": lambda: kunits.solve_rdu_one(24.0),
        "is_knodel_float_i": lambda: kunits.is_knodel(561, 1.0),
        "gen_carmichael_fraction_k": lambda: kunits.is_generalized_carmichael(561, Fraction(1)),
        "limit_float": lambda: kunits.enumerate_rdu_one_solutions(12, 2.0),
        "lambda_range_float": lambda: kunits.lambda_range(1, 10.0),
        "factor_exponent_float": lambda: kunits.Factorization(12, ((2, 2.0), (3, 1))),
    }

    @pytest.mark.parametrize("call", ANSWERED.values(), ids=ANSWERED.keys())
    def test_a_numpy_integer_is_answered_in_python_ints(self, call):
        assert _ints_only(call())

    @pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
    def test_a_non_integer_or_a_bound_below_1_is_refused(self, call):
        with pytest.raises(kunits.DomainError, match="bound must be >= 1|cannot be interpreted"):
            call()

    def test_results_hold_python_ints(self):
        f = kunits.factorize(np.int64(720720))
        assert _ints_only(f) and f == kunits.factorize(720720)
        assert _ints_only(kunits.k_unit_stats(f, np.int64(12)))
        assert _ints_only(kunits.solve_rdu_one(np.int64(720)))
        assert _ints_only(kunits.divisors(f))
        assert _ints_only(kunits.unit_group_structure(np.int64(720720)))
        assert not _ints_only((1, np.int64(1)))  # the check itself sees a numpy integer


# Answered calls that build the tables of first use (the primes, p - 1's and ECM's plans, the
# sieve's primes below 2**24), for the two threads to race on.
_SERIAL_CALLS = [
    (kunits.factorize, (1000000007 * 998244353 * 1000003,)),
    (kunits.factorize, (2**64 + 13,)),
    (kunits.is_prime, (2**61 - 1,)),
    (kunits.k_unit_stats, (720720, 12)),
    (kunits.classify, (561,), {"liars": True, "knodel_indices": (1, 2)}),
    (kunits.solve_rdu_one, (720720,)),
    (kunits.enumerate_rdu_one_solutions, (252,), {"limit": 100}),
    (kunits.enumerate_k_units, (1000000, 12)),
    (kunits.is_rdu_one, (561, 80)),
    (kunits.sweep, (3, 3000, kunits.parse_rule("n-1")), {"odd_only": True}),
    (lambda lo, hi: [s.lam.tolist() for s in kunits.lambda_range(lo, hi)], (2**40, 2**40 + 500)),
]


def test_two_threads_give_the_serial_results():
    # the north star's "safe to call concurrently": with every table of first use dropped, two
    # threads run the calls at once, and each answer is the serial one
    def run_one(call):
        function, args, *kwargs = call
        return function(*args, **(kwargs[0] if kwargs else {}))

    def drop_tables():
        for module in (kunits.arith, kunits.unitgroup):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    serial = [run_one(call) for call in _SERIAL_CALLS]
    for _ in range(2):
        drop_tables()
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_one, call) for call in _SERIAL_CALLS * 2]
            threaded = [future.result(timeout=60) for future in futures]
        assert threaded == serial * 2
