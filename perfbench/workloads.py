"""The workloads: their inputs, their operations and the checks of their outputs.

Each workload builds the operations a worker runs (see runner.py) and
judges every result against oracle.py, which shares no code with kunits.
A judgement is ``ok``, ``failed`` (refused where an answer was due, or
past its deadline) or ``wrong`` (a wrong answer, a wrong exit code or an
unexpected exception).  Only ``point_queries`` draws from the seed; the
other two are fixed ranges so that their anchors hold.  README.md says
why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd, prod

import oracle

# An operation on one CLI command may take this long before it counts as failed.
COMMAND_DEADLINE_S = 60.0
QUERY_DEADLINE_S = 2.0


def _write_bfile(path: str, values: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {v}\n" for i, v in enumerate(values, start=1))


def _result(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["result"]


# Each workload's PASS_SECONDS is about the wall time of one full-size
# pass with its set-up probes, measured once on the reference machine of
# speed.py and pinned (see run.pass_count): the number of passes a run
# makes then never depends on the speed of the program under test.


class CommandWorkload:
    """Fixed CLI commands, the same in every pass.

    The worker leaves the output of each command's last run in its file.
    That file is checked in full; every run of the command must then have
    produced the same bytes.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.commands: list[dict] = []  # op plus "items" and "verify"

    def command(self, argv: list[str], out: str, items: int, verify) -> None:
        self.commands.append(
            {"argv": argv, "out": out, "deadline": COMMAND_DEADLINE_S, "items": items, "verify": verify}
        )

    def pass_ops(self, index: int) -> list[dict]:
        return [{k: c[k] for k in ("argv", "out", "deadline")} for c in self.commands]

    def tail(self) -> list[dict]:
        return []

    def items(self, op: dict) -> int:
        return next(c["items"] for c in self.commands if c["out"] == op["out"])

    def judge_all(self, ops: list[dict], results: list[list]) -> list[str]:
        verified = {}  # out file -> (sha256 of its content, content correct)
        for c in self.commands:
            path = os.path.join(self.workdir, c["out"])
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            try:
                correct = bool(c["verify"](_result(path)))
            except (OSError, ValueError, KeyError, TypeError):
                correct = False
            verified[c["out"]] = (digest, correct)
        verdicts = []
        for op, (status, _, value) in zip(ops, results):
            if status in ("deadline", "capability"):
                verdicts.append("failed")
                continue
            digest, correct = verified[op["out"]]
            ok = status == "ok" and value["rc"] == 0 and value["sha256"] == digest and correct
            verdicts.append("ok" if ok else "wrong")
        return verdicts


class RangeScan(CommandWorkload):
    """A Carmichael sweep and a Carmichael b-file check over [3, hi]."""

    PASS_SECONDS = 13.0

    def __init__(self, seed: int, workdir: str, hi: int = 10**6):
        super().__init__(workdir)
        hits = [c for c in oracle.CARMICHAEL_TO_1E6 if c <= hi]
        if hi > 10**6 or (hi == 10**6 and len(hits) != 43):
            raise ValueError("the pinned Carmichael list covers [1, 1e6] only")
        bfile = os.path.join(workdir, "carmichael.b")
        _write_bfile(bfile, hits)
        want = [str(c) for c in hits]
        self.command(
            ["sweep", "--from", "3", "--to", str(hi), "--rule", "n-1",
             "--odd-only", "--composite-only", "--json"],
            "sweep.json",
            hi - 2,
            lambda r: r["hits"] == want and r["hit_count"] == str(len(want)) and r["skipped"] == [],
        )
        self.command(
            ["oeis-check", bfile, "--predicate", "carmichael", "--limit", str(hi), "--json"],
            "oeis-carmichael.json",
            hi,
            lambda r: r["matched"] is True and r["compared"] == str(len(want))
            and r["missing"] == [] and r["extra"] == [],
        )


# Anchors of the full-size bulk_output workload, from the oracle's own derivation.
_SOLVE_720 = {"count": 344064, "n_max": 127589793288205521873600}


class BulkOutput(CommandWorkload):
    """Enumeration by brute force: k-units, rdu = 1 solutions and C_0 membership."""

    PASS_SECONDS = 9.7

    def __init__(
        self,
        seed: int,
        workdir: str,
        prime: int = 9999991,
        units_n: int = 9999990,
        units_k: int = 720,
        solve_k: int = 720,
        c0_limit: int = 10**4,
    ):
        super().__init__(workdir)
        if not oracle.is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.command(
            ["units", "--n", str(prime), "--k", "2", "--json", "--oracle"],
            "units-prime.json",
            prime - 1,
            lambda r: r["residues"] == ["1", str(prime - 1)] and r["count"] == "2"
            and r["oracle"] == {"expected_count": "2", "matched": True},
        )
        du = oracle.k_unit_count(oracle.factorint(units_n), units_k)
        self.command(
            ["units", "--n", str(units_n), "--k", str(units_k), "--json", "--oracle"],
            "units-composite.json",
            units_n - 1,
            lambda r: r["count"] == str(du)
            and r["oracle"] == {"expected_count": str(du), "matched": True}
            and _are_k_units(r["residues"], units_n, units_k, du),
        )
        n_max_fac = oracle.rdu_one_max(solve_k)
        n_max = prod(p**e for p, e in n_max_fac.items())
        count = prod(e + 1 for e in n_max_fac.values())
        if solve_k == 720 and {"count": count, "n_max": n_max} != _SOLVE_720:
            raise RuntimeError("the oracle disagrees with the k = 720 anchors")
        self.command(
            ["solve", "--k", str(solve_k), "--enumerate", "--json"],
            "solve.json",
            count,
            lambda r: r["n_max"] == str(n_max) and r["count"] == str(count)
            and r["truncated"] is False and _are_divisors(r["solutions"], n_max, count),
        )
        c0 = sorted(oracle.primes_upto(c0_limit) + [c for c in oracle.CARMICHAEL_TO_1E6 if c <= c0_limit])
        bfile = os.path.join(workdir, "c0.b")
        _write_bfile(bfile, c0)
        self.command(
            ["oeis-check", bfile, "--predicate", "gen-carmichael:0", "--limit", str(c0_limit), "--json"],
            "oeis-c0.json",
            c0_limit,
            lambda r: r["matched"] is True and r["compared"] == str(len(c0))
            and r["missing"] == [] and r["extra"] == [],
        )


def _are_k_units(residues: list[str], n: int, k: int, count: int) -> bool:
    """count distinct k-units, which are then all of them."""
    values = [int(r) for r in residues]
    return (
        len(values) == count
        and all(a < b for a, b in zip([0] + values, values + [n]))
        and all(pow(a, k, n) == 1 for a in values)
    )


def _are_divisors(solutions: list[str], n: int, count: int) -> bool:
    """count distinct divisors of n, ascending: all of its divisors."""
    values = [int(d) for d in solutions]
    return (
        len(values) == count
        and all(a < b for a, b in zip(values, values[1:]))
        and all(n % d == 0 for d in values)
    )


# The query mix of one pass, per 1000 queries.  The shares of factorize,
# is_prime and the refusals are those of the benchmark's specification;
# it names the other four kinds without a share, so they split the rest
# equally.  No measurement of real traffic backs any share: a gain that
# rests on the weighting is not a gain.  Within a kind, the j-th query
# takes its size and k from the lists below in turn, so that every pass
# has the same composition and only the drawn numbers differ.
MIX = (
    ("factorize", 150),
    ("is_prime", 200),
    ("k_unit_stats", 150),
    ("classify", 150),
    ("solve_rdu_one", 150),
    ("is_rdu_one", 150),
    ("refusal", 50),
)
BITS = (20, 40, 64)
# classify factors n six times (twice itself, twice per Knodel index), so
# one 64-bit n with a hard cofactor would weigh as much as a hundred
# other queries; its n stay below 2**40, and rho is left to the others.
CLASSIFY_BITS = (20, 40)
UNIT_KS = (2, 12, 252, 720720)
HIGHLY_COMPOSITE_KS = (2, 12, 24, 252, 720, 5040, 55440, 720720, 2**20 * 3**5 * 5**3 * 7**2 * 11)
# Chosen for the benchmark, like the HIGHLY_COMPOSITE_KS beyond the two
# the specification names: k whose n_max has only primes below 2**16,
# for n that are solutions.
SOLVABLE_KS = (2, 12, 24, 252, 720)
# c and 2c + 1 are primes just above 2**64; the solver should refuse this k.
HANG_C = 18446744073709552109


def _random_n(rng: random.Random, bits: int, odd: bool = False) -> int:
    return rng.randrange(1 << (bits - 1), 1 << bits) | odd


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = _random_n(rng, bits, odd=True)
        if oracle.is_prime(n):
            return n


class PointQueries:
    """Seeded single library calls in a closed loop with one client."""

    PASS_SECONDS = 7.0

    def __init__(self, seed: int, workdir: str, per_pass: int = 1000):
        self.seed = seed
        self.per_pass = per_pass
        self._n_max: dict[int, dict[int, int]] = {}

    def _n_max_factors(self, k: int) -> dict[int, int]:
        if k not in self._n_max:
            self._n_max[k] = oracle.rdu_one_max(k)
        return self._n_max[k]

    def pass_ops(self, index: int) -> list[dict]:
        rng = random.Random(f"point_queries/{self.seed}/{index}")
        slots = [(kind, j) for kind, share in MIX for j in range(round(share * self.per_pass / 1000))]
        rng.shuffle(slots)
        return [getattr(self, "_" + kind)(rng, j) for kind, j in slots]

    def tail(self) -> list[dict]:
        c = HANG_C
        return [self._op("solve_rdu_one", [2 * c * (2 * c + 1)], expect="capability")]

    def items(self, op: dict) -> int:
        return 1

    @staticmethod
    def _op(fn: str, args: list, kwargs: dict | None = None, expect=None) -> dict:
        return {"fn": fn, "args": args, "kwargs": kwargs or {}, "deadline": QUERY_DEADLINE_S, "expect": expect}

    def _factorize(self, rng, j):
        p, q = sorted(_random_prime(rng, 32) for _ in range(2))
        pairs = [[p, 2]] if p == q else [[p, 1], [q, 1]]
        return self._op("factorize", [p * q], expect=pairs)

    def _is_prime(self, rng, j):
        return self._op("is_prime", [_random_n(rng, 64, odd=True)])

    def _k_unit_stats(self, rng, j):
        return self._op("k_unit_stats", [_random_n(rng, BITS[j % 3]), UNIT_KS[j % 4]])

    def _classify(self, rng, j):
        n = _random_n(rng, CLASSIFY_BITS[j % 2], odd=True)
        return self._op("classify", [n], {"liars": True, "knodel_indices": [1, 2]})

    def _solve_rdu_one(self, rng, j):
        return self._op("solve_rdu_one", [HIGHLY_COMPOSITE_KS[j % len(HIGHLY_COMPOSITE_KS)]])

    def _is_rdu_one(self, rng, j):
        k = SOLVABLE_KS[j // 2 % len(SOLVABLE_KS)]
        if j % 2:
            return self._op("is_rdu_one", [_random_n(rng, BITS[j // 2 % 3]), k])
        fac = {p: rng.randint(0, e) for p, e in self._n_max_factors(k).items()}
        fac = {p: e for p, e in fac.items() if e}
        return self._op("is_rdu_one", [prod(p**e for p, e in fac.items()), k], expect=sorted(fac.items()))

    def _refusal(self, rng, j):
        kind = j % 4
        if kind == 0:
            return self._op("is_prime", [rng.randrange(1 << 64, 1 << 65)], expect="capability")
        if kind == 1:
            return self._op("enumerate_k_units", [rng.randrange(10**7 + 1, 10**8), 2], expect="capability")
        if kind == 2:
            return self._op("is_generalized_carmichael", [rng.randrange(10**7 + 1, 10**8), 0], expect="capability")
        return self._op("enumerate_rdu_one_solutions", [720720], expect="capability")

    def judge_all(self, ops: list[dict], results: list[list]) -> list[str]:
        return [self.judge(op, status, value) for op, (status, _, value) in zip(ops, results)]

    def judge(self, op: dict, status: str, value) -> str:
        if op["expect"] == "capability":
            return {"capability": "ok", "deadline": "failed"}.get(status, "wrong")
        if status in ("capability", "deadline"):
            return "failed"
        if status != "ok":
            return "wrong"
        return "ok" if getattr(self, "_check_" + op["fn"])(op, value) else "wrong"

    def _check_factorize(self, op, value):
        return value == {"n": op["args"][0], "factors": op["expect"]}

    def _check_is_prime(self, op, value):
        return value is oracle.is_prime(op["args"][0])

    def _check_k_unit_stats(self, op, value):
        n, k = op["args"]
        fac = oracle.factorint(n)
        phi = oracle.phi(fac)
        want_du = oracle.k_unit_count(fac, k)
        frac = Fraction(want_du, phi)
        return value == {"n": n, "k": k, "du": want_du, "pdu": [frac.numerator, frac.denominator], "rdu": phi // want_du}

    def _check_classify(self, op, value):
        n = op["args"][0]
        pairs = value["evidence"]["factors"]
        if value["evidence"]["n"] != n or not oracle.is_factorization_of(n, pairs):
            return False
        fac = dict(pairs)
        lam = oracle.carmichael_lambda(fac)
        composite = n > 1 and sum(fac.values()) > 1
        liars = prod(gcd(n - 1, p - 1) for p in fac) if n % 2 and n >= 3 else None
        return (
            value["n"] == n
            and value["is_composite"] == composite
            and value["fermat_liar_count"] == liars
            and value["carmichael"] == (composite and (n - 1) % lam == 0)
            and value["knodel_for"] == [[i, composite and n > i and (n - i) % lam == 0] for i in (1, 2)]
            and value["gen_carmichael_for"] == []
        )

    def _check_solve_rdu_one(self, op, value):
        k = op["args"][0]
        fac = self._n_max_factors(k)
        beta = (k & -k).bit_length() - 1
        m = k >> beta
        odd = [p for p in fac if p != 2]
        return value == {
            "k": k,
            "k_parity": "odd" if k % 2 else "even",
            "beta": beta,
            "m": m,
            "set_a": [p for p in odd if m % p],
            "set_b": [[q, fac[q]] for q in odd if m % q == 0],
            "n_max": prod(p**e for p, e in fac.items()),
            "count": prod(e + 1 for e in fac.values()),
        }

    def _check_is_rdu_one(self, op, value):
        n, k = op["args"]
        fac = dict(op["expect"]) if op["expect"] is not None else oracle.factorint(n)
        return value is (k % oracle.carmichael_lambda(fac) == 0)


WORKLOADS = {"range_scan": RangeScan, "point_queries": PointQueries, "bulk_output": BulkOutput}
