"""Brute-force reference implementations the library is tested against.

Everything here is deliberately naive: trial division, residue scans,
iterated multiplication.  The expected values frozen into the tests were
computed with these, never with the closed forms under test.
"""

import random
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_factor_map(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def smallest_divisors(f, stop: int | None = None) -> list[int]:
    """The ``stop`` smallest divisors of the Factorization f ascending (all
    when stop is None), in Python ints.

    Prime power by prime power: the divisors so far, d ascending, give the
    ascending runs of d*p, ..., of d*p^e; ``list.sort`` merges these sorted
    runs (Timsort), and the list is cut to ``stop``.  A divisor past the cut
    only has larger multiples, so the cut loses none of the smallest; and
    once the list holds ``stop`` values, each run is cut at out[-1] // p, as
    a larger product cannot be among the stop smallest either.
    """
    out = [1][:stop]
    for p, e in f.factors:
        top = out[-1] if 0 < len(out) == stop else None
        run = out
        for _ in range(e):
            if top is not None:
                run = run[: bisect_right(run, top // p)]
            run = [d * p for d in run]
            out += run
        out.sort()
        if stop is not None:
            del out[stop:]
    return out


def brute_pow_mod(a: int, e: int, n: int) -> int:
    x = 1 % n
    for _ in range(e):
        x = x * a % n
    return x


def brute_k_units(n: int, k: int) -> list[int]:
    """k-units modulo n by iterated multiplication (no builtin pow)."""
    if n == 1:
        return [0]
    out = []
    for a in range(1, n):
        if gcd(a, n) != 1:
            continue
        x = 1
        for _ in range(k):
            x = x * a % n
        if x == 1:
            out.append(a)
    return out


_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)


def scan_k_units(n: int, k: int, chunk: int = 1 << 16) -> list[int]:
    """k-units modulo n by a vectorized residue scan: a^k mod n for a in
    [0, n), about ``chunk`` residues at a time, with no factorization.

    Residues sharing a wheel prime with n are skipped (they are not
    units, so a^k != 1); the rest are the spokes coprime to the wheel w,
    tiled by multiples of w, which divides n.  a^k is taken left to right
    over the bits of k; 0, scanned when w = 1, gives 0, which is 1 mod n
    only for n = 1.  int64 holds every product below n^2, so n must have
    (n - 1)^2 < 2^63.
    """
    assert n >= 1 and k >= 1 and (n - 1) ** 2 < 1 << 63
    wheel = [p for p in _WHEEL_PRIMES if n % p == 0]
    w = prod(wheel)
    spokes = np.arange(w, dtype=np.int64)
    for p in wheel:
        spokes = spokes[spokes % p != 0]
    turns = min(max(1, chunk // len(spokes)), n // w)
    block = (np.arange(0, turns * w, w, dtype=np.int64)[:, None] + spokes).ravel()
    bits = bin(k)[3:]
    out: list[int] = []
    for start in range(0, n, turns * w):
        a = block[: (n - start) // w * len(spokes)] + start
        acc = a.copy()
        for bit in bits:
            acc *= acc
            acc %= n
            if bit == "1":
                acc *= a
                acc %= n
        out += a[acc == 1 % n].tolist()
    return out


def brute_rdu_is_one(n: int, k: int) -> bool:
    """Every unit is a k-unit (early-exit residue scan)."""
    if n == 1:
        return True
    return all(pow(a, k, n) == 1 for a in range(1, n) if gcd(a, n) == 1)


def brute_unit_exponent(n: int) -> int:
    """lcm of the multiplicative orders of the units mod n, by iterated multiplication."""
    exponent = 1
    for a in range(1, n):
        if gcd(a, n) != 1:
            continue
        order, x = 1, a
        while x != 1:
            x = x * a % n
            order += 1
        exponent = lcm(exponent, order)
    return exponent


def brute_liar_count(n: int) -> int:
    """Units a with a^(n-1) = 1 mod n."""
    return sum(1 for a in range(1, n) if gcd(a, n) == 1 and pow(a, n - 1, n) == 1)


def brute_korselt(n: int) -> bool:
    """Korselt's criterion read off brute_factor_map: n composite and
    squarefree, and p - 1 divides n - 1 for every prime p | n."""
    factors = brute_factor_map(n)
    return (
        sum(factors.values()) > 1
        and all(e == 1 for e in factors.values())
        and all((n - 1) % (p - 1) == 0 for p in factors)
    )


def brute_gen_carmichael(n: int, k: int) -> bool:
    """Direct check of a^(n+k) = a over one full period of residues."""
    if min(n, n + k) <= 1:
        return False
    return all(pow(a, n + k, n) == a for a in range(n))


def brute_cyclic_product_k_units(orders: tuple[int, ...], k: int) -> int:
    """Count k-units of C_r1 x ... x C_rs by scanning all tuples."""
    count = 1
    for r in orders:
        count *= sum(1 for i in range(r) if (k * i) % r == 0)
    return count


def brute_unit_orders(n: int) -> dict[int, int]:
    """Each unit mod n >= 2 mapped to its multiplicative order, by iterated
    multiplication.  Walking a, a^2, ..., a^m = 1 gives ord(a) = m and, on
    the way, ord(a^j) = m / gcd(j, m) for every power on the walk."""
    order: dict[int, int] = {}
    for a in range(1, n):
        if gcd(a, n) != 1 or a in order:
            continue
        powers = [a]
        while powers[-1] != 1:
            powers.append(powers[-1] * a % n)
        m = len(powers)
        for j, x in enumerate(powers, start=1):
            order.setdefault(x, m // gcd(j, m))
    return order


def brute_k_units_by_order(n: int, ks: tuple[int, ...]) -> list[list[int]]:
    """For each k in ks, the k-units modulo n: the units whose order
    divides k (n = 1 gives [0])."""
    units = sorted(brute_unit_orders(n).items()) if n > 1 else [(0, 1)]
    return [[a for a, m in units if k % m == 0] for k in ks]


@lru_cache(maxsize=None)
def _prime_power_k_unit_counts(q: int, ks: range) -> tuple[int, ...]:
    orders = Counter(brute_unit_orders(q).values())
    return tuple(sum(c for m, c in orders.items() if k % m == 0) for k in ks)


def brute_du_crt(n: int, ks: range) -> list[int]:
    """The k-unit count mod n for each k in ks, by the CRT: the product
    over the prime powers q of brute_factor_map(n) of the units mod q
    whose order divides k."""
    tables = [_prime_power_k_unit_counts(p**e, ks) for p, e in brute_factor_map(n).items()]
    return list(map(prod, zip(*tables))) if tables else [1] * len(ks)


@lru_cache(maxsize=None)
def erdos_carmichaels(
    primes: tuple[int, ...], L: int, size: int, count: int, window: tuple[int, int], seed: int
) -> tuple[tuple[int, ...], ...]:
    """``count`` Carmichael numbers n in the open window, each as its ascending primes, by
    Erdos's construction: ``size`` of the given primes drawn at random, completed by two
    pairs of the others, looked up by their product, so that n = 1 mod L.

    Every p must have p - 1 | L and p not dividing L, checked here by trial division;
    then lambda(n) | L | n - 1.  Each n is checked by Korselt's criterion directly:
    p - 1 | n - 1 for each of its distinct primes p.
    """
    for p in primes:
        assert brute_is_prime(p) and L % (p - 1) == 0 and L % p, p
    lo, hi = window
    pairs = list(combinations(primes, 2))
    by_residue: dict[int, list[tuple[int, int]]] = {}
    for a, b in pairs:
        by_residue.setdefault(a * b % L, []).append((a, b))

    def completion(drawn: list[int]) -> tuple[int, ...] | None:
        want = pow(prod(drawn), -1, L)
        for a, b in pairs:
            for c, d in by_residue.get(want * pow(a * b, -1, L) % L, ()):
                ps = {*drawn, a, b, c, d}
                if len(ps) == size + 4 and lo < prod(ps) < hi:
                    return tuple(sorted(ps))
        return None

    rng = random.Random(seed)
    found: set[tuple[int, ...]] = set()
    while len(found) < count:
        if ps := completion(rng.sample(primes, size)):
            found.add(ps)
    anchors = tuple(sorted(found))
    for ps in anchors:
        n = prod(ps)
        assert n % L == 1 and all((n - 1) % (p - 1) == 0 for p in ps), ps
    return anchors


def korselt_least_failure(primes: tuple[int, ...]) -> int | None:
    """The least of the distinct primes, whose product is n, with p - 1 not dividing n - 1."""
    n = prod(primes)
    return next((p for p in sorted(primes) if (n - 1) % (p - 1)), None)


# The ECM curve as it stood before stage 2 was normalised: the reference that the curve of
# kunits.arith must split whatever this one splits.  Un-normalised stage 2, baby steps by one
# chain over every odd j < D / 2; it reads plan.scalar, plan.first and plan.steps of
# kunits.arith._ecm_plan(B1).
_ECM_D = 2310


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(x: int, z: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    u = (x - z) * (xq + zq)
    v = (x + z) * (xq - zq)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(m: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, a24, n)
    for bit in bin(m)[3:]:
        if bit == "1":
            x0, z0 = _xadd(x1, z1, x0, z0, x, z, n)
            x1, z1 = _xdbl(x1, z1, a24, n)
        else:
            x1, z1 = _xadd(x1, z1, x0, z0, x, z, n)
            x0, z0 = _xdbl(x0, z0, a24, n)
    return x0, z0, x1, z1


def reference_ecm_curve(n: int, sigma: int, plan) -> int:
    """gcd(n, what one curve of ECM found), stage 2 testing X_k * Z_j - X_j * Z_k per pair."""
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v
    g = gcd(den, n)
    if g > 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    x, z, _, _ = _ladder(plan.scalar, u**3 % n, v**3 % n, a24, n)
    g = gcd(z, n)
    if g > 1:
        return g
    bx, bz = [x], [z]  # j * Q for the odd j < D / 2 prime to D
    x2, z2 = _xdbl(x, z, a24, n)
    xp, zp, xj, zj = x, z, *_xadd(x2, z2, x, z, x, z, n)
    for j in range(3, _ECM_D // 2, 2):
        if gcd(j, _ECM_D) == 1:
            bx.append(xj)
            bz.append(zj)
        xp, zp, xj, zj = xj, zj, *_xadd(xj, zj, x2, z2, xp, zp, n)
    xg, zg, _, _ = _ladder(_ECM_D, x, z, a24, n)
    if plan.first:
        xa, za, xb, zb = _ladder(plan.first, xg, zg, a24, n)
    else:
        xa, za, xb, zb = 1, 0, xg, zg  # 0 * D * Q, the point at infinity (1 : 0)
    acc = 1
    for step in plan.steps:
        for i in step:
            acc = acc * (xa * bz[i] - bx[i] * za) % n
        after = _xadd(xb, zb, xg, zg, xa, za, n) if za else _xdbl(xb, zb, a24, n)
        xa, za, (xb, zb) = xb, zb, after
    return gcd(acc, n)
