"""Brute-force reference implementations the library is tested against.

Everything here is deliberately naive: trial division, residue scans,
iterated multiplication.  The expected values frozen into the tests were
computed with these, never with the closed forms under test.
"""

from collections import Counter
from functools import lru_cache
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
