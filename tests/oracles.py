"""Brute-force reference implementations the library is tested against.

Everything here is deliberately naive: trial division, residue scans,
iterated multiplication.  The expected values frozen into the tests were
computed with these, never with the closed forms under test.
"""

from math import gcd, lcm


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
