"""Reference answers that share no code with ``kunits``.

Every check in the benchmark compares the program's output with a value
computed here.  The number theory is stated through the Carmichael
function lambda(n) rather than through the cyclic decomposition the
library uses: rdu_k(n) = 1 exactly when lambda(n) divides k, so n_max(k)
is the largest n with lambda(n) | k.  Primality is a deterministic
Miller-Rabin test with a base set that differs from the library's, and
factorization is trial division by the primes below 2**16 followed by
Brent's variant of Pollard's rho, so every check holds with nothing but
the standard library.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

# Jim Sinclair's bases: a deterministic Miller-Rabin test for n < 2**64.
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# The Carmichael numbers up to 10**6.  Pinch, "The Carmichael numbers up
# to 10^21" (2007), counts C(10^6) = 43.
CARMICHAEL_TO_1E6 = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
    172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
    410041, 449065, 488881, 512461, 530881, 552721, 656601, 658801, 670033,
    748657, 825265, 838201, 852841, 997633,
)
if len(CARMICHAEL_TO_1E6) != 43:
    raise RuntimeError("the pinned Carmichael list must hold Pinch's 43 terms")


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2**64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= 1 << 64:
        raise ValueError(f"no deterministic primality test for {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SINCLAIR_BASES:
        x = pow(a, d, n)
        if x in (0, 1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's cycle search)."""
    for c in range(1, n):
        x = y = ys = 2
        r = q = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                done += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no divisor of {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n < 2**64, ascending."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # Every prime factor left is at least 2**16 (or n is prime).
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < 1 << 32 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            rest += [d, m // d]
    return dict(sorted(out.items()))


def is_factorization_of(n: int, pairs: list[list[int]]) -> bool:
    """True when pairs is the sorted prime-power factorization of n."""
    primes = [p for p, _ in pairs]
    return (
        primes == sorted(set(primes))
        and all(e >= 1 and is_prime(p) for p, e in pairs)
        and prod(p**e for p, e in pairs) == n
    )


def phi(fac: dict[int, int]) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in fac.items())


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def carmichael_lambda(fac: dict[int, int]) -> int:
    out = 1
    for p, e in fac.items():
        if p == 2:
            local = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            local = (p - 1) * p ** (e - 1)
        out = _lcm(out, local)
    return out


def k_unit_count(fac: dict[int, int], k: int) -> int:
    """Solutions of x^k = 1 in U(Z_n), prime power by prime power."""
    count = 1
    for p, e in fac.items():
        if p != 2:
            count *= gcd(k, (p - 1) * p ** (e - 1))
        elif e == 2:
            count *= gcd(k, 2)
        elif e >= 3:
            count *= gcd(k, 2) * gcd(k, 1 << (e - 2))
    return count


def _divisors(fac: dict[int, int]) -> list[int]:
    out = [1]
    for p, e in fac.items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return out


def rdu_one_max(k: int) -> dict[int, int]:
    """Factorization of n_max(k), the largest n with lambda(n) | k."""
    out: dict[int, int] = {}
    for d in _divisors(factorint(k)):
        p = d + 1
        if p == 2:
            out[2] = 1 if k % 2 else max(2, (k & -k).bit_length() + 1)
        elif is_prime(p):
            e = 1
            while k % ((p - 1) * p**e) == 0:
                e += 1
            out[p] = e
    return dict(sorted(out.items()))


def primes_upto(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = primes_upto(1 << 16)
