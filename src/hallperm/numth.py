"""Exact integer helpers: primality, prime divisors, p-parts.

Everything is plain trial division; the orders handled here stay well below
10^12, where this is instant and has no failure modes.
"""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_divisors(n: int):
    """Sorted distinct prime divisors of n >= 1."""
    if n < 1:
        raise ValueError("prime_divisors needs a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _check_base(p: int):
    # n % 1 == 0 and n % -1 == 0 for every n, so a loop dividing out p would never stop
    if p < 2:
        raise ValueError(f"{p} is not a base >= 2")


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n, for p >= 2."""
    _check_base(p)
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def is_p_power(n: int, p: int) -> bool:
    """True when n is a positive power of p (n = 1 counts as p^0), for p >= 2."""
    _check_base(p)
    while n % p == 0:
        n //= p
    return n == 1
