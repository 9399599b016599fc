"""Exact divisor arithmetic over certified prime factorizations.

The central type is `Factorization`: an ordered tuple of (prime, exponent)
pairs whose primality is checked at construction time, so everything
downstream may trust it.  Parsing and rendering, the value, the divisor
sum and the elementary symmetric polynomials are computed exactly with
integers; nothing here ever rounds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import prod

from .primes import is_prime

MAX_EXPONENT = 2**32 - 1


class ParseError(ValueError):
    """Syntax error in a factorization string; `position` is the 0-based index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonPrimeFactorError(ValueError):
    """A factor failed the primality check (composite, zero, or one)."""

    def __init__(self, factor: int):
        if factor in (0, 1):
            msg = f"{factor} is not allowed as a factor"
        else:
            msg = f"composite factor {factor}"
        super().__init__(msg)
        self.factor = factor


@dataclass(frozen=True)
class Factorization:
    """Certified prime factorization; the empty tuple denotes N = 1."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((int(p), int(e)) for p, e in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        last = 1
        for p, e in pairs:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if not 1 <= e <= MAX_EXPONENT:
                raise ValueError(f"exponent {e} outside [1, {MAX_EXPONENT}]")
            if not is_prime(p):
                raise NonPrimeFactorError(p)
            last = p

    @classmethod
    def _from_checked(cls, pairs) -> "Factorization":
        # skips validation: callers must pass canonical int pairs whose
        # primes they have already tested
        obj = object.__new__(cls)
        object.__setattr__(obj, "pairs", tuple(pairs))
        return obj

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def parse_factorization(text: str) -> Factorization:
    """Parse `prime('^'exponent)?('*' term)*` into a canonical Factorization.

    Repeated primes are merged by summing exponents.  The single token "1"
    (with no exponent and no other terms) denotes the empty factorization;
    0 or 1 appearing as one factor among several is rejected, as is any
    composite factor.  A number longer than sys.get_int_max_str_digits()
    is a ParseError: that limit is not lifted.
    """
    terms: list[tuple[int, int | None, int]] = []  # (value, exponent, position)
    i, n = 0, len(text)
    # 0 means no limit, as on Pythons without the getter
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def skip_ws(j: int) -> int:
        while j < n and text[j] in " \t":
            j += 1
        return j

    def read_number(j: int, what: str) -> tuple[int, int]:
        j = skip_ws(j)
        start = j
        while j < n and text[j].isdigit():
            j += 1
        if j == start:
            raise ParseError(f"expected {what}", start)
        if 0 < digit_limit < j - start:
            # int() refuses it: the interpreter's guard against quadratic parsing
            raise ParseError(f"{what} has more than {digit_limit} digits", start)
        return int(text[start:j]), j

    while True:
        term_start = skip_ws(i)
        value, i = read_number(i, "a prime factor")
        exponent: int | None = None
        i = skip_ws(i)
        if i < n and text[i] == "^":
            exponent_start = skip_ws(i + 1)
            exponent, i = read_number(exponent_start, "an exponent")
            if exponent < 1:
                raise ParseError("exponent must be >= 1", exponent_start)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", exponent_start)
            i = skip_ws(i)
        terms.append((value, exponent, term_start))
        if i >= n:
            break
        if text[i] != "*":
            raise ParseError("expected '*' between factors", i)
        i += 1

    if len(terms) == 1 and terms[0][0] == 1 and terms[0][1] is None:
        return Factorization(())

    counts: dict[int, int] = {}
    for value, exponent, _ in terms:
        if value <= 1:
            raise NonPrimeFactorError(value)
        counts[value] = counts.get(value, 0) + (1 if exponent is None else exponent)
    for value in counts:
        if not is_prime(value):
            raise NonPrimeFactorError(value)
    for value, e in counts.items():
        if e > MAX_EXPONENT:
            raise ParseError(f"merged exponent of {value} exceeds {MAX_EXPONENT}", 0)
    # every prime is tested above, in order of first appearance
    return Factorization._from_checked(sorted(counts.items()))


def render(f: Factorization) -> str:
    """Canonical text form: `p^e` terms joined by `*`, exponent 1 omitted."""
    if not f.pairs:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f.pairs)


def value(f: Factorization) -> int:
    """The integer the factorization denotes (1 for the empty product)."""
    return prod(p**e for p, e in f.pairs)


def sigma(f: Factorization) -> int:
    """Sum of all divisors, via the multiplicative closed form per prime power."""
    return prod((p ** (e + 1) - 1) // (p - 1) for p, e in f.pairs)


def elementary_symmetric(values: tuple[int, ...] | list[int]) -> list[int]:
    """[e_0, e_1, ..., e_r] for the given integers, e_0 = 1.

    Quadratic coefficient recurrence on prod(x + v); no subset enumeration.
    """
    coeffs = [1]
    for v in values:
        coeffs.append(v * coeffs[-1])
        for j in range(len(coeffs) - 2, 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs

