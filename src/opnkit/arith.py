"""Exact divisor arithmetic over certified prime factorizations.

The central type is `Factorization`: an ordered tuple of (prime, exponent)
pairs whose primality is checked at construction time, so everything
downstream may trust it.  Parsing and rendering, the value, the divisor
sum and the elementary symmetric polynomials are computed exactly with
integers; nothing here ever rounds.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import prod

from .primes import is_prime

MAX_EXPONENT = 2**32 - 1
# one term, `prime ('^' exponent)?` between blanks; \d is a decimal digit,
# exactly the characters int() reads
_TERM = re.compile(r"[ \t]*(\d*)[ \t]*(?:\^[ \t]*(\d*)[ \t]*)?")


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
    terms: list[tuple[int, int | None]] = []  # (value, exponent)
    # 0 means no limit, as on Pythons without the getter
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def number(m: re.Match, group: int, what: str) -> int:
        digits, start = m.group(group), m.start(group)
        if not digits:
            raise ParseError(f"expected {what}", start)
        if 0 < digit_limit < len(digits):
            # int() refuses it: the interpreter's guard against quadratic parsing
            raise ParseError(f"{what} has more than {digit_limit} digits", start)
        return int(digits)

    i = 0
    while True:
        m = _TERM.match(text, i)
        value = number(m, 1, "a prime factor")
        exponent: int | None = None
        if m.group(2) is not None:
            exponent = number(m, 2, "an exponent")
            if exponent < 1:
                raise ParseError("exponent must be >= 1", m.start(2))
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", m.start(2))
        terms.append((value, exponent))
        i = m.end()
        if i == len(text):
            break
        if text[i] != "*":
            raise ParseError("expected '*' between factors", i)
        i += 1

    if len(terms) == 1 and terms[0][0] == 1 and terms[0][1] is None:
        return Factorization(())

    counts: dict[int, int] = {}
    for value, exponent in terms:
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

