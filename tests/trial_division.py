"""Trial division, a factoring oracle for the tests that shares no code with
opnkit: opnkit takes factorizations as input and has no factorizer."""


def trial_factor(n: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of n >= 1 ([] for n = 1), by division
    by 2 and then by every odd d with d * d at most what is left of n."""
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs
