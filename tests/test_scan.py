import json
import math
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnkit import scan
from opnkit.arith import Factorization, sigma
from opnkit.scan import (
    MAX_SPAN,
    PERFECT_HI_MAX,
    RADICAL_CHAIN_HI_MAX,
    CheckpointError,
    _count_parity,
    _odd_divisor_sums,
    _radical_chain_hits,
    scan_perfect,
    scan_radical_chain,
    sigma_segment,
    spf_sieve_odd,
)
from trial_division import trial_factor


def sigma_brute(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sigma_segment_matches_brute():
    a, b = 2, 400
    seg = sigma_segment(a, b)
    for n in range(a, b + 1):
        assert seg[n - a] == sigma_brute(n)


def test_sigma_segment_offset_window():
    a, b = 99991, 100123
    seg = sigma_segment(a, b)
    for n in (99991, 100000, 100003, 100123):
        assert seg[n - a] == sigma_brute(n)


@pytest.mark.parametrize("a, b", [
    (1, 1), (2, 2), (9, 9), (25, 25),  # a == b, squares at both ends
    (1, 400), (2, 401), (3, 300), (4, 300),  # odd and even a
    (20, 30), (47, 51), (119, 123), (167, 171), (8, 10),  # straddle 25, 49, 121, 169, 9
])
@pytest.mark.parametrize("step", [1, 2])
def test_divisor_sums_matches_brute(a, b, step):
    if step == 2 and a % 2 == 0:
        a += 1  # the odd-only kernel starts from an odd a
        if a > b:
            return
    got = sigma_segment(a, b) if step == 1 else _odd_divisor_sums(a, b)
    ns = range(a, b + 1, step)
    assert len(got) == len(ns)
    assert [int(v) for v in got] == [sigma_brute(n) for n in ns]


def test_divisor_sums_near_1e9():
    a, b = 10**9 - 4001, 10**9  # both odd ends, so step 2 covers the odd n
    rng = random.Random(9)
    every, odd = sigma_segment(a, b), _odd_divisor_sums(a, b)
    assert list(every[::2]) == list(odd)
    for n in [a, b - 1, b] + rng.sample(range(a, b + 1), 60):
        assert every[n - a] == sigma(Factorization(trial_factor(n))), n


def factor_from_spf(n: int, spf) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of an odd n >= 3, read from an
    odd-indexed spf table as the chain suite reads it."""
    pairs = []
    while n > 1:
        p = spf[n >> 1] or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        pairs.append((p, e))
    return pairs


def test_spf_sieve_factors():
    spf = spf_sieve_odd(10_001)
    for n, pairs in ((945, [(3, 3), (5, 1), (7, 1)]), (9973, [(9973, 1)]), (3**5, [(3, 5)])):
        assert factor_from_spf(n, spf) == pairs == trial_factor(n)


def spf_trial(n: int) -> int:
    """Smallest prime factor of an odd composite n by trial division, else 0."""
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return 0


@pytest.mark.parametrize("limit", [3, 9, 25, 10**4 + 1, 3 * 10**4])
def test_spf_sieve_matches_trial_division(limit):
    # 9 and 25 are p^2 edges: the first multiple each prime stamps is the limit
    # the table holds the odd n only: index i stands for n = 2*i + 1
    spf = spf_sieve_odd(limit)
    assert list(spf) == [spf_trial(n) for n in range(1, limit + 1, 2)]


@pytest.mark.parametrize("limit", [786439, 10**6 + 1])
def test_spf_sieve_stamps_in_pieces(limit):
    # past 2**16 entries a prime stamps in pieces; at 786439 the stamp of 3
    # is exactly two whole pieces, at 10**6 + 1 it ends in a partial one
    size = (limit + 1) // 2
    ref = [0] * size
    for p in reversed([q for q in range(3, math.isqrt(limit) + 1, 2) if spf_trial(q) == 0]):
        ref[p * p >> 1 :: p] = [p] * len(range(p * p >> 1, size, p))
    assert list(spf_sieve_odd(limit)) == ref


def test_spf_sieve_memory():
    # the table at 10**7 is 19.07 MiB; stamping each prime's multiples in one
    # piece put a third of the table again beside it (25.4 MiB peak)
    tracemalloc.start()
    try:
        spf = spf_sieve_odd(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(spf) * spf.itemsize + 2**20


def test_factor_with_spf_gives_plain_ints():
    limit = 3 * 10**4
    spf = spf_sieve_odd(limit)
    for n in range(3, limit + 1, 2):
        pairs = factor_from_spf(n, spf)
        assert all(type(p) is int and type(e) is int for p, e in pairs)
        assert pairs == trial_factor(n)


def test_scan_perfect_classical():
    rep = scan_perfect(2, 10_000)
    assert [n for n, _ in rep.violations] == [6, 28, 496, 8128]
    assert rep.tested_count == 9999
    assert all("perfect" in d for _, d in rep.violations)


def test_scan_perfect_single_point():
    rep = scan_perfect(6, 6)
    assert [n for n, _ in rep.violations] == [6]
    assert rep.tested_count == 1


def test_scan_perfect_parity():
    odd = scan_perfect(3, 100_000, "odd")
    assert odd.violations == ()
    assert odd.tested_count == _count_parity(3, 100_000, "odd")
    even = scan_perfect(2, 10_000, "even")
    assert [n for n, _ in even.violations] == [6, 28, 496, 8128]


@pytest.mark.parametrize("lo, hi", [(2, 5000), (3, 4999), (1001, 1001), (1002, 1002)])
def test_parity_routing_visits_each_n_once(monkeypatch, lo, hi):
    # kernels that make every n look perfect: each n of the parity must be
    # reported once; all and even scans call sigma_segment once per segment,
    # and odd scans sieve only odd n and never call it
    calls = []

    def every_n_perfect(a, b):
        calls.append(("all", a, b))
        return 2 * np.arange(a, b + 1, dtype=np.int64)

    def every_odd_n_perfect(a, b):
        calls.append(("odd", a, b))
        return 2 * np.arange(a, b + 1, 2, dtype=np.int64)

    block_size = 777
    monkeypatch.setattr(scan, "BLOCK_SIZE", block_size)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 2 * block_size)  # two blocks a segment
    monkeypatch.setattr(scan, "sigma_segment", every_n_perfect)
    monkeypatch.setattr(scan, "_odd_divisor_sums", every_odd_n_perfect)
    segments = [(a, min(a + 2 * block_size - 1, hi)) for a in range(lo, hi + 1, 2 * block_size)]
    for parity, first, stride in (("all", lo, 1), ("odd", lo | 1, 2), ("even", lo + lo % 2, 2)):
        calls.clear()
        rep = scan_perfect(lo, hi, parity)
        assert [n for n, _ in rep.violations] == list(range(first, hi + 1, stride))
        if parity == "odd":
            assert calls == [("odd", a | 1, b) for a, b in segments if a | 1 <= b]
        else:
            assert calls == [("all", a, b) for a, b in segments]


def recording_pool(monkeypatch):
    """Replace multiprocessing.Pool by one that records the pool size asked
    for and runs the tasks in this process, starting no worker."""
    import multiprocessing

    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes


@pytest.mark.parametrize("jobs, expected", [(64, 3), (3, 3), (2, 2)])
def test_pool_no_larger_than_the_work(monkeypatch, jobs, expected):
    expected_violations = scan_perfect(2, 12_001).violations
    monkeypatch.setattr(scan, "usable_cpus", lambda: 64)  # the work alone bounds the pool
    sizes = recording_pool(monkeypatch)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4000)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 4000)  # one block a segment
    rep = scan_perfect(2, 12_001, jobs=jobs)  # three segments
    assert sizes == [expected]
    assert rep.violations == expected_violations


def test_pool_no_larger_than_the_cpus(monkeypatch):
    # 477 jobs over 500 segments start one worker per usable CPU
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert scan.usable_cpus() == cpus
    monkeypatch.setattr(scan, "BLOCK_SIZE", 1000)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 1000)  # one block a segment
    expected = scan_perfect(2, 500_001, jobs=1)
    sizes = recording_pool(monkeypatch)
    assert scan_perfect(2, 500_001, jobs=477).violations == expected.violations
    assert sizes == ([cpus] if cpus > 1 else [])


def test_cli_jobs_default_is_the_cpu_count():
    from opnkit.cli import _build_parser

    args = _build_parser().parse_args(["scan", "--lo", "2", "--hi", "10"])
    assert args.jobs == scan.usable_cpus()


@pytest.mark.parametrize("a, b", [(0, 10), (11, 10), (PERFECT_HI_MAX, PERFECT_HI_MAX + 1)])
def test_sigma_segment_checks_its_window_before_allocating(monkeypatch, a, b):
    def allocated(*args, **kwargs):
        raise AssertionError("allocated before checking the window")

    for name in ("empty", "zeros", "ones", "arange"):
        monkeypatch.setattr(np, name, allocated)
    with pytest.raises(ValueError, match="need 1 <= a <= b"):
        sigma_segment(a, b)


@st.composite
def sieve_windows(draw):
    """[a, b] with 1 <= a <= b <= 2**22 and b - a < 4096, biased to the edges
    of sigma_segment's power-of-two loop: single points, ends at 2**k or
    2**k +- 1, and windows that hold one even n."""
    top = 1 << 22
    edge = st.builds(lambda k, e: min(max(1, (1 << k) + e), top), st.integers(0, 22), st.sampled_from((-1, 0, 1)))
    end = draw(st.one_of(edge, st.integers(1, top)))
    shape = draw(st.sampled_from(("point", "from", "to", "one_even", "any")))
    if shape == "point":
        return end, end
    if shape == "from":
        return end, draw(st.integers(end, min(end + 4095, top)))
    if shape == "to":
        return draw(st.integers(max(1, end - 4095), end)), end
    if shape == "one_even":
        even = min(end + end % 2, top)
        return max(1, even - draw(st.integers(0, 1))), min(top, even + draw(st.integers(0, 1)))
    a = draw(st.integers(1, top))
    return a, min(top, a + draw(st.integers(0, 4095)))


@settings(max_examples=60)
@given(sieve_windows())
def test_sigma_segment_matches_factorize(window):
    a, b = window
    assert sigma_segment(a, b).tolist() == [sigma(Factorization(trial_factor(n))) for n in range(a, b + 1)]
    if a | 1 <= b:
        assert _odd_divisor_sums(a | 1, b).tolist() == sigma_segment(a | 1, b)[::2].tolist()


@settings(max_examples=40)
@given(
    st.integers(2, 2 * 10**4).flatmap(lambda hi: st.tuples(st.integers(2, hi), st.just(hi))),
    st.integers(1, 5000),
)
def test_parity_reports_filter_the_all_report(span, block_size):
    lo, hi = span
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "BLOCK_SIZE", block_size)
        mp.setattr(scan, "_SEGMENT_ELEMS", block_size * max(1, 4096 // block_size))  # about 4096 a segment
        every = scan_perfect(lo, hi)
        for parity, rem in (("odd", 1), ("even", 0)):
            rep = scan_perfect(lo, hi, parity)
            assert rep.violations == tuple(v for v in every.violations if v[0] % 2 == rem)
            assert rep.tested_count == _count_parity(lo, hi, parity)


def test_perfect_scan_at_ceiling():
    # int64 is exact here by a wide margin; sigma(n) < n(1 + ln n) < 3e13
    lo, hi = PERFECT_HI_MAX - 99, PERFECT_HI_MAX  # lo is odd
    every = sigma_segment(lo, hi)
    assert list(_odd_divisor_sums(lo, hi)) == list(every[::2])
    for n in random.Random(12).sample(range(lo, hi + 1), 12) + [lo, hi]:
        assert every[n - lo] == sigma(Factorization(trial_factor(n))), n
    rep = scan_perfect(lo, hi, "odd")
    assert rep.violations == ()
    assert rep.tested_count == 50


def test_perfect_scan_rejects_hi_above_ceiling():
    with pytest.raises(ValueError):
        scan_perfect(PERFECT_HI_MAX - 10, PERFECT_HI_MAX + 1)
    with pytest.raises(ValueError):
        scan_perfect(4 * 10**18, 4 * 10**18 + 100)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_perfect(1, 10)
    with pytest.raises(ValueError):
        scan_perfect(10, 2)
    with pytest.raises(ValueError):
        scan_perfect(2, 10, "weird")
    with pytest.raises(ValueError):
        scan_perfect(2, MAX_SPAN + 2)
    with pytest.raises(ValueError):
        scan_perfect(2, 10, jobs=0)


def test_scan_deterministic_across_jobs(monkeypatch):
    monkeypatch.setattr(scan, "BLOCK_SIZE", 1 << 14)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 1 << 16)  # 31 segments of four blocks
    base = scan_perfect(2, 2 * 10**6, jobs=1)
    multi = scan_perfect(2, 2 * 10**6, jobs=3)
    assert base.violations == multi.violations
    assert base.tested_count == multi.tested_count


def test_scan_block_size_invariance(monkeypatch):
    b = scan_perfect(2, 10**5)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 1 << 10)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 1 << 14)
    a = scan_perfect(2, 10**5)
    assert a.violations == b.violations


def test_radical_chain_scan():
    rep = scan_radical_chain(3, 10**6)
    assert rep.violations == ()
    assert rep.tested_count == _count_parity(3, 10**6, "odd")


def test_radical_chain_examples():
    # n = 9: sigma(3)*9 = 36 < sigma(9)*3 = 39 (strict); n = 15 squarefree: equal
    assert 4 * 9 < 13 * 3 * (3)  # sanity of the cross-multiplied relation
    rep = scan_radical_chain(9, 15)
    assert rep.violations == ()


def test_radical_chain_at_ceiling():
    # the top of the range the kernel is declared for
    rep = scan_radical_chain(RADICAL_CHAIN_HI_MAX - 2 * 10**5 + 1, RADICAL_CHAIN_HI_MAX)
    assert rep.violations == ()
    assert rep.tested_count == 10**5


def test_radical_chain_rejects_hi_above_ceiling():
    # the ceiling is the range the kernel is tested on, not an int64 limit: its
    # values stay below 5.62*n; the old cross-products overflowed in this window
    with pytest.raises(ValueError):
        scan_radical_chain(4 * 10**9, 4 * 10**9 + 2 * 10**5)
    with pytest.raises(ValueError):
        scan_radical_chain(RADICAL_CHAIN_HI_MAX - 10, RADICAL_CHAIN_HI_MAX + 1)


def sigma_of(pairs) -> int:
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in pairs)


def radical_detail(n: int, sigma_n: int) -> str:
    """The radical-chain detail of odd n from trial division, given sigma(n)."""
    pairs = trial_factor(n)
    rad = math.prod(p for p, _ in pairs)
    sigma_rad = math.prod(p + 1 for p, _ in pairs)
    squarefree = all(e == 1 for _, e in pairs)
    return f"radical {rad}: sigma(rad)*n = {sigma_rad * n} vs sigma(n)*rad = {sigma_n * rad} (squarefree={squarefree})"


def test_radical_chain_reports_each_violation(monkeypatch):
    # sqrt(2001) < 45: 1155 = 3*5*7*11 is squarefree, 45 = 3**2*5 has a square
    # factor, and 1017 = 3**2*113 has a prime above sqrt(b); each gets a sigma
    # that breaks the relation, 45 at the boundary sigma(n) = sigma(rad)*n/rad
    lo, hi = 3, 2001
    perturbed = {1155: sigma_of(trial_factor(1155)) + 1, 45: 24 * 3, 1017: 4 * 114 * 3 - 1}
    real = scan._odd_divisor_sums

    def perturbing(a, b):
        sig = real(a, b)
        for n, value in perturbed.items():
            if a <= n <= b:
                sig[(n - a) // 2] = value
        return sig

    monkeypatch.setattr(scan, "_odd_divisor_sums", perturbing)
    monkeypatch.setattr(scan, "BLOCK_SIZE", 500)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 1000)  # two blocks a segment
    rep = scan_radical_chain(lo, hi)
    assert rep.violations == tuple((n, radical_detail(n, perturbed[n])) for n in sorted(perturbed))


@st.composite
def chain_windows(draw):
    """[a, b] <= RADICAL_CHAIN_HI_MAX: from a < 15, so small primes are
    themselves in the window; short, so many primes and powers have at most
    one odd multiple in it; or within 10**6 of the ceiling."""
    shape = draw(st.sampled_from(("small", "short", "ceiling")))
    if shape == "small":
        a = draw(st.integers(2, 14))
        return a, draw(st.integers(a, a + 3000))
    if shape == "short":
        a = draw(st.integers(2, 10**6))
        return a, a + draw(st.integers(0, 15014))
    b = draw(st.integers(RADICAL_CHAIN_HI_MAX - 10**6, RADICAL_CHAIN_HI_MAX))
    return b - draw(st.integers(0, 120)), b


@settings(max_examples=40)
@given(chain_windows())
@example((3, 27))  # b = 3**3 itself, the highest power of 3 kept
@example((999999001, RADICAL_CHAIN_HI_MAX))
def test_radical_chain_kernel_matches_trial_division(window):
    # with every sigma(n) set to 0 each odd n is reported, and its detail holds
    # the kernel's rad, sigma(rad) and squarefree flag
    a, b = window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "_odd_divisor_sums", lambda a, b: np.zeros((b - a) // 2 + 1, dtype=np.int64))
        got = _radical_chain_hits(a, b)
    assert got == [(n, radical_detail(n, 0)) for n in range(a | 1, b + 1, 2)]


def test_radical_chain_segment_memory():
    # one full segment at 10**8 (the shape the benchmark scans) allocates at
    # most 48 MiB; the kernel that kept n, rad and both cross-products as
    # int64 arrays peaked at 77 MiB
    a = 10**8 + 1
    tracemalloc.start()
    try:
        assert _radical_chain_hits(a, a + scan._SEGMENT_ELEMS - 1) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


def test_checkpoint_resume(monkeypatch, tmp_path):
    ck = tmp_path / "scan.jsonl"
    monkeypatch.setattr(scan, "BLOCK_SIZE", 4096)
    monkeypatch.setattr(scan, "_SEGMENT_ELEMS", 4 * 4096)
    full = scan_perfect(2, 10**5)
    first = scan_perfect(2, 10**5, checkpoint=str(ck))
    assert first.violations == full.violations
    lines = ck.read_text().splitlines()
    assert len(lines) == (10**5 - 2) // 4096 + 1
    # drop half the progress and append a torn line, as an interrupt would
    ck.write_text("\n".join(lines[: len(lines) // 2]) + '\n{"block": 9, "vio')
    resumed = scan_perfect(2, 10**5, checkpoint=str(ck))
    assert resumed.violations == full.violations
    assert resumed.tested_count == full.tested_count
    # the torn line is cut off before appending, so a second resume reads
    # the file the first one left, and that file holds whole records only
    assert sorted(ck.read_text().splitlines()) == sorted(lines)
    again = scan_perfect(2, 10**5, checkpoint=str(ck))
    assert again.violations == full.violations


# the scan key of scan_perfect(2, 10**5), blocks of BLOCK_SIZE = 2**16
SCAN_2_1E5 = '"scan": ["perfect", 2, 100000, "all", 65536]'


def test_checkpoint_interior_corruption(tmp_path):
    ck = tmp_path / "scan.jsonl"
    ck.write_text(f'not json\n{{"block": 0, {SCAN_2_1E5}, "violations": []}}\n')
    with pytest.raises(CheckpointError, match="line 1: Expecting value"):
        scan_perfect(2, 10**5, checkpoint=str(ck))


def test_checkpoint_out_of_range_block(tmp_path):
    ck = tmp_path / "scan.jsonl"
    ck.write_text(
        f'{{"block": 99999, {SCAN_2_1E5}, "violations": []}}\n{{"block": 0, {SCAN_2_1E5}, "violations": []}}\n'
    )
    with pytest.raises(CheckpointError, match="out of range"):
        scan_perfect(2, 10**5, checkpoint=str(ck))


def test_checkpoint_without_scan_rejected(tmp_path):
    ck = tmp_path / "scan.jsonl"
    ck.write_text('{"block": 0, "violations": []}\n')
    with pytest.raises(CheckpointError, match="written by scan None"):
        scan_perfect(2, 10**5, checkpoint=str(ck))


def blocks_of_1000(checkpoint):
    # scan_perfect(2, 10**4) in blocks of 1000, as the block_size parameter
    # once wrote it; resumed at another block size, the blocks were reported
    # as [6, 28, 496, 8128, 8128]
    record = {"scan": ["perfect", 2, 10**4, "all", 1000], "violations": []}
    with open(checkpoint, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"block": i, **record}) + "\n" for i in range(10))


@pytest.mark.parametrize(
    "written, resumed",
    [
        (blocks_of_1000, partial(scan_perfect, 2, 10**4)),
        # an odd scan's blocks were taken as done by an all scan, which then reported []
        (partial(scan_perfect, 2, 10**4, "odd"), partial(scan_perfect, 2, 10**4)),
        (partial(scan_perfect, 3, 10**4, "odd"), partial(scan_radical_chain, 3, 10**4)),
        (partial(scan_perfect, 2, 10**4), partial(scan_perfect, 3, 10**4)),
        (partial(scan_perfect, 2, 10**4), partial(scan_perfect, 2, 2 * 10**4)),
    ],
    ids=["block_size", "parity", "kind", "lo", "hi"],
)
def test_checkpoint_of_another_scan_rejected(tmp_path, written, resumed):
    ck = tmp_path / "scan.jsonl"
    written(checkpoint=str(ck))
    before = ck.read_bytes()
    with pytest.raises(CheckpointError, match="written by scan"):
        resumed(checkpoint=str(ck))
    assert ck.read_bytes() == before


def test_checkpoint_preserves_findings(monkeypatch, tmp_path):
    # a resume must recover perfect numbers found before the interruption
    ck = tmp_path / "scan.jsonl"
    monkeypatch.setattr(scan, "BLOCK_SIZE", 1024)
    scan_perfect(2, 10_000, checkpoint=str(ck))
    records = [json.loads(line) for line in ck.read_text().splitlines()]
    assert all(rec["scan"] == ["perfect", 2, 10_000, "all", 1024] for rec in records)
    found = sorted(n for rec in records for n, _ in rec["violations"])
    assert found == [6, 28, 496, 8128]
    # wipe nothing; rerun is a no-op and reproduces the same report
    again = scan_perfect(2, 10_000, checkpoint=str(ck))
    assert [n for n, _ in again.violations] == [6, 28, 496, 8128]


def test_report_json_shape():
    rep = scan_perfect(2, 100)
    doc = rep.to_json_dict()
    assert doc == {
        "range_lo": 2,
        "range_hi": 100,
        "tested_count": 99,
        "violations": [{"n": 6, "detail": "perfect number: sigma(6) = 12"}, {"n": 28, "detail": "perfect number: sigma(28) = 56"}],
    }


def test_count_parity():
    assert _count_parity(2, 10, "all") == 9
    assert _count_parity(2, 10, "odd") == 4
    assert _count_parity(2, 10, "even") == 5
    assert _count_parity(3, 3, "odd") == 1
    assert _count_parity(3, 3, "even") == 0
