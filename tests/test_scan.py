import json
import math

import pytest

from opnkit.scan import (
    RADICAL_CHAIN_HI_MAX,
    CheckpointError,
    _count_parity,
    factor_odd_with_spf,
    scan_perfect,
    scan_radical_chain,
    sigma_segment,
    spf_sieve_odd,
)


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


def test_spf_sieve_factors():
    spf = spf_sieve_odd(10_001)
    assert factor_odd_with_spf(945, spf) == [(3, 3), (5, 1), (7, 1)]
    assert factor_odd_with_spf(9973, spf) == [(9973, 1)]
    assert factor_odd_with_spf(3**5, spf) == [(3, 5)]


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
    spf = spf_sieve_odd(limit)
    expected = [spf_trial(n) if n % 2 else 0 for n in range(limit + 1)]
    assert list(spf) == expected


def test_factor_with_spf_gives_plain_ints():
    limit = 3 * 10**4
    spf = spf_sieve_odd(limit)
    for n in range(3, limit + 1, 2):
        pairs = factor_odd_with_spf(n, spf)
        assert all(type(p) is int and type(e) is int for p, e in pairs)
        assert math.prod(p**e for p, e in pairs) == n


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


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_perfect(1, 10)
    with pytest.raises(ValueError):
        scan_perfect(10, 2)
    with pytest.raises(ValueError):
        scan_perfect(2, 10, "weird")
    with pytest.raises(ValueError):
        scan_perfect(2, 10**7, max_span=10**6)
    with pytest.raises(ValueError):
        scan_perfect(2, 10, jobs=0)


def test_scan_deterministic_across_jobs():
    base = scan_perfect(2, 2 * 10**6, jobs=1, block_size=1 << 14)
    multi = scan_perfect(2, 2 * 10**6, jobs=3, block_size=1 << 14)
    assert base.violations == multi.violations
    assert base.tested_count == multi.tested_count


def test_scan_block_size_invariance():
    a = scan_perfect(2, 10**5, block_size=1 << 10)
    b = scan_perfect(2, 10**5, block_size=1 << 16)
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
    # the int64 cross-products are exact up to RADICAL_CHAIN_HI_MAX
    rep = scan_radical_chain(RADICAL_CHAIN_HI_MAX - 2 * 10**5 + 1, RADICAL_CHAIN_HI_MAX)
    assert rep.violations == ()
    assert rep.tested_count == 10**5


def test_radical_chain_rejects_hi_above_ceiling():
    # past the ceiling int64 overflows: this window gave 1030 false violations
    with pytest.raises(ValueError):
        scan_radical_chain(4 * 10**9, 4 * 10**9 + 2 * 10**5)
    with pytest.raises(ValueError):
        scan_radical_chain(RADICAL_CHAIN_HI_MAX - 10, RADICAL_CHAIN_HI_MAX + 1)


def test_checkpoint_resume(tmp_path):
    ck = tmp_path / "scan.jsonl"
    full = scan_perfect(2, 10**5, block_size=4096)
    first = scan_perfect(2, 10**5, block_size=4096, checkpoint=str(ck))
    assert first.violations == full.violations
    lines = ck.read_text().splitlines()
    assert len(lines) == (10**5 - 2) // 4096 + 1
    # drop half the progress and append a torn line, as an interrupt would
    ck.write_text("\n".join(lines[: len(lines) // 2]) + '\n{"block": 9, "vio')
    resumed = scan_perfect(2, 10**5, block_size=4096, checkpoint=str(ck))
    assert resumed.violations == full.violations
    assert resumed.tested_count == full.tested_count


def test_checkpoint_interior_corruption(tmp_path):
    ck = tmp_path / "scan.jsonl"
    ck.write_text('not json\n{"block": 0, "violations": []}\n')
    with pytest.raises(CheckpointError):
        scan_perfect(2, 10**5, checkpoint=str(ck))


def test_checkpoint_out_of_range_block(tmp_path):
    ck = tmp_path / "scan.jsonl"
    ck.write_text('{"block": 99999, "violations": []}\n{"block": 0, "violations": []}\n')
    with pytest.raises(CheckpointError):
        scan_perfect(2, 10**5, checkpoint=str(ck))


def test_checkpoint_preserves_findings(tmp_path):
    # a resume must recover perfect numbers found before the interruption
    ck = tmp_path / "scan.jsonl"
    scan_perfect(2, 10_000, block_size=1024, checkpoint=str(ck))
    records = [json.loads(line) for line in ck.read_text().splitlines()]
    found = sorted(n for rec in records for n, _ in rec["violations"])
    assert found == [6, 28, 496, 8128]
    # wipe nothing; rerun is a no-op and reproduces the same report
    again = scan_perfect(2, 10_000, block_size=1024, checkpoint=str(ck))
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
