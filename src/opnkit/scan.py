"""Exhaustive desk-scale range scans with deterministic parallel merge.

Scans partition [lo, hi] into fixed-size blocks.  Workers sieve contiguous
runs of blocks with numpy divisor-pair kernels and report per-block
findings; the driver merges them in block order, so the result is
byte-identical for any worker count.  A checkpoint file (one JSON line per
completed block) lets an interrupted scan resume without rework.

numpy is imported inside the kernels that use it, not at module level, so
importing this module (and with it `opnkit`, the audit and the suites)
stays free of numpy's start-up cost.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .primes import primes_up_to

if TYPE_CHECKING:
    import numpy as np

BLOCK_SIZE_DEFAULT = 1 << 16
MAX_SPAN_DEFAULT = 10**9
RADICAL_CHAIN_HI_MAX = 10**9  # int64 cross-products stay exact up to here
_SEGMENT_ELEMS = 1 << 21  # sieve granularity: blocks are batched up to this size

PARITIES = ("all", "odd", "even")


class CheckpointError(RuntimeError):
    """The checkpoint file is unreadable or inconsistent with the scan."""


@dataclass(frozen=True)
class ScanReport:
    range_lo: int
    range_hi: int
    tested_count: int
    violations: tuple[tuple[int, str], ...]
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        # elapsed is intentionally omitted: report contents are a
        # deterministic function of the scan parameters
        return {
            "range_lo": self.range_lo,
            "range_hi": self.range_hi,
            "tested_count": self.tested_count,
            "violations": [{"n": n, "detail": d} for n, d in self.violations],
        }


def sigma_segment(a: int, b: int) -> np.ndarray:
    """Divisor sums sigma(n) for every n in [a, b] (a >= 1), as int64.

    Vectorized divisor-pair sieve: each d <= sqrt(b) contributes d + n/d to
    its multiples, with the square root counted once.
    """
    import numpy as np

    sig = np.zeros(b - a + 1, dtype=np.int64)
    for d in range(1, math.isqrt(b) + 1):
        q0 = max(d, -(-a // d))
        q1 = b // d
        if q0 > q1:
            continue
        qs = np.arange(q0, q1 + 1, dtype=np.int64)
        start = d * q0 - a
        sig[start : start + (q1 - q0) * d + 1 : d] += d + qs
        if q0 <= d <= q1:
            sig[d * d - a] -= d
    return sig


def _sigma_segment_odd(a: int, b: int) -> np.ndarray:
    """sigma(n) for odd n in [a, b] (a odd), indexed by (n - a) // 2."""
    import numpy as np

    sig = np.zeros((b - a) // 2 + 1, dtype=np.int64)
    for d in range(1, math.isqrt(b) + 1, 2):
        q0 = max(d, -(-a // d))
        if q0 % 2 == 0:
            q0 += 1
        q1 = b // d
        if q0 > q1:
            continue
        qs = np.arange(q0, q1 + 1, 2, dtype=np.int64)
        start = (d * q0 - a) // 2
        sig[start : start + (len(qs) - 1) * d + 1 : d] += d + qs
        if q0 <= d <= q1:
            sig[(d * d - a) // 2] -= d
    return sig


def _odd_multiple_slices(a: int, b: int, step: int):
    """First odd multiple of `step` in [a, b] (a odd), or None."""
    k0 = -(-a // step)
    if k0 % 2 == 0:
        k0 += 1
    m0 = k0 * step
    return m0 if m0 <= b else None


def _perfect_hits(a: int, b: int) -> list[int]:
    import numpy as np

    sig = sigma_segment(a, b)
    ns = np.arange(a, b + 1, dtype=np.int64)
    return [int(n) for n in ns[sig == 2 * ns]]


def _radical_chain_hits(a: int, b: int) -> list[tuple[int, str]]:
    """Odd n in [a, b] where the radical-vs-n abundancy relation fails.

    For odd n the relation is sigma(rad)/(2 rad) < sigma(n)/(2n) when n has
    a repeated prime factor, with exact equality when n is squarefree.  It
    is compared cross-multiplied in int64, which is exact for
    b <= RADICAL_CHAIN_HI_MAX = 10**9: both products sigma(rad)*n and
    sigma(n)*rad are at most sigma(n)*n, because rad divides n.  Robin's
    unconditional bound sigma(n)/n < e**gamma*lnln(n) + 0.6483/lnln(n)
    (n >= 3) grows with n from n = 16 on and gives sigma(n) < 5.62*n at
    10**9, so sigma(n)*n < 5.62e18 < 2**63; below 16 the products are tiny.
    """
    import numpy as np

    if a % 2 == 0:
        a += 1
    if a > b:
        return []
    ns = np.arange(a, b + 1, 2, dtype=np.int64)
    spart = np.ones_like(ns)  # product of p**v_p(n) over primes p <= sqrt(b)
    srad = np.ones_like(ns)  # product of those distinct p
    sigrad = np.ones_like(ns)  # product of (1 + p)
    for p in primes_up_to(math.isqrt(b)):
        if p == 2:
            continue
        m0 = _odd_multiple_slices(a, b, p)
        if m0 is None:
            continue
        i0 = (m0 - a) // 2
        srad[i0::p] *= p
        sigrad[i0::p] *= p + 1
        pk = p
        while pk <= b:
            mk = _odd_multiple_slices(a, b, pk)
            if mk is not None:
                spart[(mk - a) // 2 :: pk] *= p
            pk *= p
    large = ns // spart
    big = large > 1
    rad = srad * np.where(big, large, 1)
    sigrad = sigrad * np.where(big, large + 1, 1)
    sig = _sigma_segment_odd(a, b)
    lhs = sigrad * ns  # sigma(rad) * n
    rhs = sig * rad  # sigma(n) * rad
    squarefree = spart == srad
    bad = np.where(squarefree, lhs != rhs, lhs >= rhs)
    out = []
    for i in np.nonzero(bad)[0]:
        n = int(ns[i])
        out.append(
            (
                n,
                f"radical {int(rad[i])}: sigma(rad)*n = {int(lhs[i])} vs "
                f"sigma(n)*rad = {int(rhs[i])} (squarefree={bool(squarefree[i])})",
            )
        )
    return out


def spf_sieve_odd(limit: int) -> array:
    """Smallest prime factor table for odd n <= limit (0 marks odd primes).

    Each odd prime p <= sqrt(limit) stamps its odd multiples from p*p on;
    the primes go in descending order, so the smallest factor writes last.
    """
    spf = array("i", [0]) * (limit + 1)
    for p in reversed(primes_up_to(math.isqrt(limit))[1:]):
        start = p * p
        spf[start :: 2 * p] = array("i", [p]) * len(range(start, limit + 1, 2 * p))
    return spf


def factor_odd_with_spf(n: int, spf: array) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of an odd n >= 3 from an spf table."""
    pairs = []
    while n > 1:
        p = spf[n] or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        pairs.append((p, e))
    return pairs


def _scan_segment(task) -> list[tuple[int, list[tuple[int, str]]]]:
    kind, seg_lo, seg_hi, lo, block_size, parity = task
    if kind == "perfect":
        found = []
        for n in _perfect_hits(seg_lo, seg_hi):
            if parity == "odd" and n % 2 == 0:
                continue
            if parity == "even" and n % 2 == 1:
                continue
            found.append((n, f"perfect number: sigma({n}) = {2 * n}"))
    elif kind == "radical_chain":
        found = _radical_chain_hits(seg_lo, seg_hi)
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    per_block: dict[int, list[tuple[int, str]]] = {}
    for n, detail in found:
        per_block.setdefault((n - lo) // block_size, []).append((n, detail))
    first = (seg_lo - lo) // block_size
    last = (seg_hi - lo) // block_size
    return [(i, per_block.get(i, [])) for i in range(first, last + 1)]


def _read_checkpoint(path, nblocks: int) -> dict[int, list[tuple[int, str]]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    completed: dict[int, list[tuple[int, str]]] = {}
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            idx = rec["block"]
            viols = [(int(n), str(d)) for n, d in rec.get("violations", [])]
            if not isinstance(idx, int) or not 0 <= idx < nblocks:
                raise ValueError(f"block index {idx} out of range")
        except (ValueError, KeyError, TypeError) as exc:
            if lineno == len(lines) - 1:
                break  # tolerate one torn trailing line from an interrupted run
            raise CheckpointError(f"bad checkpoint line {lineno + 1}: {exc}") from exc
        completed[idx] = viols
    return completed


def _count_parity(lo: int, hi: int, parity: str) -> int:
    if parity == "all":
        return hi - lo + 1
    odd = (hi + 1) // 2 - lo // 2
    return odd if parity == "odd" else hi - lo + 1 - odd


def _run_scan(
    kind: str,
    lo: int,
    hi: int,
    parity: str,
    jobs: int,
    block_size: int,
    checkpoint,
    max_span: int,
) -> ScanReport:
    if not 1 < lo <= hi:
        raise ValueError("need 1 < lo <= hi")
    if hi - lo + 1 > max_span:
        raise ValueError(f"range exceeds the configured maximum span {max_span}")
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    t0 = time.perf_counter()
    nblocks = (hi - lo) // block_size + 1
    completed = _read_checkpoint(checkpoint, nblocks) if checkpoint else {}

    # batch pending contiguous blocks into sieve segments
    seg_blocks = max(1, _SEGMENT_ELEMS // block_size)

    def as_task(blocks: list[int]):
        seg_lo = lo + blocks[0] * block_size
        seg_hi = min(lo + (blocks[-1] + 1) * block_size - 1, hi)
        return (kind, seg_lo, seg_hi, lo, block_size, parity)

    tasks = []
    run: list[int] = []
    for i in range(nblocks):
        if i in completed:
            continue
        if run and (i != run[-1] + 1 or len(run) >= seg_blocks):
            tasks.append(as_task(run))
            run = []
        run.append(i)
    if run:
        tasks.append(as_task(run))
    ckpt_fh = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    try:
        if jobs == 1 or len(tasks) <= 1:
            results = map(_scan_segment, tasks)
            for seg in results:
                _absorb(seg, completed, ckpt_fh)
        else:
            from multiprocessing import Pool

            with Pool(processes=jobs) as pool:
                for seg in pool.imap_unordered(_scan_segment, tasks):
                    _absorb(seg, completed, ckpt_fh)
    finally:
        if ckpt_fh:
            ckpt_fh.close()
    violations = tuple(
        (n, d) for i in range(nblocks) for n, d in sorted(completed.get(i, []))
    )
    return ScanReport(
        range_lo=lo,
        range_hi=hi,
        tested_count=_count_parity(lo, hi, "odd" if kind == "radical_chain" else parity),
        violations=violations,
        elapsed_seconds=time.perf_counter() - t0,
    )


def _absorb(segment_result, completed, ckpt_fh) -> None:
    for idx, viols in segment_result:
        completed[idx] = viols
        if ckpt_fh:
            ckpt_fh.write(json.dumps({"block": idx, "violations": viols}) + "\n")
    if ckpt_fh:
        ckpt_fh.flush()


def scan_perfect(
    lo: int,
    hi: int,
    parity: str = "all",
    *,
    jobs: int = 1,
    block_size: int = BLOCK_SIZE_DEFAULT,
    checkpoint=None,
    max_span: int = MAX_SPAN_DEFAULT,
) -> ScanReport:
    """Find every perfect number in [lo, hi] with the requested parity.

    The report's `violations` are the perfect numbers found.  Results are
    identical for any `jobs` value; `checkpoint` names a JSON-lines file of
    completed blocks for resumable scans.
    """
    return _run_scan("perfect", lo, hi, parity, jobs, block_size, checkpoint, max_span)


def scan_radical_chain(
    lo: int,
    hi: int,
    *,
    jobs: int = 1,
    block_size: int = BLOCK_SIZE_DEFAULT,
    checkpoint=None,
    max_span: int = MAX_SPAN_DEFAULT,
) -> ScanReport:
    """Verify, for every odd n in [lo, hi], that n's abundancy strictly
    exceeds its radical's when n is not squarefree (with equality when it
    is).  Violations would disprove the exponent-raising chain argument;
    none are expected, ever.  `hi` may not exceed RADICAL_CHAIN_HI_MAX."""
    if hi > RADICAL_CHAIN_HI_MAX:
        raise ValueError(
            f"hi must be <= {RADICAL_CHAIN_HI_MAX} for a radical-chain scan (int64 ceiling)"
        )
    return _run_scan("radical_chain", lo, hi, "odd", jobs, block_size, checkpoint, max_span)
