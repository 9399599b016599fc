"""Exhaustive desk-scale range scans with deterministic parallel merge.

Scans partition [lo, hi] into fixed-size blocks.  Workers sieve contiguous
runs of blocks with one numpy divisor-pair kernel, at stride 1 for every n
or stride 2 for odd n only (a parity=odd perfect scan and the radical-chain
scan sieve no even n), and report per-block findings; the main process merges
them in block order, so the result is byte-identical for any worker count.
A checkpoint file (one JSON line per completed block, each naming the scan
that wrote it) lets an interrupted scan resume without rework.  `hi` is
capped at PERFECT_HI_MAX = 10**12 for perfect scans and
RADICAL_CHAIN_HI_MAX = 10**9 for radical-chain scans, and one scan covers
at most MAX_SPAN = 10**9 numbers; beyond these the scan raises ValueError.

numpy is imported inside the kernels that use it, not at module level, so
importing this module (and with it `opnkit`, the audit and the suites)
stays free of numpy's start-up cost.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .primes import primes_up_to

if TYPE_CHECKING:
    import numpy as np

BLOCK_SIZE_DEFAULT = 1 << 16
MAX_SPAN = 10**9  # most numbers one scan may cover
PERFECT_HI_MAX = 10**12  # sieve cost per segment grows with sqrt(hi); see scan_perfect
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
    """Divisor sums sigma(n) for every n in [a, b] (a >= 1), as int64."""
    return _divisor_sums(a, b, 1)


def _first_quotient(a: int, d: int, step: int) -> int:
    """Least q with d*q >= a that a stride-`step` run from a reaches: d*q = a
    (mod step).  At step 2, a and d are odd, so q is the first odd one."""
    q = -(-a // d)
    if (d * q - a) % step:
        q += 1
    return q


def _divisor_sums(a: int, b: int, step: int) -> np.ndarray:
    """sigma(n) for n = a, a + step, ... <= b, as int64, indexed by (n - a) // step.

    Step 1 covers every n >= 1; step 2 covers the odd n from an odd a, whose
    divisors are all odd.  Divisor-pair sieve: each d <= sqrt(b) (odd d only
    at step 2) contributes d + n/d to its multiples n = d*q with q >= d, with
    the square root counted once.
    """
    import numpy as np

    sig = np.zeros((b - a) // step + 1, dtype=np.int64)
    for d in range(1, math.isqrt(b) + 1, step):
        q0 = max(d, _first_quotient(a, d, step))
        q1 = b // d
        if q0 > q1:
            continue
        qs = np.arange(q0, q1 + 1, step, dtype=np.int64)
        start = (d * q0 - a) // step
        sig[start : start + (len(qs) - 1) * d + 1 : d] += d + qs
        if q0 == d:
            sig[(d * d - a) // step] -= d
    return sig


def _perfect_hits(a: int, b: int, parity: str) -> list[tuple[int, str]]:
    """Perfect numbers of the given parity in [a, b]; odd ones are sieved
    at step 2, so a parity=odd scan never computes sigma of an even n."""
    import numpy as np

    if parity == "odd":
        a |= 1
        if a > b:
            return []
        sig = _divisor_sums(a, b, 2)
        ns = np.arange(a, b + 1, 2, dtype=np.int64)
    else:
        sig = sigma_segment(a, b)
        ns = np.arange(a, b + 1, dtype=np.int64)
    hit = sig == 2 * ns
    if parity == "even":
        hit &= ns % 2 == 0
    return [(n, f"perfect number: sigma({n}) = {2 * n}") for n in map(int, ns[hit])]


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

    a |= 1
    if a > b:
        return []
    ns = np.arange(a, b + 1, 2, dtype=np.int64)
    spart = np.ones_like(ns)  # product of p**v_p(n) over primes p <= sqrt(b)
    srad = np.ones_like(ns)  # product of those distinct p
    sigrad = np.ones_like(ns)  # product of (1 + p)
    for p in primes_up_to(math.isqrt(b)):
        if p == 2:
            continue
        i0 = (_first_quotient(a, p, 2) * p - a) // 2
        if i0 >= len(ns):
            continue
        srad[i0::p] *= p
        sigrad[i0::p] *= p + 1
        pk = p
        while pk <= b:
            spart[(_first_quotient(a, pk, 2) * pk - a) // 2 :: pk] *= p
            pk *= p
    large = ns // spart
    big = large > 1
    rad = srad * np.where(big, large, 1)
    sigrad = sigrad * np.where(big, large + 1, 1)
    sig = _divisor_sums(a, b, 2)
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
    hits, seg_lo, seg_hi, lo, block_size = task
    per_block: dict[int, list[tuple[int, str]]] = {}
    for n, detail in hits(seg_lo, seg_hi):
        per_block.setdefault((n - lo) // block_size, []).append((n, detail))
    first = (seg_lo - lo) // block_size
    last = (seg_hi - lo) // block_size
    return [(i, per_block.get(i, [])) for i in range(first, last + 1)]


def _read_checkpoint(path, scan: list, nblocks: int) -> tuple[dict[int, list[tuple[int, str]]], int]:
    """The completed blocks of a checkpoint file, and the byte length of its
    whole records.  A record is a newline-terminated line; what follows the
    last newline is a line torn by an interrupted run and is not read.  Each
    record names its scan as [kind, lo, hi, parity, block_size]; a record
    of any other scan raises CheckpointError, since its blocks are not this
    scan's blocks."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}, 0
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    whole = data.rfind(b"\n") + 1
    completed: dict[int, list[tuple[int, str]]] = {}
    for lineno, line in enumerate(data[:whole].splitlines()):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            idx = rec["block"]
            viols = [(int(n), str(d)) for n, d in rec.get("violations", [])]
            if rec.get("scan") != scan:
                raise ValueError(f"written by scan {rec.get('scan')}, not {scan}")
            if not isinstance(idx, int) or not 0 <= idx < nblocks:
                raise ValueError(f"block index {idx} out of range")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"bad checkpoint line {lineno + 1}: {exc}") from exc
        completed[idx] = viols
    return completed, whole


def _count_parity(lo: int, hi: int, parity: str) -> int:
    if parity == "all":
        return hi - lo + 1
    odd = (hi + 1) // 2 - lo // 2
    return odd if parity == "odd" else hi - lo + 1 - odd


def _run_scan(
    kind: str, hits, hi_max: int, lo: int, hi: int, parity: str, jobs: int, block_size: int, checkpoint
) -> ScanReport:
    """Scan [lo, hi] with `hits(a, b)`, which returns the (n, detail) findings
    of one segment; `parity` is the parity of the n it tests, and `kind`
    names the scan in its checkpoint records."""
    if not 1 < lo <= hi:
        raise ValueError("need 1 < lo <= hi")
    if hi > hi_max:
        raise ValueError(f"hi exceeds this scan's ceiling of {hi_max}")
    if hi - lo + 1 > MAX_SPAN:
        raise ValueError(f"range exceeds the maximum span {MAX_SPAN}")
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    t0 = time.perf_counter()
    nblocks = (hi - lo) // block_size + 1
    scan = [kind, lo, hi, parity, block_size]
    completed, whole = _read_checkpoint(checkpoint, scan, nblocks) if checkpoint else ({}, 0)

    # batch pending contiguous blocks into sieve segments
    seg_blocks = max(1, _SEGMENT_ELEMS // block_size)

    def as_task(blocks: list[int]):
        seg_lo = lo + blocks[0] * block_size
        seg_hi = min(lo + (blocks[-1] + 1) * block_size - 1, hi)
        return (hits, seg_lo, seg_hi, lo, block_size)

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
    with ExitStack() as stack:
        ckpt_fh = None
        if checkpoint:
            ckpt_fh = stack.enter_context(open(checkpoint, "a", encoding="utf-8"))
            ckpt_fh.truncate(whole)  # drop a torn last line before appending
        if jobs == 1 or len(tasks) <= 1:
            results = map(_scan_segment, tasks)
        else:
            from multiprocessing import Pool

            pool = stack.enter_context(Pool(processes=jobs))
            results = pool.imap_unordered(_scan_segment, tasks)
        for seg in results:
            for idx, viols in seg:
                completed[idx] = viols
                if ckpt_fh:
                    ckpt_fh.write(json.dumps({"block": idx, "scan": scan, "violations": viols}) + "\n")
            if ckpt_fh:
                ckpt_fh.flush()
    violations = tuple(
        (n, d) for i in range(nblocks) for n, d in sorted(completed.get(i, []))
    )
    return ScanReport(
        range_lo=lo,
        range_hi=hi,
        tested_count=_count_parity(lo, hi, parity),
        violations=violations,
        elapsed_seconds=time.perf_counter() - t0,
    )


def scan_perfect(
    lo: int,
    hi: int,
    parity: str = "all",
    *,
    jobs: int = 1,
    block_size: int = BLOCK_SIZE_DEFAULT,
    checkpoint=None,
) -> ScanReport:
    """Find every perfect number in [lo, hi] with the requested parity.

    The report's `violations` are the perfect numbers found.  Results are
    identical for any `jobs` value; `checkpoint` names a JSON-lines file of
    completed blocks for resumable scans, and a file that another scan wrote
    raises CheckpointError.  `hi` may not exceed PERFECT_HI_MAX = 10**12.
    int64 is exact far beyond it: sigma(n) <= n*(1 + ln n) < 3e13 there.
    The ceiling bounds the cost: the sieve loops over every divisor
    d <= sqrt(hi) in Python for each segment, 10**6 iterations at the
    ceiling.
    """
    hits = partial(_perfect_hits, parity=parity)
    return _run_scan("perfect", hits, PERFECT_HI_MAX, lo, hi, parity, jobs, block_size, checkpoint)


def scan_radical_chain(
    lo: int,
    hi: int,
    *,
    jobs: int = 1,
    block_size: int = BLOCK_SIZE_DEFAULT,
    checkpoint=None,
) -> ScanReport:
    """Verify, for every odd n in [lo, hi], that n's abundancy strictly
    exceeds its radical's when n is not squarefree (with equality when it
    is).  Violations would disprove the exponent-raising chain argument;
    none are expected, ever.  `hi` may not exceed RADICAL_CHAIN_HI_MAX."""
    return _run_scan(
        "radical-chain", _radical_chain_hits, RADICAL_CHAIN_HI_MAX, lo, hi, "odd", jobs, block_size, checkpoint
    )
