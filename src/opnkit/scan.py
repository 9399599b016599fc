"""Exhaustive desk-scale range scans with deterministic parallel merge.

Scans partition [lo, hi] into blocks of BLOCK_SIZE = 2**16 numbers.
Workers sieve contiguous runs of blocks with one numpy divisor-pair kernel
that sieves odd n only, and report per-block findings; the main process
merges them in block order, so the result is byte-identical for any worker
count.  No even n is
ever sieved: sigma(2**k * m) = (2**(k+1) - 1) * sigma(m) for odd m, so
`sigma_segment` fills every n of a window from odd-only sieves of the m,
while a parity=odd perfect scan and the radical-chain scan call the odd
kernel directly.
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

BLOCK_SIZE = 1 << 16  # numbers per block, the unit of a checkpoint record
MAX_SPAN = 10**9  # most numbers one scan may cover
PERFECT_HI_MAX = 10**12  # sieve cost per segment grows with sqrt(hi); see scan_perfect
RADICAL_CHAIN_HI_MAX = 10**9  # the range the kernel is derived and tested for (scan_radical_chain)
_SEGMENT_ELEMS = 1 << 21  # sieve granularity: a segment is _SEGMENT_ELEMS // BLOCK_SIZE blocks
_STAMP_LEN = 1 << 16  # most entries spf_sieve_odd writes with one slice assignment

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
    """Divisor sums sigma(n) for every n in [a, b], as int64.

    Needs 1 <= a <= b <= PERFECT_HI_MAX (the perfect scans' ceiling, see
    `scan_perfect`), checked before anything is allocated.

    No even n is sieved.  Each n is 2**k * m with m odd, and by Euler's
    identity sigma(n) = (2**(k+1) - 1) * sigma(m); so for each k with
    2**k <= b the odd m in [ceil(a / 2**k), b // 2**k] are sieved once, and
    their sums fill the n = 2**k * m, which lie 2**(k+1) apart.
    """
    if not 1 <= a <= b <= PERFECT_HI_MAX:
        raise ValueError(f"need 1 <= a <= b <= {PERFECT_HI_MAX}, got [{a}, {b}]")
    import numpy as np

    sig = np.empty(b - a + 1, dtype=np.int64)
    k = 0
    while 1 << k <= b:
        m_lo = -(-a >> k) | 1
        m_hi = b >> k
        if m_lo <= m_hi:
            sig[(m_lo << k) - a :: 2 << k] = ((2 << k) - 1) * _odd_divisor_sums(m_lo, m_hi)
        k += 1
    return sig


def _first_quotient(a: int, d: int) -> int:
    """Least odd q with d*q >= a, for odd a and d: the first multiple of d
    that a stride-2 run from a reaches."""
    return -(-a // d) | 1


def _odd_divisor_sums(a: int, b: int) -> np.ndarray:
    """sigma(n) for the odd n = a, a + 2, ... <= b (a odd), as int64, indexed
    by (n - a) // 2.

    Divisor-pair sieve over odd d only, since an odd n has no even divisor:
    each odd d <= sqrt(b) adds d + q to its odd multiples n = d*q with
    q >= d, the square root counted once.  The first and last quotient and
    the start index of every d are computed at once, and a d with no
    multiple in the window is dropped.  The d with one multiple are added
    in one scatter; each of the rest does two in-place adds on its strided
    view, the scalar d + q0 and a slice of one shared ramp 0, 2, 4, ...
    (consecutive odd quotients differ by 2).
    """
    import numpy as np

    sig = np.zeros((b - a) // 2 + 1, dtype=np.int64)
    ds = np.arange(1, math.isqrt(b) + 1, 2, dtype=np.int64)
    q0 = np.maximum(ds, _first_quotient(a, ds))
    counts = (b // ds - q0) // 2 + 1
    keep = counts > 0
    ds, q0, counts = ds[keep], q0[keep], counts[keep]
    starts = (ds * q0 - a) // 2
    square = q0 == ds
    sig[starts[square]] -= ds[square]
    firsts = ds + q0
    one = counts == 1
    np.add.at(sig, starts[one], firsts[one])
    many = ~one
    ramp = np.arange(0, 2 * len(sig), 2, dtype=np.int64)
    # memoryviews yield plain ints one at a time, with no list per array
    for d, first, start in zip(*(memoryview(x[many]) for x in (ds, firsts, starts))):
        view = sig[start::d]  # the multiples of d from d*q0 to the window's end
        view += first
        view += ramp[: len(view)]
    return sig


def _perfect_hits(a: int, b: int, parity: str) -> list[tuple[int, str]]:
    """Perfect numbers of the given parity in [a, b]; odd ones come from the
    odd kernel, so a parity=odd scan never computes sigma of an even n."""
    import numpy as np

    if parity == "odd":
        a |= 1
        if a > b:
            return []
        sig = _odd_divisor_sums(a, b)
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

    For odd n the relation is sigma(rad)/rad < sigma(n)/n when n has a
    repeated prime factor, with exact equality when n is squarefree.  Since
    rad divides n, it is compared as sigma(rad)*e against sigma(n), where
    e = n/rad is 1 exactly when n is squarefree; this is the cross-multiplied
    sigma(rad)*n against sigma(n)*rad divided by rad.  sigma(n) comes from
    `_odd_divisor_sums` alone, and rad and sigma(rad) from the primes alone:
    the odd primes p <= sqrt(b) by one strided pass each, and the one prime
    factor above sqrt(b) that n may have as n/(srad*e).  e gets a factor p
    at each multiple of p**k, k >= 2; the prime powers with at most one odd
    multiple in the window go in one scatter instead, since most powers
    above sqrt(b) have none or one.

    Every int64 value stays below 5.62*b.  The largest are sigma(n) and
    sigma(rad)*e, both below 5.62*n: sigma(rad)*e < 5.62*rad*e = 5.62*n by
    Robin's unconditional bound sigma(m)/m < e**gamma*lnln(m) +
    0.6483/lnln(m) (m >= 3), which grows with m from m = 16 on and is below
    5.62 at 10**9, applied to m = rad and m = n (below 16 the values are
    tiny); the index arithmetic stays below 3*b.  int64 would hold that far
    past 10**9: RADICAL_CHAIN_HI_MAX is the range the kernel is derived
    and tested for, not an int64 limit.  A violating n's detail is rebuilt
    in Python ints: rad = n/e and the cross-products sigma(rad)*n and
    sigma(n)*rad.
    """
    import numpy as np

    a |= 1
    if a > b:
        return []
    size = (b - a) // 2 + 1

    def first_index(mods):
        # index (n - a) // 2 of the first odd multiple n >= a of each modulus
        return (_first_quotient(a, mods) * mods - a) // 2

    # srad and sigrad: the product of p and of 1 + p over the primes p <= sqrt(b) that divide n
    srad = np.ones(size, dtype=np.int64)
    sigrad = np.ones(size, dtype=np.int64)
    odd = np.array(primes_up_to(math.isqrt(b))[1:], dtype=np.int64)
    starts = first_index(odd)
    inside = starts < size
    strided = list(zip(memoryview(odd[inside]), memoryview(starts[inside])))
    for p, start in strided:  # one array at a time: two interleaved thrash the cache
        srad[start::p] *= p
    for p, start in strided:
        sigrad[start::p] *= p + 1

    # e = n/rad: the prime p once for each k >= 2 with p**k dividing n
    bases, powers = [odd], [odd * odd]  # every odd p <= sqrt(b) has p**2 <= b
    while len(bases[-1]):
        p, pk = bases[-1], powers[-1]
        keep = pk <= b // p
        bases.append(p[keep])
        powers.append(pk[keep] * p[keep])
    base, power = np.concatenate(bases), np.concatenate(powers)
    # a power with two or more odd multiples in the window takes a strided
    # pass; those with one go in one scatter
    starts = first_index(power)
    many = starts + power < size
    one = ~many & (starts < size)
    e = np.ones(size, dtype=np.int64)
    np.multiply.at(e, starts[one], base[one])
    for p, pk, start in zip(*(memoryview(x[many]) for x in (base, power, starts))):
        e[start::pk] *= p

    srad *= e  # n divided by its prime factor above sqrt(b), if any
    cofactor = np.arange(a, b + 1, 2, dtype=np.int64)
    cofactor //= srad  # that prime factor, or 1
    del srad
    cofactor += cofactor > 1
    sigrad *= cofactor  # sigma(rad)
    del cofactor
    sigrad *= e
    sig = _odd_divisor_sums(a, b)
    # sigma(n) may not fall below sigma(rad)*e, and equals it exactly when e == 1
    bad = (sig < sigrad) | ((sig == sigrad) != (e == 1))
    out = []
    for i in map(int, np.nonzero(bad)[0]):
        n, ex = a + 2 * i, int(e[i])
        rad = n // ex
        out.append(
            (
                n,
                f"radical {rad}: sigma(rad)*n = {int(sigrad[i]) // ex * n} vs "
                f"sigma(n)*rad = {int(sig[i]) * rad} (squarefree={ex == 1})",
            )
        )
    return out


def spf_sieve_odd(limit: int) -> array:
    """Smallest prime factor of each odd n <= limit at index n >> 1 (0 marks
    odd primes).  Each odd prime p <= sqrt(limit) stamps its odd multiples
    from p*p on, p indices apart; the primes go in descending order, so the
    smallest factor writes last.  A prime stamps in pieces of at most
    _STAMP_LEN entries, so no more than that is allocated beside the table."""
    spf = array("i", [0]) * ((limit + 1) // 2)
    size = len(spf)
    for p in reversed(primes_up_to(math.isqrt(limit))[1:]):
        first = p * p >> 1
        stamp = array("i", [p]) * min(len(range(first, size, p)), _STAMP_LEN)
        step = p * len(stamp)
        for start in range(first, size, step):
            stop = min(start + step, size)
            spf[start:stop:p] = stamp if stop - start == step else stamp[: len(range(start, stop, p))]
    return spf


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
    record names its scan as [kind, lo, hi, parity, BLOCK_SIZE]; a record
    of any other scan raises CheckpointError, since its blocks are not this
    scan's blocks."""
    try:
        with open(path, "a+b") as fh:  # opened as the scan will append: a missing file is created
            fh.seek(0)
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint: {exc}") from exc
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


def usable_cpus() -> int:
    """The CPUs this process may run on, the most workers a scan starts: its
    affinity set where the platform has one, else os.cpu_count()."""
    import os  # loaded with the interpreter itself

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_scan(
    kind: str, hits, hi_max: int, lo: int, hi: int, parity: str, jobs: int, checkpoint
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
    t0 = time.perf_counter()
    block_size = BLOCK_SIZE  # read once here: workers get it in their tasks
    nblocks = (hi - lo) // block_size + 1
    scan = [kind, lo, hi, parity, block_size]
    completed, whole = _read_checkpoint(checkpoint, scan, nblocks) if checkpoint else ({}, 0)

    # batch pending contiguous blocks into sieve segments
    seg_blocks = _SEGMENT_ELEMS // block_size

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
        workers = min(jobs, len(tasks), usable_cpus())
        if workers <= 1:
            results = map(_scan_segment, tasks)
        else:
            from multiprocessing import Pool

            pool = stack.enter_context(Pool(processes=workers))
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
    checkpoint=None,
) -> ScanReport:
    """Find every perfect number in [lo, hi] with the requested parity.

    The report's `violations` are the perfect numbers found.  Results are
    identical for any `jobs` value; at most `usable_cpus()` workers run,
    and none when one would do.  `checkpoint` names a JSON-lines file
    for resumable scans, one record per completed block of BLOCK_SIZE =
    2**16 numbers; a file that another scan wrote raises CheckpointError.
    `hi` may not exceed PERFECT_HI_MAX = 10**12.  int64 is exact far beyond it: sigma(n) <= n*(1 + ln n) < 3e13 there.
    The ceiling bounds the cost: each sieve pass loops in Python over the
    odd d <= sqrt(hi) with more than one multiple in the segment, up to
    5*10**5 of them at the ceiling, and an all-n segment takes one pass per
    power of two.  A full 2**21-number segment ending at 10**12 takes about
    2.2 s for every n and 1.0 s for the odd n (2 vCPUs, numpy 2.4).
    """
    hits = partial(_perfect_hits, parity=parity)
    return _run_scan("perfect", hits, PERFECT_HI_MAX, lo, hi, parity, jobs, checkpoint)


def scan_radical_chain(
    lo: int,
    hi: int,
    *,
    jobs: int = 1,
    checkpoint=None,
) -> ScanReport:
    """Verify, for every odd n in [lo, hi], that n's abundancy strictly
    exceeds its radical's when n is not squarefree (with equality when it
    is).  Violations would disprove the exponent-raising chain argument;
    none are expected, ever.  `jobs` and `checkpoint` are as for
    `scan_perfect`.  `hi` may not exceed RADICAL_CHAIN_HI_MAX =
    10**9.  int64 does not set that ceiling, since the kernel's values stay
    below 5.62*n (see `_radical_chain_hits`); what does is the range the
    kernel is derived and tested for: 5.62 is Robin's bound at 10**9, and
    the tests check rad, sigma(rad) and squarefreeness against trial
    division up to there.  Raising it means re-deriving that constant and
    rerunning those tests.  A full 2**21-number segment takes 0.09-0.10 s
    at 10**8 and 0.12-0.15 s near 10**9 (2 vCPUs, numpy 2.4)."""
    return _run_scan("radical-chain", _radical_chain_hits, RADICAL_CHAIN_HI_MAX, lo, hi, "odd", jobs, checkpoint)
