"""The measured process of the benchmark; perfbench/run.py starts it.

    python3 perfbench/worker.py SPEC.json RESULT.json

It imports opnkit from the checkout's ``src/``, loads the inputs, runs one
warm-up pass of every family and prints ``READY``: that line ends set-up.
A spec with ``setup_only`` exits there.  Otherwise it runs whole rounds (a
fixed number of passes of every family) until ``seconds`` have passed, and
writes per-pass timings, the outputs of each
family's first pass and, for a traced run, the span statistics to
RESULT.json.  Output checking against the oracles happens in run.py, after
this process has exited.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

CHILD_TIMEOUT_S = 150
BLOCK_SIZE = 1 << 16  # opnkit.scan.BLOCK_SIZE_DEFAULT, the CLI's default too

# One round of a workload: each entry runs one pass of that family, except
# that a scan pass runs in SCAN_PARTS parts, one per "scan" entry.  The scan
# round spreads the short passes between the parts of its seven-second scan
# pass, so every family is sampled as evenly over the run as in a cli round.
SCAN_PARTS = 3
ROUND = {
    "cli": ("cli", "audit", "refine", "scan", "scan", "scan"),
    "scan": ("scan", "audit", "cli", "scan", "audit", "refine", "scan", "audit", "refine"),
}
MIN_ROUNDS = 2


def canonical(obj) -> str:
    """The CLI's canonical JSON (cli._dumps)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class NoTracer:
    def span(self, name, tag=""):
        return contextlib.nullcontext()


class Families:
    """One pass of each operation family.  A pass returns its operation
    count, failed operations, (work, seconds) per rate metric, and outputs."""

    def __init__(self, spec):
        import opnkit
        from opnkit import scan

        self.ok = opnkit
        self.scan_mod = scan
        self.root = spec["root"]
        self.tmp = spec["tmp"]
        self.suite_seed = spec["suite_seed"]
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("OPNKIT_")}
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.cli_records: list[tuple[str, float, float]] = []
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")],
            cwd=self.root, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()

    def run_child(self, argv):
        """Run one fresh child through the launcher; return (wall ms, peak RSS
        MB, exit code, stdout, stderr)."""
        out_path, err_path = os.path.join(self.tmp, "child.out"), os.path.join(self.tmp, "child.err")
        self.launcher.stdin.write("\0".join([out_path, err_path, str(CHILD_TIMEOUT_S), *argv]) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError("the CLI launcher stopped")
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return float(reply[0]), int(reply[1]) / 1024.0, int(reply[2]), out.read(), err.read()

    def prepare(self, family, inputs):
        if family == "refine":
            # rationals arrive as hex: decimal text above 4300 digits is refused
            inputs["decision_x"] = [
                (r, kind, side, Fraction(int(num, 16), int(den, 16)))
                for r, kind, _k, side, num, den in inputs["decisions"]
            ]
        return inputs

    # -- cli -----------------------------------------------------------------
    def cli(self, inp, tr, part):
        outputs = {}
        for label in inp["rotation"]:
            argv = [sys.executable, "-m", "opnkit", *inp["commands"][label]]
            wall, rss, code, out, err = self.run_child(argv)
            self.cli_records.append((label, wall, rss))
            outputs.setdefault(label, {"exit": code, "stdout": out, "stderr": err[-2000:]})
        return len(inp["rotation"]), 0, {}, outputs

    # -- audit ---------------------------------------------------------------
    def audit(self, inp, tr, part):
        ok = self.ok
        outputs = []
        failed = completed = 0
        t0 = perf_counter()
        for text in inp["candidates"]:
            try:
                report = ok.audit(ok.parse_factorization(text))
                with tr.span("constraints.json"):
                    doc = canonical(report.to_json_dict())
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                outputs.append({"error": f"{type(exc).__name__}: {exc}"[:300]})
            else:
                completed += 1
                outputs.append(doc)
        t_audit = perf_counter() - t0
        checked = 0
        t1 = perf_counter()
        for name, trials in inp["suites"]:
            result = ok.run_verify_suite(name, trials=trials, seed=self.suite_seed)
            checked += result.checked
            outputs.append(canonical(result.to_json_dict()))
        t_suites = perf_counter() - t1
        ops = len(inp["candidates"]) + len(inp["suites"])
        return ops, failed, {"audits_per_s": (completed, t_audit), "checks_per_s": (checked, t_suites)}, outputs

    # -- refine --------------------------------------------------------------
    def refine(self, inp, tr, part):
        ok = self.ok
        outputs = []
        t0 = perf_counter()
        for r, digits, bits in inp["tables"]:
            outputs.append(canonical(ok.bounds_report(r, bits).to_json_dict(digits)))
        t_tables = perf_counter() - t0
        t1 = perf_counter()
        for r, kind, _side, x in inp["decision_x"]:
            outputs.append(ok.compare_rational_to_bound(x, kind, r).value)
        t_decisions = perf_counter() - t1
        n_tables, n_decisions = len(inp["tables"]), len(inp["decision_x"])
        return (n_tables + n_decisions, 0,
                {"tables_per_s": (n_tables, t_tables), "decisions_per_s": (n_decisions, t_decisions)},
                outputs)

    # -- scan ----------------------------------------------------------------
    def scan(self, inp, tr, part):
        """One third of a scan pass; a round puts other passes between them."""
        ok = self.ok
        outputs = {}
        sieve_n = chain_n = 0
        sieve_t = chain_t = 0.0

        def timed(fn, *args, **kwargs):
            t = perf_counter()
            value = fn(*args, **kwargs)
            return value, perf_counter() - t

        if part == 0:
            lo, hi = inp["perfect_low"]
            rep, t = timed(ok.scan_perfect, lo, hi, "all", jobs=1)
            outputs["perfect_low"] = rep.to_json_dict()
            sieve_n, sieve_t = hi - lo + 1, t
        elif part == 1:
            wlo, whi = inp["window"]
            for parity in ("all", "odd"):
                rep, t = timed(ok.scan_perfect, wlo, whi, parity, jobs=1)
                outputs[f"window_{parity}"] = rep.to_json_dict()
                sieve_n, sieve_t = sieve_n + whi - wlo + 1, sieve_t + t
        else:
            clo, chi = inp["chain_window"]
            rep, t = timed(ok.scan_radical_chain, clo, chi, jobs=1)
            outputs["chain_window"] = rep.to_json_dict()
            chain_n, chain_t = rep.tested_count, t
            res, t = timed(ok.run_verify_suite, "chain", limit=inp["chain_limit"])
            outputs["chain_suite"] = res.to_json_dict()
            chain_n, chain_t = chain_n + res.checked, chain_t + t
            sieve_n, sieve_t, outputs["checkpoint"] = self._checkpointed_scan(inp["checkpoint"], timed)
        ops = (1, 2, 4)[part]
        return ops, 0, {"sieve_n_per_s": (sieve_n, sieve_t), "chain_n_per_s": (chain_n, chain_t)}, outputs

    def _checkpointed_scan(self, span, timed):
        """A full checkpointed scan, the file cut back to its first half of
        lines (untimed), then a resume that must reproduce the report."""
        ok = self.ok
        path = os.path.join(self.tmp, "scan.ckpt")
        if os.path.exists(path):
            os.remove(path)
        klo, khi = span
        rep_full, t_full = timed(ok.scan_perfect, klo, khi, "all", jobs=1, checkpoint=path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        kept = lines[: len(lines) // 2]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(kept)
        rep_resumed, t_resume = timed(ok.scan_perfect, klo, khi, "all", jobs=1, checkpoint=path)
        kept_ints = sum(
            min(BLOCK_SIZE, khi - (klo + json.loads(line)["block"] * BLOCK_SIZE) + 1) for line in kept
        )
        with open(path, encoding="utf-8") as fh:
            blocks = sorted(json.loads(line)["block"] for line in fh if line.strip())
        examined = 2 * (khi - klo + 1) - kept_ints
        return examined, t_full + t_resume, {
            "full": rep_full.to_json_dict(),
            "resumed": rep_resumed.to_json_dict(),
            "kept_lines": len(kept),
            "blocks": blocks,
            "bytes": os.path.getsize(path),
        }

    def sigma_spot(self, spot):
        lo, hi, offsets = spot
        values = self.scan_mod.sigma_segment(lo, hi)
        return [[lo + i, int(values[i])] for i in offsets]


def own_peak_rss_mb() -> float:
    """This process's own peak RSS.  Not ru_maxrss: Linux starts that at exec
    from the peak of the process that started this one (see launcher.py)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(families, family, inputs, tracer, traced, part=0):
    fn = getattr(families, family)
    gc.collect()
    if traced:
        with tracer.active(family), tracer.span("pass", family):
            return fn(inputs, tracer, part)
    return fn(inputs, NoTracer(), part)


def merge_parts(parts):
    """One pass from its parts: operations, failures, work and seconds add up."""
    rates = {}
    outputs = {}
    for _, _, part_rates, part_outputs in parts:
        for key, (work, seconds) in part_rates.items():
            total = rates.setdefault(key, [0, 0.0])
            total[0] += work
            total[1] += seconds
        outputs.update(part_outputs)
    return sum(p[0] for p in parts), sum(p[1] for p in parts), rates, outputs


def layer_extras(families, spec, main):
    """Layer figures that no pass yields: the CLI's floor and import cost, a
    full command rotation when the CLI is a probe, the jobs=2 reference."""
    extras = {"interp_ms": [], "import_ms": [], "modules_loaded": None}
    probe = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); import opnkit; "
             "print((time.perf_counter() - t) * 1e3, len(sys.modules) - n)")
    for _ in range(3):
        extras["interp_ms"].append(families.run_child([sys.executable, "-c", "pass"])[0])
        _, _, code, out, err = families.run_child([sys.executable, "-c", probe])
        if code != 0:
            raise RuntimeError(f"import probe failed: {err[-500:]}")
        ms, count = out.split()
        extras["import_ms"].append(float(ms))
        extras["modules_loaded"] = int(count)
    if main != "cli":
        cli_inp = dict(spec["inputs"]["cli"]["timed"], rotation=list(spec["inputs"]["cli"]["timed"]["commands"]))
        families.cli(cli_inp, NoTracer(), 0)
    wlo, whi = spec["inputs"]["scan"]["timed"]["jobs2_window"]
    t = perf_counter()
    families.ok.scan_perfect(wlo, whi, "all", jobs=2)
    extras["jobs2_ms"] = (perf_counter() - t) * 1e3
    return extras


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    families = Families(spec)
    try:
        return run(spec, families, result_path)
    finally:
        families.close()


def run(spec, families, result_path) -> int:
    main_family = spec["workload"]
    inputs = {f: {k: families.prepare(f, v[k]) for k in ("timed", "warm")} for f, v in spec["inputs"].items()}
    for family in ("cli", "audit", "refine", "scan"):
        if family != "cli" or main_family == "cli":
            for part in range(SCAN_PARTS if family == "scan" else 1):
                run_pass(families, family, inputs[family]["warm"], None, False, part)
    families.cli_records.clear()
    print("READY", flush=True)
    if spec["setup_only"]:
        return 0

    from tracer import Tracer

    trace = spec["trace"]
    tracer = Tracer() if trace else None
    passes = {f: [] for f in inputs}
    first_outputs: dict[str, dict] = {}
    nondeterministic = []
    pending = []  # the parts of an unfinished scan pass

    def record(family, traced):
        part = len(pending) if family == "scan" else 0
        result = run_pass(families, family, inputs[family]["timed"], tracer, traced, part)
        if family == "scan":
            pending.append(result)
            if len(pending) < SCAN_PARTS:
                return
            result = merge_parts(pending)
            pending.clear()
        ops, failed, rates, outputs = result
        if family not in first_outputs:
            first_outputs[family] = outputs
        elif outputs != first_outputs[family]:
            nondeterministic.append(family)
        passes[family].append({"ops": ops, "failed": failed, "traced": traced,
                               "rates": {k: list(v) for k, v in rates.items()}})

    # whole rounds, each the same list of passes, so every family is sampled
    # across the whole run; stop at the round boundary nearest to `seconds`
    start = perf_counter()
    rounds = 0
    elapsed = 0.0
    while rounds < MIN_ROUNDS or elapsed + 0.5 * elapsed / rounds < spec["seconds"]:
        # a traced run traces every other round, so the tracing overhead is
        # measured inside one run
        traced = bool(trace) and rounds % 2 == 1
        for family in ROUND[main_family]:
            record(family, traced)
        rounds += 1
        elapsed = perf_counter() - start
    measured_s = elapsed

    result = {
        "peak_rss_mb": own_peak_rss_mb(),
        "passes": passes,
        "rounds": rounds,
        "measured_s": measured_s,
        "first_outputs": first_outputs,
        "nondeterministic": sorted(set(nondeterministic)),
        "cli_records": families.cli_records,
        "sigma_spot": families.sigma_spot(inputs["scan"]["timed"]["sigma_spot"]),
    }
    if trace:
        result["extras"] = layer_extras(families, spec, main_family)
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
