"""opnkit benchmark: two workloads over four operation families, outputs
checked against independent oracles, one JSON result line.

    python3 perfbench/run.py --workload {cli,scan} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports opnkit from ``src/`` there and
writes only under ``.perfbench_tmp/`` (removed at exit) and, for a traced
run, ``.perfbench_out/``.  The measured work runs in a separate worker
process (worker.py); this process generates the inputs from the seed,
computes the oracles, checks the worker's outputs and prints the result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs as gen  # noqa: E402
import oracles  # noqa: E402
from worker import BLOCK_SIZE  # noqa: E402

SETUP_SAMPLES = 5  # set-up is timed in this many fresh workers; the median is reported
TIME_LIMIT_S = 170  # for all workers of a run together

RATE_FAMILY = {
    "audits_per_s": "audit", "checks_per_s": "audit", "tables_per_s": "refine",
    "decisions_per_s": "refine", "sieve_n_per_s": "scan", "chain_n_per_s": "scan",
}

# per-layer metric -> (family whose passes it is taken from, span, tag, statistic)
#   ms: total per pass; calls: calls per pass; self_ms: self time per pass;
#   p50_ms: median per call; unit_ms: per 2^21 scanned integers
LAYER_SPANS = {
    "primes.is_prime_ms": ("audit", "primes.is_prime", "", "ms"),
    "primes.is_prime_calls": ("audit", "primes.is_prime", "", "calls"),
    "primes.primes_up_to_ms": ("scan", "primes.primes_up_to", "", "ms"),
    "arith.parse_ms": ("audit", "arith.parse", "", "ms"),
    "arith.render_ms": ("audit", "arith.render", "", "ms"),
    "arith.elementary_symmetric_ms": ("audit", "arith.elementary_symmetric", "", "ms"),
    "interval.nth_root_ms": ("refine", "interval.nth_root", "", "ms"),
    "interval.nth_root_calls": ("refine", "interval.nth_root", "", "calls"),
    "interval.to_decimal_ms": ("refine", "interval.to_decimal", "", "ms"),
    "bounds.report_ms": ("refine", "bounds.report", "", "ms"),
    "bounds.compare_ms": ("refine", "bounds.compare", "", "ms"),
    # call counts from audit: there the bounds layer runs many shallow calls
    # whose number a cache or a leaner audit would cut; refine's decisions are
    # one call each by construction, and its refinement steps show in
    # interval.nth_root_calls
    "bounds.compare_calls": ("audit", "bounds.compare", "", "calls"),
    "bounds.radical_lb_calls": ("audit", "bounds.radical_lb", "", "calls"),
    "bounds.prime_sum_lb_calls": ("audit", "bounds.prime_sum_lb", "", "calls"),
    "constraints.audit_ms": ("audit", "constraints.audit", "", "ms"),
    "constraints.audit_self_ms": ("audit", "constraints.audit", "", "self_ms"),
    "constraints.audit_ms_p50": ("audit", "constraints.audit", "", "p50_ms"),
    "constraints.json_ms": ("audit", "constraints.json", "", "ms"),
    "checks.lift_ms": ("audit", "checks.suite", "lift", "ms"),
    "checks.gmhm_ms": ("audit", "checks.suite", "gmhm", "ms"),
    "checks.bounds_ms": ("audit", "checks.suite", "bounds", "ms"),
    "checks.recip_ms": ("audit", "checks.suite", "recip", "ms"),
    "checks.recip_refined_ms": ("audit", "checks.suite", "recip-refined", "ms"),
    "checks.random_prime_set_ms": ("audit", "checks.random_prime_set", "", "ms"),
    "checks.chain_ms": ("scan", "checks.suite", "chain", "ms"),
    "scan.sigma_segment_ms.lo": ("scan", "scan.sigma_segment", "lo", "unit_ms"),
    "scan.sigma_segment_ms.hi": ("scan", "scan.sigma_segment", "hi", "unit_ms"),
    "scan.perfect_odd_segment_ms": ("scan", "scan.scan_perfect", "odd", "unit_ms"),
    "scan.radical_chain_segment_ms": ("scan", "scan.scan_radical_chain", "", "unit_ms"),
    "scan.spf_sieve_ms": ("scan", "scan.spf_sieve", "", "ms"),
    "scan.checkpoint_ms": ("scan", "scan.scan_perfect", "checkpoint", "self_ms"),
}
CLI_COMMAND_METRICS = {
    "cli.check_ms": ("check_small", "check_large"), "cli.bounds_ms": ("bounds",), "cli.sk_ms": ("sk",),
    "cli.verify_ms": ("verify",), "cli.chain_ms": ("chain",), "cli.scan_ms": ("scan",),
}


class BenchError(RuntimeError):
    pass


def spawn_worker(spec_path: str, result_path: str, root: str, deadline: float) -> float:
    """Start a worker, killed at `deadline`; return seconds until it printed
    READY."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                            cwd=root, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
    proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup_s


def with_near_ties(refine: dict) -> dict:
    """Each decision becomes two: a rational just below and one just above."""
    refine["decisions"] = [
        [r, kind, k, side, *oracles.near_tie(kind, r, k, side)]
        for r, kind, k in refine["decisions"] for side in ("below", "above")
    ]
    return refine


def verify(result: dict, inp: dict, seed: int) -> list[str]:
    problems = [f"{f}: passes disagree with the first pass" for f in result["nondeterministic"]]
    out = result["first_outputs"]
    cache: dict[str, dict] = {}

    def expect(text):
        if text not in cache:
            cache[text] = oracles.audit_expectation(text)
        return cache[text]

    audit_in = inp["audit"]["timed"]
    n = len(audit_in["candidates"])
    for text, doc in zip(audit_in["candidates"], out["audit"][:n]):
        if isinstance(doc, dict):
            if text not in gen.FAILING_CANDIDATES or not doc["error"].startswith(gen.FAILING_ERROR):
                problems.append(f"audit of {text[:40]!r} failed: {doc['error'][:120]}")
            continue
        problems += [f"audit {text[:40]!r}: {p}" for p in oracles.check_audit(doc, expect(text))]
    for (name, trials), doc_text in zip(audit_in["suites"], out["audit"][n:]):
        doc = json.loads(doc_text)
        counted = doc["checked"] > 0 if name == "gmhm" else doc["checked"] == trials
        if not (oracles.is_canonical(doc_text) and doc["passed"] and not doc["violations"] and counted):
            problems.append(f"suite {name}: {doc_text[:120]}")

    refine_in = inp["refine"]["timed"]
    tables = refine_in["tables"]
    for (r, digits, bits), doc in zip(tables, out["refine"]):
        problems += oracles.check_table(doc, r, digits, bits)
    for (r, kind, k, side, _, _), verdict in zip(refine_in["decisions"], out["refine"][len(tables):]):
        problems += [f"r={r} {kind} k={k}: {p}" for p in oracles.check_decision(verdict, side)]

    problems += oracles.check_scan(out["scan"], inp["scan"]["timed"], BLOCK_SIZE)
    problems += oracles.check_sigma_spot(result["sigma_spot"])

    commands = inp["cli"]["timed"]["commands"]
    expectations = {
        "check_small": expect(commands["check_small"][1]),
        "check_large": expect(commands["check_large"][1]),
        "sk": oracles.sk_expectation(commands["sk"][1]),
    }
    for label, record in out["cli"].items():
        problems += oracles.check_cli(label, record, seed, expectations)
    return problems


def median_rate(passes, key, traced=False):
    rates = [p["rates"][key][0] / p["rates"][key][1] for p in passes if p["traced"] == traced]
    return statistics.median(rates) if rates else None


def end_to_end(result: dict, setup: list[float], workload: str) -> dict:
    records = result["cli_records"]
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r[2] for r in records) if workload == "cli" else result["peak_rss_mb"],
        "cli_ms_p50": statistics.median(r[1] for r in records),
    }
    for key, family in RATE_FAMILY.items():
        metrics[key] = median_rate(result["passes"][family], key)
    return metrics


def per_layer(result: dict) -> dict:
    stats = {}
    for s in result["trace"]["stats"]:
        stats[(s["family"], s["name"], s["tag"])] = s
    traced_passes = {f: sum(p["traced"] for p in ps) for f, ps in result["passes"].items()}
    metrics = {}
    for name, (family, span, tag, stat) in LAYER_SPANS.items():
        s = stats.get((family, span, tag))
        passes = traced_passes[family]
        if s is None or not passes:
            raise BenchError(f"no {span} spans in the traced {family} passes")
        metrics[name] = {
            "ms": s["total_s"] * 1e3 / passes,
            "calls": s["calls"] / passes,
            "self_ms": s["self_s"] * 1e3 / passes,
            "p50_ms": s["p50_s"] * 1e3,
            "unit_ms": s["total_s"] * 1e3 / s["units"] if s["units"] else 0.0,
        }[stat]
    extras = result["extras"]
    records = result["cli_records"]
    metrics["cli.interp_ms"] = statistics.median(extras["interp_ms"])
    metrics["cli.import_ms"] = statistics.median(extras["import_ms"])
    metrics["cli.modules_loaded"] = extras["modules_loaded"]
    for name, labels in CLI_COMMAND_METRICS.items():
        metrics[name] = statistics.median(r[1] for r in records if r[0] in labels)
    metrics["cli.check_rss_mb"] = statistics.median(r[2] for r in records if r[0].startswith("check"))
    metrics["scan.checkpoint_bytes"] = result["first_outputs"]["scan"]["checkpoint"]["bytes"]
    metrics["scan.jobs2_ms"] = extras["jobs2_ms"]
    return metrics


def tracing_overhead(result: dict) -> dict:
    """Median untraced over median traced pass rate, minus 1, per rate (none
    for cli: its children are never traced)."""
    out = {}
    for key, family in RATE_FAMILY.items():
        plain = median_rate(result["passes"][family], key)
        traced = median_rate(result["passes"][family], key, traced=True)
        if plain and traced:
            out[key] = plain / traced - 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="opnkit benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "opnkit", "__init__.py")):
        print(f"error: no opnkit sources under {os.path.join(root, 'src')}; run from a checkout's root",
              file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp", f"{os.getpid()}")
    os.makedirs(tmp)
    try:
        inp = gen.make_inputs(args.workload, args.seed)
        for scale in ("timed", "warm"):
            with_near_ties(inp["refine"][scale])
        spec = {
            "root": root, "tmp": tmp, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "suite_seed": gen.SUITE_SEED, "inputs": inp,
        }
        spec_paths = {}
        for setup_only in (True, False):
            spec_paths[setup_only] = os.path.join(tmp, f"spec-{int(setup_only)}.json")
            with open(spec_paths[setup_only], "w", encoding="utf-8") as fh:
                json.dump(dict(spec, setup_only=setup_only), fh)
        result_path = os.path.join(tmp, "result.json")
        deadline = perf_counter() + TIME_LIMIT_S
        setup = [spawn_worker(spec_paths[True], result_path, root, deadline) for _ in range(SETUP_SAMPLES - 1)]
        setup.append(spawn_worker(spec_paths[False], result_path, root, deadline))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)

        problems = verify(result, inp, args.seed)
        every_pass = [p for ps in result["passes"].values() for p in ps]
        attempted = sum(p["ops"] for p in every_pass)
        failed = sum(p["failed"] for p in every_pass)
        if args.trace:
            values = per_layer(result)
            overhead = tracing_overhead(result)
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "overhead": overhead,
                           "layers": values, **result["trace"]}, fh)
            print(f"tracing overhead ({args.workload}): "
                  + ", ".join(f"{k} {v:+.1%}" for k, v in overhead.items()), file=sys.stderr)
        else:
            values = end_to_end(result, setup, args.workload)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in listed}
        if set(units) != set(values):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
        for p in problems[:40]:
            print(f"INCORRECT: {p}", file=sys.stderr)
        print(f"{args.workload}: {result['rounds']} rounds, {result['measured_s']:.1f} s measured, "
              f"{attempted} operations, {failed} failed, {len(problems)} problems", file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
        }))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
