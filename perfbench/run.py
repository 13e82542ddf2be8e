"""Benchmark of equicut: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. With ``--trace 0`` the run times operations untraced and reports
the end-to-end metrics; with ``--trace 1`` it spends half the time
untraced and half with every public function of the package wrapped in a
span, and reports the per-layer metrics. Either way every operation's
output is checked right after it, outside the timing. BENCHMARK.json names
the metrics and their units; a human-readable summary comes first and the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Working directory inside the checkout for instance files and span dumps.
WORKDIR = ROOT / ".perfbench_out"
#: The traced half of a run also ends once this many spans are held, which
#: bounds its memory at a few tens of MB.
SPAN_CAP = 1_000_000

#: Robertson-Webb queries. plateau_end returns the rightmost point with the
#: same mass as its argument, a cut query for a zero target.
CUT_QUERIES = ("measure.generalized_inverse", "measure.plateau_end")
EVAL_QUERIES = ("measure.integral_on", "measure.cumulative_mass")


def parse_args(argv):
    p = argparse.ArgumentParser(description="equicut benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_ops(workload, seconds: float, tally, first: int = 0, tracer=None) -> list[float]:
    """Closed loop until the operations have taken ``seconds`` in total.

    Only the operation itself is timed. Its result is checked right after,
    and dropped, so memory and garbage collection do not grow with the
    number of operations. Returns the latencies.
    """
    latencies = []
    busy = 0.0
    i = first
    while not latencies or (busy < seconds and (tracer is None or tracer.spans() < SPAN_CAP)):
        arg = workload.prepare(i)
        t0 = perf_counter()
        try:
            result = workload.op(arg) if tracer is None else tracer.run_op(workload.op, arg)
        except Exception as exc:  # a failed operation
            result = exc
        latency = perf_counter() - t0
        latencies.append(latency)
        busy += latency
        tally.attempted += 1
        if isinstance(result, Exception):
            tally.fail(f"{type(result).__name__}: {result}")
        else:
            tally.iterations += workload.iterations(result)
            try:
                workload.check(arg, result, tally)
            except Exception as exc:  # the check itself tripped on the output
                tally.fail(f"check raised {type(exc).__name__}: {exc}")
        i += 1
    return latencies


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(latencies, tally, setup_s, rss) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": 1e3 * statistics.median(latencies),
        "op_ms.p90": 1e3 * p90(latencies),
        "within_tol_frac": tally.within / tally.units if tally.units else 0.0,
        "peak_rss_mb": rss,
    }


def per_layer(stats, tally, plain, traced, figures, cli_ms) -> dict:
    m = {}
    for fn in (
        "measure.generalized_inverse",
        "measure.integral_on",
        "measure.cumulative_mass",
        "topology.residual_map",
    ):
        m[f"{fn}.calls_per_op"] = stats.calls_per_op(fn)
        m[f"{fn}.self_us_per_call"] = stats.self_us_per_call(fn)
        m[f"{fn}.self_share"] = stats.self_share(fn)
    queries = CUT_QUERIES + EVAL_QUERIES
    m["measure.plateau_end.calls_per_op"] = stats.calls_per_op("measure.plateau_end")
    m["measure.validate_and_normalize.self_us_per_call"] = stats.self_us_per_call(
        "measure.validate_and_normalize"
    )
    m["rw.cut_queries_per_op"] = stats.outermost(CUT_QUERIES, queries) / stats.ops
    m["rw.eval_queries_per_op"] = stats.outermost(EVAL_QUERIES, queries) / stats.ops
    m["solver.chain_cuts.calls_per_op"] = stats.calls_per_op("solver.chain_cuts")
    m["solver.chain_cuts.self_share"] = stats.self_share("solver.chain_cuts")
    m["solver.chain_cuts.infeasible_frac"] = stats.tag_frac("solver.chain_cuts")
    m["solver.iterations_per_op"] = tally.iterations / tally.attempted
    m["solver.solve_equitable.self_share"] = stats.self_share("solver.solve_equitable")
    m["solver.piece_values.calls_per_op"] = stats.calls_per_op("solver.piece_values")
    m["solver.plateau_refine.calls_per_op"] = stats.calls_per_op("solver.plateau_refine")
    m["solver.plateau_refine.self_share"] = stats.self_share("solver.plateau_refine")
    m["solver.plateau_refine.rescued_frac"] = stats.frac_under_status(
        "solver.plateau_refine", "solver.solve_equitable", "refined_converged"
    )
    m["solver.sweep_permutations.self_share"] = stats.self_share("solver.sweep_permutations")
    m["topology.descent_refine.calls_per_op"] = stats.calls_per_op("topology.descent_refine")
    m["topology.descent_refine.self_share"] = stats.self_share("topology.descent_refine")
    m["topology.descent_refine.improved_frac"] = stats.tag_frac("topology.descent_refine")
    m["analysis.valuation_matrix.self_us_per_call"] = stats.self_us_per_call("analysis.valuation_matrix")
    m["analysis.fairness_report.self_us_per_call"] = stats.self_us_per_call("analysis.fairness_report")
    m["oracle.grid_search_equitable.ms_per_call"] = figures.get("oracle_ms_per_call", 0.0)
    m["worse_than_oracle_frac"] = figures.get("worse_than_oracle_frac", 0.0)
    m["cli.interpreter_ms"] = cli_ms.get("interpreter", 0.0)
    m["cli.import_ms"] = cli_ms.get("import", 0.0)
    m["cli.run_ms"] = cli_ms.get("run", 0.0)
    m["cli.parse_instance.self_us_per_call"] = stats.self_us_per_call("cli.parse_instance")
    m["trace_overhead"] = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    return m


def summary(args, tally, figures, metrics, units) -> list[str]:
    n = tally.attempted
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"  ops attempted {n}, failed {tally.failed} (failed_frac {tally.failed / n:.6g}),"
        f" within tol {tally.within}/{tally.units}",
        f"  statuses {json.dumps(tally.statuses, sort_keys=True)}",
    ]
    lines.extend(f"  {line}" for line in figures.get("lines", ()))
    lines.extend(f"  FAILED: {problem}" for problem in tally.problems)
    lines.extend(f"  {name:<52} {metrics[name]!r:>24} {unit}" for name, unit in units.items())
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "equicut" / "__init__.py").is_file():
        print(f"perfbench: no equicut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, WORKDIR)
    is_cli = args.workload == "cli"
    tally = workloads.Tally()

    if not args.trace:
        setup_s = workloads.setup_seconds(workload)
        latencies = run_ops(workload, args.seconds, tally)
        figures = workload.figures(tally)
        metrics = end_to_end(latencies, tally, setup_s, peak_rss_mb(children=is_cli))
    else:
        tracer = spans.Tracer()
        with tracer.installed():  # a traced set-up, for validate_and_normalize
            workload.generate()
        cli_ms = {}
        if is_cli:
            workload.in_process = True
            cli_ms["interpreter"] = workloads.child_ms(ROOT, "pass")
            cli_ms["import"] = workloads.child_ms(ROOT, "import equicut.cli") - cli_ms["interpreter"]
        half = args.seconds / 2
        plain = run_ops(workload, half, tally)
        traced = run_ops(workload, half, tally, len(plain), tracer)
        if is_cli:
            cli_ms["run"] = 1e3 * statistics.median(plain)
        figures = workload.figures(tally)
        metrics = per_layer(tracer.layer_stats(), tally, plain, traced, figures, cli_ms)
        tracer.write(WORKDIR / f"spans_{args.workload}.npz")

    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"perfbench: metrics {mismatch} differ from BENCHMARK.json")
    for line in summary(args, tally, figures, metrics, units):
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
