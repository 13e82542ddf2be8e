"""The four workloads: seeded inputs, the timed operation, and its check.

Every operation gets an input of its own, drawn in order from one stream
seeded by ``--seed``, so no two operations of a run share work unless the
workload says so. ``generate`` (the set-up that ``setup_s`` times) builds
the first ``batch`` inputs; later ones are built between operations,
outside the timed region, and dropped after use so memory stays flat.
``op`` runs inside the timed region and ``check`` judges its result right
after, with the library's original, untraced functions. Load is a closed
loop: one caller, one thread, the next operation starts when the previous
one returns.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import equicut
import families
from equicut import cli
from equicut.analysis import fairness_report, valuation_matrix
from equicut.cli import parse_instance
from equicut.oracle import grid_search_equitable
from equicut.solver import DEFAULT_TOL, Instance, SolveStatus, solve_equitable

#: Full set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: Fresh interpreters per figure for cli.interpreter_ms and cli.import_ms.
CHILD_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import equicut; print(time.perf_counter() - t)"
#: Spacing of the oracle grid in the sparse parity check.
ORACLE_RESOLUTION = 1e-3
#: Reported gap and value must equal the independent recomputation this closely.
MATCH_TOL = 1e-12
CHILD_TIMEOUT_S = 60


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the package is imported from
    ``src`` of the checkout, as it is not installed."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def child_run(root: Path, argv, **kwargs) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; it is killed and reaped on timeout."""
    return subprocess.run(
        [sys.executable, *argv], cwd=root, env=child_env(root), timeout=CHILD_TIMEOUT_S, **kwargs
    )


def child_ms(root: Path, code: str) -> float:
    """Median wall time of ``python -c code`` in fresh interpreters."""
    times = []
    for _ in range(CHILD_REPEATS):
        t0 = perf_counter()
        child_run(root, ["-c", code], check=True)
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def setup_seconds(workload) -> float:
    """Median over SETUP_REPS of a fresh interpreter's ``import equicut``
    plus generating, validating and writing the workload's first inputs."""
    totals = []
    for _ in range(SETUP_REPS):
        child = child_run(workload.root, ["-c", IMPORT_PROBE], capture_output=True, text=True, check=True)
        t0 = perf_counter()
        workload.generate()
        totals.append(float(child.stdout) + perf_counter() - t0)
    return statistics.median(totals)


@dataclass
class Tally:
    """Operation outcomes. ``units`` are the solutions judged against tol:
    one per operation, or one per order for a sweep."""

    attempted: int = 0
    failed: int = 0
    units: int = 0
    within: int = 0
    iterations: int = 0
    statuses: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def solution(self, status: str, within: bool) -> None:
        self.units += 1
        self.within += within
        self.statuses[status] = self.statuses.get(status, 0) + 1


def check_solution(inst: Instance, sol, tol: float):
    """Judge one solution independently of the solver.

    Returns ``(problem, gap)``: a description of what is wrong or None, and
    the gap recomputed from the valuation matrix.
    """
    cuts = sol.cuts
    if len(cuts) != inst.n - 1:
        return f"{len(cuts)} cuts for {inst.n} players", math.inf
    if any(not 0.0 <= c <= 1.0 for c in cuts) or any(a > b for a, b in zip(cuts, cuts[1:])):
        return f"cuts {cuts!r} not nondecreasing inside [0, 1]", math.inf
    report = fairness_report(valuation_matrix(inst.densities, cuts, inst.sigma), inst.sigma, tol)
    gap = report.equitable_gap
    value = math.fsum(report.assigned_values) / inst.n
    if not (abs(sol.gap - gap) <= MATCH_TOL and abs(sol.value - value) <= MATCH_TOL):
        return f"reported gap/value {sol.gap!r}/{sol.value!r}, recomputed {gap!r}/{value!r}", gap
    if sol.status is not SolveStatus.BEST_EFFORT and not gap <= tol:
        return f"status {sol.status.value} with recomputed gap {gap!r} > tol {tol!r}", gap
    return None, gap


def judge(tally: Tally, inst: Instance, sol, tol: float) -> bool:
    problem, gap = check_solution(inst, sol, tol)
    tally.solution(sol.status.value, gap <= tol)
    if problem is not None:
        tally.fail(problem)
    return problem is None


class Workload:
    name = ""
    tol = DEFAULT_TOL
    #: Inputs built during set-up.
    batch = 0

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def generate(self) -> None:
        """Restart the input stream and build the first ``batch`` inputs."""
        self._rng = random.Random(self.seed)
        self.inputs = [self.make(i) for i in range(self.batch)]

    def make(self, i: int):
        """Input i; inputs are made in order, each from the shared stream."""
        raise NotImplementedError

    def prepare(self, i: int):
        """Input of operation i, chosen outside the timed region."""
        return self.inputs[i] if i < len(self.inputs) else self.make(i)

    def op(self, arg):
        raise NotImplementedError

    def check(self, arg, result, tally: Tally) -> None:
        raise NotImplementedError

    def iterations(self, result) -> int:
        """Bisection iterations the operation's solves reported."""
        return 0

    def figures(self, tally: Tally) -> dict:
        """Figures the checks gathered over the run, and summary lines."""
        return {}


class Dense(Workload):
    """One ``solve_equitable`` per instance with no zero plateaus."""

    name = "dense"
    ns = families.DENSE_NS
    raw = staticmethod(families.dense_raw)
    batch = 500

    def make(self, i: int) -> Instance:
        return families.instance(self._rng, i, self.ns, self.raw)

    def op(self, inst):
        return equicut.solve_equitable(inst)

    def check(self, inst, sol, tally: Tally) -> None:
        judge(tally, inst, sol, self.tol)

    def iterations(self, sol) -> int:
        return sol.iterations


class Sparse(Dense):
    """Dense's operation on plateau-heavy instances, plus oracle parity."""

    name = "sparse"
    ns = families.SPARSE_NS
    raw = staticmethod(families.sparse_raw)

    def generate(self) -> None:
        super().generate()
        self._oracle_calls = 0
        self._oracle_s = 0.0
        self._worse = 0
        self._pieces = [0, 0]

    def check(self, inst, sol, tally: Tally) -> None:
        """Dense's check, then the grid oracle on every n <= 3 instance. The
        solver is worse when its gap exceeds the oracle's by more than the
        grid error bound, 2 x max height x resolution."""
        super().check(inst, sol, tally)
        zero, total = families.zero_pieces(inst)
        self._pieces[0] += zero
        self._pieces[1] += total
        if inst.n > 3:
            return
        t0 = perf_counter()
        _, oracle_gap = grid_search_equitable(inst, ORACLE_RESOLUTION)
        self._oracle_s += perf_counter() - t0
        self._oracle_calls += 1
        bound = 2.0 * max(d.max_height for d in inst.densities) * ORACLE_RESOLUTION
        self._worse += sol.gap > oracle_gap + bound

    def figures(self, tally: Tally) -> dict:
        calls = self._oracle_calls
        worse_frac = self._worse / calls if calls else 0.0
        solves = tally.units or 1
        refined = solves - tally.statuses.get("converged", 0)
        descended = tally.statuses.get("best_effort", 0)
        return {
            "worse_than_oracle_frac": worse_frac,
            "oracle_ms_per_call": 1e3 * self._oracle_s / calls if calls else 0.0,
            "lines": [
                f"plateau_refine ran on {refined / solves:.4f} of solves,"
                f" descent_refine on {descended / solves:.4f}",
                f"zero-piece share {self._pieces[0] / max(self._pieces[1], 1):.4f}",
                f"worse than oracle on {self._worse}/{calls} n<=3 instances"
                f" (worse_than_oracle_frac {worse_frac:.6g})",
            ],
        }


class Sweep(Workload):
    """Serial ``sweep_permutations`` over all 720 orders of six players."""

    name = "sweep"
    batch = 8

    def make(self, i: int):
        return families.instance(self._rng, i, (families.SWEEP_N,), families.dense_raw).densities

    def op(self, densities):
        return equicut.sweep_permutations(densities)

    def iterations(self, rows) -> int:
        return sum(sol.iterations for _, sol in rows)

    def check(self, densities, rows, tally: Tally) -> None:
        n = len(densities)
        sigmas = [tuple(sigma) for sigma, _ in rows]
        if sorted(sigmas) != list(itertools.permutations(range(n))):
            tally.fail(f"sweep returned {len(rows)} rows, not each of the {n}! orders once")
            return
        problems = []
        keys = [(-sol.value, sigma) for sigma, sol in rows]
        if keys != sorted(keys):
            problems.append("sweep rows not ranked by value, then sigma")
        for sigma, sol in rows:
            problem, gap = check_solution(Instance(densities, sigma), sol, self.tol)
            tally.solution(sol.status.value, gap <= self.tol)
            if problem is not None:
                problems.append(f"sigma {sigma}: {problem}")
        if problems:
            tally.fail(problems[0])


def _sig(obj):
    """Round floats to 12 significant digits, as the CLI prints them."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _sig(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig(v) for v in obj]
    return obj


def _fairness(report) -> dict:
    return {
        "equitable_gap": report.equitable_gap,
        "proportional_ok": report.proportional_ok,
        "proportional_margin": report.proportional_margin,
        "envy_free_ok": report.envy_free_ok,
        "worst_envy": report.worst_envy,
        "exact_gap": report.exact_gap,
    }


@dataclass(frozen=True)
class Call:
    command: str
    path: Path
    argv: tuple[str, ...]
    cuts: tuple[float, ...] = ()


class Cli(Workload):
    """``equicut solve`` on a four-player file, then ``equicut verify`` of
    the cuts it printed, as separate processes, one at a time.

    ``in_process`` runs the same argv through ``equicut.cli.run`` inside
    this process instead; the traced run uses it, since spans cannot be
    recorded inside a child.
    """

    name = "cli"
    #: Instance files written during set-up; each serves one solve and one verify.
    batch = 16
    #: Later files reuse this many names, so a run leaves a bounded set behind.
    file_names = 64
    in_process = False

    def generate(self) -> None:
        self._folder = self.workdir / "cli"
        self._folder.mkdir(parents=True, exist_ok=True)
        self._printed: dict = {}
        super().generate()

    def make(self, k: int) -> Path:
        inst = families.instance(self._rng, k, (families.CLI_N,), families.dense_raw)
        path = self._folder / f"instance_{k % self.file_names:02d}.json"
        families.write_instance_file(path, inst)
        return path

    def prepare(self, i: int) -> Call:
        if i % 2 == 0:
            path = self._current = super().prepare(i // 2)
            return Call("solve", path, ("solve", str(path), "--format", "json"))
        path = self._current
        # The cuts the solve of this file printed; evenly spaced if it failed.
        default = tuple(j / families.CLI_N for j in range(1, families.CLI_N))
        cuts = self._printed.pop(path, default)
        text = ",".join(repr(c) for c in cuts)
        return Call("verify", path, ("verify", str(path), "--cuts", text, "--format", "json"), cuts)

    def op(self, call: Call):
        """Returns ``(exit code, stdout)``."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(call.argv))
            return code, out.getvalue()
        proc = child_run(self.root, ["-m", "equicut.cli", *call.argv], capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def iterations(self, result) -> int:
        try:
            return int(json.loads(result[1]).get("iterations", 0))
        except (ValueError, AttributeError):
            return 0

    def check(self, call: Call, result, tally: Tally) -> None:
        """Exit code and ``--format json`` output against the library's own
        result for the same file, rounded as the CLI rounds."""
        code, stdout = result
        inst = parse_instance(call.path).instance()
        try:
            payload = json.loads(stdout)
        except ValueError:
            tally.fail(f"{call.command} exit {code}: stdout is not JSON")
            return
        if call.command == "solve":
            self._printed[call.path] = tuple(float(c) for c in payload["cuts"])
            ref = solve_equitable(inst, tol=self.tol)
            if not judge(tally, inst, ref, self.tol):
                return
            want_code = 2 if ref.status is SolveStatus.BEST_EFFORT else 0
            cuts = ref.cuts
            expected = {
                "sigma": list(inst.sigma),
                "tol": self.tol,
                "cuts": list(ref.cuts),
                "value": ref.value,
                "gap": ref.gap,
                "status": ref.status.value,
                "residual_norm": ref.residual_norm,
                "iterations": ref.iterations,
            }
        else:
            want_code = 0
            cuts = call.cuts
            expected = {"cuts": list(cuts)}
        matrix = valuation_matrix(inst.densities, cuts, inst.sigma)
        report = fairness_report(matrix, inst.sigma, self.tol)
        if call.command == "verify":
            tally.solution("verify", report.equitable_gap <= self.tol)
            expected["matrix"] = [list(row) for row in matrix]
        expected["fairness"] = _fairness(report)
        got = {key: payload.get(key) for key in expected}
        if code != want_code:
            tally.fail(f"{call.command} {call.path.name}: exit {code}, expected {want_code}")
        elif got != _sig(expected):
            tally.fail(f"{call.command} {call.path.name}: output differs from the library result")


WORKLOADS = {w.name: w for w in (Dense, Sparse, Sweep, Cli)}
