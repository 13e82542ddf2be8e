"""Command-line front end: JSON instance files in, reports out.

An instance file is one object with a "players" list (each entry carrying a
"name" and a "density" with "kind", "breakpoints", "values") plus optional
"sigma" (piece k goes to player sigma[k], 0-indexed) and "tol" entries.
Densities are normalized on load; when that changes them a warning goes to
stderr. All machine output is rounded to 12 significant digits and is
byte-identical across runs for the same input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import fairness_report, valuation_rows
from .errors import EquicutError, ParseError, ValidationError
from .measure import KINDS, PIECEWISE_CONSTANT, Density, validate_and_normalize
from .oracle import grid_search_equitable
from .solver import (
    DEFAULT_TOL,
    Instance,
    SolveStatus,
    piece_values,
    solve_equitable,
    sweep_permutations,
)
from .topology import cuts_to_sphere, inf_norm, residual_map, sphere_to_cuts

#: Finest tolerance accepted, the spacing of doubles at 1.0: values and
#: cuts live in [0, 1], and a finer tolerance is below what the bisection
#: on the common value can resolve.
MIN_TOL = sys.float_info.epsilon

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_BEST_EFFORT = 2

FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class InstanceFile:
    """Validated contents of an instance file."""

    names: tuple[str, ...]
    densities: tuple[Density, ...]
    sigma: tuple[int, ...] | None
    tol: float | None
    warnings: tuple[str, ...]

    def instance(self, sigma=None) -> Instance:
        return Instance(self.densities, self.sigma if sigma is None else tuple(sigma))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_tol(tol, label: str) -> float:
    """``tol`` as a float; a ParseError naming ``label`` unless it is a
    finite number of at least MIN_TOL."""
    if not (_is_number(tol) and math.isfinite(tol) and tol > 0.0):
        raise ParseError(f"{label} must be a positive finite number, got {tol!r}")
    if tol < MIN_TOL:
        raise ParseError(
            f"{label} {tol!r} is below what double precision resolves; use at least {MIN_TOL!r}"
        )
    return float(tol)


def parse_instance(path) -> InstanceFile:
    """Load and validate an instance file.

    Structural problems (unreadable file, bad JSON, wrong shapes) raise
    ParseError with file and field context; densities that parse but fail
    domain checks raise ValidationError wrapping the underlying error.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    players = doc.get("players")
    if not isinstance(players, list) or not players:
        raise ParseError(f"{path}: \"players\" must be a non-empty list")

    names: list[str] = []
    densities: list[Density] = []
    warnings: list[str] = []
    for i, entry in enumerate(players):
        where = f"players[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: {where} must be an object")
        name = entry.get("name", f"player{i + 1}")
        if not isinstance(name, str) or not name:
            raise ParseError(f"{path}: {where}.name must be a non-empty string")
        if name in names:
            raise ParseError(f"{path}: duplicate player name {name!r}")
        dens = entry.get("density")
        if not isinstance(dens, dict):
            raise ParseError(f"{path}: {where}.density must be an object")
        kind = dens.get("kind")
        if kind not in KINDS:
            raise ParseError(
                f"{path}: {where}.density.kind must be one of {list(KINDS)}, got {kind!r}"
            )
        for field in ("breakpoints", "values"):
            seq = dens.get(field)
            if not isinstance(seq, list) or not all(_is_number(x) for x in seq):
                raise ParseError(f"{path}: {where}.density.{field} must be a list of numbers")
        try:
            d = validate_and_normalize(kind, dens["breakpoints"], dens["values"])
        except EquicutError as exc:
            raise ValidationError(f"{path}: {where} ({name}): {exc}") from exc
        if abs(d.scale - 1.0) > 1e-12:
            warnings.append(f"{where} ({name}): density normalized by factor {_fmt(d.scale)}")
        names.append(name)
        densities.append(d)

    n = len(densities)
    sigma = doc.get("sigma")
    if sigma is not None:
        if not isinstance(sigma, list) or not all(
            _is_number(k) and float(k).is_integer() for k in sigma
        ):
            raise ParseError(f"{path}: \"sigma\" must be a list of integers")
        sigma = tuple(int(k) for k in sigma)
        if sorted(sigma) != list(range(n)):
            raise ValidationError(f"{path}: sigma must be a permutation of 0..{n - 1}")
    tol = doc.get("tol")
    if tol is not None:
        tol = _check_tol(tol, f"{path}: \"tol\"")
    return InstanceFile(tuple(names), tuple(densities), sigma, tol, tuple(warnings))


# --- output helpers ---------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sig(x: float) -> float:
    return float(_fmt(x))


def _round_floats(obj):
    if isinstance(obj, float):
        return _sig(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload) -> str:
    return json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n"


def _emit_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _fairness_payload(report) -> dict:
    return {
        "equitable_gap": report.equitable_gap,
        "proportional_ok": report.proportional_ok,
        "proportional_margin": report.proportional_margin,
        "envy_free_ok": report.envy_free_ok,
        "worst_envy": report.worst_envy,
        "exact_gap": report.exact_gap,
    }


def _pieces_payload(names, inst, cuts) -> list[dict]:
    edges = (0.0, *cuts, 1.0)
    own = piece_values(inst, cuts)
    return [
        {
            "piece": k + 1,
            "interval": [edges[k], edges[k + 1]],
            "player": names[inst.sigma[k]],
            "value": own[k],
        }
        for k in range(inst.n)
    ]


def _fairness_lines(report) -> list[str]:
    def verdict(flag):
        return "ok" if flag else "FAIL"

    return [
        f"equitable gap  {_fmt(report.equitable_gap)}",
        f"proportional   {verdict(report.proportional_ok)} (margin {_fmt(report.proportional_margin)})",
        f"envy-free      {verdict(report.envy_free_ok)} (worst envy {_fmt(report.worst_envy)})",
        f"exact gap      {_fmt(report.exact_gap)}",
    ]


def _piece_lines(pieces) -> list[str]:
    out = []
    for p in pieces:
        lo, hi = p["interval"]
        out.append(
            f"piece {p['piece']}        [{_fmt(lo)}, {_fmt(hi)}] -> {p['player']}"
            f" (value {_fmt(p['value'])})"
        )
    return out


# --- commands -----------------------------------------------------------------

def _parse_sigma_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"--sigma expects comma-separated integers, got {text!r}") from exc


def _parse_floats_flag(flag: str, text: str) -> tuple[float, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _load(args) -> tuple[InstanceFile, Instance, float]:
    tol = getattr(args, "tol", None)
    if tol is not None:
        _check_tol(tol, "--tol")
    ifile = parse_instance(args.file)
    for warning in ifile.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    sigma = _parse_sigma_flag(args.sigma) if getattr(args, "sigma", None) else None
    inst = ifile.instance(sigma)
    if tol is None:
        tol = DEFAULT_TOL if ifile.tol is None else ifile.tol
    return ifile, inst, tol


def _cmd_solve(args) -> int:
    ifile, inst, tol = _load(args)
    sol = solve_equitable(inst, tol=tol)
    report = fairness_report(valuation_rows(inst.densities, sol.cuts, inst.sigma), inst.sigma, tol)
    pieces = _pieces_payload(ifile.names, inst, sol.cuts)
    payload = {
        "players": list(ifile.names),
        "sigma": list(inst.sigma),
        "tol": tol,
        "cuts": list(sol.cuts),
        "value": sol.value,
        "gap": sol.gap,
        "status": sol.status.value,
        "residual_norm": sol.residual_norm,
        "iterations": sol.iterations,
        "pieces": pieces,
        "fairness": _fairness_payload(report),
    }
    if args.format == "json":
        out = _emit_json(payload)
    elif args.format == "csv":
        out = _emit_csv(
            [
                ["value", "gap", "status", "residual_norm", "iterations", "cuts"],
                [
                    _fmt(sol.value),
                    _fmt(sol.gap),
                    sol.status.value,
                    _fmt(sol.residual_norm),
                    sol.iterations,
                    " ".join(_fmt(c) for c in sol.cuts),
                ],
            ]
        )
    else:
        lines = [
            f"status         {sol.status.value}",
            f"iterations     {sol.iterations}",
            f"common value   {_fmt(sol.value)}",
            f"cuts           {' '.join(_fmt(c) for c in sol.cuts) or '(none)'}",
            f"gap            {_fmt(sol.gap)}",
            f"residual norm  {_fmt(sol.residual_norm)}",
            *_piece_lines(pieces),
            *_fairness_lines(report),
        ]
        out = "\n".join(lines) + "\n"
    print(out, end="")
    return EXIT_OK if sol.status is not SolveStatus.BEST_EFFORT else EXIT_BEST_EFFORT


def _cmd_sweep(args) -> int:
    ifile, _, tol = _load(args)
    rows = sweep_permutations(ifile.densities, tol)
    payload = [
        {
            "sigma": list(sigma),
            "value": sol.value,
            "gap": sol.gap,
            "status": sol.status.value,
            "residual_norm": sol.residual_norm,
            "iterations": sol.iterations,
            "cuts": list(sol.cuts),
        }
        for sigma, sol in rows
    ]
    if args.format == "json":
        out = _emit_json(payload)
    elif args.format == "csv":
        table = [["sigma", "value", "gap", "status", "residual_norm", "iterations", "cuts"]]
        for sigma, sol in rows:
            table.append(
                [
                    ",".join(str(k) for k in sigma),
                    _fmt(sol.value),
                    _fmt(sol.gap),
                    sol.status.value,
                    _fmt(sol.residual_norm),
                    sol.iterations,
                    " ".join(_fmt(c) for c in sol.cuts),
                ]
            )
        out = _emit_csv(table)
    else:
        width = max(len(",".join(str(k) for k in sigma)) for sigma, _ in rows) + 2
        lines = [f"{'sigma':<{width}} {'value':<16} {'gap':<12} status"]
        for sigma, sol in rows:
            lines.append(
                f"{','.join(str(k) for k in sigma):<{width}} "
                f"{_fmt(sol.value):<16} {_fmt(sol.gap):<12} {sol.status.value}"
            )
        out = "\n".join(lines) + "\n"
    print(out, end="")
    worst = any(sol.status is SolveStatus.BEST_EFFORT for _, sol in rows)
    return EXIT_BEST_EFFORT if worst else EXIT_OK


def _cmd_verify(args) -> int:
    ifile, inst, tol = _load(args)
    cuts = _parse_floats_flag("--cuts", args.cuts)
    matrix = valuation_rows(inst.densities, cuts, inst.sigma)
    report = fairness_report(matrix, inst.sigma, tol)
    pieces = _pieces_payload(ifile.names, inst, cuts)
    payload = {
        "players": list(ifile.names),
        "sigma": list(inst.sigma),
        "tol": tol,
        "cuts": list(cuts),
        "matrix": [list(row) for row in matrix],
        "pieces": pieces,
        "fairness": _fairness_payload(report),
    }
    if args.format == "json":
        out = _emit_json(payload)
    elif args.format == "csv":
        table = [["player", *(f"piece_{j + 1}" for j in range(inst.n))]]
        for name, row in zip(ifile.names, matrix):
            table.append([name, *(_fmt(x) for x in row)])
        out = _emit_csv(table)
    else:
        lines = [
            f"players        {', '.join(ifile.names)}",
            f"cuts           {' '.join(_fmt(c) for c in cuts) or '(none)'}",
            *_piece_lines(pieces),
            *_fairness_lines(report),
        ]
        out = "\n".join(lines) + "\n"
    print(out, end="")
    return EXIT_OK


def _cmd_residual(args) -> int:
    ifile, inst, _ = _load(args)
    if bool(args.cuts) == bool(args.sphere):
        raise ParseError("give exactly one of --cuts or --sphere")
    if args.cuts:
        point = cuts_to_sphere(_parse_floats_flag("--cuts", args.cuts))
    else:
        point = _parse_floats_flag("--sphere", args.sphere)
    residual = residual_map(inst, point)
    payload = {
        "sphere_point": list(point),
        "cuts": list(sphere_to_cuts(point)),
        "residual": list(residual),
        "max_norm": inf_norm(residual),
    }
    if args.format == "json":
        out = _emit_json(payload)
    elif args.format == "csv":
        table = [["component", "residual"]]
        table.extend([k + 1, _fmt(r)] for k, r in enumerate(residual))
        out = _emit_csv(table)
    else:
        lines = [
            f"sphere point   {' '.join(_fmt(x) for x in point)}",
            f"cuts           {' '.join(_fmt(c) for c in payload['cuts']) or '(none)'}",
            f"residual       {' '.join(_fmt(r) for r in residual) or '(none)'}",
            f"max norm       {_fmt(payload['max_norm'])}",
        ]
        out = "\n".join(lines) + "\n"
    print(out, end="")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _, inst, _ = _load(args)
    cuts, gap = grid_search_equitable(inst, args.resolution)
    payload = {"resolution": args.resolution, "cuts": list(cuts), "gap": gap}
    if args.format == "json":
        out = _emit_json(payload)
    elif args.format == "csv":
        out = _emit_csv(
            [
                ["cuts", "gap"],
                [" ".join(_fmt(c) for c in cuts), _fmt(gap)],
            ]
        )
    else:
        lines = [
            f"resolution     {_fmt(args.resolution)}",
            f"cuts           {' '.join(_fmt(c) for c in cuts) or '(none)'}",
            f"gap            {_fmt(gap)}",
        ]
        out = "\n".join(lines) + "\n"
    print(out, end="")
    return EXIT_OK


def _cmd_random(args) -> int:
    if args.players < 1:
        raise ParseError(f"--players must be at least 1, got {args.players}")
    rng = random.Random(args.seed)
    players = []
    for i in range(args.players):
        pieces = rng.randint(1, max(args.pieces, 1))
        interior: set[float] = set()
        while len(interior) < pieces - 1:
            interior.add(round(rng.uniform(0.02, 0.98), 6))
        breakpoints = [0.0, *sorted(interior), 1.0]
        count = pieces if args.kind == PIECEWISE_CONSTANT else pieces + 1
        values = [round(rng.uniform(0.0, 4.0), 6) for _ in range(count)]
        if not any(values):
            values[rng.randrange(count)] = 1.0
        # written normalized, so loading the file prints no warnings
        d = validate_and_normalize(args.kind, breakpoints, values)
        players.append(
            {
                "name": f"p{i + 1}",
                "density": {
                    "kind": d.kind,
                    "breakpoints": list(d.breakpoints),
                    "values": list(d.values),
                },
            }
        )
    text = json.dumps({"players": players}, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


# --- argument plumbing ----------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(p, with_tol=True, with_sigma=True):
    p.add_argument("file", help="instance file (JSON)")
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    if with_tol:
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
    if with_sigma:
        p.add_argument("--sigma", default=None, help="piece assignment, e.g. 0,2,1")


def build_parser() -> _Parser:
    parser = _Parser(prog="equicut", description="equitable contiguous divisions of [0, 1]")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("solve", help="solve one instance for its player order")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="solve every player order and rank by value")
    _add_common(p, with_sigma=False)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="evaluate fairness of given cuts")
    _add_common(p)
    p.add_argument("--cuts", required=True, help="comma-separated cut positions")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("residual", help="evaluate the sphere residual map")
    _add_common(p, with_tol=False)
    p.add_argument("--cuts", default=None, help="comma-separated cut positions")
    p.add_argument("--sphere", default=None, help="comma-separated sphere coordinates")
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("oracle", help="grid-search reference answer")
    _add_common(p, with_tol=False)
    p.add_argument("--resolution", type=float, default=1e-3, help="grid spacing")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("random", help="generate a random instance file")
    p.add_argument("--players", type=int, default=3)
    p.add_argument("--pieces", type=int, default=4, help="max pieces per density")
    p.add_argument("--kind", choices=KINDS, default=PIECEWISE_CONSTANT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.set_defaults(func=_cmd_random)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except EquicutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
