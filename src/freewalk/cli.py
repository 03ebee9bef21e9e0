"""Experiment driver: config ingestion, orchestration, artifact emission.

One command per process, ``freewalk COMMAND CONFIG [--out DIR] [flags]``; a
command accepts only the flags that ``COMMANDS`` lists for it.  Every run
past the usage check writes a manifest (config hash, version, budgets,
resolved r values, wall time, and in its `engine` block each ball table the
run built: cap, elements, step path and kept bytes) next to its artifacts.
Exit status 0 on success and after ``--help``, 1 on a usage, configuration,
validation or any other error, 2 when a memory budget was exhausted
(partial results kept).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .engine import TABLE_BYTES_PER_ELEMENT, BudgetExceededError
from .groups import FactorSpec, FreeProduct
from .measures import Measure, default_radius, measure_from_pairs, return_sequence, validate
from . import green as green_mod
from . import parabolic as parabolic_mod
from . import ancona as ancona_mod
from . import automaton as automaton_mod
from . import tauberian as tauberian_mod

DEFAULT_BUDGETS = {
    "n_max": 20,
    "series_order": 48,
    "truncation": [4, 3],
    "horizon": 48,
    "kernel_order": 256,
    "h_ball": 48,
    "depth": 4,
    "sphere_m": 6,
    "sphere_b": 6,
    "triples": 200,
    "sample_ball": [3, 3],
    "window": [10, 20],
    "automaton_c": 3,
    "automaton_mb": [4, 3],
    "memory_cap_mb": 4096,
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    def finite(text: str) -> float:  # JSON's NaN and Infinity, and floats such as 1e999
        if not math.isfinite(float(text)):
            raise ConfigError(f"{path}: non-finite number {text} is not allowed")
        return float(text)

    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    for field in ("group", "measure"):
        if field not in cfg:
            raise ConfigError(f"{path}: missing required field {field!r}")
    return cfg


def build_group(cfg: dict) -> FreeProduct:
    """Factor i is {"moduli": [...]}, one modulus per coordinate and 0 for a
    free one, or a kind as shorthand: {"kind": "free-abelian", "rank": d} is
    d zeros and {"kind": "finite-cyclic", "order": m} is [m].  Each form may
    add "gens", a list of generator names; a key its form does not read is
    refused."""
    factors = []
    for i, f in enumerate(cfg["group"], start=1):
        def int_at_least(key, least, default=None):
            if type(value := f.get(key, default)) is not int or value < least:
                raise ConfigError(f"group[{i}].{key}: expected an int >= {least}, got {value!r}")
            return value

        kind, moduli = f.get("kind"), f.get("moduli")
        if kind is None and moduli is not None:
            if not (isinstance(moduli, list) and moduli and all(
                    type(m) is int and (m == 0 or m >= 2) for m in moduli)):
                raise ConfigError(f"group[{i}].moduli: expected a nonempty list of ints, "
                                  f"each 0 or >= 2, got {moduli!r}")
            reads = ("moduli", "gens")
        elif kind == "free-abelian" and moduli is None:
            moduli = [0] * int_at_least("rank", 1, default=1)
            reads = ("kind", "rank", "gens")
        elif kind == "finite-cyclic" and moduli is None:
            moduli = [int_at_least("order", 2)]
            reads = ("kind", "order", "gens")
        else:
            raise ConfigError(f"group[{i}]: expected moduli or a known factor kind, "
                              f"got kind {kind!r} and moduli {moduli!r}")
        for key in f:
            if key not in reads:
                raise ConfigError(f"group[{i}].{key}: not a key of a "
                                  f"{kind or 'moduli'} factor, which reads {', '.join(reads)}")
        gens = f.get("gens", [])
        if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
            raise ConfigError(f"group[{i}].gens: expected a list of strings, got {gens!r}")
        factors.append(FactorSpec(tuple(moduli), gens=tuple(gens)))
    try:
        return FreeProduct(factors)
    except ValueError as exc:
        raise ConfigError(f"group: {exc}") from exc


def build_measure(cfg: dict, group: FreeProduct, mode: str) -> Measure:
    pairs = []
    for i, entry in enumerate(cfg["measure"]):
        if len(entry) != 2:
            raise ConfigError(f"measure[{i}]: expected [element, weight] pair")
        elem, weight = entry
        try:
            pairs.append((group.parse(elem), Fraction(weight)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"measure[{i}] ({elem!r}, {weight!r}): {exc}") from exc
    try:
        return measure_from_pairs(group, pairs, mode)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc


def _budgets(cfg: dict, args) -> dict:
    given = cfg.get("budgets", {})
    unknown = sorted(set(given) - set(DEFAULT_BUDGETS) - {"radius"})
    if unknown:
        raise ConfigError(f"budgets: unknown key {', '.join(map(repr, unknown))}")
    budgets = dict(DEFAULT_BUDGETS)
    budgets.update(given)
    # the override flags' dests are budget keys; a flag not given parses to None
    budgets.update((k, v) for k, v in vars(args).items()
                   if k in DEFAULT_BUDGETS and v is not None)
    cap_mb = budgets["memory_cap_mb"]
    if cap_mb is not None and type(cap_mb) is not int:
        raise ConfigError(f"memory_cap_mb: expected null or an int >= 0, got {cap_mb!r}")
    if cap_mb is not None and cap_mb < 0:
        raise ConfigError(f"memory_cap_mb: must be >= 0, got {cap_mb}")
    # two-int pairs, each int at least its bound (None: any); --truncation gives "m,B";
    # automaton C and m below 1 are left to the automaton build, whose error names them
    flag, shown = getattr(args, "truncation", None) is not None, dict(budgets)
    if flag:
        with contextlib.suppress(ValueError):  # an unparsed string fails the check below
            budgets["truncation"] = [int(x) for x in shown["truncation"].split(",")]
    for key, least, names in (("truncation", (0, 1), "m,B"), ("sample_ball", (0, 1), "m,B"),
                              ("automaton_mb", (None, 1), "m,B"), ("window", (1, 1), "lo,hi")):
        if not (isinstance(pair := budgets[key], list) and len(pair) == 2 and all(
                type(x) is int and (lo is None or x >= lo) for x, lo in zip(pair, least))):
            bounds = " and ".join(n if lo is None else f"{n} >= {lo}"
                                  for n, lo in zip(names.split(","), least))
            raise ConfigError(f"{'--' if flag and key == 'truncation' else ''}{key}: expected "
                              f"{names} with ints {bounds}, got {shown[key]!r}")
    for key, least in (("radius", 0), ("sphere_m", 0), ("triples", 0), ("depth", 0),
                       ("n_max", 0), ("series_order", 1), ("horizon", 1),
                       ("kernel_order", 1), ("h_ball", 1), ("sphere_b", 1)):
        if type(value := budgets.get(key, least)) is not int or value < least:
            raise ConfigError(f"{key}: expected an int >= {least}, got {value!r}")
    if type(budgets["automaton_c"]) is not int:
        raise ConfigError(f"automaton_c: expected an int, got {budgets['automaton_c']!r}")
    return budgets


def _r_fractions(cfg: dict, args) -> list[float]:
    grid = cfg.get("r_grid", {})
    if getattr(args, "r_grid", None) is not None:
        fractions = [float(x) for x in args.r_grid.split(",")]
    elif "fractions" in grid:
        fractions = [float(x) for x in grid["fractions"]]
    elif {"start", "stop", "count"} <= set(grid):
        if type(n := grid["count"]) is not int or n < 1:
            raise ConfigError(f"r_grid: count: expected an int >= 1, got {n!r}")
        step = (float(grid["stop"]) - float(grid["start"])) / max(n - 1, 1)
        fractions = [float(grid["start"]) + i * step for i in range(n)]
    else:
        fractions = [0.3, 0.6, 0.9]
    if not fractions or not all(0 <= f < math.inf for f in fractions):
        raise ConfigError("r_grid: needs at least one fraction of R, each finite and "
                          f">= 0, got {fractions}")
    return fractions


def _resolve_r(ctx):
    """The estimate of R and the r values of the grid's fractions of it.
    A fraction whose r lies above the estimate's certified upper bound on R,
    where G(e, e | r) diverges, is refused."""
    est = green_mod.spectral_radius(ctx["measure"], ctx["budgets"]["n_max"])
    rs = [frac * est.point for frac in ctx["fractions"]]
    for frac, r in zip(ctx["fractions"], rs):
        if r > est.certified_upper:
            raise ConfigError(f"r_grid: fraction {frac} gives r = {r!r}, above the certified "
                              f"upper bound {est.certified_upper!r} on R "
                              f"(n_max {ctx['budgets']['n_max']})")
    return est, rs


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- command bodies -------------------------------------------------------------


def cmd_validate(ctx) -> dict:
    rep = validate(ctx["measure"], depth=ctx["budgets"]["depth"])
    out = {
        "symmetric": rep.symmetric,
        "aperiodic": rep.aperiodic,
        "period": rep.period,
        "checked_to": rep.checked_to,
        "admissible_to_depth": rep.admissible_to_depth,
        "support_radius": rep.support_radius,
    }
    _write_json(ctx["out"] / "report.json", out)
    return {}


def cmd_radius(ctx) -> dict:
    est = green_mod.spectral_radius(ctx["measure"], ctx["budgets"]["n_max"])
    _write_json(ctx["out"] / "radius.json", {
        "certified_upper": est.certified_upper,
        "point": est.point,
        "rho_point": est.rho_point,
        "n_max": est.n_max,
        "symmetric": est.symmetric,
    })
    _write_csv(ctx["out"] / "fekete.csv", ["n", "q2n_root"],
               [(n + 1, _fmt(v)) for n, v in enumerate(est.diagnostics)])
    return {"resolved_r": [est.point]}


def cmd_green(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    order, radius = budgets["series_order"], budgets["radius"]
    _, resolved = _resolve_r(ctx)
    qf = green_mod.pruned_return_weights(measure, order, radius)
    rows = []
    for frac, r in zip(ctx["fractions"], resolved):
        g, g1, g2 = (green_mod.series_derivative(qf, r, j) for j in range(3))
        tail = qf[-1] * r ** order
        rows.append((_fmt(frac), _fmt(r), _fmt(g), _fmt(g1), _fmt(g2), _fmt(tail)))
    _write_csv(ctx["out"] / "green.csv",
               ["fraction", "r", "G", "G1", "G2", "last_term"], rows)
    # sphere-sum table at the largest grid point
    tab = green_mod.sphere_sums(measure, max(resolved), budgets["sphere_m"],
                                budgets["sphere_b"], order, radius)
    _write_csv(ctx["out"] / "spheres.csv", ["m", "u_m"],
               [(m_, _fmt(v)) for m_, v in enumerate(tab.values)])
    return {"resolved_r": resolved}


def cmd_identities(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    m, B = budgets["truncation"]
    order, radius = budgets["series_order"], budgets["radius"]
    _, resolved = _resolve_r(ctx)
    out: dict = {"first_derivative": [], "iterated": []}
    for frac, r in zip(ctx["fractions"], resolved):
        rep = green_mod.derivative_identity_residual(measure, r, (m, B), order, radius)
        out["first_derivative"].append({
            "fraction": frac, "r": r, "left": rep.left, "right": rep.right,
            "residual": rep.residual,
        })
        for k in (2, 3):
            rep_k = green_mod.fk_identity_residual(measure, k, r, (m, B), order, radius)
            out["iterated"].append({
                "fraction": frac, "r": r, "k": k, "left": rep_k.left,
                "right": rep_k.right, "residual": rep_k.residual,
            })
    _write_json(ctx["out"] / "identities.json", out)
    return {"resolved_r": resolved}


def cmd_parabolic(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    order, radius = budgets["series_order"], budgets["radius"]
    horizon = budgets["horizon"]
    est, resolved = _resolve_r(ctx)
    report: dict = {"factors": []}
    group = measure.group
    for k in range(1, group.num_factors + 1):
        entry: dict = {"factor": k, "rows": []}
        for frac, r in zip(ctx["fractions"], resolved):
            kern = parabolic_mod.first_return_kernel(measure, k, r, horizon, radius)
            kr = parabolic_mod.kernel_radius(
                measure, k, r, budgets["kernel_order"], horizon, radius,
                budgets["h_ball"])
            same = parabolic_mod.same_green_residual(
                measure, k, r, order, radius, budgets["kernel_order"], horizon,
                budgets["h_ball"])
            entry["rows"].append({
                "fraction": frac, "r": r, "kernel_mass": kern.mass,
                "kernel_radius": _finite(kr.estimate),
                "mass_reciprocal": _finite(kr.mass_reciprocal),
                "same_green_residual": same["residual"],
            })
        # kernel at the spectral radius, exported as CSV pairs
        kern = parabolic_mod.first_return_kernel(measure, k, est.point, horizon, radius)
        rows = []
        for (h, hp), w in sorted(
            kern.entries(group, 2).items(),
            key=lambda kv: (kv[0][0].syllables, kv[0][1].syllables),
        ):
            if w > 0:
                rows.append((group.render(h), group.render(hp), _fmt(w)))
        _write_csv(ctx["out"] / f"kernel_{k}.csv", ["h", "h_prime", "weight"], rows)
        kr_top = parabolic_mod.kernel_radius(
            measure, k, est.point, budgets["kernel_order"], horizon, radius,
            budgets["h_ball"])
        entry["radius_at_spectral"] = _finite(kr_top.estimate)
        report["factors"].append(entry)
    _write_json(ctx["out"] / "parabolic.json", report)
    return {"resolved_r": resolved + [est.point]}


def cmd_classify(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    res = parabolic_mod.classify(
        measure, n_max=budgets["n_max"], order=budgets["series_order"],
        radius=budgets["radius"], horizon=budgets["horizon"],
        kernel_order=budgets["kernel_order"], h_ball=budgets["h_ball"],
    )
    doc = {
        "factors": [
            {
                "factor": f.factor,
                "kernel_radius": _finite(f.kernel_radius),
                "spectrally_degenerate": f.degenerate,
                "green_moments": {
                    "verdict": f.moments.verdict,
                    "ladder": list(f.moments.ladder),
                    "partial_sums": list(f.moments.partial_sums),
                    "increment_ratios": [_finite(x) for x in f.moments.increment_ratios],
                },
                "warnings": list(f.warnings),
            }
            for f in res.factors
        ],
        "divergent": res.divergent,
        "divergence_exponent": res.divergence_exponent,
        "divergence_grid": [[r, g] for r, g in res.divergence_grid],
        "spectrally_positive_recurrent": res.spectrally_positive_recurrent,
        "r_spectral": res.r_spectral,
        "warnings": list(res.warnings),
    }
    _write_json(ctx["out"] / "classification.json", doc)
    return {"resolved_r": [res.r_spectral]}


def cmd_llt(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    n_max = budgets["n_max"]
    seq = return_sequence(measure, n_max)
    rows = [(n, str(v) if seq.mode == "exact" else _fmt(v))
            for n, v in enumerate(seq.values)]
    _write_csv(ctx["out"] / "q.csv", ["n", "q_n"], rows)
    rep = validate(measure, depth=budgets["depth"])
    est = green_mod.spectral_radius(measure, n_max)
    lo, hi = budgets["window"]
    period = rep.period if rep.period > 1 else 1
    fit = tauberian_mod.fit_llt_exponent(
        tauberian_mod.SequenceSpec(tuple(float(v) for v in seq.values), "return sequence"),
        est.point, (lo, hi), period,
    )
    _write_json(ctx["out"] / "fit.json", {
        "alpha": fit.alpha,
        "window": list(fit.window),
        "period": period,
        "residual": fit.residual,
        "linear_trend": fit.linear_trend,
        "r_hat": fit.r_hat,
        "points": fit.points,
    })
    return {"resolved_r": [est.point]}


def cmd_automaton(ctx) -> dict:
    group, budgets = ctx["group"], ctx["budgets"]
    C = budgets["automaton_c"]
    m, B = budgets["automaton_mb"]
    auto = automaton_mod.canonical_automaton(group, C=C, m=m, B=B)
    report = automaton_mod.verify_structure(auto, m, B)
    doc = {
        "kind": auto.kind,
        "C": auto.C,
        "cone_types": len(auto.cone_types),
        "vertices": len(auto.vertices),
        "bundles": len(auto.bundles),
        "checks": report["checks"],
        "counts": report["counts"],
        "ok": report["ok"],
    }
    _write_json(ctx["out"] / "structure.json", doc)
    if ctx["args"].export_dot:
        (ctx["out"] / "automaton.dot").write_text(automaton_mod.export_dot(auto))
    lines = []
    for seq in auto.language(m, B):
        lines.append("\t".join(f"{fe.factor}:({','.join(map(str, fe.coords))})"
                               for fe in seq))
    (ctx["out"] / "language.txt").write_text("\n".join(lines) + "\n")
    return {}


def cmd_ancona(ctx) -> dict:
    measure, budgets = ctx["measure"], ctx["budgets"]
    group = measure.group
    m, B = budgets["sample_ball"]
    order, radius = budgets["series_order"], budgets["radius"]
    _, rs = _resolve_r(ctx)
    triples = ancona_mod.sample_triples(group, m, B, budgets["triples"])
    tri = ancona_mod.triangle_audit(measure, triples, rs, order, radius,
                                    budgets["n_max"])
    pairs = ancona_mod.geodesic_pairs(group, min(m, 3), min(B, 2))
    ratios = ancona_mod.ratio_audit(measure, pairs, rs, order, radius,
                                    budgets["n_max"])
    rows = [
        (group.render(row.x), group.render(row.y), group.render(row.z),
         _fmt(row.r), _fmt(row.ratio))
        for row in ratios.rows
    ]
    _write_csv(ctx["out"] / "ancona.csv", ["x", "y", "z", "r", "ratio"], rows)
    _write_json(ctx["out"] / "summary.json", {
        "triangle": {
            "triples_checked": tri.triples_checked,
            "violations": tri.violations,
            "uninformative": tri.uninformative,
            "worst_signed_slack": _finite(tri.worst_signed_slack),
        },
        "ratios": {
            "count": len(ratios.rows),
            "overall_min": _finite(ratios.overall_min),
            "overall_max": _finite(ratios.overall_max),
            "lower_bound_violations": ratios.lower_bound_violations,
        },
    })
    return {"resolved_r": rs}


def _laplace_report(seq, beta: float, s_grid, n_grid) -> dict:
    rep = tauberian_mod.check_partial_sums_vs_laplace(seq, beta, s_grid, n_grid)
    return {
        "beta": beta,
        "consistent": rep.consistent,
        "partial_spread": list(rep.partial_spread),
        "laplace_spread": list(rep.laplace_spread),
    }


def cmd_tauber(ctx) -> dict:
    args = ctx["args"]
    doc: dict = {}
    if args.beta is not None and not args.input:
        raise ValueError("--beta is the exponent of the --input sequence; "
                         "without --input it has nothing to apply to")
    if args.beta is not None and not math.isfinite(args.beta):
        raise ValueError(f"--beta must be a finite number, got {args.beta}")
    if args.input:
        with open(args.input, newline="") as fh:
            rows = [row for row in list(csv.reader(fh))[1:] if row]
        # n in the first column, the value (a float or an exact "p/q") in the second
        vals = sorted((int(row[0]), float(Fraction(row[1]))) for row in rows)
        bad = next((n for i, (n, _) in enumerate(vals) if n != i), None)
        if bad is not None:
            raise ValueError(f"{args.input}: the n column must run 0..N in steps of 1; "
                             f"first bad n = {bad}")
        seq = tauberian_mod.SequenceSpec(tuple(v for _, v in vals), args.input)
        n_top = len(seq) - 1
        doc["input"] = _laplace_report(
            seq, args.beta if args.beta is not None else 1.0,
            [1 - 2.0 ** (-j) for j in range(2, 8)],
            [max(2, n_top // 2**j) for j in range(5, -1, -1)],
        )
    else:
        N = 3000
        s_grid = [1 - 2.0 ** (-j) for j in range(3, 9)]
        n_grid = [2**j for j in range(4, 11)]
        families = {
            "constant": (lambda k: 1.0, 1.0),
            "linear": (lambda k: k + 1.0, 2.0),
            "sqrt": (lambda k: math.sqrt(k + 1.0), 1.5),
        }
        for name, (fn, beta) in families.items():
            seq = tauberian_mod.SequenceSpec(tuple(fn(k) for k in range(N + 1)), name)
            doc[name] = _laplace_report(seq, beta, s_grid, n_grid)
        mono = {}
        for beta in (0.25, 0.5, 0.75):
            seq = tauberian_mod.SequenceSpec(
                tuple((k + 1.0) ** (beta - 2.0) for k in range(N + 1)), "power tail")
            rep = tauberian_mod.check_monotone_lemma(seq, beta)
            mono[str(beta)] = {
                "hypothesis_ok": rep.hypothesis_ok,
                "conclusion_bounded": rep.conclusion_bounded,
            }
        doc["monotone_lemma"] = mono
    _write_json(ctx["out"] / "tauber.json", doc)
    return {}


FLAGS = {  # add_argument keywords; each budget override's dest is its budget key
    "--exact": {"dest": "arithmetic", "action": "store_const", "const": "exact",
                "help": "exact rational arithmetic, whatever the config says"},
    "--float": {"dest": "arithmetic", "action": "store_const", "const": "float",
                "help": "float arithmetic, whatever the config says"},
    "--n-max": {"type": int},
    "--series-order": {"type": int},
    "--truncation": {"metavar": "m,B"},
    "--memory-cap": {"dest": "memory_cap_mb", "type": int, "metavar": "MB",
                     "help": "ball-table budget of MB * 10^6 / TABLE_BYTES_PER_ELEMENT "
                             f"({TABLE_BYTES_PER_ELEMENT}) elements, the largest measured peak "
                             "bytes per element of a table build and one float step"},
    "--r-grid": {"metavar": "f1,f2,..."},
    "--export-dot": {"action": "store_true"},
    "--input": {"help": "CSV with n in the first column and the value in the second "
                        "after a header row, such as llt's q.csv"},
    "--beta": {"type": float,
               "help": "the exponent of the --input sequence (default 1); only with --input"},
}
RADIUS_FLAGS = ("--exact", "--float", "--memory-cap", "--n-max")
CLASSIFY_FLAGS = RADIUS_FLAGS + ("--series-order",)
GREEN_FLAGS = CLASSIFY_FLAGS + ("--r-grid",)
# command -> (handler, the flags it reads besides CONFIG and --out)
COMMANDS = {
    "validate": (cmd_validate, ("--exact", "--float", "--memory-cap")),
    "radius": (cmd_radius, RADIUS_FLAGS),
    "green": (cmd_green, GREEN_FLAGS),
    "identities": (cmd_identities, GREEN_FLAGS + ("--truncation",)),
    "parabolic": (cmd_parabolic, GREEN_FLAGS),
    "classify": (cmd_classify, CLASSIFY_FLAGS),
    "llt": (cmd_llt, RADIUS_FLAGS),
    "automaton": (cmd_automaton, ("--export-dot",)),
    "ancona": (cmd_ancona, GREEN_FLAGS),
    "tauber": (cmd_tauber, ("--input", "--beta")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="random-walk experiments on free products",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sub = commands.add_parser(name)
        sub.add_argument("config", help="path to a JSON experiment config")
        sub.add_argument("--out", help="artifact directory (default: the config's out)")
        arithmetic = sub.add_mutually_exclusive_group() if "--exact" in flags else None
        for flag in flags:
            target = arithmetic if flag in ("--exact", "--float") else sub
            target.add_argument(flag, **FLAGS[flag])
    return parser


def _make_dir(path) -> Path:
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    return target


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 after a usage error
        return 1 if exc.code else 0
    t0 = time.monotonic()
    status = 0
    extra: dict = {}
    out_dir = None
    cfg_text = ""
    budgets: dict = {}
    measure = None
    try:
        if args.out is not None:  # a config that cannot be loaded still gets a manifest
            out_dir = _make_dir(args.out)
        cfg = load_config(args.config)
        if out_dir is None:
            out_dir = _make_dir(cfg.get("out", "out"))
        cfg_text = json.dumps(cfg, sort_keys=True)
        mode = getattr(args, "arithmetic", None) or cfg.get("arithmetic", "exact")
        group = build_group(cfg)
        measure = build_measure(cfg, group, mode)
        budgets = _budgets(cfg, args)
        budgets.setdefault("radius", default_radius(measure, budgets["series_order"]))
        cap_mb = budgets["memory_cap_mb"]
        if cap_mb is not None:
            measure.max_table_elements = cap_mb * 1_000_000 // TABLE_BYTES_PER_ELEMENT
        ctx = {
            "args": args,
            "group": group,
            "measure": measure,
            "budgets": budgets,
            "fractions": _r_fractions(cfg, args),
            "out": out_dir,
        }
        extra = COMMANDS[args.command][0](ctx)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        status = 1
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        status = 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status = 1
    if out_dir is not None:
        manifest = {
            "command": args.command,
            "config_sha256": hashlib.sha256(cfg_text.encode()).hexdigest(),
            "version": __version__,
            "budgets": budgets,
            "resolved_r": extra.get("resolved_r", []),
            "wall_time_s": round(time.monotonic() - t0, 3),
            "exit_status": status,
            "partial": status == 2,
            "engine": {"tables": [
                {"cap": t.cap, "elements": t.size, "step": t.step_path, "bytes": t.nbytes}
                for t in (measure.tables() if measure is not None else [])]},
        }
        _write_json(out_dir / "manifest.json", manifest)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
