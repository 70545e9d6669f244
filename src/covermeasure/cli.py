"""Command-line interface: one executable, machine-readable output.

Every command prints a JSON envelope {command, format_version, params,
records} by default (see output.schema.json); --format csv/text give flat
rows or readable lines.  Identical argv and seed produce byte-identical
output.  Exit codes: 0 success, 2 usage error (a non-finite number
argument too), 1 computation error (overflow and non-finite results too).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import asymptotics, functionals, graphs, invariants, measure

FORMAT_VERSION = 1

_ALIAS_OF = {}  # canonical id -> alias, filled from graphs._ALIASES


def _name_field(graph) -> dict:
    """``{"name": alias}`` for a graph with an alias, else ``{}``."""
    if not _ALIAS_OF:
        _ALIAS_OF.update((graphs.resolve_graph(name).canonical_id(), name)
                         for name in graphs._ALIASES)
    name = _ALIAS_OF.get(graph.canonical_id())
    return {"name": name} if name else {}


def _rational(name: str, q: Fraction) -> dict:
    """The exact rational ``q`` as ``{name}_numerator`` and ``{name}_denominator``."""
    return {f"{name}_numerator": q.numerator, f"{name}_denominator": q.denominator}


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:  # one message for a non-number and a non-finite number
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _parse_list(text: str, parse) -> list:
    """The comma-separated entries of ``text``, each read by ``parse``; an
    empty argument has none, and an empty entry raises ValueError."""
    tokens = text.split(",") if text.strip() else []
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"empty entry in {text!r}")
    return [parse(tok) for tok in tokens]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_float_list(text: str) -> list[float]:
    out = _parse_list(text, float)
    for value in out:
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {value!r}")
    return out


# ---------------------------------------------------------------------------
# handlers: each returns (params, records, text_lines)
# ---------------------------------------------------------------------------

def _cmd_graphs_enumerate(args):
    found = graphs.enumerate_trivalent(args.rank)
    records = []
    lines = []
    for g in found:
        rec = {
            "graph_id": g.canonical_id(),
            "rank": g.rank,
            "vertices": g.num_vertices,
            "edges": [[u, v] for u, v in g.edges],
            "aut_order": len(graphs.automorphism_group(g)),
            "triv_order": len(graphs.triv_subgroup(g)),
            **_name_field(g),
        }
        records.append(rec)
        lines.append(graphs.text_record(g))
    return {"rank": args.rank}, records, lines


def _cmd_measure_weights(args):
    mixture = measure.build_limit_measure(args.rank)
    records = []
    lines = []
    for block, weight in zip(mixture.blocks, mixture.weights):
        rec = {
            "graph_id": block.graph.canonical_id(),
            "weight": float(weight),
            **_rational("exact", weight),
            "mass": float(block.mass),
            **_rational("mass", block.mass),
            **_name_field(block.graph),
        }
        records.append(rec)
        lines.append(f"{rec.get('name', rec['graph_id'])}: weight {weight} "
                     f"(mass {block.mass})")
    params = {"rank": args.rank, **_rational("normalization", mixture.normalization)}
    return params, records, lines


def _cmd_measure_lattice(args):
    graph = graphs.resolve_graph(args.graph)
    sigma = measure.lattice_sigma(graph, args.N)
    records = []
    lines = []
    for point, mult, weight in zip(map(tuple, sigma.points.tolist()),
                                   sigma.multiplicities.tolist(), sigma.weights()):
        rec = {
            "point_numerators": list(point),
            "denominator": args.N,
            "multiplicity": mult,
            "weight": float(weight),
            **_rational("weight", weight),
        }
        records.append(rec)
        lines.append(f"{point}/{args.N} x{mult}: weight {weight}")
    params = {
        "rank": graph.rank,
        "graph_id": graph.canonical_id(),
        "N": args.N,
        **_rational("total_mass", Fraction(sigma.total_mass)),
    }
    return params, records, lines


def _cmd_expect(args):
    mixture = measure.build_limit_measure(args.rank)
    f = functionals.get_functional(args.functional)
    params = {"rank": args.rank, "functional": args.functional,
              "method": args.method}
    if args.method == "exact":
        value = measure.expectation(mixture, f)
        rec = {"estimate": float(value), **_rational("exact", value)}
        line = f"E[{args.functional}] = {value} = {float(value):.10g}"
    else:
        params["samples"] = args.samples
        params["seed"] = args.seed
        est, err = measure.integrate_mc(mixture, f, args.samples, args.seed)
        rec = {"estimate": est, "stderr": err}
        line = f"E[{args.functional}] ~ {est:.8g} +/- {err:.3g}"
    return params, [rec], [line]


def _cmd_sample(args):
    mixture = measure.build_limit_measure(args.rank)
    labels = [(block.graph.canonical_id(), _name_field(block.graph))
              for block in mixture.blocks]
    records = []
    for idx, rows in measure.sample_chunks(mixture, args.count, args.seed):
        for b, lengths in zip(idx.tolist(), rows.tolist()):
            graph_id, name_field = labels[b]
            records.append({"graph_id": graph_id, "lengths": lengths, **name_field})
    # formatted only if the text renderer consumes them
    lines = (f"{rec.get('name', rec['graph_id'])}: "
             + ",".join(f"{x:.8f}" for x in rec["lengths"]) for rec in records)
    return {"rank": args.rank, "count": args.count, "seed": args.seed}, records, lines


def _cmd_invariant(args):
    graph = graphs.resolve_graph(args.graph)
    lengths = _parse_list(args.lengths, _fraction)
    if len(lengths) != graph.num_edges:
        raise ValueError(
            f"graph has {graph.num_edges} edges but {len(lengths)} lengths given"
        )
    if any(l <= 0 for l in lengths):
        raise ValueError("edge lengths must be positive")
    if args.functional == "systole":
        value = invariants.systole_from_lengths(graph.edges, lengths)
    elif args.functional == "minedge":
        value = min(lengths)
    else:
        value = Fraction(invariants.bridge_indicator(graph))
    rec = {"value": float(value), **_rational("exact", value)}
    params = {"functional": args.functional, "graph_id": graph.canonical_id(),
              "lengths": [str(x) for x in lengths]}
    return params, [rec], [f"{args.functional} = {value}"]


def _cmd_pants_ortho(args):
    boundaries = _parse_float_list(args.boundaries)
    if len(boundaries) != 3:
        raise ValueError(f"need three boundary lengths, got {len(boundaries)}")
    l1, l2, l3 = boundaries
    boundary = invariants.PantsBoundary(l1, l2, l3)
    if args.oracle:
        value = invariants.matrix_pants_oracle(boundary)
        method = "matrix-oracle"
    else:
        value = invariants.separating_orthogeodesic_length(boundary)
        method = "hexagon"
    params = {"boundaries": [l1, l2, l3], "method": method}
    return params, [{"length": value}], [f"orthogeodesic length = {value:.12g}"]


def _cmd_count_subgroups(args):
    model = asymptotics.CountingModel(genus=args.genus, rank=args.rank)
    value = asymptotics.subgroup_count_asymptotic(model, args.L)
    rec = {"count": value, "c": model.c, "c_prime": model.c_prime,
           "unit_tangent_volume": model.unit_tangent_volume}
    if args.precision == "high":
        rec["c_high_precision"] = str(model.c_high_precision())
    params = {"genus": args.genus, "rank": args.rank, "L": args.L}
    return params, [rec], [f"|G(L={args.L})| ~ {value:.8g}"]


def _cmd_count_crit(args):
    graph = graphs.resolve_graph(args.graph)
    value = asymptotics.crit_count_asymptotic(graph, args.genus, args.L)
    rec = {"count": value, "euler_characteristic": graph.euler_characteristic}
    params = {"graph_id": graph.canonical_id(), "genus": args.genus, "L": args.L}
    return params, [rec], [f"|Crit(L={args.L})| ~ {value:.8g}"]


def _cmd_ps_sum(args):
    lengths = []
    with open(args.lengths_file) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = float(line)
            except ValueError:  # one message for a non-number and a NaN
                value = math.nan
            if math.isnan(value):  # NaN would drop out of every sum
                raise ValueError(f"{args.lengths_file}, line {number}: "
                                 f"not a number: {line.strip()}")
            lengths.append(value)
    bound = args.L if args.L is not None else max(lengths, default=0.0)
    direct = asymptotics.ps_partial_sum(lengths, args.s, bound)
    via_int = asymptotics.ps_via_stieltjes(lengths, args.s, bound)
    rec = {"partial_sum": direct, "stieltjes": via_int,
           "n_lengths": len(lengths)}
    params = {"s": args.s, "L": args.L, "lengths_file": args.lengths_file}
    return params, [rec], [f"sum e^(-s l) = {direct:.12g}"]


def _cmd_ps_model(args):
    model = asymptotics.CountingModel(genus=args.genus, rank=args.rank)
    value = asymptotics.ps_model_closed_form(model, args.s)
    params = {"genus": args.genus, "rank": args.rank, "s": args.s}
    return params, [{"value": value}], [f"model series value = {value:.10g}"]


def _cmd_ps_converge(args):
    s_values = _parse_float_list(args.s_list)
    if not s_values:
        raise ValueError("need at least one s")
    model = asymptotics.CountingModel(genus=args.genus, rank=args.rank)
    ensemble = asymptotics.synthesize_ensemble(
        model, args.Lmax, args.mode, args.seed, cap=args.cap
    )
    f = functionals.get_functional("systole")
    mixture = measure.build_limit_measure(args.rank)
    try:
        exact = measure.expectation(mixture, f)
    except measure.ExactWorkLimitError:
        # beyond exact reach the target is a Monte Carlo estimate
        target, stderr = measure.integrate_mc(mixture, f, 10**6, args.seed)
        target_fields = {"target_method": "mc", "target_estimate": target,
                         "target_stderr": stderr}
    else:
        target = float(exact)
        target_fields = {"target_method": "exact",
                         **_rational("target_exact", exact)}
    records = []
    lines = []
    for s in s_values:
        est = asymptotics.ps_measure_expectation(ensemble, f, s)
        err = abs(est - target)
        records.append({"s": s, "estimate": est, "abs_error": err})
        lines.append(f"s={s}: estimate {est:.6f}, |error| {err:.6f}")
    if ensemble.cap_reached:
        args.warn(f"the ensemble cap {args.cap} stopped the length process at "
                  f"{ensemble.effective_lmax:.6g}, short of Lmax {args.Lmax:g}")
    params = {
        "genus": args.genus, "rank": args.rank, "Lmax": args.Lmax,
        "seed": args.seed, "mode": args.mode, "cap": args.cap,
        "ensemble_size": len(ensemble),
        "effective_lmax": ensemble.effective_lmax,
        "cap_reached": ensemble.cap_reached,
        **target_fields,
    }
    return params, records, lines


# ---------------------------------------------------------------------------
# parser and output
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")

    parser = argparse.ArgumentParser(
        prog="covermeasure",
        description="Limit measures on moduli spaces of metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graphs = sub.add_parser("graphs", help="graph enumeration")
    gsub = p_graphs.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("enumerate", parents=[common])
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(handler=_cmd_graphs_enumerate, name="graphs.enumerate")

    p_measure = sub.add_parser("measure", help="limit measure and lattices")
    msub = p_measure.add_subparsers(dest="subcommand", required=True)
    p = msub.add_parser("weights", parents=[common])
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(handler=_cmd_measure_weights, name="measure.weights")
    p = msub.add_parser("lattice", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(handler=_cmd_measure_lattice, name="measure.lattice")

    p = sub.add_parser("expect", parents=[common],
                       help="expectation of a functional")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--functional", required=True,
                   choices=sorted(functionals.FUNCTIONALS))
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(handler=_cmd_expect, name="expect")

    p = sub.add_parser("sample", parents=[common],
                       help="draw metric graphs from the limit measure")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=_cmd_sample, name="sample")

    p = sub.add_parser("invariant", parents=[common],
                       help="evaluate a functional at one point")
    p.add_argument("functional", choices=sorted(functionals.FUNCTIONALS))
    p.add_argument("--graph", required=True)
    p.add_argument("--lengths", required=True)
    p.set_defaults(handler=_cmd_invariant, name="invariant")

    p_pants = sub.add_parser("pants", help="hyperbolic pants geometry")
    psub = p_pants.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("ortho", parents=[common])
    p.add_argument("--boundaries", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(handler=_cmd_pants_ortho, name="pants.ortho")

    p_count = sub.add_parser("count", help="asymptotic counting models")
    csub = p_count.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("subgroups", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--L", type=_finite_float, required=True)
    p.add_argument("--precision", choices=("double", "high"), default="double")
    p.set_defaults(handler=_cmd_count_subgroups, name="count.subgroups")
    p = csub.add_parser("crit", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--L", type=_finite_float, required=True)
    p.set_defaults(handler=_cmd_count_crit, name="count.crit")

    p_ps = sub.add_parser("ps", help="exponent-weighted series")
    pssub = p_ps.add_subparsers(dest="subcommand", required=True)
    p = pssub.add_parser("sum", parents=[common])
    p.add_argument("--lengths-file", required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--L", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_ps_sum, name="ps.sum")
    p = pssub.add_parser("model", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.set_defaults(handler=_cmd_ps_model, name="ps.model")
    p = pssub.add_parser("converge", parents=[common])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--Lmax", type=_finite_float, required=True)
    p.add_argument("--s-list", required=True)
    p.add_argument("--mode", choices=asymptotics.ENSEMBLE_MODES,
                   default="lattice-marker")
    p.add_argument("--cap", type=int, default=100_000)
    p.set_defaults(handler=_cmd_ps_converge, name="ps.converge")

    return parser


def _render_csv(records) -> str:
    if not records:
        return ""
    keys = list(records[0])
    for rec in records[1:]:
        for key in rec:
            if key not in keys:
                keys.append(key)
    lines = [",".join(keys)]
    for rec in records:
        row = []
        for key in keys:
            val = rec.get(key, "")
            if isinstance(val, list):
                val = ";".join(str(x) for x in val)
            row.append(str(val))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.warn = lambda message: print(f"covermeasure: warning: {message}", file=stderr)
    try:
        params, records, lines = args.handler(args)
        params.setdefault("seed", args.seed)
        if args.format == "json":
            envelope = {
                "command": args.name,
                "format_version": FORMAT_VERSION,
                "params": params,
                "records": records,
            }
            # a NaN or infinity is no JSON: ValueError, before any output
            text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
        elif args.format == "csv":
            text = _render_csv(records)
        else:
            text = "".join(f"{line}\n" for line in lines)
    # every library error class is a ValueError; overflow is an ArithmeticError
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"covermeasure: error: {exc}", file=stderr)
        return 1
    stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
