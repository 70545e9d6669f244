"""Command-line interface: one executable, machine-readable output.

Every command prints a JSON envelope {command, format_version, params,
records} by default (see output.schema.json); --format csv/text give flat
rows or readable lines, each rendered from the command's one list of
records.  Identical argv and seed produce byte-identical output.  Exit
codes: 0 success, 2 usage error (a non-finite number argument too), 1
computation error (overflow and non-finite results too).
"""

from __future__ import annotations

import argparse
import json
import math
import os
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


def _unrational(rec: dict, name: str) -> Fraction:
    """The rational that ``_rational(name, q)`` wrote into ``rec``."""
    return Fraction(rec[f"{name}_numerator"], rec[f"{name}_denominator"])


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
# handlers: each returns (params, records)
# ---------------------------------------------------------------------------

def _cmd_graphs_enumerate(args):
    records = [{
        "graph_id": g.canonical_id(),
        "rank": g.rank,
        "vertices": g.num_vertices,
        "edges": [[u, v] for u, v in g.edges],
        "aut_order": len(graphs.automorphism_group(g)),
        "triv_order": len(graphs.triv_subgroup(g)),
        **_name_field(g),
    } for g in graphs.enumerate_trivalent(args.rank)]
    return {"rank": args.rank}, records


def _cmd_measure_weights(args):
    mixture = measure.build_limit_measure(args.rank)
    records = [{
        "graph_id": block.graph.canonical_id(),
        "weight": float(weight),
        **_rational("exact", weight),
        "mass": float(block.mass),
        **_rational("mass", block.mass),
        **_name_field(block.graph),
    } for block, weight in zip(mixture.blocks, mixture.weights)]
    params = {"rank": args.rank, **_rational("normalization", mixture.normalization)}
    return params, records


def _cmd_measure_lattice(args):
    graph = graphs.resolve_graph(args.graph)
    sigma = measure.lattice_sigma(graph, args.N)
    records = [{
        "point_numerators": point,
        "denominator": args.N,
        "multiplicity": mult,
        "weight": float(weight),
        **_rational("weight", weight),
    } for point, mult, weight in zip(sigma.points.tolist(),
                                     sigma.multiplicities.tolist(), sigma.weights())]
    params = {
        "rank": graph.rank,
        "graph_id": graph.canonical_id(),
        "N": args.N,
        **_rational("total_mass", Fraction(sigma.total_mass)),
    }
    return params, records


def _cmd_expect(args):
    mixture = measure.build_limit_measure(args.rank)
    f = functionals.get_functional(args.functional)
    params = {"rank": args.rank, "functional": args.functional,
              "method": args.method}
    if args.method == "exact":
        value = measure.expectation(mixture, f)
        rec = {"estimate": float(value), **_rational("exact", value)}
    else:
        params["samples"] = args.samples
        est, err = measure.integrate_mc(mixture, f, args.samples, args.seed)
        rec = {"estimate": est, "stderr": err}
    return params, [rec]


def _cmd_sample(args):
    mixture = measure.build_limit_measure(args.rank)
    labels = [(block.graph.canonical_id(), _name_field(block.graph))
              for block in mixture.blocks]
    records = []
    for idx, rows in measure.sample_chunks(mixture, args.count, args.seed):
        for b, lengths in zip(idx.tolist(), rows.tolist()):
            graph_id, name_field = labels[b]
            records.append({"graph_id": graph_id, "lengths": lengths, **name_field})
    return {"rank": args.rank, "count": args.count}, records


def _cmd_invariant(args):
    graph = graphs.resolve_graph(args.graph)
    lengths = _parse_list(args.lengths, _fraction)
    if len(lengths) != graph.num_edges:
        raise ValueError(
            f"graph has {graph.num_edges} edges but {len(lengths)} lengths given"
        )
    if any(l <= 0 for l in lengths):
        raise ValueError("edge lengths must be positive")
    value = _INVARIANTS[args.functional](graph, lengths)
    rec = {"value": float(value), **_rational("exact", value)}
    params = {"functional": args.functional, "graph_id": graph.canonical_id(),
              "lengths": [str(x) for x in lengths]}
    return params, [rec]


def _cmd_pants_ortho(args):
    boundaries = _parse_float_list(args.boundaries)
    if len(boundaries) != 3:
        raise ValueError(f"need three boundary lengths, got {len(boundaries)}")
    boundary = invariants.PantsBoundary(*boundaries)
    if args.oracle:
        value = invariants.matrix_pants_oracle(boundary)
        method = "matrix-oracle"
    else:
        value = invariants.separating_orthogeodesic_length(boundary)
        method = "hexagon"
    params = {"boundaries": boundaries, "method": method}
    return params, [{"length": value}]


def _cmd_count_subgroups(args):
    model = asymptotics.CountingModel(genus=args.genus, rank=args.rank)
    value = asymptotics.subgroup_count_asymptotic(model, args.L)
    rec = {"count": value, "c": model.c, "c_prime": model.c_prime,
           "unit_tangent_volume": model.unit_tangent_volume}
    if args.precision == "high":
        rec["c_high_precision"] = str(model.c_high_precision())
    params = {"genus": args.genus, "rank": args.rank, "L": args.L}
    return params, [rec]


def _cmd_count_crit(args):
    graph = graphs.resolve_graph(args.graph)
    value = asymptotics.crit_count_asymptotic(graph, args.genus, args.L)
    rec = {"count": value, "euler_characteristic": graph.euler_characteristic}
    params = {"graph_id": graph.canonical_id(), "genus": args.genus, "L": args.L}
    return params, [rec]


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
    return params, [rec]


def _cmd_ps_model(args):
    model = asymptotics.CountingModel(genus=args.genus, rank=args.rank)
    value = asymptotics.ps_model_closed_form(model, args.s)
    params = {"genus": args.genus, "rank": args.rank, "s": args.s}
    return params, [{"value": value}]


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
    for s in s_values:
        est = asymptotics.ps_measure_expectation(ensemble, f, s)
        records.append({"s": s, "estimate": est, "abs_error": abs(est - target)})
    if ensemble.cap_reached:
        args.warn(f"the ensemble cap {args.cap} stopped the length process at "
                  f"{ensemble.effective_lmax:.6g}, short of Lmax {args.Lmax:g}")
    params = {
        "genus": args.genus, "rank": args.rank, "Lmax": args.Lmax,
        "mode": args.mode, "cap": args.cap,
        "ensemble_size": len(ensemble),
        "effective_lmax": ensemble.effective_lmax,
        "cap_reached": ensemble.cap_reached,
        **target_fields,
    }
    return params, records


# `invariant`'s functionals: name -> exact value at (graph, lengths)
_INVARIANTS = {
    "systole": lambda graph, lengths: invariants.systole_from_lengths(graph.edges, lengths),
    "minedge": lambda graph, lengths: min(lengths),
    "bridge": lambda graph, lengths: Fraction(invariants.bridge_indicator(graph)),
}

# command -> the text line of a record r, given the params p
_TEXT = {
    "graphs.enumerate": lambda p, r: (
        f"rank={r['rank']}; vertices={r['vertices']}; edges: "
        + " ".join(f"{i}:{u}-{v}" for i, (u, v) in enumerate(r["edges"]))
        + f"; canonical={r['graph_id']}"),
    "measure.weights": lambda p, r: (f"{r.get('name', r['graph_id'])}: weight "
                                     f"{_unrational(r, 'exact')} (mass {_unrational(r, 'mass')})"),
    "measure.lattice": lambda p, r: (f"{tuple(r['point_numerators'])}/{r['denominator']} "
                                     f"x{r['multiplicity']}: weight {_unrational(r, 'weight')}"),
    "expect": lambda p, r: (
        f"E[{p['functional']}] = {_unrational(r, 'exact')} = {r['estimate']:.10g}"
        if p["method"] == "exact" else
        f"E[{p['functional']}] ~ {r['estimate']:.8g} +/- {r['stderr']:.3g}"),
    "sample": lambda p, r: (f"{r.get('name', r['graph_id'])}: "
                            + ",".join(f"{x:.8f}" for x in r["lengths"])),
    "invariant": lambda p, r: f"{p['functional']} = {_unrational(r, 'exact')}",
    "pants.ortho": lambda p, r: f"orthogeodesic length = {r['length']:.12g}",
    "count.subgroups": lambda p, r: f"|G(L={p['L']})| ~ {r['count']:.8g}",
    "count.crit": lambda p, r: f"|Crit(L={p['L']})| ~ {r['count']:.8g}",
    "ps.sum": lambda p, r: f"sum e^(-s l) = {r['partial_sum']:.12g}",
    "ps.model": lambda p, r: f"model series value = {r['value']:.10g}",
    "ps.converge": lambda p, r: (f"s={r['s']}: estimate {r['estimate']:.6f}, "
                                 f"|error| {r['abs_error']:.6f}"),
}


# ---------------------------------------------------------------------------
# parser and output
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    rank, genus, graph = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    rank.add_argument("--rank", type=int, required=True)
    genus.add_argument("--genus", type=int, required=True)
    graph.add_argument("--graph", required=True)

    parser = argparse.ArgumentParser(
        prog="covermeasure",
        description="Limit measures on moduli spaces of metric graphs",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    group_help = {"graphs": "graph enumeration", "measure": "limit measure and lattices",
                  "pants": "hyperbolic pants geometry", "count": "asymptotic counting models",
                  "ps": "exponent-weighted series"}

    def command(path, handler, *parents, **kwargs):
        """Add the leaf command at ``path``, "group.leaf" or "leaf"; return its parser."""
        group, _, leaf = path.rpartition(".")
        if group not in groups:  # a group's first leaf adds the group
            groups[group] = groups[""].add_parser(group, help=group_help[group]).add_subparsers(
                dest="subcommand", required=True)
        p = groups[group].add_parser(leaf, parents=[common, *parents], **kwargs)
        p.set_defaults(path=path, handler=handler)
        return p

    command("graphs.enumerate", _cmd_graphs_enumerate, rank)
    command("measure.weights", _cmd_measure_weights, rank)
    p = command("measure.lattice", _cmd_measure_lattice, graph)
    p.add_argument("--N", type=int, required=True)

    p = command("expect", _cmd_expect, rank, help="expectation of a functional")
    p.add_argument("--functional", required=True,
                   choices=sorted(functionals.FUNCTIONALS))
    p.add_argument("--method", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=100_000)

    p = command("sample", _cmd_sample, rank, help="draw metric graphs from the limit measure")
    p.add_argument("--count", type=int, required=True)

    functional = argparse.ArgumentParser(add_help=False)  # usage errors list it before --graph
    functional.add_argument("functional", choices=sorted(_INVARIANTS))
    p = command("invariant", _cmd_invariant, functional, graph,
                help="evaluate a functional at one point")
    p.add_argument("--lengths", required=True)

    p = command("pants.ortho", _cmd_pants_ortho)
    p.add_argument("--boundaries", required=True)
    p.add_argument("--oracle", action="store_true")

    p = command("count.subgroups", _cmd_count_subgroups, genus, rank)
    p.add_argument("--L", type=_finite_float, required=True)
    p.add_argument("--precision", choices=("double", "high"), default="double")
    p = command("count.crit", _cmd_count_crit, graph, genus)
    p.add_argument("--L", type=_finite_float, required=True)

    p = command("ps.sum", _cmd_ps_sum)
    p.add_argument("--lengths-file", required=True)
    p.add_argument("--s", type=_finite_float, required=True)
    p.add_argument("--L", type=_finite_float, default=None)
    p = command("ps.model", _cmd_ps_model, genus, rank)
    p.add_argument("--s", type=_finite_float, required=True)
    p = command("ps.converge", _cmd_ps_converge, rank, genus)
    p.add_argument("--Lmax", type=_finite_float, required=True)
    p.add_argument("--s-list", required=True)
    p.add_argument("--mode", choices=asymptotics.ENSEMBLE_MODES,
                   default="lattice-marker")
    p.add_argument("--cap", type=int, default=100_000)

    return parser


def _render_csv(records) -> str:
    if not records:
        return ""
    keys = list(dict.fromkeys(key for rec in records for key in rec))
    lines = [",".join(keys)]
    for rec in records:
        row = []
        for key in keys:
            val = rec.get(key, "")
            if isinstance(val, list):
                val = ";".join(str(x) for x in val)
                if "," in val:  # RFC 4180: quote it, doubling any quote inside
                    val = '"' + val.replace('"', '""') + '"'
            row.append(str(val))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run(argv, stdout=None, stderr=None) -> int:
    # no command uses OpenBLAS's thread pool, which takes about 0.06 s to start;
    # numpy reads the variable as it loads, and a caller's own setting stands
    if "numpy.linalg" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.warn = lambda message: print(f"covermeasure: warning: {message}", file=stderr)
    try:
        params, records = args.handler(args)
        params.setdefault("seed", args.seed)
        if args.format == "json":
            envelope = {
                "command": args.path,
                "format_version": FORMAT_VERSION,
                "params": params,
                "records": records,
            }
            # a NaN or infinity is no JSON: ValueError, before any output
            text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
        elif args.format == "csv":
            text = _render_csv(records)
        else:
            text = "".join(f"{_TEXT[args.path](params, rec)}\n" for rec in records)
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
