"""Command-line frontend.

Commands compose over text pipes: generators write instances, `blowup`
lifts them, `lp`/`round`/`oracle` consume them, and `verify` checks the
certificates the earlier stages emitted.  `round` echoes its input
instance before the COVER block precisely so that `verify cover` can be
piped directly after it; `verify cover` checks that the COVER ids cover
the instance and are exactly the union of the BREAKDOWN's U, SPRIME and
PARITY, that the LP line's RESIDUAL does not exceed its OPT, and that a
rational OPT is the certified exact optimum of the echoed instance.
Identical arguments and inputs produce byte-identical output.

Exit codes: 0 success, 2 malformed input, 3 bad parameters, 4 resource
guard tripped, 5 verification failed.  Input that is not ASCII text is
malformed (2); an -i file that cannot be read or an -o path that cannot
be written is a bad parameter (3).  Every failure prints one line to
stderr, never a traceback.  With --strict, every randomized command
must be given --seed explicitly.  The rules on seeds, excluded patterns
and document contents are the library's: this module passes arguments
on and reports what the library raises.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import formats
from .errors import ParameterError, ParseError, ResourceLimitError, VerificationError
from .generators import (combinatorial_lines, complete, f_free_random,
                         greedy_hard_setsystem, random_hypergraph,
                         simplify_reduction, three_tent)
from .hypergraph import (BlowUp, Hypergraph, _as_hypergraph, blow_up, is_matching,
                         is_simple, is_vertex_cover)
from .lp import solve_matching_lp, solve_vc_lp
from .oracles import brute_nu, brute_tau, find_tents, max_independent_set, rho
from .rounding import (RoundingParams, ahtp_cover_blowup, color_code_cover,
                       fallback_threshold_cover, t2_cover_blowup)
from .setcover import SetSystem, greedy_set_cover, is_simple_system

__all__ = ["main"]


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (64-bit; defaults to 0 unless --strict)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change it)."""
    top = argparse.ArgumentParser(
        prog="turancover",
        description="Covers of blown-up hypergraphs: generate, solve, round, verify.")
    top.add_argument("--strict", action="store_true",
                     help="randomized commands must be given --seed explicitly")
    top.add_argument("--dedup", action="store_true",
                     help="drop duplicate edges on input instead of rejecting them")
    top.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    top.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    commands = top.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate an instance")
    gkind = gen.add_subparsers(dest="kind", required=True)
    g = gkind.add_parser("complete", help="all t-subsets of n vertices")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g = gkind.add_parser("random", help="each edge kept with probability p")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    _add_seed(g)
    g = gkind.add_parser("lines", help="combinatorial lines of the 3-symbol n-cube")
    g.add_argument("--n", type=int, required=True)
    g = gkind.add_parser("hard-setcover", help="set system that misleads greedy")
    g.add_argument("--k", type=int, required=True)
    g = gkind.add_parser("ffree", help="random 3-uniform instance with all tents removed")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=None,
                   help="edge probability (default derived from the tent density)")
    _add_seed(g)
    g = gkind.add_parser("simplify", help="cloud expansion of the input to a simple instance")
    g.add_argument("--cloud", type=int, required=True, help="copies per vertex")
    g.add_argument("--per-edge", type=int, required=True, help="candidate edges per base edge")
    _add_seed(g)

    b = commands.add_parser("blowup", help="k-blow-up of the input instance")
    b.add_argument("--k", type=int, required=True)

    lp = commands.add_parser("lp", help="solve a covering or matching LP")
    lp.add_argument("side", choices=["vc", "matching"])
    lp.add_argument("--mode", choices=["exact", "float"], default="exact")
    lp.add_argument("--size-guard", type=int, default=None)

    rnd = commands.add_parser("round", help="round an LP solution to a cover")
    rnd.add_argument("scheme", choices=["ahtp", "t2", "colorcode", "threshold"])
    rnd.add_argument("--trials", type=int, default=1)
    rnd.add_argument("--mode", choices=["exact", "float"], default="exact")
    rnd.add_argument("--gamma", type=float, default=None,
                     help="override the ahtp threshold (expert use)")
    rnd.add_argument("--size-guard", type=int, default=None)
    _add_seed(rnd)

    orc = commands.add_parser("oracle", help="exact small-instance quantities")
    orc.add_argument("quantity", choices=["tau", "nu", "taustar", "tents", "rho", "alpha"])
    orc.add_argument("--mode", choices=["exact", "float"], default="exact",
                     help="LP mode for taustar")
    orc.add_argument("--limit", type=int, default=None,
                     help="taustar: the LP's size (n*m exact, n+m*t float); tau, nu, alpha: "
                          "search nodes; tents: tent checks; rho: pattern edges")

    sc = commands.add_parser("setcover", help="set cover routines")
    sc.add_argument("routine", choices=["greedy"])

    ver = commands.add_parser("verify", help="check a certificate or structure")
    ver.add_argument("what", choices=["cover", "matching", "simple"])
    ver.add_argument("--size-guard", type=int, default=None)
    return top


def _resolve_seed(args) -> int:
    """The --seed given, else 0 (refused under --strict)."""
    if args.seed is None and args.strict:
        raise ParameterError("--strict requires an explicit --seed here")
    return 0 if args.seed is None else args.seed


def _read_input(args) -> str:
    try:
        if args.input is None:
            return sys.stdin.read()
        with open(args.input, "r", encoding="ascii") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII text: byte {exc.object[exc.start]:#04x}"
                         f" at offset {exc.start}") from None
    except OSError as exc:
        raise ParameterError(
            f"cannot read {args.input or 'stdin'}: {exc.strerror or exc}") from None


def _write_output(args, output: str) -> None:
    if args.output is None:
        sys.stdout.write(output)
        sys.stdout.flush()
        return
    try:
        with open(args.output, "w", encoding="ascii", newline="\n") as handle:
            handle.write(output)
    except OSError as exc:
        raise ParameterError(f"cannot write {args.output}: {exc.strerror or exc}") from None


def _instance(args):
    return formats.parse_instance(_read_input(args), dedup=args.dedup)


def _hyper(args) -> Hypergraph:
    return _as_hypergraph(_instance(args))


def _run_gen(args) -> str:
    if args.kind == "complete":
        return formats.serialize_hypergraph(complete(args.n, args.t))
    if args.kind == "random":
        return formats.serialize_hypergraph(
            random_hypergraph(args.n, args.t, args.p, _resolve_seed(args)))
    if args.kind == "lines":
        return formats.serialize_hypergraph(combinatorial_lines(args.n))
    if args.kind == "hard-setcover":
        return formats.serialize_setsystem(greedy_hard_setsystem(args.k))
    if args.kind == "ffree":
        result = f_free_random(args.n, 3, [three_tent()], p=args.p,
                               seed=_resolve_seed(args))
        return formats.serialize_hypergraph(result)
    if args.kind == "simplify":
        base = _hyper(args)
        result = simplify_reduction(base, args.cloud, args.per_edge, _resolve_seed(args))
        return formats.serialize_hypergraph(result)
    raise ParameterError(f"unknown generator '{args.kind}'")


def _run_round(args) -> str:
    if args.gamma is not None and args.scheme != "ahtp":
        raise ParameterError("--gamma applies only to 'round ahtp'")
    instance = _instance(args)
    if args.scheme == "threshold":
        result = fallback_threshold_cover(instance, mode=args.mode,
                                          size_guard=args.size_guard)
        return formats.serialize_instance(instance) + formats.serialize_cover(result)
    if not isinstance(instance, BlowUp):
        if instance.m == 0:  # what an edgeless blow-up reads back as
            raise ParameterError(
                f"'round {args.scheme}' got an edgeless instance: an edgeless blow-up"
                " carries no k or base_t")
        raise ParameterError(
            f"'round {args.scheme}' needs a blow-up instance with a LABELS block")
    if args.scheme == "ahtp":
        params = RoundingParams(t=instance.base_t, seed=_resolve_seed(args),
                                trials=args.trials, gamma=args.gamma)
        result = ahtp_cover_blowup(instance, params, mode=args.mode,
                                   size_guard=args.size_guard)
    elif args.scheme == "t2":
        result = t2_cover_blowup(instance, seed=_resolve_seed(args),
                                 trials=args.trials, mode=args.mode,
                                 size_guard=args.size_guard)
    else:
        result = color_code_cover(instance, seed=_resolve_seed(args))
    return formats.serialize_instance(instance) + formats.serialize_cover(result)


def _run_oracle(args) -> str:
    if args.quantity == "taustar":
        solution = solve_vc_lp(_hyper(args), mode=args.mode, size_guard=args.limit)
        return formats.render_value(solution.objective) + "\n"
    H = _hyper(args)
    if args.quantity == "tau":
        return f"{brute_tau(H, limit=args.limit)}\n"
    if args.quantity == "nu":
        return f"{brute_nu(H, limit=args.limit)}\n"
    if args.quantity == "alpha":
        return f"{max_independent_set(H, limit=args.limit)}\n"
    if args.quantity == "tents":
        tents = find_tents(H, limit=args.limit)
        lines = [f"TENTS {len(tents)}"]
        lines.extend(" ".join(map(str, witness)) for witness in tents)
        return "\n".join(lines) + "\n"
    if args.quantity == "rho":
        return formats.render_value(rho(H, limit=args.limit)) + "\n"
    raise ParameterError(f"unknown quantity '{args.quantity}'")


def _run_verify(args) -> str:
    text = _read_input(args)
    if args.what == "simple":
        structure = formats.parse_setsystem_or_instance(text, dedup=args.dedup)
        if isinstance(structure, SetSystem):
            if not is_simple_system(structure):
                raise VerificationError("set system is not simple: two sets share two elements")
            return "OK\n"
        if not is_simple(_as_hypergraph(structure)):
            raise VerificationError("hypergraph is not simple: two edges share two vertices")
        return "OK\n"
    instance, cover, matching = formats.parse_document(text, dedup=args.dedup)
    H = _as_hypergraph(instance)
    if args.what == "cover":
        if cover is None:
            raise ParseError("no COVER block found in input")
        if not is_vertex_cover(H, cover.cover):
            raise VerificationError("claimed cover misses at least one edge")
        if set(cover.cover) != {*cover.forced, *cover.high_discrepancy, *cover.parity_class}:
            raise VerificationError("claimed cover is not U, SPRIME and PARITY combined")
        if cover.lp_opt is not None and cover.lp_opt_residual > cover.lp_opt:
            raise VerificationError("claimed residual LP optimum exceeds the LP optimum")
        if isinstance(cover.lp_opt, Fraction) and cover.lp_opt != solve_vc_lp(
                H, mode="exact", size_guard=args.size_guard).objective:
            raise VerificationError("claimed LP optimum is not the instance's exact optimum")
        return "OK\n"
    if matching is None:
        raise ParseError("no MATCHING block found in input")
    if not is_matching(H, matching):
        raise VerificationError("claimed matching reuses a vertex or an edge id")
    return "OK\n"


def _dispatch(args) -> str:
    if args.command == "gen":
        return _run_gen(args)
    if args.command == "blowup":
        return formats.serialize_blowup(blow_up(_hyper(args), args.k))
    if args.command == "lp":
        solver = solve_vc_lp if args.side == "vc" else solve_matching_lp
        solution = solver(_hyper(args), mode=args.mode, size_guard=args.size_guard)
        return formats.serialize_lp_solution(solution)
    if args.command == "round":
        return _run_round(args)
    if args.command == "oracle":
        return _run_oracle(args)
    if args.command == "setcover":
        trace = greedy_set_cover(formats.parse_setsystem(_read_input(args)))
        return formats.serialize_greedy_trace(trace)
    if args.command == "verify":
        return _run_verify(args)
    raise ParameterError(f"unknown command '{args.command}'")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _write_output(args, _dispatch(args))
        return 0
    except BrokenPipeError:
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
