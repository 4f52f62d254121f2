"""The benchmark's three workloads: seeded inputs, operations, checks.

Every workload is a closed loop with one caller.  Inputs come in
cycles: cycle ``c`` of a workload is a pure function of (seed, c), so
a run that completes more cycles sees the same first cycles as a run
that completes fewer.  Base edge lists are drawn with the benchmark's
own ``random.Random``; ``turancover.generators`` is never called for a
library workload, so a change to a generator cannot change its inputs.

An operation is a pair of callables: ``run`` is the timed part and goes
through module attributes (so traced runs see it), ``check`` verifies
the output outside the timed region and never raises for a wrong
answer: it returns an ``Outcome`` with ``ok`` false instead.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from turancover import cli, hypergraph, rounding
from turancover.formats import parse_document, parse_setsystem
from turancover.hypergraph import Hypergraph, is_vertex_cover
from turancover.lp import solve_vc_lp
from turancover.rounding import GAMMA_DENOMINATOR, RoundingParams

EXACT_FLOAT_TOL = 1e-6


@dataclass
class Outcome:
    ok: bool
    note: str = ""
    cover_size: int | None = None
    lp_opt: float | None = None
    digest: str | None = None


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int, str, Path], list]  # (seed, c, size, workdir) -> ops
    # Fixed per workload, so that a faster program is compared at the same
    # percentile: about ten or more samples lie beyond it in a run at the
    # seed code's speed, and it does not fall in a gap between two input
    # shapes' bands of times, where it would jump from seed to seed.
    tail_pct: int
    trace_cycles: int  # cycles in the fixed pass of a traced run


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with sha512, so this is stable across processes
    return random.Random(f"{workload}/{seed}/{index}")


def _sample_edges(rng: random.Random, n: int, t: int, m: int):
    """m distinct t-subsets of range(n), drawn by rejection (sparse m)."""
    seen = set()
    while len(seen) < m:
        seen.add(tuple(sorted(rng.sample(range(n), t))))
    return sorted(seen)


# ------------------------------------------------------------ exact_corpus

def _corpus_shape(i: int):
    """Acceptance-corpus shape: t cycles 3..8, n = min(14, t+2+i mod 4),
    18 + (i mod 12) base edges where the complete hypergraph has that many."""
    t = 3 + i % 6
    n = min(14, t + 2 + i % 4)
    return t, n, min(18 + i % 12, math.comb(n, t))


# The acceptance corpus has twelve shapes.  The two densest, (t, n, m) =
# (7, 9, 22) and (6, 9, 27), are left out: their exact solves take 0.5 to
# 2.6 s and vary by a third between random instances, so with them a run
# held about five of each, they took 58 % of its time, and the median
# operation time of ten seeds spread by up to a third.
CORPUS_SHAPES = [_corpus_shape(i) for i in range(12) if i not in (4, 9)]


def _exact_op(key: str, base: Hypergraph, params: RoundingParams) -> Op:
    def run():
        B = hypergraph.blow_up(base, base.t - 1)
        return B, rounding.ahtp_cover_blowup(B, params, mode="exact")

    def check(out) -> Outcome:
        B, result = out
        if not is_vertex_cover(B.hyper, result.cover):
            return Outcome(False, "not a cover")
        float_opt = solve_vc_lp(B.hyper, mode="float").objective
        if abs(float(result.lp_opt) - float_opt) > EXACT_FLOAT_TOL:
            return Outcome(False, f"exact LP {result.lp_opt} != float LP {float_opt}")
        if result.trial_index is not None:
            cut = Fraction(math.floor(params.gamma_value * GAMMA_DENOMINATOR),
                           GAMMA_DENOMINATOR)
            if len(result.forced) * cut > result.lp_opt - result.lp_opt_residual:
                return Outcome(False, "threshold accounting bound violated")
        elif result.size > B.hyper.t * result.lp_opt:
            return Outcome(False, "fallback cover exceeds uniformity * LP")
        if result.size > min(result.rounding_size, result.fallback_size):
            return Outcome(False, "returned cover is not the smaller candidate")
        return Outcome(True, cover_size=result.size, lp_opt=float(result.lp_opt))

    return Op(key, run, check)


def exact_corpus_cycle(seed: int, c: int, size: str, workdir: Path):
    if size == "smoke":
        shapes, trials = [(3, 5, 6), (4, 6, 8)], 2
    else:
        shapes, trials = CORPUS_SHAPES, 100
    ops = []
    for j, (t, n, m) in enumerate(shapes):
        i = len(shapes) * c + j
        rng = _rng("exact_corpus", seed, i)
        base = Hypergraph(t, n, rng.sample(list(combinations(range(n), t)), m))
        params = RoundingParams(t=t, seed=rng.getrandbits(64), trials=trials)
        ops.append(_exact_op(f"{i}", base, params))
    return ops


# ------------------------------------------------------------- float_pairs

# Dense 6- to 8-uniform bases; their pair blow-ups keep a non-empty
# residual support, so the monochromatic-pair trials do real work.
FLOAT_SHAPES = ((26, 6, 0.02), (22, 7, 0.02), (20, 8, 0.03))
FLOAT_TRIALS = 200


def _float_op(key: str, base: Hypergraph, seed: int, trials: int) -> Op:
    def run():
        B = hypergraph.blow_up(base, 2)
        return B, rounding.t2_cover_blowup(B, seed=seed, trials=trials, mode="float")

    def check(out) -> Outcome:
        B, result = out
        if not is_vertex_cover(B.hyper, result.cover):
            return Outcome(False, "not a cover")
        if set(result.cover) != set(result.forced) | set(result.parity_class):
            return Outcome(False, "cover is not forced + monochromatic pairs")
        if not result.lp_opt > 0:
            return Outcome(False, f"LP optimum {result.lp_opt} not positive")
        return Outcome(True, cover_size=result.size, lp_opt=float(result.lp_opt))

    return Op(key, run, check)


def float_pairs_cycle(seed: int, c: int, size: str, workdir: Path):
    shapes = ((10, 4, 0.2),) if size == "smoke" else FLOAT_SHAPES
    trials = 20 if size == "smoke" else FLOAT_TRIALS
    ops = []
    for j, (n, t, p) in enumerate(shapes):
        i = len(shapes) * c + j
        rng = _rng("float_pairs", seed, i)
        base = Hypergraph(t, n, _sample_edges(rng, n, t, round(p * math.comb(n, t))))
        ops.append(_float_op(f"{i}", base, rng.getrandbits(64), trials))
    return ops


# ---------------------------------------------------------------- cli_pipes

# Per size: t2 base (n, t, p) and trials, ahtp base and trials, complete
# base (n, t), simplify base (n, p), cloud and per-edge, hard-setcover k.
PIPE_SIZES = {
    "full": (("24", "6", "0.03"), "50", ("14", "5", "0.15"), "20", ("12", "6"),
             ("40", "0.05"), "4", "3", "60"),
    "smoke": (("8", "4", "0.2"), "5", ("8", "4", "0.2"), "5", ("6", "4"),
              ("10", "0.1"), "2", "2", "5"),
}


def _pipelines(rng: random.Random, size: str):
    """Five pipelines as lists of CLI argument vectors (no -i/-o)."""
    t2_base, t2_trials, ahtp_base, ahtp_trials, (cn, ct), (sn, sp), cloud, per_edge, k = \
        PIPE_SIZES[size]
    s = [str(rng.getrandbits(32)) for _ in range(7)]

    def gen_random(n, t, p, seed):
        return ["gen", "random", "--n", n, "--t", t, "--p", p, "--seed", seed]

    return [
        ("t2", [gen_random(*t2_base, s[0]), ["blowup", "--k", "2"],
                ["round", "t2", "--mode", "float", "--trials", t2_trials, "--seed", s[1]],
                ["verify", "cover"]]),
        ("ahtp", [gen_random(*ahtp_base, s[2]), ["blowup", "--k", str(int(ahtp_base[1]) - 1)],
                  ["round", "ahtp", "--mode", "float", "--trials", ahtp_trials, "--seed", s[3]],
                  ["verify", "cover"]]),
        ("colorcode", [["gen", "complete", "--n", cn, "--t", ct],
                       ["blowup", "--k", str(int(ct) - 1)],
                       ["round", "colorcode", "--seed", s[4]], ["verify", "cover"]]),
        ("simplify", [gen_random(sn, "3", sp, s[5]),
                      ["gen", "simplify", "--cloud", cloud, "--per-edge", per_edge,
                       "--seed", s[6]],
                      ["verify", "simple"]]),
        ("greedy", [["gen", "hard-setcover", "--k", k], ["setcover", "greedy"]]),
    ]


def _check_pipeline(kind: str, stages, texts, codes) -> Outcome:
    digest = hashlib.sha256("\x00".join(texts).encode("ascii")).hexdigest()
    bad = [i for i, rc in enumerate(codes) if rc != 0]
    if bad:
        return Outcome(False, f"stage {bad[0]} exited {codes[bad[0]]}", digest=digest)
    if stages[-1][0] == "verify" and texts[-1] != "OK\n":
        return Outcome(False, f"verify printed {texts[-1]!r}", digest=digest)
    if kind in ("t2", "ahtp", "colorcode"):
        instance, cover, _ = parse_document(texts[2])
        H = instance.hyper
        if cover is None or not is_vertex_cover(H, cover.cover):
            return Outcome(False, "round output is not a cover", digest=digest)
        lp = None if cover.lp_opt is None else float(cover.lp_opt)
        return Outcome(True, cover_size=len(cover.cover), lp_opt=lp, digest=digest)
    if kind == "greedy":
        system = parse_setsystem(texts[0])
        picked = [int(line.split()[0]) for line in texts[1].splitlines()]
        covered = set().union(*(system.sets[i] for i in picked)) if picked else set()
        if covered != set(range(system.n)):
            return Outcome(False, "greedy picks do not cover the universe", digest=digest)
    return Outcome(True, digest=digest)


def _pipe_op(key: str, kind: str, stages, workdir: Path) -> Op:
    paths = [workdir / f"{kind}.{j}.txt" for j in range(len(stages))]

    def run():
        codes = []
        for j, argv in enumerate(stages):
            io = ["-o", str(paths[j])]
            if j:
                io = ["-i", str(paths[j - 1]), *io]
            codes.append(cli.main([*io, *argv]))
            if codes[-1] != 0:
                break
        return codes

    def check(codes) -> Outcome:
        texts = [p.read_text(encoding="ascii") for p in paths[:len(codes)]]
        return _check_pipeline(kind, stages, texts, codes)

    return Op(key, run, check)


def cli_pipes_cycle(seed: int, c: int, size: str, workdir: Path):
    rng = _rng("cli_pipes", seed, c)
    return [_pipe_op(f"{c}.{kind}", kind, stages, workdir)
            for kind, stages in _pipelines(rng, size)]


WORKLOADS = {
    w.name: w for w in (
        Workload("exact_corpus", exact_corpus_cycle, tail_pct=90, trace_cycles=2),
        Workload("float_pairs", float_pairs_cycle, tail_pct=80, trace_cycles=4),
        Workload("cli_pipes", cli_pipes_cycle, tail_pct=90, trace_cycles=4),
    )
}
