"""LP-rounding covers for blown-up hypergraphs.

The pipeline: solve the fractional vertex cover, repeatedly pull every
vertex whose value reaches a threshold into the answer, then finish the
residual instance (where all values sit below the threshold) with a
randomized color-based selection.  Each LP rounder has one entry point,
which takes a built blow-up: ``ahtp_cover_blowup`` finishes a
(t-1)-blow-up with the parity/discrepancy rounding, ``t2_cover_blowup``
a 2-blow-up with the monochromatic-pair rule, and both build their
result in one place.  ``color_code_cover`` is a standalone color-coding
cover that needs no LP at all.  A single-shot threshold at
one-over-uniformity serves as the trivial fallback and
``ahtp_cover_blowup`` never returns anything larger than it.

Exact mode keeps all LP arithmetic rational and asserts the per-run
accounting identities; float mode trades that for speed on big
instances.  All randomness flows from one 64-bit root seed: trial i
colors vertices with the child seed root XOR mix(i), so trials are
reproducible and independent of evaluation order.  Both LP finishers
share one best-of-trials loop, which builds the trials' covers 64 at a
time and verifies each chunk in one batched pass (``first_non_cover``);
the lowest failing trial, if any, raises.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress

from .errors import ParameterError, ResourceLimitError, VerificationError
from .guards import resolve_limit
from .hypergraph import (BlowUp, Hypergraph, _as_hypergraph, first_non_cover,
                         is_vertex_cover)
from .lp import LPSolution, solve_vc_lp

__all__ = [
    "RoundingParams",
    "Coloring",
    "CoverResult",
    "ThresholdResult",
    "child_seed",
    "sample_coloring",
    "two_coloring",
    "color_trial",
    "monochromatic_pairs",
    "recursive_threshold",
    "ahtp_cover_blowup",
    "t2_cover_blowup",
    "color_code_cover",
    "fallback_threshold_cover",
]

_SEED_MASK = (1 << 64) - 1
FLOAT_THRESHOLD_SLACK = 1e-9
GAMMA_DENOMINATOR = 10**6
TRIALS_GUARD = 100_000
_TRIAL_CHUNK = 64


def _delta(t: int) -> float:
    return math.sqrt(4 * math.log(t) / (t - 1))


@dataclass(frozen=True)
class RoundingParams:
    """Knobs for the main rounding run.

    ``gamma`` is the threshold used by the recursive LP rounding; left as
    None it defaults to the reciprocal of ``t_prime``.  Overriding it is
    supported for experiments but values above the default can void the
    validity guarantee of the color trials (an invalid trial raises).
    """

    t: int
    seed: int = 0
    trials: int = 1
    gamma: Fraction | float | None = None

    def __post_init__(self):
        if self.t < 3:
            raise ParameterError(f"uniformity must be at least 3, got {self.t}")
        if self.trials < 1:
            raise ParameterError(f"trials must be at least 1, got {self.trials}")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ParameterError("seed must fit in 64 bits")
        if self.gamma is not None and not 0 < self.gamma < 1:
            raise ParameterError(f"threshold must lie in (0,1), got {self.gamma}")

    @property
    def t_prime(self) -> float:
        """Target approximation factor: t/2 + 2*sqrt(t ln t)."""
        return self.t / 2 + 2 * math.sqrt(self.t * math.log(self.t))

    @property
    def gamma_value(self):
        return self.gamma if self.gamma is not None else 1 / self.t_prime

    @property
    def delta(self) -> float:
        """Relative color-count slack: sqrt(4 ln t / (t-1)).

        Exceeds 1 for t <= 10, making the high-discrepancy set empty there.
        """
        return _delta(self.t)


@dataclass(frozen=True)
class Coloring:
    """A vertex coloring of the base hypergraph, one color id per vertex."""

    colors: tuple[int, ...]
    num_colors: int
    seed: int

    def __post_init__(self):
        if self.num_colors < 1:
            raise ParameterError("need at least one color")
        if any(not 0 <= c < self.num_colors for c in self.colors):
            raise ParameterError("color id out of range")


@dataclass(frozen=True)
class CoverResult:
    """A vertex cover of a blow-up plus how it was assembled.

    ``forced`` holds the part taken before any class selection (threshold
    survivors for the LP rounders, color-deficient vertices for the
    color-coding cover); ``high_discrepancy`` the residual-support
    vertices with a badly unbalanced coloring; ``parity_class`` the
    selected residue class (or the monochromatic pairs for 2-blow-ups).
    ``rounding_size`` and ``fallback_size`` record both candidate sizes
    when the trivial threshold cover was run for comparison; ``cover`` is
    whichever won.  LP objectives are None for LP-free producers.
    """

    cover: tuple[int, ...]
    forced: tuple[int, ...]
    high_discrepancy: tuple[int, ...]
    parity_class: tuple[int, ...]
    lp_opt: Fraction | float | None
    lp_opt_residual: Fraction | float | None
    seed: int | None
    trial_index: int | None
    rounding_size: int | None = None
    fallback_size: int | None = None

    @property
    def size(self) -> int:
        return len(self.cover)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the recursive threshold loop.

    ``residual`` keeps the original vertex ids (removed vertices are
    simply isolated) so blow-up labels remain addressable; ``solution``
    is the optimal LP solution of the residual, all values strictly
    below the threshold, and ``root`` the first pass's optimal solution
    of the whole instance.
    """

    thresholded: tuple[int, ...]
    residual: Hypergraph
    solution: LPSolution
    lp_opt: Fraction | float
    lp_opt_residual: Fraction | float
    root: LPSolution


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _SEED_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
    return (z ^ (z >> 31)) & _SEED_MASK


def child_seed(root: int, index: int) -> int:
    """Deterministic per-trial seed: root XOR a splitmix64 step of the index."""
    return (root ^ _splitmix64(index)) & _SEED_MASK


def sample_coloring(n: int, num_colors: int, seed: int) -> Coloring:
    """Color vertices 0..n-1 uniformly at random, in id order."""
    if num_colors < 1:
        raise ParameterError("need at least one color")
    rng = random.Random(seed)
    return Coloring(tuple(rng.randrange(num_colors) for _ in range(n)), num_colors, seed)


def two_coloring(n: int, seed: int) -> Coloring:
    return sample_coloring(n, 2, seed)


def _resolve_gamma(gamma, mode):
    """Comparison threshold for one mode.

    Exact mode needs a rational: fractions pass through, floats are
    truncated to millionths (rounding down only widens the set pulled
    into the answer, and keeps the size-accounting identity exact).
    Float mode relaxes the given value by a hair so ties survive
    floating-point LP noise.
    """
    if not 0 < gamma < 1:
        raise ParameterError(f"threshold must lie in (0,1), got {gamma}")
    if mode == "exact":
        if isinstance(gamma, Fraction):
            return gamma
        rat = Fraction(math.floor(gamma * GAMMA_DENOMINATOR), GAMMA_DENOMINATOR)
        if rat <= 0:
            raise ParameterError(f"threshold {gamma} too small to rationalize")
        return rat
    return float(gamma) * (1 - FLOAT_THRESHOLD_SLACK)


def _reaching(solution: LPSolution, cut):
    """Ids whose LP value is at least ``cut``.

    Exact values are compared in integers, ``q >= a/b`` as
    ``q.numerator * b >= a * q.denominator``: a Fraction comparison costs
    several times more, and a pass compares every supported vertex.
    """
    if solution.mode == "exact":
        a, b = cut.numerator, cut.denominator
        return [v for v, q in solution.values.items()
                if q.numerator * b >= a * q.denominator]
    return [v for v, value in solution.values.items() if value >= cut]


def recursive_threshold(instance, gamma, mode: str = "exact",
                        size_guard=None) -> ThresholdResult:
    """Round LP-heavy vertices into the answer until none remain.

    Each pass solves the covering LP, moves every vertex with value at
    or above the threshold into the answer set, drops the edges those
    vertices cover, and re-solves.  Terminates within |V| passes.  In
    exact mode the accounting bound

        |answer| * threshold <= first objective - final objective

    is checked on exit; it holds because each removed vertex carried at
    least the threshold's worth of objective mass.
    """
    H = _as_hypergraph(instance)
    cut = _resolve_gamma(gamma, mode)
    root = solution = solve_vc_lp(H, mode=mode, size_guard=size_guard)
    taken: set[int] = set()
    current = H
    while True:
        hot = set(_reaching(solution, cut))
        if not hot:
            break
        taken |= hot
        # the solve above built current.edge_array; the survivors of a
        # canonical edge list are canonical
        keep = [hot.isdisjoint(e) for e in current.edges]
        current = Hypergraph._from_canonical(
            current.t, current.n, tuple(compress(current.edges, keep)),
            current.edge_array[keep])
        solution = solve_vc_lp(current, mode=mode, size_guard=size_guard)
    if mode == "exact" and len(taken) * cut > root.objective - solution.objective:
        raise VerificationError(
            "threshold accounting failed: "
            f"{len(taken)} vertices at {cut} exceed the objective drop")
    return ThresholdResult(
        thresholded=tuple(sorted(taken)),
        residual=current,
        solution=solution,
        lp_opt=root.objective,
        lp_opt_residual=solution.objective,
        root=root,
    )


def color_trial(support, labels, t: int, coloring: Coloring):
    """One parity/discrepancy trial over a residual support.

    Returns (high_discrepancy, parity_class): the support vertices whose
    label sees some color at most (1-delta)(t-1)/2 times, and the
    smaller of the two classes under f(v) = (#color-1 elements) mod 2,
    ties resolved toward parity 0.  Both come back sorted.
    """
    if coloring.num_colors != 2:
        raise ParameterError("parity trials need exactly two colors")
    low_count = (1 - _delta(t)) * (t - 1) / 2
    colors = coloring.colors
    lopsided = []
    classes = ([], [])
    for v in support:
        label = labels[v]
        ones = sum(colors[u] for u in label)
        zeros = len(label) - ones
        if ones <= low_count or zeros <= low_count:
            lopsided.append(v)
        classes[ones & 1].append(v)
    smaller = classes[0] if len(classes[0]) <= len(classes[1]) else classes[1]
    return tuple(sorted(lopsided)), tuple(sorted(smaller))


def monochromatic_pairs(support, labels, coloring: Coloring):
    """Support vertices of a 2-blow-up whose two base endpoints share a color."""
    colors = coloring.colors
    return tuple(sorted(
        v for v in support
        if colors[labels[v][0]] == colors[labels[v][1]]))


def _best_trial(B: BlowUp, forced: set, support, trials: int, seed: int,
                finish, context: str):
    """Best of the color trials over a residual support.

    Trial i two-colors the base vertices with child seed i, ``finish``
    turns that coloring into the trial's classes, and the trial's cover
    is ``forced`` plus their union.  With an empty support every trial
    gives ``forced`` and empty classes, so no coloring is drawn: the
    empty coloring goes to ``finish``, which reads colors only of
    support vertices, and the result is trial 0.  Trials are built and
    verified in chunks of 64, one batched ``first_non_cover`` pass per
    chunk, so memory does not grow with ``trials``; the lowest failing
    trial raises.  Returns (trial, cover, classes) for the smallest
    cover, ties to the lowest trial index.
    """
    if not support:
        cover = tuple(sorted(forced))
        if first_non_cover(B.hyper, [cover]) is not None:
            raise VerificationError(f"{context} trial 0 produced a non-cover")
        return 0, cover, finish(Coloring((), 2, child_seed(seed, 0)))
    best = None
    for start in range(0, trials, _TRIAL_CHUNK):
        runs = []
        for trial in range(start, min(start + _TRIAL_CHUNK, trials)):
            classes = finish(two_coloring(B.base_n, child_seed(seed, trial)))
            runs.append((tuple(sorted(forced.union(*classes))), classes))
        bad = first_non_cover(B.hyper, [cover for cover, _ in runs])
        if bad is not None:
            raise VerificationError(f"{context} trial {start + bad} produced a non-cover")
        i = min(range(len(runs)), key=lambda i: len(runs[i][0]))
        if best is None or len(runs[i][0]) < len(best[1]):
            best = (start + i, *runs[i])
    return best


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    cap = resolve_limit(None, TRIALS_GUARD)
    if trials > cap:
        raise ResourceLimitError(f"{trials} trials exceed limit {cap}")


def fallback_threshold_cover(instance, mode: str = "exact",
                             size_guard=None) -> CoverResult:
    """Trivial uniformity-factor cover: one LP solve, keep every vertex
    with value at least one over the edge size.

    Every edge sums to at least 1 over that many vertices, so some
    vertex clears the bar and the output is a cover of size at most
    uniformity times the fractional optimum.
    """
    H = _as_hypergraph(instance)
    return _threshold_cover(H, solve_vc_lp(H, mode=mode, size_guard=size_guard))


def _threshold_cover(H: Hypergraph, solution: LPSolution) -> CoverResult:
    """The trivial cover read off an optimal LP solution of ``H``."""
    cut = _resolve_gamma(Fraction(1, H.t), solution.mode)
    taken = tuple(sorted(_reaching(solution, cut)))
    if not is_vertex_cover(H, taken):
        raise VerificationError("fallback threshold produced a non-cover")
    return CoverResult(
        cover=taken,
        forced=taken,
        high_discrepancy=(),
        parity_class=(),
        lp_opt=solution.objective,
        lp_opt_residual=Fraction(0) if solution.mode == "exact" else 0.0,
        seed=None,
        trial_index=None,
    )


def _lp_cover(B: BlowUp, thr: ThresholdResult, trials: int, seed: int,
              finish, context: str) -> CoverResult:
    """The result of an LP rounder: the threshold survivors finished by
    the best of the color trials over the residual support.

    ``finish`` maps a trial's coloring to its (high_discrepancy,
    parity_class) pair; ``rounding_size`` records the cover's size.
    """
    trial, cover, (lopsided, parity) = _best_trial(
        B, set(thr.thresholded), thr.solution.support, trials, seed, finish, context)
    return CoverResult(
        cover=cover,
        forced=thr.thresholded,
        high_discrepancy=lopsided,
        parity_class=parity,
        lp_opt=thr.lp_opt,
        lp_opt_residual=thr.lp_opt_residual,
        seed=seed,
        trial_index=trial,
        rounding_size=len(cover),
    )


def ahtp_cover_blowup(B: BlowUp, params: RoundingParams, mode: str = "exact",
                      size_guard=None) -> CoverResult:
    """Approximate minimum cover of a full (k = t-1) blow-up.

    Recursive thresholding first; the residual support is then finished
    by the best of ``params.trials`` independent parity/discrepancy
    trials (ties keep the lowest trial index).  Every trial produces a
    valid cover, so the randomness only affects the size; with an empty
    residual support every trial gives the same cover, so no coloring
    is drawn and the result is trial 0.
    The trivial uniformity-threshold cover is always read off the same
    root LP solution as well and wins when strictly smaller; both sizes
    are recorded on the result.  More than ``TRIALS_GUARD`` trials are
    refused with ResourceLimitError before anything is solved.
    """
    if B.k != B.base_t - 1:
        raise ParameterError(
            f"expected a full blow-up (k = t-1), got k={B.k} for t={B.base_t}")
    if B.base_t != params.t:
        raise ParameterError(
            f"blow-up base is {B.base_t}-uniform but parameters say {params.t}")
    _check_trials(params.trials)
    thr = recursive_threshold(B.hyper, params.gamma_value, mode=mode,
                              size_guard=size_guard)
    support = thr.solution.support
    if mode == "exact" and Fraction(len(support)) > B.hyper.t * thr.lp_opt_residual:
        raise VerificationError("residual support exceeds its certified bound")

    def finish(coloring):
        lopsided, parity = color_trial(support, B.labels, params.t, coloring)
        if 2 * len(parity) > len(support):
            raise VerificationError("parity class exceeds half the support")
        return lopsided, parity

    result = _lp_cover(B, thr, params.trials, params.seed, finish, "rounding")
    fallback = _threshold_cover(B.hyper, thr.root)
    if fallback.size < result.size:
        return replace(fallback, seed=params.seed, rounding_size=result.size,
                       fallback_size=fallback.size)
    return replace(result, fallback_size=fallback.size)


def t2_cover_blowup(B: BlowUp, seed: int = 0, trials: int = 1,
                    mode: str = "exact", size_guard=None) -> CoverResult:
    """Approximate minimum cover of a pair (k = 2) blow-up.

    Thresholds the LP at 4 over t squared, then keeps the supported
    pairs whose endpoints got the same color.  Any residual edge has
    more than a quarter-t-squared supported pairs while at most that
    many pairs can be bichromatic, so every coloring yields a cover.
    Best of ``trials`` colorings, ties to the lowest trial index; more
    than ``TRIALS_GUARD`` are refused as in ``ahtp_cover_blowup``.
    """
    if B.k != 2:
        raise ParameterError(f"expected a pair blow-up (k = 2), got k={B.k}")
    t = B.base_t
    _check_trials(trials)
    thr = recursive_threshold(B.hyper, Fraction(4, t * t), mode=mode,
                              size_guard=size_guard)
    support = thr.solution.support
    return _lp_cover(
        B, thr, trials, seed,
        lambda coloring: ((), monochromatic_pairs(support, B.labels, coloring)),
        "pair")


def color_code_cover(B: BlowUp, seed: int = 0) -> CoverResult:
    """LP-free randomized cover of a full blow-up via color coding.

    With P = ceil((t-1)/(2 ln t)) colors on the base vertices, a blow-up
    vertex joins the cover if its label misses some color; the rest are
    split by the weighted color-count residue f(v) = sum of the colors
    in the label mod P, and the least popular residue class (ties to the
    lowest) is added.  Valid for every coloring; the expected size is
    about (2 ln t / t) times the vertex count.
    """
    if B.k != B.base_t - 1:
        raise ParameterError("color coding needs a full blow-up (k = t-1)")
    t = B.base_t
    if t < 3:
        raise ParameterError(f"uniformity must be at least 3, got {t}")
    P = math.ceil((t - 1) / (2 * math.log(t)))
    coloring = sample_coloring(B.base_n, P, seed)
    colors = coloring.colors
    missing = []
    residues: list[list[int]] = [[] for _ in range(P)]
    for v, label in enumerate(B.labels):
        seen = {colors[u] for u in label}
        if len(seen) < P:
            missing.append(v)
        residues[sum(colors[u] for u in label) % P].append(v)
    p = min(range(P), key=lambda i: (len(residues[i]), i))
    cover = tuple(sorted(set(missing) | set(residues[p])))
    if not is_vertex_cover(B.hyper, cover):
        raise VerificationError("color coding produced a non-cover")
    return CoverResult(
        cover=cover,
        forced=tuple(missing),
        high_discrepancy=(),
        parity_class=tuple(residues[p]),
        lp_opt=None,
        lp_opt_residual=None,
        seed=seed,
        trial_index=None,
    )
