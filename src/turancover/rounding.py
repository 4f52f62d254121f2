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
colors with the splitmix64 stream of the child seed root XOR mix(i), so
trials are reproducible and independent of evaluation order.  Both LP
finishers share one best-of-trials loop, which works on blocks of 64
trials as arrays: one uint64-computed coloring matrix per block
(``_colorings``), the classes of every trial by array compares over the
support's labels (``_pair_classes``, ``_parity_classes``), and one
bit-sliced check of the block's covers (``_first_non_cover_row``).  The
lowest failing trial, if any, raises; only the winning trial is built as
tuples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Real

from .errors import ParameterError, VerificationError
from .guards import _index, check_limit, check_seed
from .hypergraph import (BlowUp, Hypergraph, _as_hypergraph, _first_non_cover_row,
                         is_vertex_cover)
from .lp import LPSolution, solve_vc_lp

__all__ = [
    "RoundingParams",
    "CoverResult",
    "ThresholdResult",
    "child_seed",
    "recursive_threshold",
    "ahtp_cover_blowup",
    "t2_cover_blowup",
    "color_code_cover",
    "fallback_threshold_cover",
]

_SEED_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # the splitmix64 increment
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
        check_seed(self.seed)
        t = _index(self.t, "uniformity")
        if t < 3:
            raise ParameterError(f"uniformity must be at least 3, got {t}")
        _check_trials(self.trials)
        if self.gamma is not None:
            _check_gamma(self.gamma)
        object.__setattr__(self, "t", t)

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
    of the whole instance.  ``lp_opt`` and ``lp_opt_residual`` read the
    objectives of ``root`` and ``solution``.
    """

    thresholded: tuple[int, ...]
    residual: Hypergraph
    solution: LPSolution
    root: LPSolution

    @property
    def lp_opt(self) -> Fraction | float:
        return self.root.objective

    @property
    def lp_opt_residual(self) -> Fraction | float:
        return self.solution.objective


def _splitmix64(x):
    """splitmix64's output for state ``x``: an int, or a uint64 array (which wraps)."""
    z = (x + _GOLDEN) & _SEED_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
    return (z ^ (z >> 31)) & _SEED_MASK


def child_seed(root: int, index: int) -> int:
    """Per-trial seed: root XOR splitmix64(index), for an int or a uint64 array index."""
    check_seed(root)
    return root ^ _splitmix64(index)


def _colorings(n: int, seed: int, trials: range):
    """The two-colorings of ``trials`` as a ``(len(trials), n)`` uint8
    matrix.  Word w of trial i is output w of the splitmix64 stream seeded
    by ``child_seed(seed, i)``, that is ``_splitmix64(child_seed(seed, i)
    + w * _GOLDEN)`` mod 2**64, and base vertex v takes bit v % 64 of word
    v // 64, least significant bit first.
    """
    import numpy as np

    index = np.arange(trials.start, trials.stop, dtype=np.uint64)
    words = np.arange((n + 63) // 64, dtype=np.uint64)
    stream = _splitmix64(child_seed(seed, index)[:, None] + words * _GOLDEN)
    bits = np.unpackbits(stream.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n]


def _check_gamma(gamma) -> None:
    """Refuse a threshold that is not a real number in (0, 1)."""
    if not (isinstance(gamma, Real) and 0 < gamma < 1):
        raise ParameterError(f"threshold must lie in (0,1), got {gamma!r}")


def _resolve_gamma(gamma, mode):
    """Comparison threshold for one mode.

    Exact mode needs a rational: fractions pass through, floats are
    truncated to millionths (rounding down only widens the set pulled
    into the answer, and keeps the size-accounting identity exact).
    Float mode relaxes the given value by a hair so ties survive
    floating-point LP noise.
    """
    _check_gamma(gamma)
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
        # the solve above loaded numpy and built current.edge_array; the
        # survivors of a canonical edge list are canonical, and stay arrays only
        import numpy as np

        E = current.edge_array
        hit = np.zeros(current.n, dtype=bool)
        hit[list(hot)] = True
        current = Hypergraph._from_canonical(current.t, current.n,
                                             array=E[~hit[E].any(axis=1)])
        solution = solve_vc_lp(current, mode=mode, size_guard=size_guard)
    if mode == "exact" and len(taken) * cut > root.objective - solution.objective:
        raise VerificationError(
            "threshold accounting failed: "
            f"{len(taken)} vertices at {cut} exceed the objective drop")
    return ThresholdResult(
        thresholded=tuple(sorted(taken)),
        residual=current,
        solution=solution,
        root=root,
    )


def _pair_classes(colorings, labels):
    """The monochromatic-pair rule, row-wise over a coloring matrix.

    ``colorings`` is a ``(rows, base_n)`` matrix of two-colorings and
    ``labels`` the ``(s, 2)`` base pairs of the support vertices.
    Returns (high_discrepancy, chosen) as ``(rows, s)`` boolean masks:
    none are high-discrepancy, and a vertex is chosen when its two base
    endpoints share a color.
    """
    import numpy as np

    chosen = colorings[:, labels[:, 0]] == colorings[:, labels[:, 1]]
    return np.zeros_like(chosen), chosen


def _parity_classes(colorings, labels, t: int):
    """The parity/discrepancy rule, row-wise over a coloring matrix.

    ``labels`` is the ``(s, k)`` label matrix of the support vertices.
    From each label's count of color-1 elements, returns (lopsided,
    smaller) as ``(rows, s)`` boolean masks: the vertices whose label
    sees some color at most (1-delta)(t-1)/2 times, and the smaller of
    the two classes under f(v) = count mod 2, ties to parity 0.
    """
    import numpy as np

    ones = colorings[:, labels].sum(axis=2, dtype=np.intp)
    low_count = (1 - _delta(t)) * (t - 1) / 2
    lopsided = (ones <= low_count) | (labels.shape[1] - ones <= low_count)
    odd = (ones & 1).astype(bool)
    take_odd = 2 * odd.sum(axis=1) < labels.shape[0]
    return lopsided, odd == take_odd[:, None]


def _label_matrix(support, labels):
    """The ``(s, k)`` intp matrix of the support vertices' labels."""
    import numpy as np

    return np.array([labels[v] for v in support], dtype=np.intp)


def _ids(support, mask) -> tuple[int, ...]:
    """The support vertices that ``mask`` (one row) selects, sorted."""
    return tuple(sorted(v for v, keep in zip(support, mask.tolist()) if keep))


def _best_trial(B: BlowUp, forced: set, support, trials: int, seed: int,
                finish, context: str):
    """Best of the color trials over a residual support.

    Trial i two-colors the base vertices with the splitmix64 stream of
    child seed i, ``finish`` turns colorings into the trials' classes,
    and a trial's cover is ``forced`` plus the union of its classes.
    With an empty support every trial gives ``forced`` and empty
    classes, so no coloring is drawn, ``is_vertex_cover`` checks that one
    cover, and the result is trial 0.  Otherwise trials run in blocks of
    64, so memory does not grow with ``trials``: ``finish`` maps the
    block's coloring matrix (``_colorings``) and the support's label
    matrix to two ``(block, s)`` class masks, the block's covers are
    the rows of one ``(block, n)`` boolean matrix, and one bit-sliced
    pass (``_first_non_cover_row``) verifies them all; the lowest
    failing trial raises.  Cover sizes are row sums.  Returns (trial,
    cover, classes) for the smallest cover, ties to the lowest trial
    index; only that trial's cover and classes are built as tuples.
    """
    if not support:
        cover = tuple(sorted(forced))
        if not is_vertex_cover(B.hyper, cover):
            raise VerificationError(f"{context} trial 0 produced a non-cover")
        return 0, cover, ((), ())
    import numpy as np

    columns = np.array(support, dtype=np.intp)
    labels = _label_matrix(support, B.labels)
    base = np.zeros(B.hyper.n, dtype=bool)
    base[list(forced)] = True
    best = None
    for start in range(0, trials, _TRIAL_CHUNK):
        block = range(start, min(start + _TRIAL_CHUNK, trials))
        lopsided, chosen = finish(_colorings(B.base_n, seed, block), labels)
        covers = np.tile(base, (len(block), 1))
        covers[:, columns] |= lopsided | chosen
        bad = _first_non_cover_row(B.hyper, covers)
        if bad is not None:
            raise VerificationError(f"{context} trial {start + bad} produced a non-cover")
        sizes = covers.sum(axis=1)
        i = int(sizes.argmin())
        if best is None or sizes[i] < best[0]:
            best = (sizes[i], start + i, covers[i], lopsided[i], chosen[i])
    _, trial, cover, lopsided, chosen = best
    return (trial, tuple(np.flatnonzero(cover).tolist()),
            (_ids(support, lopsided), _ids(support, chosen)))


def _check_trials(trials) -> None:
    """Refuse a trial count that is not an int (nor a bool) of at least 1."""
    if not (isinstance(trials, int) and not isinstance(trials, bool) and trials >= 1):
        raise ParameterError(f"trials must be an integer of at least 1, got {trials!r}")


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

    ``finish`` maps a block of colorings and the support's labels to
    (high_discrepancy, parity_class) masks, as ``_best_trial`` says;
    ``rounding_size`` records the cover's size.
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
    check_limit(params.trials, TRIALS_GUARD, "trials")
    thr = recursive_threshold(B.hyper, params.gamma_value, mode=mode,
                              size_guard=size_guard)
    support = thr.solution.support
    if mode == "exact" and Fraction(len(support)) > B.hyper.t * thr.lp_opt_residual:
        raise VerificationError("residual support exceeds its certified bound")

    def finish(colorings, labels):
        lopsided, parity = _parity_classes(colorings, labels, params.t)
        if (2 * parity.sum(axis=1) > len(support)).any():
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
    check_seed(seed)
    if B.k != 2:
        raise ParameterError(f"expected a pair blow-up (k = 2), got k={B.k}")
    t = B.base_t
    _check_trials(trials)
    check_limit(trials, TRIALS_GUARD, "trials")
    thr = recursive_threshold(B.hyper, Fraction(4, t * t), mode=mode,
                              size_guard=size_guard)
    return _lp_cover(B, thr, trials, seed, _pair_classes, "pair")


def color_code_cover(B: BlowUp, seed: int = 0) -> CoverResult:
    """LP-free randomized cover of a full blow-up via color coding.

    With P = ceil((t-1)/(2 ln t)) colors on the base vertices, a blow-up
    vertex joins the cover if its label misses some color; the rest are
    split by the weighted color-count residue f(v) = sum of the colors
    in the label mod P, and the least popular residue class (ties to the
    lowest) is added.  Valid for every coloring; the expected size is
    about (2 ln t / t) times the vertex count.
    """
    check_seed(seed)
    if B.k != B.base_t - 1:
        raise ParameterError("color coding needs a full blow-up (k = t-1)")
    t = B.base_t
    if t < 3:
        raise ParameterError(f"uniformity must be at least 3, got {t}")
    P = math.ceil((t - 1) / (2 * math.log(t)))
    rng = random.Random(seed)
    colors = [rng.randrange(P) for _ in range(B.base_n)]
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
