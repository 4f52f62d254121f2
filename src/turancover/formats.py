"""Line-oriented text formats for every object that crosses a pipe.

All formats are ASCII with LF newlines; lines starting with '#' and
blank lines are skipped on input and never emitted on output, so equal
objects serialize to identical bytes.  Parse failures raise ParseError
carrying the 1-based line number of the offending input line.

Hypergraphs: header ``HG <t> <n> <m>`` then m lines of t vertex ids.
A blow-up appends a ``LABELS`` line plus one line per vertex giving its
base subset; the base shape is reconstructed from the label size and
the edge uniformity, with the base vertex count taken as one past the
largest labeled id.  An edgeless blow-up has no vertices, so its
``LABELS`` block is empty and can carry neither the label size nor the
base shape: it reads back as the edgeless ``Hypergraph``.

Set systems: ``SS <n> <m>`` then m lines ``<size> e1 ... e_size``.
LP solutions: one ``<id> <value>`` line per supported variable plus a
final ``OBJ <value>``, values as num/den rationals in exact mode and
17-significant-digit floats otherwise.  Covers: ``COVER <size>``, the
sorted ids one per line, then BREAKDOWN / LP / SEED summary lines.
Matchings: ``MATCHING <k>`` plus k edge-id lines.  Greedy traces: one
``<set_id> <newly_covered> <uncovered_after>`` line per pick.

Instances are parsed on one of two paths with identical results.  The
array path reads the edge block and the LABELS block of a document in
the strict form the serializers write (a ``HG`` header at the very
start, single spaces, LF line ends, only the bytes ``[0-9 \n]`` in the
blocks, edges in lexicographic order, labels strictly increasing and
sorted) with a few numpy passes, validates it completely and builds the
instance without validating it again.  Any other input, and any input
the array path would reject, goes through the line-by-line parser, so
comments, blank lines, extra whitespace, ``--dedup`` and every error
message and line number are the line parser's.  The array path runs
only where it pays: when numpy is already loaded (importing it takes
longer than the line parser spends on any pipeline document, so a
short-lived process that needs no numpy never loads it for parsing)
and the input has at least ``_ARRAY_MIN_BYTES`` bytes (below that the
line parser is faster).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb

from .errors import ParseError
from .hypergraph import BlowUp, Hypergraph
from .lp import LPSolution
from .rounding import CoverResult
from .setcover import GreedyTrace, SetSystem

__all__ = [
    "serialize_hypergraph",
    "serialize_blowup",
    "serialize_instance",
    "parse_instance",
    "serialize_setsystem",
    "parse_setsystem",
    "serialize_lp_solution",
    "parse_lp_solution",
    "render_value",
    "serialize_cover",
    "parse_cover",
    "serialize_matching",
    "parse_matching",
    "serialize_greedy_trace",
    "parse_document",
]


_ARRAY_MIN_BYTES = 256
_HEADER = re.compile(r"HG ([0-9]+) ([0-9]+) ([0-9]+)\n")
_MAX_DIGITS = 18  # every id of at most 18 digits fits an int64


class _Cursor:
    """Iterator over meaningful input lines that remembers line numbers.

    ``first_line`` is the number of the first line of ``text``.
    """

    def __init__(self, text: str, first_line: int = 1):
        self.rows = [
            (i, stripped)
            for i, line in enumerate(text.splitlines(), first_line)
            if (stripped := line.strip()) and not stripped.startswith("#")
        ]
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def peek(self):
        return self.rows[self.pos] if not self.done() else (None, None)

    def take(self, expected: str | None = None):
        if self.done():
            raise ParseError(f"unexpected end of input, expected {expected or 'more data'}")
        lineno, text = self.rows[self.pos]
        self.pos += 1
        return lineno, text

    def fail(self, lineno, message):
        raise ParseError(message, line=lineno)

    def finish(self):
        """Refuse any meaningful line left over."""
        if not self.done():
            lineno, text = self.peek()
            self.fail(lineno, f"unexpected trailing content '{text}'")


def _ints(cursor: _Cursor, lineno: int, tokens, what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        cursor.fail(lineno, f"malformed {what}: non-integer token")


# ---------------------------------------------------------------- hypergraphs

class _Names(dict):
    """Decimal strings of ids, each built on first use."""

    def __missing__(self, key: int) -> str:
        name = self[key] = str(key)
        return name


def _rows(rows) -> str:
    """One line per row of ids, each id converted to text once."""
    name = _Names().__getitem__
    return "".join(" ".join(map(name, row)) + "\n" for row in rows)


def serialize_hypergraph(H: Hypergraph) -> str:
    return f"HG {H.t} {H.n} {H.m}\n" + _rows(H.edges)


def serialize_blowup(B: BlowUp) -> str:
    return serialize_hypergraph(B.hyper) + "LABELS\n" + _rows(B.labels)


def serialize_instance(instance) -> str:
    if isinstance(instance, BlowUp):
        return serialize_blowup(instance)
    return serialize_hypergraph(instance)


def _parse_header(cursor: _Cursor, tag: str, arity: int):
    lineno, text = cursor.take(f"{tag} header")
    tokens = text.split()
    if tokens[0] != tag or len(tokens) != arity + 1:
        cursor.fail(lineno, f"expected '{tag}' header with {arity} fields, got '{text}'")
    fields = _ints(cursor, lineno, tokens[1:], f"{tag} header")
    if min(fields) < 0:
        cursor.fail(lineno, f"'{tag}' header fields must be nonnegative, got '{text}'")
    return lineno, fields


def _solve_base_uniformity(k: int, uniformity: int):
    """Smallest b > k with C(b, k) equal to the given uniformity, if any."""
    b = k + 1
    while comb(b, k) < uniformity:
        b += 1
    return b if comb(b, k) == uniformity else None


def _parse_hypergraph(cursor: _Cursor, dedup: bool) -> Hypergraph:
    header_line, (t, n, m) = _parse_header(cursor, "HG", 3)
    if t < 2 or (m == 0 and 0 < n < t):
        cursor.fail(header_line, f"implausible hypergraph shape t={t} n={n} m={m}")
    edges = []
    seen = set()
    for _ in range(m):
        lineno, text = cursor.take("edge line")
        ids = _ints(cursor, lineno, text.split(), "edge")
        if len(ids) != t:
            cursor.fail(lineno, f"edge has {len(ids)} vertices, expected {t}")
        if any(not 0 <= v < n for v in ids):
            cursor.fail(lineno, "vertex id out of range")
        key = tuple(sorted(ids))
        if len(set(key)) != t:
            cursor.fail(lineno, "repeated vertex within edge")
        if key in seen:
            if dedup:
                continue
            cursor.fail(lineno, f"duplicate edge {' '.join(map(str, key))}")
        seen.add(key)
        edges.append(key)
    # checked above as Hypergraph.__post_init__ would (no edge fits n < t)
    return Hypergraph._from_canonical(t, n, tuple(sorted(edges)))


def _int_rows(buf, lo: int, hi: int, rows: int):
    """The ids of ``buf[lo:hi]`` as a ``(rows, cols)`` intp array, or None.

    ``buf`` is a uint8 array and ``buf[lo:hi]`` holds exactly ``rows >= 1``
    newline-terminated lines.  None unless every line is the same number
    ``cols`` of tokens of 1 to ``_MAX_DIGITS`` digits joined by single
    spaces, with no other byte anywhere.
    """
    import numpy as np

    block = buf[lo:hi]
    seps = np.flatnonzero(block - 48 > 9)  # uint8 wraps: every non-digit byte
    if len(seps) % rows:
        return None
    kinds = block[seps].reshape(rows, -1)
    if not ((kinds[:, -1] == 10).all() and (kinds[:, :-1] == 32).all()):
        return None
    lengths = np.diff(seps, prepend=-1) - 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > _MAX_DIGITS:
        return None
    values = np.zeros(len(seps), dtype=np.intp)
    for j in range(longest):
        # seps - j - 1 stays within -len(block) .. len(block); tokens shorter
        # than j + 1 digits are masked out
        digits = block[seps - (j + 1)].astype(np.intp) - 48
        values += np.where(lengths > j, digits, 0) * 10 ** j
    return values.reshape(rows, -1)


def _rows_increase(rows) -> bool:
    """True when the rows of a 2-d array are in strictly increasing
    lexicographic order."""
    import numpy as np

    if len(rows) < 2:
        return True
    a, b = rows[:-1], rows[1:]
    differ = a != b
    first = differ.argmax(axis=1)
    at = np.arange(len(a))
    return bool(differ[at, first].all() and (a[at, first] < b[at, first]).all())


def _array_instance(text: str):
    """The instance at the head of ``text`` by the array path.

    Returns (instance, offset just past it, lines it took), or None when
    the head is not in the strict form of the module docstring or fails
    a check, which leaves the input and its errors to the line parser.
    """
    header = _HEADER.match(text)
    if header is None:
        return None
    t, n, m = map(int, header.groups())
    if t < 2 or (m == 0 and 0 < n < t) or max(t, n, m) >= 10 ** _MAX_DIGITS:
        return None
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    import numpy as np

    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)  # ends[i] closes line i + 1
    lines = 1 + m
    if len(ends) < lines:
        return None
    if m:
        edges = _int_rows(buf, header.end(), int(ends[m]) + 1, m)
        if edges is None or edges.shape[1] != t:
            return None
        edges.sort(axis=1)
        if (edges[:, -1].max() >= n or (edges[:, 1:] == edges[:, :-1]).any()
                or not _rows_increase(edges)):
            return None
    else:
        edges = np.empty((0, t), dtype=np.intp)
    H = Hypergraph._from_canonical(t, n, tuple(map(tuple, edges.tolist())), edges)
    offset = int(ends[m]) + 1
    if not text.startswith("LABELS\n", offset):
        return H, offset, lines
    if n == 0 or len(ends) <= lines + n:
        return None
    labels = _int_rows(buf, offset + len("LABELS\n"), int(ends[lines + n]) + 1, n)
    if (labels is None or (labels[:, 1:] <= labels[:, :-1]).any()
            or not _rows_increase(labels)):
        return None
    k = labels.shape[1]
    base_t = _solve_base_uniformity(k, t)
    if base_t is None:
        return None
    B = BlowUp._from_canonical(H, tuple(map(tuple, labels.tolist())), base_t,
                               int(labels[:, -1].max()) + 1, k)
    return B, int(ends[lines + n]) + 1, lines + 1 + n


def _head(text: str, dedup: bool):
    """The instance at the head of ``text`` and a cursor over the rest."""
    array_pays = len(text) >= _ARRAY_MIN_BYTES and "numpy" in sys.modules
    fast = _array_instance(text) if array_pays else None
    if fast is not None:
        instance, offset, lines = fast
        cursor = _Cursor(text[offset:], lines + 1)
        # the line parser would read a LABELS block after comments too
        _, following = cursor.peek()
        if (isinstance(instance, BlowUp) or following is None
                or following.split()[0] != "LABELS"):
            return instance, cursor
    cursor = _Cursor(text)
    return _parse_instance(cursor, dedup), cursor


def parse_instance(text: str, dedup: bool = False):
    """Parse a hypergraph, upgrading to a BlowUp when LABELS follow.

    The whole input must be consumed; use parse_document for inputs that
    carry trailing cover or matching blocks.
    """
    instance, cursor = _head(text, dedup)
    cursor.finish()
    return instance


def _parse_instance(cursor: _Cursor, dedup: bool):
    H = _parse_hypergraph(cursor, dedup)
    peek_line, peek_text = cursor.peek()
    if peek_text is None or peek_text.split()[0] != "LABELS":
        return H
    cursor.take("LABELS")
    if H.n == 0:  # an empty block carries neither k nor base_t
        return H
    labels = []
    k = None
    for _ in range(H.n):
        lineno, text = cursor.take("label line")
        ids = _ints(cursor, lineno, text.split(), "label")
        if k is None:
            k = len(ids)  # the cursor skips blank lines, so k >= 1
        elif len(ids) != k:
            cursor.fail(lineno, f"label has {len(ids)} ids, expected {k}")
        if list(ids) != sorted(set(ids)):
            cursor.fail(lineno, "label ids must be strictly increasing")
        labels.append(tuple(ids))
    base_t = _solve_base_uniformity(k, H.t)
    if base_t is None:
        cursor.fail(peek_line,
                    f"no base uniformity gives {H.t}-subsets of size {k}")
    # the rest of BlowUp.__post_init__: base ids nonnegative, labels in order
    negative = next((label for label in labels if label[0] < 0), None)
    if negative is not None:
        cursor.fail(peek_line, f"inconsistent labels block: label {negative}"
                    " has out-of-range base ids")
    if any(a >= b for a, b in zip(labels, labels[1:])):
        cursor.fail(peek_line, "inconsistent labels block: labels must be distinct"
                    " and lexicographically sorted")
    base_n = max(label[-1] for label in labels) + 1
    return BlowUp._from_canonical(H, tuple(labels), base_t, base_n, k)


# ---------------------------------------------------------------- set systems

def serialize_setsystem(system: SetSystem) -> str:
    lines = [f"SS {system.n} {system.m}"]
    lines.extend(f"{len(s)} " + " ".join(map(str, s)) if s else "0"
                 for s in system.sets)
    return "\n".join(lines) + "\n"


def parse_setsystem(text: str) -> SetSystem:
    cursor = _Cursor(text)
    _, (n, m) = _parse_header(cursor, "SS", 2)
    sets = []
    for _ in range(m):
        lineno, line = cursor.take("set line")
        ids = _ints(cursor, lineno, line.split(), "set")
        if not ids or ids[0] != len(ids) - 1:
            cursor.fail(lineno, "set line must start with its element count")
        members = ids[1:]
        if len(set(members)) != len(members):
            cursor.fail(lineno, "repeated element within set")
        if any(not 0 <= e < n for e in members):
            cursor.fail(lineno, "element out of range")
        sets.append(tuple(members))
    cursor.finish()
    return SetSystem(n, sets)


# ----------------------------------------------------------------- LP values

def render_value(value) -> str:
    """Text form of an LP value: "-" for None, 17 significant digits for a
    float, "num/den" for a rational."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.17g" % value
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def _parse_value(cursor: _Cursor, lineno: int, token: str):
    if token == "-":
        return None
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            cursor.fail(lineno, f"malformed rational '{token}'")
    try:
        return float(token)
    except ValueError:
        cursor.fail(lineno, f"malformed value '{token}'")


def serialize_lp_solution(solution: LPSolution) -> str:
    lines = [f"{i} {render_value(solution.values[i])}" for i in solution.support]
    lines.append(f"OBJ {render_value(solution.objective)}")
    return "\n".join(lines) + "\n"


def parse_lp_solution(text: str, kind: str = "primal") -> LPSolution:
    cursor = _Cursor(text)
    values = {}
    objective = None
    while not cursor.done():
        lineno, line = cursor.take("value line")
        tokens = line.split()
        if tokens[0] == "OBJ":
            if len(tokens) != 2:
                cursor.fail(lineno, "OBJ line takes exactly one value")
            objective = _parse_value(cursor, lineno, tokens[1])
            cursor.finish()
            break
        if len(tokens) != 2:
            cursor.fail(lineno, "expected '<id> <value>'")
        key = _ints(cursor, lineno, tokens[:1], "variable id")[0]
        values[key] = _parse_value(cursor, lineno, tokens[1])
    if objective is None:
        raise ParseError("missing OBJ line")
    mode = "float" if isinstance(objective, float) else "exact"
    return LPSolution(kind=kind, values=values, objective=objective, mode=mode)


# -------------------------------------------------------------------- covers

def _render_csv(ids) -> str:
    return ",".join(map(str, ids))


def _parse_csv(cursor: _Cursor, lineno: int, text: str):
    if not text:
        return ()
    return tuple(_ints(cursor, lineno, text.split(","), "id list"))


def serialize_cover(result: CoverResult) -> str:
    lines = [f"COVER {result.size}"]
    lines.extend(str(v) for v in result.cover)
    lines.append("BREAKDOWN"
                 f" U={_render_csv(result.forced)}"
                 f" SPRIME={_render_csv(result.high_discrepancy)}"
                 f" PARITY={_render_csv(result.parity_class)}")
    lines.append(f"LP OPT={render_value(result.lp_opt)}"
                 f" RESIDUAL={render_value(result.lp_opt_residual)}")
    seed = "-" if result.seed is None else str(result.seed)
    trial = "-" if result.trial_index is None else str(result.trial_index)
    lines.append(f"SEED {seed} TRIAL {trial}")
    return "\n".join(lines) + "\n"


def _expect_prefixed(cursor: _Cursor, lineno: int, token: str, prefix: str) -> str:
    if not token.startswith(prefix):
        cursor.fail(lineno, f"expected '{prefix}...', got '{token}'")
    return token[len(prefix):]


def _counted_ids(cursor: _Cursor, tag: str, line_what: str, id_what: str):
    """A ``<tag> <count>`` header, then one id per line."""
    _, (count,) = _parse_header(cursor, tag, 1)
    ids = []
    for _ in range(count):
        lineno, line = cursor.take(line_what)
        ids.append(_ints(cursor, lineno, [line], id_what)[0])
    return tuple(ids)


def _whole(parse_block, text: str):
    """One block that must make up all of ``text``."""
    cursor = _Cursor(text)
    result = parse_block(cursor)
    cursor.finish()
    return result


def _parse_cover_block(cursor: _Cursor) -> CoverResult:
    ids = _counted_ids(cursor, "COVER", "cover vertex line", "cover vertex")
    lineno, line = cursor.take("BREAKDOWN line")
    tokens = line.split()
    if len(tokens) != 4 or tokens[0] != "BREAKDOWN":
        cursor.fail(lineno, "expected 'BREAKDOWN U=... SPRIME=... PARITY=...'")
    forced = _parse_csv(cursor, lineno, _expect_prefixed(cursor, lineno, tokens[1], "U="))
    lopsided = _parse_csv(cursor, lineno, _expect_prefixed(cursor, lineno, tokens[2], "SPRIME="))
    parity = _parse_csv(cursor, lineno, _expect_prefixed(cursor, lineno, tokens[3], "PARITY="))
    lineno, line = cursor.take("LP line")
    tokens = line.split()
    if len(tokens) != 3 or tokens[0] != "LP":
        cursor.fail(lineno, "expected 'LP OPT=... RESIDUAL=...'")
    lp_opt = _parse_value(cursor, lineno, _expect_prefixed(cursor, lineno, tokens[1], "OPT="))
    lp_res = _parse_value(cursor, lineno, _expect_prefixed(cursor, lineno, tokens[2], "RESIDUAL="))
    lineno, line = cursor.take("SEED line")
    tokens = line.split()
    if len(tokens) != 4 or tokens[0] != "SEED" or tokens[2] != "TRIAL":
        cursor.fail(lineno, "expected 'SEED <s> TRIAL <i>'")
    seed = None if tokens[1] == "-" else _ints(cursor, lineno, tokens[1:2], "seed")[0]
    trial = None if tokens[3] == "-" else _ints(cursor, lineno, tokens[3:4], "trial")[0]
    return CoverResult(cover=ids, forced=forced, high_discrepancy=lopsided,
                       parity_class=parity, lp_opt=lp_opt, lp_opt_residual=lp_res,
                       seed=seed, trial_index=trial)


def parse_cover(text: str) -> CoverResult:
    return _whole(_parse_cover_block, text)


# ------------------------------------------------------------------ matchings

def serialize_matching(edge_ids) -> str:
    ids = list(edge_ids)
    return "\n".join([f"MATCHING {len(ids)}"] + [str(i) for i in ids]) + "\n"


def _parse_matching_block(cursor: _Cursor):
    return _counted_ids(cursor, "MATCHING", "matching edge line", "edge id")


def parse_matching(text: str):
    return _whole(_parse_matching_block, text)


# -------------------------------------------------------------- greedy traces

def serialize_greedy_trace(trace: GreedyTrace) -> str:
    rows = zip(trace.picked, trace.newly_covered, trace.uncovered_after)
    return "".join(f"{s} {new} {left}\n" for s, new, left in rows)


# ------------------------------------------------------------------ documents

def parse_document(text: str, dedup: bool = False):
    """Parse an instance plus any trailing COVER / MATCHING blocks.

    Returns (instance, cover_result_or_None, matching_ids_or_None); this
    is the input shape the verification commands consume.
    """
    instance, cursor = _head(text, dedup)
    cover = None
    matching = None
    while not cursor.done():
        lineno, line = cursor.peek()
        tag = line.split()[0]
        if tag == "COVER" and cover is None:
            cover = _parse_cover_block(cursor)
        elif tag == "MATCHING" and matching is None:
            matching = _parse_matching_block(cursor)
        else:
            cursor.fail(lineno, f"unexpected block '{tag}'")
    return instance, cover, matching
