"""Serialization round-trips and parse error reporting."""

import io
import sys
from fractions import Fraction
from unittest import mock

import numpy as np  # loaded, so that the array path runs
import pytest
from hypothesis import given, settings, strategies as st

from turancover import cli, formats
from turancover.errors import ParameterError, ParseError
from turancover.formats import (
    parse_cover,
    parse_document,
    parse_instance,
    parse_lp_solution,
    parse_matching,
    parse_setsystem,
    serialize_blowup,
    serialize_cover,
    serialize_greedy_trace,
    serialize_hypergraph,
    serialize_instance,
    serialize_lp_solution,
    serialize_matching,
    serialize_setsystem,
)
from turancover.generators import complete, random_hypergraph
from turancover.hypergraph import BlowUp, Hypergraph, blow_up
from turancover.lp import solve_matching_lp, solve_vc_lp
from turancover.rounding import (CoverResult, RoundingParams, ahtp_cover_blowup,
                                 color_code_cover, t2_cover_blowup)
from turancover.setcover import SetSystem, greedy_set_cover


def test_hypergraph_roundtrip():
    G = random_hypergraph(9, 3, 0.4, seed=8)
    assert parse_instance(serialize_hypergraph(G)) == G


def test_hypergraph_header_shape():
    text = serialize_hypergraph(complete(4, 3))
    first = text.splitlines()[0]
    assert first == "HG 3 4 4"
    assert text.endswith("\n")


def test_blowup_roundtrip():
    B = blow_up(complete(5, 3), 2)
    parsed = parse_instance(serialize_blowup(B))
    assert parsed == B


def test_pair_blowup_roundtrip():
    B = blow_up(complete(5, 4), 2)
    assert parse_instance(serialize_blowup(B)) == B


def test_edgeless_blowup_reads_back_as_its_hypergraph():
    B = blow_up(Hypergraph(3, 4, []), 2)
    text = serialize_blowup(B)
    assert text == "HG 3 0 0\nLABELS\n"
    assert parse_instance(text) == B.hyper == Hypergraph(3, 0, [])
    assert parse_document(text)[0] == B.hyper


def test_serialize_instance_dispatches():
    G = complete(4, 3)
    B = blow_up(G, 2)
    assert serialize_instance(G) == serialize_hypergraph(G)
    assert serialize_instance(B) == serialize_blowup(B)


def test_comments_and_blanks_skipped():
    text = "# generated today\n\nHG 3 3 1\n# the only edge\n0 1 2\n\n"
    assert parse_instance(text) == Hypergraph(3, 3, [(0, 1, 2)])


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("HX 3 3 1\n0 1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("# c\nHG 3 3 1\n0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("HG 3 3 1\n0 1 7\n")


def test_parse_duplicate_edges_and_dedup():
    text = "HG 3 4 2\n0 1 2\n0 1 2\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance(text)
    G = parse_instance(text, dedup=True)
    assert G.m == 1


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_instance("HG 3 3 1\n0 1 2\nextra stuff\n")


_ARRAY_SIZED = serialize_hypergraph(random_hypergraph(12, 4, 0.5, seed=1))
_COVER = ("COVER 2\n0\n3\nBREAKDOWN U= SPRIME= PARITY=0,3\n"
          "LP OPT=- RESIDUAL=-\nSEED 5 TRIAL -\n")


@pytest.mark.parametrize("parse, text, line, content", [
    (parse_instance, "HG 3 3 1\n0 1 2\n# c\n\nextra stuff\n", 5, "extra stuff"),
    # long enough for the array path, which hands over a cursor at its line
    (parse_instance, _ARRAY_SIZED + "# c\n  7 8\n", _ARRAY_SIZED.count("\n") + 2, "7 8"),
    (parse_setsystem, "SS 4 1\n2 0 1\nSS\n", 3, "SS"),
    (parse_lp_solution, "0 1/2\nOBJ 1/2\n\n1 1/2\n", 4, "1 1/2"),
    (parse_cover, _COVER + "MATCHING 0\n", 7, "MATCHING 0"),
    (parse_matching, "MATCHING 1\n0\n1\n", 3, "1"),
], ids=["instance", "instance-array-path", "setsystem", "lp-solution", "cover", "matching"])
def test_trailing_content_is_reported_with_its_line(parse, text, line, content):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: unexpected trailing content '{content}'"


def test_parse_rejects_edge_count_mismatch():
    with pytest.raises(ParseError):
        parse_instance("HG 3 4 2\n0 1 2\n")


def test_labels_block_must_be_consistent():
    # five labels for a four-vertex blow-up
    text = "HG 3 4 1\n0 1 2\nLABELS\n0 1\n0 2\n1 2\n1 3\n2 3\n"
    with pytest.raises(ParseError):
        parse_instance(text)


@pytest.mark.parametrize("text, message", [
    ("HG 3 3 1\n0 1 2\nLABELS\n1\n0\n2\n",
     "labels must be distinct and lexicographically sorted"),
    ("HG 3 3 1\n0 1 2\nLABELS\n0\n0\n2\n",
     "labels must be distinct and lexicographically sorted"),
    # out of order too, but a negative base id is reported first
    ("HG 3 3 1\n0 1 2\nLABELS\n2\n0\n-1\n", "label (-1,) has out-of-range base ids"),
])
def test_inconsistent_labels_blocks_name_the_rule(text, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == f"line 3: inconsistent labels block: {message}"


@pytest.mark.parametrize("parse, text, line", [
    (parse_instance, "HG -3 4 0\n", 1),
    (parse_instance, "HG 3 4 -1\n", 1),
    (parse_setsystem, "SS -1 0\n", 1),
    (parse_setsystem, "SS 3 -2\n", 1),
    (parse_cover, "# c\nCOVER -1\n", 2),
    (parse_matching, "MATCHING -3\n", 1),
])
def test_negative_header_fields_are_refused_for_every_tag(parse, text, line):
    header = text.splitlines()[line - 1]
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == (f"line {line}: '{header.split()[0]}' header fields"
                               f" must be nonnegative, got '{header}'")


@pytest.mark.parametrize("text", ["HG 3 2 0\n", "HG 4 1 0\n", "HG 1 0 0\n"])
def test_edgeless_header_below_uniformity_is_refused(text):
    t, n, m = text.split()[1:]
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == f"line 1: implausible hypergraph shape t={t} n={n} m={m}"


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_lp_solution, "0 1\nOBJ 1 2\n", 2, "OBJ line takes exactly one value"),
    (parse_lp_solution, "0 1 2\nOBJ 1\n", 1, "expected '<id> <value>'"),
    (parse_lp_solution, "0 1/2\n", None, "missing OBJ line"),
    (parse_lp_solution, "0 1/x\nOBJ 1\n", 1, "malformed rational '1/x'"),
    (parse_lp_solution, "0 1/0\nOBJ 1\n", 1, "malformed rational '1/0'"),
    (parse_lp_solution, "0 half\nOBJ 1\n", 1, "malformed value 'half'"),
    (parse_lp_solution, "0 1/3\n0 2/3\nOBJ 1/3\n", 2, "repeated variable id 0"),
    (parse_setsystem, "SS 4 1\n2 1 1\n", 2, "repeated element within set"),
    (parse_setsystem, "SS 4 1\n2 1 4\n", 2, "element out of range"),
    (parse_instance, "HG 4 4 1\n0 1 2 3\nLABELS\n0 1\n0 2\n0 3\n1 2\n", 3,
     "no base uniformity gives 4-subsets of size 2"),
])
def test_parse_errors_name_their_rule_and_line(parse, text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize("argv, text, line, message", [
    (["oracle", "tau"], "HG 3 4 1\n0 1 +2\n", 2, "malformed edge: non-integer token"),
    (["oracle", "tau"], "HG 3 4 1\n0 1 \u0662\n", 2, "malformed edge: non-integer token"),
    (["verify", "matching"], "HG 3 4 1\n0 1 2\nMATCHING 1\n1_0\n", 4,
     "malformed edge id: non-integer token"),
], ids=["plus-sign", "arabic-indic-digit", "underscore"])
def test_ids_are_ascii_decimal_digits(capsys, monkeypatch, argv, text, line, message):
    # int() takes all three; no serializer writes them
    parse = parse_document if argv[0] == "verify" else parse_instance
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"line {line}: {message}"
    if argv[0] == "verify":
        with pytest.raises(ParseError) as info:
            parse_matching(text.split("2\n", 1)[1])
        assert str(info.value) == f"line 2: {message}"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_a_leading_minus_still_reaches_the_range_rules():
    with pytest.raises(ParseError, match="^line 1: 'SS' header fields must be nonnegative"):
        parse_setsystem("SS -0 -1\n")
    with pytest.raises(ParseError, match="^line 2: vertex id out of range$"):
        parse_instance("HG 3 4 1\n0 1 -2\n")
    for bad in ("0 1 --2", "0 1 -", "0 1 2-"):
        with pytest.raises(ParseError, match="^line 2: malformed edge: non-integer token$"):
            parse_instance(f"HG 3 4 1\n{bad}\n")


def _verify(capsys, monkeypatch, argv, text):
    """Exit code and stderr of an in-process ``turancover`` run on ``text``."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = cli.main(argv)
    return code, capsys.readouterr().err


_COVER_DOC = ("HG 3 4 1\n0 1 2\nCOVER 1\n0\nBREAKDOWN U=0 SPRIME= PARITY=\n"
              "LP OPT={} RESIDUAL=-\nSEED - TRIAL -\n")


@pytest.mark.parametrize("token, message", [
    ("1_0/3", "malformed rational '1_0/3'"),
    ("+1/3", "malformed rational '+1/3'"),
    ("\u0661/3", "malformed rational '\u0661/3'"),
    ("1_0.5", "malformed value '1_0.5'"),
    ("+0.5", "malformed value '+0.5'"),
    ("0.\u0665", "malformed value '0.\u0665'"),
    ("nan", "malformed value 'nan'"),
    ("inf", "malformed value 'inf'"),
    ("1e999", "malformed value '1e999'"),
    ("1e5", "malformed value '1e5'"),
], ids=["rational-underscore", "rational-plus-sign", "rational-arabic-indic-digit",
        "float-underscore", "float-plus-sign", "float-arabic-indic-digit",
        "nan", "inf", "overflow", "unsigned-exponent"])
def test_lp_values_are_written_as_render_value_writes_them(capsys, monkeypatch,
                                                           token, message):
    # int() and float() take all of these; render_value writes none of them
    # ("%.17g" signs every exponent)
    with pytest.raises(ParseError) as info:
        parse_lp_solution(f"0 {token}\nOBJ 1/3\n")
    assert str(info.value) == f"line 1: {message}"
    assert _verify(capsys, monkeypatch, ["verify", "cover"], _COVER_DOC.format(token)) == \
        (2, f"parse error: line 6: {message}\n")


def test_lp_values_keep_what_render_value_writes():
    for value in (1 / 3, -0.0, 1e-05, 1.5e+20, 2.0, Fraction(-1, 3), None):
        assert formats._parse_value(1, formats.render_value(value)) == value


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_cover, _COVER_DOC.format("-").replace("COVER 1\n0\n", "COVER 2\n0\n0\n"), 5,
     "repeated cover vertex 0"),
    (parse_matching, "HG 3 6 2\n0 1 2\n3 4 5\nMATCHING 2\n0\n0\n", 6,
     "repeated edge id 0"),
], ids=["cover", "matching"])
def test_counted_blocks_refuse_repeated_ids(capsys, monkeypatch, parse, text, line, message):
    # the repeated cover vertex passed verification; the repeated edge id exited 3
    argv = ["verify", "cover" if parse is parse_cover else "matching"]
    assert _verify(capsys, monkeypatch, argv, text) == \
        (2, f"parse error: line {line}: {message}\n")
    with pytest.raises(ParseError) as info:
        parse(text[text.index(argv[1].upper()):])
    assert str(info.value) == f"line 3: {message}"


_BLOCK_DOC = ("HG 3 3 1\n0 1 2\nCOVER 1\n{}\nBREAKDOWN U={} SPRIME= PARITY=\n"
              "LP OPT=- RESIDUAL=-\nSEED - TRIAL -\n")


@pytest.mark.parametrize("argv, text, line, message", [
    (["verify", "cover"], _BLOCK_DOC.format(7, 7), 4, "cover vertex 7 out of range"),
    (["verify", "cover"], _BLOCK_DOC.format(-1, -1), 4, "cover vertex -1 out of range"),
    (["verify", "cover"], _BLOCK_DOC.format(0, "0,3"), 5, "vertex id 3 out of range"),
    (["verify", "matching"], "HG 3 3 1\n0 1 2\nMATCHING 1\n5\n", 4,
     "edge id 5 out of range"),
], ids=["cover-id", "negative-cover-id", "breakdown-id", "matching-id"])
def test_block_ids_outside_the_instance_are_parse_errors(capsys, monkeypatch, argv, text,
                                                         line, message):
    # the cover and matching ids exited 3 through is_vertex_cover and
    # is_matching, the BREAKDOWN id 5 as a breakdown that differs from the cover
    assert _verify(capsys, monkeypatch, argv, text) == \
        (2, f"parse error: line {line}: {message}\n")
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert str(info.value) == f"line {line}: {message}"
    # a block read on its own has no instance to bound its ids above,
    # but a negative id is refused all the same
    parse = parse_cover if argv[1] == "cover" else parse_matching
    block = text[text.index(argv[1].upper()):]
    if "-1" in message:
        with pytest.raises(ParseError, match=f"^line 2: {message}$"):
            parse(block)
    else:
        parse(block)


_SUMMARY_DOC = ("HG 3 3 1\n0 1 2\nCOVER 1\n{}\nBREAKDOWN U={} SPRIME= PARITY=\n"
                "LP OPT=- RESIDUAL=-\nSEED {} TRIAL {}\n")


@pytest.mark.parametrize("fields, line, message", [
    ((-4, 0, "-", "-"), 2, "cover vertex -4 out of range"),
    ((0, "0,-4", "-", "-"), 3, "vertex id -4 out of range"),
    ((0, 0, -5, -3), 5, "seed -5 does not fit in 64 bits"),
    ((0, 0, 2**64, 0), 5, f"seed {2**64} does not fit in 64 bits"),
    ((0, 0, 2**76 + 1, 0), 5, f"seed {2**76 + 1} does not fit in 64 bits"),
    ((0, 0, 5, -3), 5, "trial -3 is negative"),
], ids=["cover-id", "breakdown-id", "negative-seed", "seed-2**64", "77-bit-seed",
        "negative-trial"])
def test_cover_blocks_refuse_negative_ids_seeds_and_trials(capsys, monkeypatch, fields, line,
                                                           message):
    # a block alone returned (-4,) for a negative id, and verify cover
    # printed OK on SEED -5 TRIAL -3 and on a 77-bit seed
    text = _SUMMARY_DOC.format(*fields)
    with pytest.raises(ParseError) as info:
        parse_cover(text[text.index("COVER"):])
    assert str(info.value) == f"line {line}: {message}"
    assert _verify(capsys, monkeypatch, ["verify", "cover"], text) == \
        (2, f"parse error: line {line + 2}: {message}\n")


def test_cover_blocks_take_the_ends_of_the_seed_and_trial_ranges():
    for seed, trial in ((0, 0), (2**64 - 1, 10**30)):
        text = _SUMMARY_DOC.format(0, 0, seed, trial)
        cover = parse_cover(text[text.index("COVER"):])
        assert (cover.seed, cover.trial_index) == (seed, trial)


def test_matching_blocks_refuse_negative_ids():
    with pytest.raises(ParseError, match="^line 2: edge id -3 out of range$"):
        parse_matching("MATCHING 1\n-3\n")


@pytest.mark.parametrize("text, line, message", [
    ("0 -\nOBJ 1/2\n", 1, "value - is not of the OBJ value's kind (exact)"),
    ("0 1/2\nOBJ -\n", 2, "OBJ value must be a number, got '-'"),
    ("0 0.5\nOBJ 1/2\n", 1, "value 0.5 is not of the OBJ value's kind (exact)"),
    ("0 0.5\n1 1/2\nOBJ 1\n", 2, "value 1/2 is not of the OBJ value's kind (float)"),
], ids=["dash-value", "dash-objective", "float-in-exact", "exact-in-float"])
def test_lp_solutions_hold_one_value_kind(text, line, message):
    # read as None, as an exact solution holding a float (which
    # check_complementary_slackness then failed on), and as "missing OBJ line"
    with pytest.raises(ParseError) as info:
        parse_lp_solution(text)
    assert str(info.value) == f"line {line}: {message}"


def test_setsystem_sets_are_sorted_while_read():
    system = parse_setsystem("SS 5 3\n3 4 0 2\n0\n2 3 1\n")
    assert system == SetSystem(5, ((4, 0, 2), (), (3, 1)))
    assert system.sets == ((0, 2, 4), (), (1, 3))


def test_setsystem_roundtrip():
    sys_ = SetSystem(6, ((0, 2, 4), (1, 3), (5,)))
    assert parse_setsystem(serialize_setsystem(sys_)) == sys_


def test_setsystem_size_prefix_checked():
    with pytest.raises(ParseError):
        parse_setsystem("SS 4 1\n3 0 1\n")


def test_lp_solution_exact_roundtrip():
    G = complete(4, 3)
    sol = solve_vc_lp(G)
    back = parse_lp_solution(serialize_lp_solution(sol), kind="primal")
    assert back.values == sol.values
    assert back.objective == Fraction(4, 3)
    assert back.mode == "exact"


def test_lp_solution_float_roundtrip_is_bit_exact():
    G = complete(4, 3)
    sol = solve_matching_lp(G, mode="float")
    back = parse_lp_solution(serialize_lp_solution(sol), kind="dual")
    assert back.values == sol.values
    assert back.objective == sol.objective
    assert back.mode == "float"


def test_float_rendering_uses_seventeen_digits():
    sol = solve_vc_lp(complete(4, 3), mode="float")
    text = serialize_lp_solution(sol)
    rendered = {}
    for line in text.splitlines():
        if not line.startswith("OBJ"):
            vid, val = line.split()
            rendered[int(vid)] = val
    assert {i: float(r) for i, r in rendered.items()} == sol.values
    assert any(len(r) > 10 for r in rendered.values())


def test_cover_roundtrip_with_lp_fields():
    B = blow_up(complete(4, 3), 2)
    res = ahtp_cover_blowup(B, RoundingParams(t=3, seed=7, trials=2), mode="exact")
    back = parse_cover(serialize_cover(res))
    assert back.cover == res.cover
    assert back.forced == res.forced
    assert back.lp_opt == res.lp_opt
    assert back.seed == 7 and back.trial_index == res.trial_index
    # candidate sizes are introspection only and do not survive the wire
    assert back.rounding_size is None


def test_cover_roundtrip_with_none_fields():
    B = blow_up(complete(4, 3), 2)
    res = color_code_cover(B, seed=5)
    back = parse_cover(serialize_cover(res))
    assert back.cover == res.cover
    assert back.lp_opt is None and back.lp_opt_residual is None
    assert back.seed == 5 and back.trial_index is None


def test_matching_roundtrip():
    text = serialize_matching([0, 2])
    assert text == "MATCHING 2\n0\n2\n"
    assert parse_matching(text) == (0, 2)


def test_greedy_trace_format():
    trace = greedy_set_cover(SetSystem(4, ((1, 3), (0, 1), (2, 3))))
    text = serialize_greedy_trace(trace)
    lines = text.strip().splitlines()
    assert len(lines) == len(trace.picked)
    assert all(len(line.split()) == 3 for line in lines)


def test_document_with_cover_block():
    B = blow_up(complete(4, 3), 2)
    res = ahtp_cover_blowup(B, RoundingParams(t=3, seed=7, trials=2), mode="exact")
    text = serialize_blowup(B) + serialize_cover(res)
    instance, cover, matching = parse_document(text)
    assert instance == B
    assert cover.cover == res.cover
    assert matching is None


def test_document_with_matching_block():
    G = complete(4, 3)
    text = serialize_hypergraph(G) + serialize_matching([0])
    instance, cover, matching = parse_document(text)
    assert instance == G
    assert cover is None
    assert matching == (0,)


def test_document_instance_only():
    G = complete(4, 3)
    instance, cover, matching = parse_document(serialize_hypergraph(G))
    assert instance == G and cover is None and matching is None


# ------------------------------------------- array path against line parser

def _serialize_reference(instance) -> str:
    """The per-id ``str`` serializer that the cached-name one replaced."""
    H = instance.hyper if isinstance(instance, BlowUp) else instance
    lines = [f"HG {H.t} {H.n} {H.m}"]
    lines.extend(" ".join(map(str, edge)) for edge in H.edges)
    if isinstance(instance, BlowUp):
        lines.append("LABELS")
        lines.extend(" ".join(map(str, label)) for label in instance.labels)
    return "\n".join(lines) + "\n"


def _outcome(parse, text, dedup):
    try:
        return "ok", parse(text, dedup=dedup)
    except (ParseError, ParameterError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _both_paths(parse, text, dedup=False):
    """(array path allowed at any size, line parser only) outcomes."""
    with mock.patch.object(formats, "_ARRAY_MIN_BYTES", 0):
        fast = _outcome(parse, text, dedup)
    with mock.patch.object(formats, "_array_instance", lambda text: None):
        slow = _outcome(parse, text, dedup)
    return fast, slow


def _check_edge_array(instance):
    H = instance.hyper if isinstance(instance, BlowUp) else instance
    E = H.edge_array
    assert E.dtype == np.intp and E.shape == (H.m, H.t) and not E.flags.writeable
    assert E.tolist() == [list(e) for e in H.edges]


_TOKENS = ["", "0", "1", "2", "5", "007", "+5", "1_0", "-1", "x", "99", " ", "\t",
           "LABELS", "COVER 0", "MATCHING 1", "# note", "0 1", "\r"]


@st.composite
def _documents(draw):
    """A serialized instance, maybe with a trailing block, then maybe mutated."""
    t = draw(st.integers(2, 5))
    n = draw(st.integers(t, 9))
    G = random_hypergraph(n, t, draw(st.floats(0, 1)), draw(st.integers(0, 999)))
    k = draw(st.integers(0, t - 1))
    instance = blow_up(G, k) if k else G
    H = instance.hyper if k else G
    text = serialize_instance(instance)
    assert text == _serialize_reference(instance)
    tail = draw(st.sampled_from(["", "cover", "matching"]))
    if tail == "cover":
        ids = tuple(sorted(draw(st.sets(st.integers(0, max(H.n - 1, 0)), max_size=4))))
        text += serialize_cover(CoverResult(ids, ids[:1], (), ids[1:], Fraction(3, 2),
                                            0.0, 7, None))
    elif tail == "matching":
        text += serialize_matching(range(min(H.m, 2)))
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["shuffle", "tokens", "insert", "delete", "duplicate",
                                   "replace", "space", "header"]))
        if op == "shuffle" and H.m > 1:  # reorder the edge lines
            edges = lines[1:H.m + 1]
            lines[1:H.m + 1] = draw(st.permutations(edges))
        elif op == "tokens":
            lines[i] = " ".join(draw(st.permutations(lines[i].split(" "))))
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(["# comment", "", "   ", "#"])))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "space":
            lines[i] = draw(st.sampled_from([" ", "", "  "])) + lines[i].replace(
                " ", draw(st.sampled_from([" ", "  ", "\t", "\r", "\x0b", "x"])), 1)
        else:
            lines[0] = f"HG {t} {draw(st.integers(0, 12))} {draw(st.integers(0, H.m + 2))}"
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(_documents(), st.booleans())
def test_array_path_matches_the_line_parser(text, dedup):
    for parse in (parse_instance, parse_document):
        fast, slow = _both_paths(parse, text, dedup)
        assert fast == slow
        if fast[0] == "ok":
            _check_edge_array(fast[1] if parse is parse_instance else fast[1][0])


def test_array_path_takes_serializer_output():
    G = random_hypergraph(9, 4, 0.5, seed=3)
    B = blow_up(G, 2)
    cover = t2_cover_blowup(B, seed=1)  # a cover of B: its ids are B's vertices
    for instance in (G, B, Hypergraph(3, 0, []), Hypergraph(3, 5, [])):
        text = serialize_instance(instance)
        parsed, offset, lines = formats._array_instance(text)
        assert parsed == instance and offset == len(text)
        assert lines == text.count("\n")
        _check_edge_array(parsed)
    doc = serialize_blowup(B) + serialize_cover(cover)
    assert len(doc) >= formats._ARRAY_MIN_BYTES
    with mock.patch.object(formats, "_parse_instance", side_effect=AssertionError):
        instance, parsed_cover, _ = parse_document(doc)
    assert instance == B and parsed_cover.cover == cover.cover


@pytest.mark.parametrize("text", [
    "HG 3 4 2\n0 1 2\n0 1 2\n",            # duplicate edge
    "HG 3 4 2\n0 1 3\n0 1 2\n",            # unsorted edges
    "HG 3 4 1\n2 1 0\n",                   # unsorted ids (accepted, sorted)
    "HG 3 4 1\n0 1 4\n",                   # id out of range
    "HG 3 4 1\n0 1 1\n",                   # repeated id
    "HG 3 4 1\n0 1\n",                     # short edge
    "HG 3 4 1\n0  1 2\n",                  # double space
    "HG 3 4 1\n0 1 2 \n",                  # trailing space
    "HG 3 4 1\n0 1 +2\n",                  # signed token
    "HG 3 4 1\n0x1 2\n",                   # glued tokens
    "HG 3 4 1\n0 1\r2\n",                  # a line break inside an edge line
    "HG 3 4 1\n0\t1 2\n",                  # a tab
    "HG 3 4 1\n0 1 2\n# trailing comment\n",
    "HG 3 4 1\n0 1 2\n\nLABELS\n0\n1\n2\n3\n",
    "HG 3 3 1\n0 1 2\nLABELS\n0 1\n0 2\n1 2\n",   # k=2 gives no 3-subsets
    "HG 3 3 1\n0 1 2\nLABELS\n0\n2\n1\n",        # unsorted labels
    "HG 3 3 1\n0 1 2\nLABELS\n0\n1\n",            # too few labels
    "HG 3 3 1\n0 1 2\nLABELS extra\n0\n1\n2\n",
    "HG 3 2 0\n",                                    # n below t
    "HG 3 4 1\n0 1 2",                               # no final newline
    "HG 3 4 1\r\n0 1 2\r\n",
    "HG 3 4 1\n0 1 2\nCOVER 1\n0\nBREAKDOWN U= SPRIME= PARITY=\n",
])
def test_array_path_edge_cases_match_the_line_parser(text):
    for parse in (parse_instance, parse_document):
        for dedup in (False, True):
            fast, slow = _both_paths(parse, text, dedup)
            assert fast == slow
