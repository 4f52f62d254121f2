"""End-to-end command-line tests, driven through real subprocesses except
where a test needs to patch the package in-process."""

import contextlib
import hashlib
import io
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from turancover import cli, formats, generators, hypergraph, lp, rounding, setcover

PY = [sys.executable, "-m", "turancover"]


def run(args, stdin_text=""):
    proc = subprocess.run(
        PY + args, input=stdin_text, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def chain(*commands):
    """Feed each command's stdout into the next one's stdin."""
    text = ""
    code = 0
    for cmd in commands:
        code, text, err = run(cmd, text)
        assert code == 0, f"{cmd} failed: {err}"
    return text


def test_blow_up_cover_number_pipeline():
    out = chain(
        ["gen", "complete", "--n", "4", "--t", "3"],
        ["blowup", "--k", "2"],
        ["oracle", "tau"],
    )
    assert out == "2\n"


def test_round_then_verify_pipeline():
    out = chain(
        ["gen", "complete", "--n", "4", "--t", "3"],
        ["blowup", "--k", "2"],
        ["round", "ahtp", "--seed", "7", "--trials", "20", "--mode", "exact"],
        ["verify", "cover"],
    )
    assert out == "OK\n"


def test_t2_float_rounding_output_is_pinned():
    # the pair blow-up of a dense 8-uniform base, the float_pairs shape
    # (20, 8, 0.03): every pair stays in the residual support, so all 200
    # color trials run; the digest pins the output bytes
    out = chain(
        ["gen", "random", "--n", "20", "--t", "8", "--p", "0.03", "--seed", "5"],
        ["blowup", "--k", "2"],
        ["round", "t2", "--mode", "float", "--trials", "200", "--seed", "11"],
    )
    assert out.endswith("SEED 11 TRIAL 10\n")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c6d5fb2c11dbeebc4000694fd859a24b7ab3d7c991cc51ed0c1e6d4cb5e59f47"


def test_colorcode_output_is_pinned():
    # color_code_cover draws randrange(P) from random.Random(seed); the
    # digests pin its output bytes at P = 2 for seeds at both ends of the range
    doc = chain(["gen", "complete", "--n", "12", "--t", "6"], ["blowup", "--k", "5"])
    digests = {}
    for seed in (0, 1, 2**64 - 1):
        code, out, err = run(["round", "colorcode", "--seed", str(seed)], doc)
        assert (code, err) == (0, "")
        digests[seed] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == {
        0: "a52812a37a78684bfb96a3808654af9d3921f9db3ae7a57c6014b3a6958bdd9f",
        1: "2b5949376dac1a5b3a2874a4a892f389a1e7ee77295a1255e5e3e07b8db4abbf",
        2**64 - 1: "a85483fc40b3b20dfb27d2f2bbb9f07be49be2dabb37169103528f4cf75ce130",
    }


def test_lines_have_no_tents():
    out = chain(["gen", "lines", "--n", "2"], ["oracle", "tents"])
    assert out == "TENTS 0\n"


def test_tent_free_output_has_no_tents():
    # find_tents once also counted three edges sharing a second vertex
    out = chain(["gen", "ffree", "--n", "12", "--p", "0.25", "--seed", "10"],
                ["oracle", "tents"])
    assert out == "TENTS 0\n"


def test_exact_lp_output():
    out = chain(
        ["gen", "complete", "--n", "4", "--t", "3"],
        ["lp", "vc", "--mode", "exact"],
    )
    assert out == "0 1/3\n1 1/3\n2 1/3\n3 1/3\nOBJ 4/3\n"


def test_float_lp_objective_close_to_exact():
    out = chain(
        ["gen", "complete", "--n", "4", "--t", "3"],
        ["lp", "matching", "--mode", "float"],
    )
    obj = float(out.strip().splitlines()[-1].split()[1])
    assert abs(obj - 4 / 3) < 1e-6


def test_float_lp_sides_print_the_same_objective():
    for gen in (["gen", "complete", "--n", "4", "--t", "3"],
                ["gen", "random", "--n", "9", "--t", "3", "--p", "0.4", "--seed", "5"]):
        vc, matching = (chain(gen, ["lp", side, "--mode", "float"]).splitlines()[-1]
                        for side in ("vc", "matching"))
        assert vc.startswith("OBJ ")
        assert vc == matching


def test_taustar_rho_alpha_oracles():
    k4 = ["gen", "complete", "--n", "4", "--t", "3"]
    assert chain(k4, ["oracle", "taustar"]) == "4/3\n"
    assert chain(k4, ["oracle", "rho"]) == "3/1\n"
    assert chain(k4, ["oracle", "alpha"]) == "2\n"
    assert chain(k4, ["oracle", "nu"]) == "1\n"


def test_tent_witness_listing():
    tent = "HG 3 7 4\n0 1 4\n0 2 5\n0 3 6\n4 5 6\n"
    code, out, _ = run(["oracle", "tents"], tent)
    assert code == 0
    assert out == "TENTS 1\n0 1 2 3\n"


def test_threshold_round_echoes_instance():
    out = chain(
        ["gen", "complete", "--n", "4", "--t", "3"],
        ["blowup", "--k", "2"],
        ["round", "threshold", "--mode", "exact"],
    )
    assert out.startswith("HG 3 6 4\n")
    assert "COVER 2\n" in out
    assert "SEED - TRIAL -" in out


def test_edgeless_blow_up_crosses_a_pipe():
    # its LABELS block is empty, so it reads back as the edgeless hypergraph
    code, blown, _ = run(["blowup", "--k", "2"], "HG 3 4 0\n")
    assert (code, blown) == (0, "HG 3 0 0\nLABELS\n")
    assert run(["verify", "simple"], blown)[:2] == (0, "OK\n")
    assert run(["lp", "vc"], blown)[:2] == (0, "OBJ 0/1\n")
    code, out, _ = run(["round", "threshold"], blown)
    assert code == 0 and "COVER 0\n" in out
    for scheme in ("ahtp", "t2"):
        code, out, err = run(["round", scheme, "--seed", "1"], blown)
        assert (code, out) == (3, "")
        assert err == (f"parameter error: 'round {scheme}' got an edgeless instance:"
                       " an edgeless blow-up carries no k or base_t\n")


def test_t2_round_verifies():
    out = chain(
        ["gen", "complete", "--n", "4", "--t", "3"],
        ["blowup", "--k", "2"],
        ["round", "t2", "--seed", "11", "--trials", "5", "--mode", "exact"],
        ["verify", "cover"],
    )
    assert out == "OK\n"


def test_colorcode_round_verifies():
    out = chain(
        ["gen", "complete", "--n", "5", "--t", "4"],
        ["blowup", "--k", "3"],
        ["round", "colorcode", "--seed", "3"],
        ["verify", "cover"],
    )
    assert out == "OK\n"


def test_greedy_trace_output():
    out = chain(["gen", "hard-setcover", "--k", "3"], ["setcover", "greedy"])
    rows = [line.split() for line in out.strip().splitlines()]
    assert all(len(r) == 3 for r in rows)
    assert rows[-1][2] == "0"
    assert len(rows) >= 5


def test_verify_simple_both_ways():
    code, out, _ = run(["verify", "simple"], "SS 4 2\n2 0 1\n2 2 3\n")
    assert (code, out) == (0, "OK\n")
    code, out, err = run(
        ["verify", "simple"], "HG 3 4 2\n0 1 2\n0 1 3\n"
    )
    assert code == 5
    assert "not simple" in err


@pytest.mark.parametrize("text, code, kind", [
    ("# HG 3 4 2\n\n   SS 4 2\n2 0 1\n2 2 3\n", 0, "set system"),
    ("\n# SS 4 2\n  \nHG 3 4 2\n0 1 2\n0 1 3\n", 5, "hypergraph"),
    ("#\nSS 4 2\n3 0 1 2\n3 0 1 3\n", 5, "set system"),
    ("# only a comment\n\n", 2, None),
], ids=["ss-behind-comments", "hg-behind-comments", "ss-not-simple", "no-header"])
def test_verify_simple_reads_the_kind_behind_comments_and_blank_lines(
        capsys, monkeypatch, text, code, kind):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["verify", "simple"]) == code
    out, err = capsys.readouterr()
    assert out == ("OK\n" if code == 0 else "")
    if code == 5:
        assert err.startswith(f"verification failed: {kind} is not simple")
    if kind is not None:
        parsed = formats.parse_setsystem_or_instance(text)
        assert isinstance(parsed, setcover.SetSystem) == (kind == "set system")


def test_verify_matching():
    ok = "HG 3 6 2\n0 1 2\n3 4 5\nMATCHING 2\n0\n1\n"
    assert run(["verify", "matching"], ok)[:2] == (0, "OK\n")
    bad = "HG 3 5 2\n0 1 2\n0 3 4\nMATCHING 2\n0\n1\n"
    code, _, err = run(["verify", "matching"], bad)
    assert code == 5 and "reuses" in err


def test_verify_cover_failure_exit_code():
    doc = (
        "HG 3 4 1\n0 1 2\n"
        "COVER 1\n3\n"
        "BREAKDOWN U=3 SPRIME= PARITY=\n"
        "LP OPT=- RESIDUAL=-\n"
        "SEED - TRIAL -\n"
    )
    code, _, err = run(["verify", "cover"], doc)
    assert code == 5
    assert "cover" in err


def test_verify_cover_checks_the_breakdown():
    # the ids cover the edge, but the BREAKDOWN accounts for none of them
    doc = (
        "HG 3 4 1\n0 1 2\n"
        "COVER 1\n0\n"
        "BREAKDOWN U= SPRIME= PARITY=\n"
        "LP OPT=- RESIDUAL=-\n"
        "SEED - TRIAL -\n"
    )
    code, out, err = run(["verify", "cover"], doc)
    assert (code, out) == (5, "")
    assert err == "verification failed: claimed cover is not U, SPRIME and PARITY combined\n"
    assert run(["verify", "cover"], doc.replace("U=", "U=0"))[:2] == (0, "OK\n")


def test_verify_cover_solves_under_its_size_guard():
    # round threshold wrote a rational LP OPT under a raised exact guard; n*m
    # is 80840, so verify needs the same guard to re-solve it
    doc = chain(["gen", "random", "--n", "40", "--t", "3", "--p", "0.2", "--seed", "1"],
                ["round", "threshold", "--mode", "exact", "--size-guard", "1000000"])
    assert "LP OPT=40/3 " in doc
    assert run(["verify", "cover"], doc) == (
        4, "", "resource limit: exact LP size n*m = 80840 exceeds limit 50000\n")
    assert run(["verify", "cover", "--size-guard", "80840"], doc) == (0, "OK\n", "")
    assert run(["verify", "cover", "--size-guard", "80839"], doc)[0] == 4


def test_verify_cover_checks_the_lp_line(capsys, monkeypatch):
    # each edit printed OK: a RESIDUAL above OPT, values of two kinds, and
    # a rational OPT that is not the instance's optimum; only a rational
    # OPT is solved for
    doc = chain(
        ["gen", "random", "--n", "8", "--t", "4", "--p", "0.3", "--seed", "5"],
        ["blowup", "--k", "3"],
        ["round", "ahtp", "--seed", "1"],
    )
    line = "LP OPT=33/4 RESIDUAL=0/1"
    lineno = doc[:doc.index(line)].count("\n") + 1

    solves = []
    monkeypatch.setattr(cli, "solve_vc_lp", lambda H, mode, size_guard: (
        solves.append(mode) or lp.solve_vc_lp(H, mode, size_guard)))

    def verify(lp_line):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc.replace(line, lp_line)))
        code = cli.main(["verify", "cover"])
        return (code, *capsys.readouterr())

    for ok in (line, "LP OPT=33/4 RESIDUAL=33/4", "LP OPT=8.25 RESIDUAL=0.0",
               "LP OPT=- RESIDUAL=-"):
        assert verify(ok) == (0, "OK\n", "")
    assert solves == ["exact", "exact"]
    for wrong in ("LP OPT=1/1000 RESIDUAL=0/1", "LP OPT=17/2 RESIDUAL=0/1"):
        assert verify(wrong) == (
            5, "", "verification failed: claimed LP optimum is not the instance's"
            " exact optimum\n")
    for above in ("LP OPT=33/4 RESIDUAL=99/1", "LP OPT=8.25 RESIDUAL=8.5"):
        assert verify(above) == (
            5, "", "verification failed: claimed residual LP optimum exceeds the LP optimum\n")
    for mixed in ("LP OPT=1.5 RESIDUAL=-", "LP OPT=- RESIDUAL=0/1",
                  "LP OPT=33/4 RESIDUAL=0.0", "LP OPT=8.25 RESIDUAL=0/1"):
        assert verify(mixed) == (2, "", f"parse error: line {lineno}: OPT and RESIDUAL must"
                                 " both be '-', both rationals or both floats\n")


@pytest.mark.parametrize("argv, stdin_text, line", [
    (["verify", "simple"], "HG 3 2 0\n", 1),
    (["verify", "simple"], "SS -1 0\n", 1),
    (["setcover", "greedy"], "# a comment\nSS 3 -2\n", 2),
    (["verify", "matching"], "HG 3 4 1\n0 1 2\nMATCHING -3\n", 3),
], ids=["hg-n-below-t", "ss-negative-n", "ss-negative-m", "matching-negative"])
def test_malformed_headers_are_parse_errors(capsys, monkeypatch, argv, stdin_text, line):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"parse error: line {line}: ") and err.count("\n") == 1


def test_parse_error_exit_code():
    code, _, err = run(["oracle", "tau"], "HG 3 4 2\n0 1 2\n0 1 2\n")
    assert code == 2
    assert "line 3" in err


def test_dedup_flag_recovers_duplicates():
    code, out, _ = run(["--dedup", "oracle", "tau"], "HG 3 4 2\n0 1 2\n0 1 2\n")
    assert (code, out) == (0, "1\n")


def test_parameter_error_exit_code():
    code, _, err = run(["gen", "complete", "--n", "3", "--t", "4"])
    assert code == 3


@pytest.mark.parametrize("scheme, k", [("t2", 2), ("colorcode", 3), ("threshold", 3)])
def test_gamma_is_refused_by_schemes_that_ignore_it(monkeypatch, capsys, scheme, k):
    doc = formats.serialize_blowup(hypergraph.blow_up(generators.complete(5, 4), k))
    argv = ["round", scheme, "--trials", "5"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    assert cli.main([*argv, "--gamma", "0.5"]) == 3
    assert capsys.readouterr() == ("", "parameter error: --gamma applies only to 'round ahtp'\n")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_ffree_without_enough_vertices_exits_3(capsys, n):
    # the default edge probability n ** (-1/rho) has no value for these n
    assert cli.main(["gen", "ffree", "--n", n, "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parameter error: need at least 3 vertices, got {n}\n"


def test_ffree_takes_no_t(capsys):
    # the excluded tent is 3-uniform, so 3 was the only value --t accepted
    with pytest.raises(SystemExit) as info:
        cli.main(["gen", "ffree", "--n", "8", "--t", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --t 3" in capsys.readouterr().err


_PAIR_DOC = formats.serialize_blowup(hypergraph.blow_up(generators.complete(5, 4), 2))
_FULL_DOC = formats.serialize_blowup(hypergraph.blow_up(generators.complete(5, 4), 3))


@pytest.mark.parametrize("argv, stdin_text, other", [
    (["gen", "random", "--n", "6", "--t", "3", "--p", "0.5"], "", ["--p", "2"]),
    (["gen", "ffree", "--n", "8"], "", ["--n", "0"]),
    (["gen", "simplify", "--cloud", "2", "--per-edge", "2"], "HG 3 4 1\n0 1 2\n",
     ["--cloud", "0"]),
    (["round", "ahtp"], _FULL_DOC, ["--trials", "0"]),
    (["round", "t2"], _FULL_DOC, []),  # a full blow-up where a pair one is needed
    (["round", "colorcode"], _PAIR_DOC, []),  # a pair blow-up where a full one is needed
], ids=["gen-random", "gen-ffree", "gen-simplify", "round-ahtp", "round-t2", "round-colorcode"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_outside_64_bits_is_reported_first(capsys, monkeypatch, argv, stdin_text,
                                                  other, seed):
    for extra in ([], other):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        assert cli.main([*argv, *extra, "--seed", seed]) == 3
        assert capsys.readouterr() == ("", "parameter error: seed must fit in 64 bits\n")


def test_strict_mode_requires_seed():
    code, _, err = run(["--strict", "gen", "random", "--n", "6", "--t", "3", "--p", "0.5"])
    assert code == 3
    assert "--seed" in err
    code, out, _ = run(
        ["--strict", "gen", "random", "--n", "6", "--t", "3", "--p", "0.5", "--seed", "1"]
    )
    assert code == 0 and out.startswith("HG 3 6 ")


def test_resource_guard_exit_code():
    code, _, err = run(["gen", "lines", "--n", "8"])
    assert code == 4
    assert "limit" in err


@pytest.mark.parametrize("argv, stdin_text", [
    (["gen", "random", "--n", "60", "--t", "8", "--p", "0"], ""),
    (["gen", "complete", "--n", "60", "--t", "8"], ""),
    (["gen", "hard-setcover", "--k", "100000"], ""),
    (["blowup", "--k", "50000"], "HG 100000 100000 0\n"),
    # 21 edges of C(20,10) = 184,756 entries each: each edge passes, all 21 do not
    pytest.param(["blowup", "--k", "10"],
                 formats.serialize_hypergraph(generators.complete(21, 20)), id="blowup-entries"),
    # refused by bit length: 4**n is never computed
    (["gen", "lines", "--n", "100000000"], ""),
])
def test_oversized_enumerations_exit_4_before_starting(monkeypatch, capsys, argv, stdin_text):
    def refuse(*args):
        raise AssertionError("enumeration started")

    monkeypatch.delenv("TURANCOVER_SIZE_GUARD", raising=False)
    monkeypatch.setattr(generators, "combinations", refuse)
    monkeypatch.setattr(generators, "range", refuse, raising=False)
    monkeypatch.setattr(hypergraph, "comb", refuse)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource limit: ") and "exceed" in err
    assert "Traceback" not in err


def _refuse(*args, **kwargs):
    raise AssertionError("allocation started")


@pytest.mark.parametrize("argv, stdin_text, patches", [
    (["setcover", "greedy"], "SS 1000000000 0\n", [(setcover, "_containing")]),
    (["gen", "simplify", "--cloud", "2", "--per-edge", "100000000"], "HG 3 3 1\n0 1 2\n",
     [(generators, "random"), (generators, "_kept_flags")]),
    (["round", "t2", "--trials", "100000000"], "pair blow-up",
     [(rounding, "solve_vc_lp"), (rounding, "_colorings")]),
    (["round", "ahtp", "--trials", "100000000"], "full blow-up",
     [(rounding, "solve_vc_lp"), (rounding, "_colorings")]),
    # one edge over 10**8 vertices: HiGHS would hold gigabytes for the columns
    (["lp", "vc", "--mode", "float"], "HG 2 100000000 1\n0 1\n", [(lp, "_highs")]),
    (["round", "threshold", "--mode", "float"], "HG 2 100000000 1\n0 1\n", [(lp, "_highs")]),
    (["oracle", "taustar", "--mode", "float"], "HG 2 100000000 1\n0 1\n", [(lp, "_highs")]),
    # the option sets the float guard too: n + m*t = 7 here
    (["lp", "vc", "--mode", "float", "--size-guard", "1"], "HG 2 3 2\n0 1\n1 2\n",
     [(lp, "_highs")]),
    (["round", "threshold", "--mode", "float", "--size-guard", "1"], "HG 2 3 2\n0 1\n1 2\n",
     [(lp, "_highs")]),
    (["oracle", "taustar", "--mode", "float", "--limit", "1"], "HG 2 3 2\n0 1\n1 2\n",
     [(lp, "_highs")]),
    # a 2000-set whose elements each lie in a 2-set: its C(2000,2) pairs are never built
    pytest.param(["verify", "simple"],
                 "SS 4000 2001\n2000 " + " ".join(map(str, range(2000))) + "\n"
                 + "".join(f"2 {x} {2000 + x}\n" for x in range(2000)),
                 [(setcover, "combinations")], id="verify-simple-pairs"),
])
def test_unbounded_inputs_exit_4_before_allocating(monkeypatch, capsys, argv, stdin_text,
                                                   patches):
    if stdin_text.endswith("blow-up"):
        k = 2 if stdin_text == "pair blow-up" else 3
        stdin_text = formats.serialize_blowup(hypergraph.blow_up(generators.complete(5, 4), k))
    monkeypatch.delenv("TURANCOVER_SIZE_GUARD", raising=False)
    for module, name in patches:
        monkeypatch.setattr(module, name,
                            SimpleNamespace(Random=_refuse) if name == "random" else _refuse)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource limit: ") and "exceed" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("gen, argv", [
    # n*m = 80,840 is past the exact LP guard, which the searches no longer solve under
    (["--n", "40", "--t", "3", "--p", "0.2"], ["oracle", "tau", "--limit", "1000"]),
    # the first descent takes one node per edge (m = 1212) or vertex (n = 1200),
    # deeper than Python's default recursion limit of 1000
    (["--n", "40", "--t", "3", "--p", "0.12"], ["oracle", "nu", "--limit", "5000"]),
    (["--n", "1200", "--t", "2", "--p", "0.0005"], ["oracle", "alpha", "--limit", "5000"]),
], ids=["tau", "nu", "alpha"])
def test_searches_end_in_their_node_budget(monkeypatch, capsys, gen, argv):
    assert cli.main(["gen", "random", *gen, "--seed", "1"]) == 0
    monkeypatch.delenv("TURANCOVER_SIZE_GUARD", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert cli.main(argv) == 4
    assert capsys.readouterr() == ("", "resource limit: search budget exceeded\n")


def _nonascii_input(tmp_path):
    path = tmp_path / "latin1.hg"
    path.write_bytes(b"HG 3 3 1\n0 1 \xe9\n")
    return ["-i", str(path), "oracle", "tau"]


@pytest.mark.parametrize("argv, code, message", [
    (lambda tmp: ["-i", str(tmp / "missing.hg"), "oracle", "tau"], 3,
     "parameter error: cannot read {tmp}/missing.hg: No such file or directory\n"),
    (_nonascii_input, 2,
     "parse error: input is not ASCII text: byte 0xe9 at offset 13\n"),
    (lambda tmp: ["-o", str(tmp / "no" / "out.txt"), "gen", "complete", "--n", "4", "--t", "3"],
     3, "parameter error: cannot write {tmp}/no/out.txt: No such file or directory\n"),
])
def test_io_failures_exit_with_one_line(tmp_path, capsys, argv, code, message):
    assert cli.main(argv(tmp_path)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message.format(tmp=tmp_path)


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert cli.main(["--strict", "gen", "random", "--n", "5", "--t", "3", "--p", "0.5"]) == 3
    assert cli.main(["gen", "random", "--n", "5", "--t", "3", "--p", "0.5"]) == 0
    assert cli._build_parser() is cli._build_parser()
    assert capsys.readouterr().out.startswith("HG 3 5 ")


def test_negative_limits_are_parameter_errors():
    for args in (["lp", "vc", "--size-guard", "-5"], ["oracle", "tau", "--limit", "-1"]):
        code, _, err = run(args, "HG 3 4 1\n0 1 2\n")
        assert code == 3, args
        assert "non-negative" in err


def test_file_input_and_output(tmp_path):
    src = tmp_path / "in.hg"
    dst = tmp_path / "out.txt"
    src.write_text("HG 3 4 1\n0 1 2\n")
    code, out, _ = run(["-i", str(src), "-o", str(dst), "oracle", "tau"])
    assert code == 0
    assert out == ""
    assert dst.read_text() == "1\n"


def test_generation_repeats_byte_identical():
    a = run(["gen", "ffree", "--n", "12", "--seed", "4"])
    b = run(["gen", "ffree", "--n", "12", "--seed", "4"])
    assert a == b and a[0] == 0


def test_rounding_repeats_byte_identical():
    doc = chain(
        ["gen", "random", "--n", "8", "--t", "3", "--p", "0.4", "--seed", "9"],
        ["blowup", "--k", "2"],
    )
    args = ["round", "ahtp", "--seed", "21", "--trials", "6", "--mode", "exact"]
    assert run(args, doc) == run(args, doc)


def test_import_loads_neither_numpy_nor_scipy():
    # the LP and the trial check import them on first use only
    code = ("import sys, turancover, turancover.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cold_blowup_loads_neither_numpy_nor_scipy():
    # blow_up takes its array path only where numpy is already loaded
    code = ("import runpy, sys; sys.argv = ['turancover', 'blowup', '--k', '2']\n"
            "try:\n"
            "    runpy.run_module('turancover', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules), file=sys.stderr)")
    base = generators.random_hypergraph(9, 4, 0.3, seed=2)
    proc = subprocess.run([sys.executable, "-c", code], input=formats.serialize_hypergraph(base),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
    assert proc.stdout == formats.serialize_blowup(hypergraph.blow_up(base, 2))


def test_cold_colorcode_round_and_verify_load_neither_numpy_nor_scipy():
    # color_code_cover draws its colors in pure Python, and verify cover
    # checks one cover without arrays
    code = ("import io, sys\n"
            "from turancover import cli\n"
            "text, out = sys.stdin.read(), sys.stdout\n"
            "for argv in (['round', 'colorcode', '--seed', '3'], ['verify', 'cover']):\n"
            "    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    text = sys.stdout.getvalue()\n"
            "    out.write(text)\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules), file=sys.stderr)")
    B = hypergraph.blow_up(generators.complete(8, 4), 3)
    proc = subprocess.run([sys.executable, "-c", code], input=formats.serialize_blowup(B),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
    assert proc.stdout == (formats.serialize_blowup(B)
                           + formats.serialize_cover(rounding.color_code_cover(B, seed=3))
                           + "OK\n")


def test_solves_leave_scipy_optimize_unloaded():
    # lp executes HiGHS's extension on its own, without scipy.optimize's package init
    code = ("import sys; from turancover.generators import complete; "
            "from turancover.lp import solve_vc_lp; H = complete(4, 3); "
            "solve_vc_lp(H, mode='float'); solve_vc_lp(H, mode='exact'); "
            "print('scipy.optimize' in sys.modules, "
            "'scipy.optimize._highspy._core' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


# ------------------------------------------------------------------ fuzzing

_FUZZ_COMMANDS = [
    ["gen", "complete", "--n", "5", "--t", "3"],
    ["gen", "random", "--n", "6", "--t", "3", "--p", "0.4", "--seed", "1"],
    ["gen", "lines", "--n", "2"],
    ["gen", "hard-setcover", "--k", "3"],
    ["gen", "ffree", "--n", "6", "--seed", "2"],
    ["gen", "simplify", "--cloud", "2", "--per-edge", "2", "--seed", "1"],
    ["blowup", "--k", "2"],
    ["lp", "vc"], ["lp", "matching", "--mode", "float"],
    ["round", "ahtp", "--trials", "3", "--seed", "1"],
    ["round", "t2", "--mode", "float", "--trials", "2"],
    ["round", "colorcode"], ["round", "threshold", "--mode", "float"],
    *[["oracle", q] for q in ("tau", "nu", "taustar", "tents", "rho", "alpha")],
    ["setcover", "greedy"],
    ["verify", "cover"], ["verify", "matching"], ["verify", "simple"],
]
_FUZZ_ARGS = ["-1", "0", "1", "2", "3", "5", "9", "0.5", "-0.5", "1.5", "x", "",
              "--seed", "--strict", "--dedup", "--mode", "exact", "float", "--trials",
              "--limit", "--size-guard", "--gamma", "-i", "/nonexistent/in.txt"]
_FUZZ_TOKENS = ["", "0", "1", "2", "4", "9", "-1", "x", "+1", "HG", "SS", "LABELS",
                "COVER", "MATCHING 1", "BREAKDOWN U= SPRIME= PARITY=", "# c", "é"]


def _fuzz_documents():
    from turancover.rounding import color_code_cover

    G = generators.complete(5, 3)
    B = hypergraph.blow_up(G, 2)
    return [
        formats.serialize_hypergraph(G),
        formats.serialize_hypergraph(generators.random_hypergraph(6, 4, 0.5, 3)),
        formats.serialize_blowup(B),
        formats.serialize_blowup(hypergraph.blow_up(generators.complete(5, 4), 2)),
        formats.serialize_blowup(B) + formats.serialize_cover(color_code_cover(B, seed=1)),
        formats.serialize_hypergraph(G) + formats.serialize_matching([0]),
        formats.serialize_setsystem(generators.greedy_hard_setsystem(3)),
        "",
    ]


@st.composite
def _fuzz_case(draw):
    argv = list(draw(st.sampled_from(_FUZZ_COMMANDS)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(_FUZZ_ARGS)))
        elif op == "replace":
            argv[i] = draw(st.sampled_from(_FUZZ_ARGS))
        else:
            del argv[i]
    lines = draw(st.sampled_from(_fuzz_documents())).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["token", "delete", "duplicate", "swap"]))
        if op == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return argv, "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_fuzz_case())
def test_fuzzed_commands_end_in_a_documented_exit_code(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code, usage = exc.code, True
    assert code in (0, 2, 3, 4, 5), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code and not usage:
        assert err.getvalue().count("\n") == 1, err.getvalue()
