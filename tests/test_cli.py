"""End-to-end runs of the command line through main(argv)."""
import io
import json
import time
import tracemalloc

import pytest

from fuzzysm.cli import main
from fuzzysm.syntax import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_expr(self, capsys):
        code, out, _ = run(capsys, "parse", "--expr", "p&m(q)")
        assert code == 0
        assert out.strip() == "p &m q"

    def test_file(self, capsys, corpus):
        code, out, _ = run(capsys, "parse", str(corpus / "negation_rule.fz"))
        assert code == 0
        assert out.strip() == "not_s q ->r p"

    def test_formula_flag(self, capsys, corpus):
        code, out, _ = run(capsys, "parse",
                           "--formula", str(corpus / "negation_rule.fz"))
        assert code == 0
        assert out.strip() == "not_s q ->r p"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not_s p |l p"))
        code, out, _ = run(capsys, "parse", "-")
        assert code == 0
        assert out.strip() == "not_s p |l p"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "parse", "--expr", "q ->r p", "--json")
        assert code == 0
        assert json.loads(out) == {"formula": "q ->r p", "atoms": ["q", "p"]}

    def test_file_and_expr_conflict(self, capsys, corpus):
        code, _, err = run(capsys, "parse", str(corpus / "negation_rule.fz"),
                           "--expr", "p")
        assert code == 2
        assert "not both" in err

    def test_positional_and_flag_conflict(self, capsys, corpus):
        path = str(corpus / "negation_rule.fz")
        code, _, err = run(capsys, "parse", path, "--formula", path)
        assert code == 2
        assert "give the file once" in err

    def test_no_formula(self, capsys):
        code, _, err = run(capsys, "parse")
        assert code == 2
        assert err.startswith("error:")

    def test_syntax_error_reported(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "p &m")
        assert code == 2
        assert "error:" in err and "line 1" in err

    def test_deep_nesting_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "(" * 5000 + "p" + ")" * 5000)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert (f"line 1, column {MAX_NESTING + 1}: formula nests more than "
                f"{MAX_NESTING} levels") in err


class TestEvalReduct:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "p &l q",
                           "--interp", "p=0.9, q=0.8")
        assert code == 0
        assert out.strip() == "7/10"

    def test_eval_decimal(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "p &l q",
                           "--interp", "p=0.9, q=0.8", "--decimal")
        assert code == 0
        assert out.strip() == "0.7"

    def test_eval_decimal_flag_only_when_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "p", "--interp", "p=1/3")
        assert code == 0
        assert out.strip() == "1/3"

    def test_eval_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--expr", "p", "--interp", "p=0.3",
                           "--json")
        assert json.loads(out) == {"value": "3/10"}

    def test_interp_at_file(self, capsys, tmp_path):
        spec = tmp_path / "i.txt"
        spec.write_text("p=1\nq=0\n")
        code, out, _ = run(capsys, "eval", "--expr", "p &m not_s q",
                           "--interp", f"@{spec}")
        assert code == 0
        assert out.strip() == "1"

    def test_interp_json_file(self, capsys, tmp_path):
        spec = tmp_path / "i.json"
        spec.write_text('{"p": 0.3}')
        code, out, _ = run(capsys, "eval", "--expr", "p",
                           "--interp-file", str(spec), "--decimal")
        assert out.strip() == "0.3"

    def test_interp_value_with_a_unicode_space(self, capsys):
        # parse_truth strips only the spaces the formula lexer skips.
        code, _, err = run(capsys, "eval", "--expr", "p", "--interp", "p=\u00a00.5")
        assert code == 2
        assert err.startswith("error: not a rational truth degree")
        code, _, err = run(capsys, "check", "--expr", "p", "--interp", "p=\u00a00.5")
        assert code == 2

    def test_missing_interp(self, capsys):
        code, _, err = run(capsys, "eval", "--expr", "p")
        assert code == 2
        assert "interpretation is required" in err

    def test_reduct(self, capsys):
        code, out, _ = run(capsys, "reduct", "--expr", "not_s q ->r p",
                           "--interp", "p=1, q=0")
        assert code == 0
        assert out.strip() == "1 ->r p"

    def test_reduct_full(self, capsys):
        code, out, _ = run(capsys, "reduct", "--expr", "p &m q",
                           "--interp", "p=0.5, q=0.75", "--full")
        assert code == 0
        assert out.strip() == "p &m q &m 0.5"

    @pytest.mark.parametrize("expr", ["p &m q", "p ->r q"])
    def test_reduct_needs_every_atom(self, capsys, expr):
        code, out, err = run(capsys, "reduct", "--expr", expr, "--interp", "p=1")
        assert code == 2 and out == ""
        assert err == "error: atom 'q' is not interpreted\n"


class TestCheck:
    def test_stable(self, capsys, corpus):
        code, out, _ = run(capsys, "check",
                           "--formula", str(corpus / "negation_rule.fz"),
                           "--interp", "p=1,q=0", "--denominator", "10")
        assert code == 0
        assert "status: stable" in out

    def test_unstable_shows_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "p ->r p",
                           "--interp", "p=1")
        assert code == 0
        assert "status: unstable" in out
        assert "witness: p=0" in out

    def test_fail_on_unstable(self, capsys):
        code, _, _ = run(capsys, "check", "--expr", "p ->r p",
                         "--interp", "p=1", "--fail-on-unstable")
        assert code == 1

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "0.5 ->r p",
                           "--interp", "p=1", "--json")
        data = json.loads(out)
        assert data["status"] == "unstable"
        assert data["witness"] == {"p": "1/2"}
        assert data["denominator"] == 10

    def test_threshold_and_minimize(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "not_s p ->r q",
                           "--interp", "p=0, q=0.6",
                           "--threshold", "0.6", "--minimize", "p,q")
        assert code == 0
        assert "status: stable" in out

    def test_sampled_strategy(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "p ->r p",
                           "--interp", "p=0", "--strategy", "sampled:50",
                           "--seed", "3", "--json")
        data = json.loads(out)
        assert data["strategy"] == {"kind": "sampled", "samples": 50,
                                    "seed": 3}
        assert data["status"] == "stable"
        assert "sampling" in data["note"]

    def test_sampled_count_over_cap(self, capsys):
        code, out, err = run(capsys, "check", "--expr", "p", "--interp", "p=1",
                             "--strategy", "sampled:11", "--cap", "10")
        assert (code, out) == (2, "")
        assert err == ("error: 11 candidates exceed the cap of 10; "
                       "raise the cap to scan them all\n")

    def test_sampled_count_at_cap_runs(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "p", "--interp", "p=1",
                           "--strategy", "sampled:10", "--cap", "10")
        assert code == 0
        assert "no witness found in 10 samples" in out

    def test_bad_strategy(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "p", "--interp", "p=1",
                           "--strategy", "sampled:many")
        assert code == 2
        assert "bad sample count" in err

    def test_star_engine_agrees(self, capsys):
        for expr, interp in (("p ->r p", "p=1"), ("not_s q ->r p", "p=1,q=0")):
            direct = run(capsys, "check", "--expr", expr, "--interp", interp,
                         "--json")
            star = run(capsys, "check", "--expr", expr, "--interp", interp,
                       "--engine", "star", "--json")
            assert json.loads(direct[1])["status"] == json.loads(star[1])["status"]

    def test_star_engine_threshold_restriction(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "p", "--interp", "p=1",
                           "--engine", "star", "--threshold", "0.5")
        assert code == 2
        assert "threshold 1" in err

    def test_star_engine_exhaustive_only(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "p", "--interp", "p=1",
                           "--engine", "star", "--strategy", "sampled:10")
        assert code == 2
        assert "exhaustive" in err

    def test_uninterpreted_atom_is_an_input_error(self, capsys):
        # I is no model here; the missing atom is reported all the same.
        for engine in ("direct", "star"):
            code, _, err = run(capsys, "check", "--expr", "p &m q",
                               "--interp", "p=0.5", "--engine", engine)
            assert code == 2
            assert "atom 'q' is not interpreted" in err

    def test_off_lattice_interp_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "p ->r p",
                           "--interp", "p=1/3", "--denominator", "10")
        assert code == 2
        assert "outside the 1/10 lattice" in err

    def test_sampled_search_stores_nothing_per_pool_value(self, capsys):
        # Three draws at D = 10^6: the integer domain's lattice points are
        # range(D + 1), so neither the program nor a pool holds a value per
        # point (a tuple of them would take about 40 MiB), and no value is
        # wrapped before it is drawn.
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "check", "--expr", "p |m q",
                               "--interp", "p=1, q=1/2", "--strategy", "sampled:3",
                               "--cap", "100", "--denominator", str(10 ** 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and "status: stable" in out
        assert peak < 2 ** 20


class TestEnumerate:
    def test_models_listed(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--expr", "p ->r p",
                           "--denominator", "4")
        assert code == 0
        assert out.strip() == "p=0"

    def test_count(self, capsys, corpus):
        code, out, _ = run(capsys, "enumerate",
                           "--formula", str(corpus / "negation_loop.fz"),
                           "--denominator", "10", "--count")
        assert code == 0
        assert out.strip() == "11"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--expr", "not_s q ->r p",
                           "--denominator", "2", "--json")
        data = json.loads(out)
        assert data["count"] == 1
        assert data["models"] == [{"q": "0", "p": "1"}]

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--expr", "p", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


class TestTranslate:
    def test_nneg_comments_then_formula(self, capsys):
        code, out, _ = run(capsys, "translate", "nneg", "--expr", "~p")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "# complement of p: np"
        assert lines[1] == "np &m not_s (p &l np)"

    def test_nneg_json(self, capsys):
        _, out, _ = run(capsys, "translate", "nneg", "--expr", "~p", "--json")
        data = json.loads(out)
        assert data["complements"] == {"p": "np"}
        assert data["signature"] == ["p", "np"]

    def test_choice(self, capsys):
        code, out, _ = run(capsys, "translate", "choice", "--atoms", "p,q")
        assert code == 0
        assert out.strip() == "(p |l not_s p) &m (q |l not_s q)"

    def test_choice_needs_atoms(self, capsys):
        code, _, err = run(capsys, "translate", "choice")
        assert code == 2
        assert "--atoms" in err

    def test_embed(self, capsys):
        code, out, _ = run(capsys, "translate", "embed",
                           "--expr", "p &m not_s q",
                           "--conj", "&l", "--neg", "not_s")
        assert code == 0
        assert out.strip() == "p &l not_s q"

    def test_star_lists_shadows(self, capsys):
        code, out, _ = run(capsys, "translate", "star",
                           "--expr", "not_s q ->r p", "--minimize", "p")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "# shadow of p: p_shadow"
        assert lines[1] == "(not_s q ->r p_shadow) &m (not_s q ->r p)"

    def test_star_shadows_a_repeated_atom_once(self, capsys):
        code, out, _ = run(capsys, "translate", "star",
                           "--expr", "p", "--minimize", "p,p")
        assert code == 0
        assert out.strip().splitlines() == ["# shadow of p: p_shadow", "p_shadow"]

    def test_star_rejects_atoms_outside_the_signature(self, capsys):
        code, out, err = run(capsys, "translate", "star",
                             "--expr", "p", "--minimize", "zz")
        assert code == 2 and out == ""
        assert err == "error: minimized atoms outside the signature: ['zz']\n"

    def test_guard(self, capsys):
        code, out, _ = run(capsys, "translate", "guard",
                           "--expr", "not_s p ->r q", "--threshold", "0.6")
        assert code == 0
        assert out.strip() == "0.6 ->r not_s p ->r q"

    def test_fasp(self, capsys, tmp_path):
        prog = tmp_path / "p.lp"
        prog.write_text("p <- not q.\nq <- not p.\n")
        code, out, _ = run(capsys, "translate", "fasp",
                           str(prog), "--conj", "&m")
        assert code == 0
        assert out.strip() == "(not_s q ->r p) &m (not_s p ->r q)"

    def test_fasp_source_after_an_option(self, capsys, tmp_path):
        prog = tmp_path / "p.lp"
        prog.write_text("p <- not q.\nq <- not p.\n")
        after = run(capsys, "translate", "fasp", str(prog), "--conj", "&m")
        before = run(capsys, "translate", "fasp", "--conj", "&m", str(prog))
        assert before == after and after[0] == 0

    @pytest.mark.parametrize("order", [0, 1])
    def test_fasp_extra_argument_exits_two(self, capsys, tmp_path, order):
        prog = tmp_path / "p.lp"
        prog.write_text("p.\n")
        options = [["--conj", "&m"], [str(prog)]]
        with pytest.raises(SystemExit) as exc:
            main(["translate", "fasp", *options[order], *options[1 - order], "extra"])
        assert exc.value.code == 2
        assert "unrecognized arguments: extra" in capsys.readouterr().err

    def test_fasp_needs_conj(self, capsys):
        code, _, err = run(capsys, "translate", "fasp", "--expr", "p <- q.")
        assert code == 2
        assert "--conj" in err


class TestEquilibrium:
    def test_check_valuation(self, capsys, corpus):
        code, out, _ = run(capsys, "equilibrium",
                           "--formula", str(corpus / "complementary_pair.fz"),
                           "--valuation", "h:p=[0.2,0.7]; t:p=[0.2,0.7]")
        assert code == 0
        assert "status: equilibrium" in out

    def test_check_from_interp(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--expr", "not_s q ->r p",
                           "--interp", "p=1, q=0", "--denominator", "2")
        # [i(a), 1] in both worlds: q's interval [0,1] widens no further
        assert code == 0
        assert "status: equilibrium" in out

    def test_fail_flag(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--expr", "p ->r p",
                           "--valuation", "h:p=[1,1]; t:p=[1,1]",
                           "--fail-on-unstable")
        assert code == 1
        assert "status: not_h_minimal" in out
        assert "counter:" in out

    def test_enumerate_count(self, capsys, corpus):
        code, out, _ = run(capsys, "equilibrium",
                           "--formula", str(corpus / "complementary_pair.fz"),
                           "--enumerate", "--count")
        assert code == 0
        assert out.strip() == "1"

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--expr", "not_s q ->r p",
                           "--enumerate", "--denominator", "2", "--json")
        data = json.loads(out)
        assert data["count"] == 1
        assert data["models"][0]["h"]["p"] == ["1", "1"]

    def test_enumerate_signature_duplicates(self, capsys):
        code, out, _ = run(capsys, "equilibrium", "--expr", "p ->r p", "--enumerate",
                           "--signature", "p,p", "--denominator", "2")
        assert code == 0
        assert out.splitlines() == ["h:p=[0,1]; t:p=[0,1]"]

    def test_needs_some_input(self, capsys):
        code, _, err = run(capsys, "equilibrium", "--expr", "p")
        assert code == 2
        assert "--valuation" in err

    @pytest.mark.parametrize("argv, message", [
        (["--enumerate", "--signature", "q"], "atom 'p' is not in --signature"),
        (["--valuation", "h:q=[0,1]; t:q=[0,1]"], "atom 'p' is not interpreted"),
        (["--interp", "q=1"], "atom 'p' is not interpreted"),
    ])
    def test_missing_atom_is_an_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, "equilibrium", "--expr", "q &m p", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestProps:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "props", "--list")
        assert code == 0
        names = out.strip().splitlines()
        assert "operator-axioms" in names and len(names) == 30

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "props", "--suite", "operator-axioms",
                           "--trials", "5", "--denominator", "2")
        assert code == 0
        assert "PASS operator-axioms" in out
        assert "1 suites, 1 passed" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "props", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "props", "--suite", "residual-flags",
                           "--trials", "4", "--json")
        data = json.loads(out)
        assert code == 0
        assert data[0]["suite"] == "residual-flags" and data[0]["passed"]

    def test_trials_below_one_is_an_input_error(self, capsys):
        for trials in ("0", "-3"):
            code, out, err = run(capsys, "props", "--suite",
                                 "reduct-value-equality", "--trials", trials,
                                 "--json")
            assert code == 2
            assert out == ""
            assert "trials must be at least 1" in err


_HOSTILE_TEXTS = [
    "p &m \u00b2",  # a digit that is not a decimal digit
    "p &m \u0663",  # a decimal digit outside ASCII
    "p &m \u00e9",
    "p &m \x01",
    "p\x7f",
    "p &",
    "p |",
    "p ->",
    "(" * 5000 + "p" + ")" * 5000,
]
_ON_TEXT = {
    "parse": lambda text: ["parse", "--expr", text],
    "eval": lambda text: ["eval", "--expr", text, "--interp", "p=1"],
    "check": lambda text: ["check", "--expr", text, "--interp", "p=1"],
    "equilibrium": lambda text: ["equilibrium", "--expr", text, "--interp", "p=1"],
    "translate fasp": lambda text: ["translate", "fasp", "--conj", "&m", "--expr", text],
}
_MISSING_ATOM = [
    ["eval", "--expr", "p &m q", "--interp", "p=1"],
    ["check", "--expr", "p &m q", "--interp", "p=1"],
    ["equilibrium", "--expr", "p &m q", "--interp", "p=1"],
    ["equilibrium", "--expr", "p &m q", "--valuation", "h:p=[0,1]; t:p=[0,1]"],
    ["equilibrium", "--expr", "p", "--enumerate", "--signature", "q"],
]
_UNICODE_DIGITS = [
    ["parse", "--expr", "\u0660"],
    ["eval", "--expr", "p", "--interp", "p=\u0660.\u0665"],
    ["check", "--expr", "p", "--interp", "p=\u0661"],
    ["equilibrium", "--expr", "p", "--valuation", "h:p=[\u0661,1]; t:p=[\u0661,1]"],
]


# Number forms outside docs/grammar.md.  An exponent would take Fraction
# minutes to expand, so each of these also has a time limit.
_NUMBER_FORMS = [
    ["check", "--expr", "p", "--interp", "p=1e-99999999"],
    ["check", "--expr", "p", "--interp", '{"p": 1e-99999999}'],
    ["check", "--expr", "p", "--interp", '{"p": "1e-99999999"}'],
    ["eval", "--expr", "p", "--interp", "p=+0.5"],
    ["eval", "--expr", "p", "--interp", "p=1_0/2_0"],
    ["eval", "--expr", "p", "--interp", '{"p": 5E-1}'],
    ["check", "--expr", "p", "--interp", "p=1", "--threshold", "1e0"],
    ["equilibrium", "--expr", "p", "--valuation", "h:p=[1e-1,1]; t:p=[1e-1,1]"],
    ["equilibrium", "--expr", "p", "--valuation",
     '{"h": {"p": [1e-99999999, 1]}, "t": {"p": [1e-99999999, 1]}}'],
]


# valuation JSON of the wrong shape
_VALUATION_SHAPES = [
    ["equilibrium", "--expr", "p", "--valuation", text] for text in (
        '{"h": [1], "t": {}}',
        '{"h": 5}',
        '{"h": {"p": 1}, "t": {"p": [1, 1]}}',
        '{"h": {"p": null}, "t": {"p": [1, 1]}}',
        '{"h": {"p": [0, 1, 1]}, "t": {"p": [1, 1]}}',
    )
]


# json.loads alone keeps the last value of a repeated key
_REPEATED_JSON_KEYS = [
    ["eval", "--expr", "p", "--interp", '{"p":"1","p":"0"}'],
    ["equilibrium", "--expr", "p", "--valuation",
     '{"h":{"p":["1","1"]},"t":{"p":["1","1"]},"h":{"p":["0","1"]}}'],
]


class TestHostileInput:
    """Malformed text and incomplete valuations end in exit 2 and one
    'error:' line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        *(make(text) for make in _ON_TEXT.values() for text in _HOSTILE_TEXTS),
        *_MISSING_ATOM,
        *_UNICODE_DIGITS,
        *_REPEATED_JSON_KEYS,
        *_VALUATION_SHAPES,
        *_NUMBER_FORMS,
    ])
    def test_exit_two_with_one_error_line(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", _NUMBER_FORMS[:3] + _NUMBER_FORMS[-1:])
    def test_exponent_refused_within_a_second(self, capsys, argv):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and err.count("\n") == 1

    def test_long_valuation_interval_names_its_atom(self, capsys):
        code, _, err = run(capsys, *_VALUATION_SHAPES[-1])
        assert code == 2
        assert "'p'" in err


_DEEP = " &m ".join(["p"] * 3001)  # 3000 nested t-norms


class TestDeepInput:
    """A formula nested 3000 deep either gets its answer or exits 2 with
    one line that says so, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--expr", _DEEP, "--interp", "p=1"],
        ["check", "--expr", _DEEP, "--interp", "p=1"],
        ["check", "--expr", _DEEP, "--interp", "p=1", "--engine", "star"],
        ["equilibrium", "--expr", _DEEP, "--interp", "p=1"],
    ], ids=["eval", "check", "check-star", "equilibrium"])
    def test_answers_or_says_it_nests_too_deeply(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        if code == 0:
            assert out and err == ""
        else:
            assert (code, out) == (2, "")
            assert err == "error: the input nests too deeply to process\n"

    def test_enumerate_answers(self, capsys):
        code, out, err = run(capsys, "enumerate", "--expr", _DEEP,
                             "--denominator", "2")
        assert (code, out, err) == (0, "p=1\n", "")


_FORMULA = "not_s q ->r p"
_PROGRAM = "p <- not q.\nq <- not p.\n"
_VALUATION_TEXT = "h:p=[0.2,0.7]; t:p=[0.2,0.7]"
_SOURCE_FILES = {
    "f.fz": _FORMULA,
    "prog.lp": _PROGRAM,
    "i.txt": "p=1, q=0",
    "v.txt": _VALUATION_TEXT,
}
_CHECK_AT = ["check", "--expr", _FORMULA, "--denominator", "4"]
_EQUILIBRIUM_AT = ["equilibrium", "--expr", "(0.2 ->r p) &m (0.3 ->r ~p)"]


def _fasp(*source):
    # the source right after the mode; it may also follow the options
    return ["translate", "fasp", *source, "--conj", "&m"]


# Each input kind, read from each of its sources.  stdin holds the text
# of the source that names '-'.
_SAME_INPUT = {
    "formula": (_FORMULA, [
        ["parse", "f.fz"],
        ["parse", "--formula", "f.fz"],
        ["parse", "-"],
        ["parse", "--expr", _FORMULA],
    ]),
    "program": (_PROGRAM, [
        _fasp("prog.lp"),
        _fasp("--formula", "prog.lp"),
        _fasp("-"),
        _fasp("--expr", _PROGRAM),
    ]),
    "interpretation": ("", [
        [*_CHECK_AT, "--interp", "p=1, q=0"],
        [*_CHECK_AT, "--interp", '{"p": 1, "q": 0.0}'],
        [*_CHECK_AT, "--interp", "@i.txt"],
        [*_CHECK_AT, "--interp-file", "i.txt"],
    ]),
    "valuation": ("", [
        [*_EQUILIBRIUM_AT, "--valuation", _VALUATION_TEXT],
        [*_EQUILIBRIUM_AT, "--valuation",
         '{"h": {"p": [0.2, 0.7]}, "t": {"p": [0.20, "7/10"]}}'],
        [*_EQUILIBRIUM_AT, "--valuation", "@v.txt"],
        [*_EQUILIBRIUM_AT, "--valuation-file", "v.txt"],
    ]),
}

# Two sources for one input.
_TWO_SOURCES = {
    "formula file twice": ["parse", "f.fz", "--formula", "f.fz"],
    "formula file and --expr": ["parse", "f.fz", "--expr", "p"],
    "--formula and --expr": ["parse", "--formula", "f.fz", "--expr", "p"],
    "stdin and --expr": ["parse", "-", "--expr", "p"],
    "program file and --expr": _fasp("prog.lp", "--expr", "q."),
    "interpretation text and file": [*_CHECK_AT, "--interp", "p=1, q=0",
                                     "--interp-file", "i.txt"],
    "interpretation @FILE and file": [*_CHECK_AT, "--interp", "@i.txt",
                                      "--interp-file", "i.txt"],
    "valuation text and file": [*_EQUILIBRIUM_AT, "--valuation", _VALUATION_TEXT,
                                "--valuation-file", "v.txt"],
    "valuation @FILE and file": [*_EQUILIBRIUM_AT, "--valuation", "@v.txt",
                                 "--valuation-file", "v.txt"],
    "valuation and interpretation": [*_EQUILIBRIUM_AT, "--valuation", _VALUATION_TEXT,
                                     "--interp", "p=0.2"],
    "valuation file and interpretation file": [
        *_EQUILIBRIUM_AT, "--valuation-file", "v.txt", "--interp-file", "i.txt"],
    # --enumerate reads no valuation, and translate choice no formula
    "--enumerate and valuation": [*_EQUILIBRIUM_AT, "--enumerate",
                                  "--valuation", _VALUATION_TEXT],
    "--enumerate and valuation file": [*_EQUILIBRIUM_AT, "--enumerate",
                                       "--valuation-file", "v.txt"],
    "--enumerate and interpretation": [*_EQUILIBRIUM_AT, "--enumerate",
                                       "--interp", "p=0.2"],
    "--enumerate and interpretation file": [*_EQUILIBRIUM_AT, "--enumerate",
                                            "--interp-file", "i.txt"],
    "choice and --expr": ["translate", "choice", "--atoms", "p", "--expr", "p"],
    "choice and --formula": ["translate", "choice", "--atoms", "p", "--formula", "f.fz"],
    "choice and a file": ["translate", "choice", "f.fz", "--atoms", "p"],
    "choice and stdin": ["translate", "choice", "-", "--atoms", "p"],
}


class TestInputSources:
    """Every source of one input kind reads the same, and an input given
    twice is a usage error, never a silent choice."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        for name, text in _SOURCE_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("kind", sorted(_SAME_INPUT))
    def test_same_stdout_from_every_source(self, capsys, monkeypatch, kind):
        stdin, sources = _SAME_INPUT[kind]
        results = []
        for argv in sources:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            results.append(run(capsys, *argv))
        assert results[0][0] == 0 and results[0][1]
        assert results == [results[0]] * len(sources)

    @pytest.mark.parametrize("name", sorted(_TWO_SOURCES))
    def test_two_sources_exit_two(self, capsys, monkeypatch, name):
        monkeypatch.setattr("sys.stdin", io.StringIO(_FORMULA))
        code, out, err = run(capsys, *_TWO_SOURCES[name])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not both" in err or "once" in err

    @pytest.mark.parametrize("argv, option", [
        (["check", "--expr", "p", "--interp", "p=1", "--minimize", ""], "--minimize"),
        (["enumerate", "--expr", "p", "--minimize", ","], "--minimize"),
        (["equilibrium", "--expr", "p", "--enumerate", "--signature", ""], "--signature"),
        (["equilibrium", "--expr", "p", "--enumerate", "--signature", " , "],
         "--signature"),
        (["translate", "choice", "--atoms", ","], "--atoms"),
    ])
    def test_empty_atom_list_names_its_option(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} got no atom names" + (
            " (use 'none' for the empty set)\n" if option == "--minimize" else "\n")

    def test_minimize_none_is_the_empty_set(self, capsys):
        code, out, _ = run(capsys, "check", "--expr", "p ->r p", "--interp", "p=1",
                           "--minimize", "none")
        assert (code, out.splitlines()[0]) == (0, "status: stable")


_CHECK = ["check", "--expr", "p", "--interp", "p=1"]
_NOT_ASCII_INTEGERS = [
    [*_CHECK, "--denominator", "\u0664", "--strategy", "sampled:\u0663"],
    [*_CHECK, "--strategy", "sampled:\u0663"],
    [*_CHECK, "--strategy", "sampled:1_000"],
    [*_CHECK, "--strategy", "sampled: 3"],
    [*_CHECK, "--denominator", "1_0"],
    [*_CHECK, "--denominator", " 10"],
    [*_CHECK, "--denominator", "\uff14"],
    [*_CHECK, "--seed", "\u0663", "--strategy", "sampled:3"],
    [*_CHECK, "--seed", "1_0", "--strategy", "sampled:3"],
    [*_CHECK, "--cap", "1_000"],
    ["enumerate", "--expr", "p", "--cap", "\u0662"],
    ["enumerate", "--expr", "p", "--cap", "100 "],
    ["enumerate", "--expr", "p", "--denominator", "+4"],
    ["equilibrium", "--expr", "p", "--enumerate", "--denominator", "\u0664"],
    ["equilibrium", "--expr", "p", "--enumerate", "--cap", "1_000"],
    ["props", "--suite", "residual-flags", "--trials", "\u0663"],
    ["props", "--suite", "residual-flags", "--seed", "0_1"],
    ["props", "--suite", "residual-flags", "--denominator", "\u0664"],
]


class TestIntegerOptions:
    """Integer options and the N of sampled:N take ASCII digits only;
    anything else is a usage error (exit 2), never a traceback."""

    @pytest.mark.parametrize("argv", _NOT_ASCII_INTEGERS)
    def test_exit_two(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_ascii_integers_still_read(self, capsys):
        code, out, _ = run(capsys, *_CHECK, "--denominator", "010",
                           "--strategy", "sampled:03", "--seed", "-1",
                           "--json")
        data = json.loads(out)
        assert code == 0
        assert data["denominator"] == 10
        assert data["strategy"] == {"kind": "sampled", "samples": 3,
                                    "seed": -1}


class TestTopLevel:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "parse", "/no/such/file.fz")
        assert code == 2
        assert "error:" in err
