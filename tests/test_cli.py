"""End-to-end runs of the command line through main(argv)."""
import io
import json

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

    def test_off_lattice_interp_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "check", "--expr", "p ->r p",
                           "--interp", "p=1/3", "--denominator", "10")
        assert code == 2
        assert "outside the 1/10 lattice" in err


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

    def test_jobs_below_one_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--expr", "p", "--jobs", "0")
        assert code == 2
        assert "jobs must be at least 1" in err


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


class TestProps:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "props", "--list")
        assert code == 0
        names = out.strip().splitlines()
        assert "operator-axioms" in names and len(names) == 28

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
