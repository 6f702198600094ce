import argparse
import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import votelace
from votelace import cli, domains, enumeration, verify
from votelace.cli import build_parser, main
from votelace.enumeration import MAX_COUNT_BITS, enriched_count


#: a 40-entry permutation, past the kernels' 32-entry input cap
LONG = " ".join(map(str, range(1, 41)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_violation_exits_one_with_witness(self, tmp_path, capsys):
        f = tmp_path / "e.txt"
        f.write_text("1 2 3 4\n2 4 1 3\n")
        code, out, _ = run(capsys, "check", str(f), "--domain", "group-separable")
        assert code == 1
        assert "holds: false" in out
        assert "violating voters: 1 2" in out
        assert "violating candidates: 1 2 3 4" in out

    def test_holds_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "e.txt"
        f.write_text("1 2\n2 1\n")
        code, out, _ = run(capsys, "check", str(f), "--domain", "enriched")
        assert code == 0
        assert "holds: true" in out

    def test_malformed_exits_two(self, tmp_path, capsys):
        f = tmp_path / "e.txt"
        f.write_text("1 1 2\n")
        code, _, err = run(capsys, "check", str(f), "--domain", "enriched")
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.txt"), "--domain", "medium")
        assert code == 2


class TestCount:
    def test_brute_vs_recurrence_vs_formula(self, capsys):
        counts = {}
        for method in ("brute", "recurrence", "formula"):
            code, out, _ = run(
                capsys, "count", "--m", "4", "--n", "2", "--domain", "enriched", "--method", method
            )
            assert code == 0
            payload = json.loads(out)
            counts[method] = payload["count"]
            assert payload["m"] == 4 and payload["n"] == 2
        assert counts["brute"] == counts["recurrence"] == counts["formula"] == "480"

    def test_methods_report_truthfully(self, capsys):
        _, out, _ = run(capsys, "count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "brute")
        assert json.loads(out)["method"] == "brute-force"
        _, out, _ = run(capsys, "count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "recurrence")
        assert json.loads(out)["method"] == "recurrence"

    def test_single_peaked_brute(self, capsys):
        code, out, _ = run(
            capsys, "count", "--m", "4", "--n", "2", "--domain", "single-peaked", "--method", "brute"
        )
        assert code == 0
        assert json.loads(out)["count"] == "480"

    def test_recurrence_requires_enriched(self, capsys):
        code, _, err = run(
            capsys, "count", "--m", "3", "--n", "2", "--domain", "single-peaked", "--method", "recurrence"
        )
        assert code == 2

    @pytest.mark.parametrize("method", ["recurrence", "formula"])
    @pytest.mark.parametrize("m", ["3", "5", "7"])
    def test_recurrence_and_formula_refuse_no_voters(self, capsys, m, method):
        code, out, err = run(capsys, "count", "--m", m, "--n", "0", "--domain", "enriched", "--method", method)
        assert code == 2
        assert out == ""
        assert "voter" in err

    @pytest.mark.parametrize("method", ["brute", "recurrence", "formula"])
    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_every_method_refuses_no_candidates(self, capsys, method, m):
        code, out, err = run(capsys, "count", "--m", m, "--n", "2", "--domain", "enriched", "--method", method)
        assert (code, out) == (2, "")
        assert "candidate" in err

    def test_formula_covers_every_cell(self, capsys):
        # m! times the closed form of the reduced count, at every cell
        for m in range(1, 9):
            for n in range(1, 7):
                argv = ["count", "--m", str(m), "--n", str(n), "--domain", "enriched"]
                formula = run(capsys, *argv, "--method", "formula")
                recurrence = run(capsys, *argv, "--method", "recurrence")
                assert formula[0] == recurrence[0] == 0
                assert json.loads(formula[1])["count"] == json.loads(recurrence[1])["count"]
        code, out, _ = run(capsys, "count", "--m", "6", "--n", "3", "--domain", "enriched", "--method", "formula")
        assert (code, json.loads(out)["count"]) == (0, "8340480")

    def test_guard_exits_two(self, capsys):
        code, _, err = run(
            capsys, "count", "--m", "4", "--n", "2", "--domain", "enriched", "--method", "brute",
            "--guard", "10",
        )
        assert code == 2
        assert "guard" in err

    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("VOTELACE_GUARD", "10")
        code, _, _ = run(
            capsys, "count", "--m", "4", "--n", "2", "--domain", "enriched", "--method", "brute"
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "jobs must be at least 1"),
        ("--jobs", "-2", "jobs must be at least 1"),
        ("--guard", "0", "guard must be positive"),
        ("--guard", "-1", "guard must be positive"),
    ])
    def test_nonpositive_jobs_or_guard_exits_two(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "brute", flag, value
        )
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "recurrence", "--jobs", "0"],
         "jobs must be at least 1"),
        (["count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "formula", "--jobs", "-1"],
         "jobs must be at least 1"),
        (["verify", "--suite", "closed-forms", "--jobs", "0"], "jobs must be at least 1"),
        (["count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "recurrence", "--guard", "0"],
         "guard must be positive"),
        (["count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "formula", "--guard", "-1"],
         "guard must be positive"),
    ], ids=["count-recurrence", "count-formula", "verify", "count-recurrence-guard", "count-formula-guard"])
    def test_nonpositive_jobs_exits_two_whatever_the_jobs_drive(self, capsys, argv, message):
        # recurrences, formulas and suites start no workers and run no
        # brute-force count, and refuse the flags all the same
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_nonpositive_guard_reads_like_the_environment_guard(self, capsys, monkeypatch):
        _, _, flag_err = run(
            capsys, "count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "brute", "--guard", "0"
        )
        monkeypatch.setenv("VOTELACE_GUARD", "0")
        _, _, env_err = run(capsys, "count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "brute")
        assert "must be positive" in flag_err and "must be positive" in env_err

    def test_environment_guard_is_read_as_the_flag_is(self, capsys, monkeypatch):
        argv = ["count", "--m", "3", "--n", "2", "--domain", "enriched"]
        monkeypatch.setenv("VOTELACE_GUARD", "ten")
        code, out, err = run(capsys, *argv, "--method", "brute")
        assert (code, out) == (2, "")
        assert "VOTELACE_GUARD" in err
        # the variable is the default of --guard, so every method checks it, and the flag wins
        monkeypatch.setenv("VOTELACE_GUARD", "0")
        code, out, err = run(capsys, *argv, "--method", "recurrence")
        assert (code, out) == (2, "")
        assert "must be positive" in err
        code, out, _ = run(capsys, *argv, "--method", "brute", "--guard", "36")
        assert code == 0 and json.loads(out)["count"] == "36"

    @pytest.mark.parametrize("suite", ["bound3", "recurrence", "gamma-link"])
    def test_verify_ignores_the_environment_guard(self, capsys, monkeypatch, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        monkeypatch.setenv("VOTELACE_GUARD", "10")
        assert run(capsys, "verify", "--suite", suite) == (code, out, "")
        assert code == 0

    @pytest.mark.parametrize("method", ["recurrence", "formula"])
    def test_counts_past_the_int_to_str_digit_limit_print_exactly(self, capsys, method):
        # enriched (1700, 2) has more than 4,300 digits, where str() of an int stops
        code, out, err = run(capsys, "count", "--m", "1700", "--n", "2", "--domain", "enriched", "--method", method)
        assert (code, err) == (0, "")
        text = json.loads(out)["count"]
        assert len(text) > 4300 and int(Decimal(text)) == enriched_count(1700, 2)

    @pytest.mark.parametrize("m, n", [(20000, 6), (100000, 6), (2, 3000000), (9, 2)])
    def test_brute_force_past_the_cap_is_refused_by_the_cap(self, capsys, m, n):
        # the cap is checked before (m!)^n is computed, let alone printed
        code, out, err = run(capsys, "count", "--m", str(m), "--n", str(n), "--domain", "medium", "--method", "brute")
        assert (code, out) == (2, "")
        assert "capped at m <= 8, n <= 6" in err

    def test_jobs_start_no_pool_and_leave_stdout_unchanged(self, capsys, monkeypatch):
        # every command runs in process: with process pools refused, --jobs 4
        # prints byte for byte what --jobs 1 prints, for every domain at one,
        # two and three voters, and for verify and bound
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        commands = [
            ("count", "--m", "4", "--n", n, "--domain", domain, "--method", "brute")
            for domain in sorted(domains.DOMAINS)
            for n in ("1", "2", "3")
        ]
        commands += [("verify", "--suite", "bound3"), ("bound", "--m", "4", "--n", "3", "--pi", "single-crossing")]
        for argv in commands:
            solo = run(capsys, *argv, "--jobs", "1")
            assert solo[0] == 0 and solo[1], argv
            assert run(capsys, *argv, "--jobs", "4") == solo, argv


class TestContains:
    def test_pattern(self, capsys):
        code, out, _ = run(capsys, "contains", "--kind", "pattern", "3 1 2", "5 2 6 1 4 3", "--witness")
        assert code == 0
        assert out.splitlines()[0] == "true"
        assert out.splitlines()[1].startswith("witness indices:")

    def test_pattern_absent(self, capsys):
        code, out, _ = run(capsys, "contains", "--kind", "pattern", "1 2 3", "5 2 6 1 4 3")
        assert code == 1
        assert out.strip() == "false"

    def test_pair(self, capsys):
        code, out, _ = run(
            capsys, "contains", "--kind", "pair",
            "2 1 3 | 1 3 2", "6 1 4 2 3 5 | 1 2 6 5 3 4", "--witness",
        )
        assert code == 0
        assert "witness values: 2 4 5" in out

    def test_pair_avoided(self, capsys):
        code, out, _ = run(
            capsys, "contains", "--kind", "pair", "2 1 3 | 1 3 2", "6 1 4 2 3 5 | 1 5 2 4 3 6"
        )
        assert code == 1
        assert out.strip() == "false"

    def test_config(self, tmp_path, capsys):
        e = tmp_path / "e.txt"
        cfg = tmp_path / "cfg.txt"
        e.write_text("1 2 3 4\n2 4 1 3\n")
        cfg.write_text("1 2 3 4\n2 4 1 3\n")
        code, out, _ = run(capsys, "contains", "--kind", "config", str(e), str(cfg), "--witness")
        assert code == 0
        assert "witness voter map:" in out and "witness candidate map:" in out

    def test_three_voter(self, capsys):
        # two voters rank some candidate pair one way, the third disagrees
        code, out, _ = run(
            capsys, "contains", "--kind", "three-voter", "2 4 1 3", "1 2 4 3", "2 1", "1 2", "--witness"
        )
        assert code == 0
        assert out.splitlines()[0] == "true"
        assert "witness pattern:" in out and "witness values:" in out

    def test_three_voter_unanimous_disagreement_absent(self, capsys):
        code, out, _ = run(
            capsys, "contains", "--kind", "three-voter", "1 2 3 4", "1 2 3 4", "2 1", "2 1"
        )
        assert code == 1
        assert out.strip() == "false"

    def test_oversized_three_voter_configuration_is_absent_by_both_routes(self, tmp_path, capsys):
        # host (id, 12, 21) cannot hold the 3-candidate configuration (id, 123, 132)
        code, out, _ = run(capsys, "contains", "--kind", "three-voter", "1 2", "2 1", "1 2 3", "1 3 2")
        assert (code, out.strip()) == (1, "false")
        e = tmp_path / "e.txt"
        cfg = tmp_path / "cfg.txt"
        e.write_text("1 2\n1 2\n2 1\n")
        cfg.write_text("1 2 3\n1 2 3\n1 3 2\n")
        code, out, _ = run(capsys, "contains", "--kind", "config", str(e), str(cfg))
        assert (code, out.strip()) == (1, "false")

    @pytest.mark.parametrize(
        "kind, operands",
        [
            ("pattern", ["1 2", LONG]),
            ("pair", ["1 2 | 2 1", f"{LONG} | {LONG}"]),
            ("three-voter", [LONG, LONG, "1 2", "2 1"]),
        ],
    )
    def test_kernel_input_past_the_cap_exits_two(self, capsys, kind, operands):
        code, out, err = run(capsys, "contains", "--kind", kind, *operands)
        assert (code, out) == (2, "")
        assert "kernel input longer than 32" in err

    def test_wrong_arity_exits_two(self, capsys):
        code, _, err = run(capsys, "contains", "--kind", "pattern", "1 2")
        assert code == 2

    def test_malformed_operand_exits_two(self, capsys):
        code, _, err = run(capsys, "contains", "--kind", "pattern", "1 x", "1 2")
        assert code == 2


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "closed-forms")
        assert code == 0
        assert "suite closed-forms:" in out and "ok" in out

    def test_recurrence_suite_prints_per_cell_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "recurrence")
        assert code == 0
        assert "(5,2): brute-force=8160 recurrence=8160" in out

    def test_thm32_prints_one_summary_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm32")
        assert (code, out) == (0, "suite thm32: 29099 checks, ok\n")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nope"])
        assert err.value.code == 2
        choices = ", ".join(map(repr, sorted(verify.SUITES)))
        assert capsys.readouterr().err.endswith(
            f"error: argument --suite: invalid choice: 'nope' (choose from {choices})\n"
        )

    def test_choices_and_default_seed_are_the_suites(self):
        # the parser spells them out so that start-up skips importing verify
        args = build_parser().parse_args(["verify", "--suite", "thm32"])
        assert list(cli.SUITE_NAMES) == sorted(verify.SUITES)
        assert args.seed == cli.DEFAULT_SEED == verify.DEFAULT_SEED


class TestBound:
    def test_single_crossing_set(self, capsys):
        code, out, _ = run(capsys, "bound", "--m", "3", "--n", "3", "--pi", "single-crossing")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == "216"
        assert payload["method"] == "formula"

    def test_exponent_zero_skips_enumeration(self, capsys):
        # m = 9 would blow the pair cap, but n = 2 never enumerates pairs
        code, out, _ = run(capsys, "bound", "--m", "9", "--n", "2", "--pi", "single-crossing")
        assert code == 0
        assert json.loads(out)["count"] == str(362880)

    def test_bound_past_the_int_to_str_digit_limit_prints_exactly(self, capsys):
        # at n = 2 the bound is m!, and 2000! has 5,736 digits
        code, out, err = run(capsys, "bound", "--m", "2000", "--n", "2", "--pi", "single-crossing")
        assert (code, err) == (0, "")
        assert int(Decimal(json.loads(out)["count"])) == math.factorial(2000)

    def test_pattern_file(self, tmp_path, capsys):
        f = tmp_path / "pi.txt"
        f.write_text("1 2 | 2 1\n")
        code, out, _ = run(capsys, "bound", "--m", "3", "--n", "3", "--pi", str(f))
        assert code == 0
        assert json.loads(out)["count"] == str(6 * 17)

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_exits_two(self, capsys, n, jobs):
        # n = 2 enumerates no pairs, and is refused all the same
        code, out, err = run(capsys, "bound", "--m", "3", "--n", n, "--pi", "single-crossing", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "jobs must be at least 1" in err

    @pytest.mark.parametrize("m", ["0", "-1"])
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_no_candidates_exits_two(self, capsys, m, n):
        code, out, err = run(capsys, "bound", "--m", m, "--n", n, "--pi", "single-crossing")
        assert (code, out) == (2, "")
        assert "candidate" in err

    def test_within_the_width_cap_prints(self, capsys):
        code, out, _ = run(capsys, "bound", "--m", "6", "--n", "3", "--pi", "single-crossing")
        assert (code, json.loads(out)["count"]) == (0, "336875040")

    def test_pair_cap(self, capsys):
        code, _, err = run(
            capsys, "bound", "--m", "7", "--n", "3", "--pi", "single-crossing", "--pair-cap", "6"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "bound --m 5 --n 3000 --pi single-crossing",
        "bound --m 1000000 --n 2 --pi single-crossing",
        "count --m 400000 --n 2 --domain enriched --method recurrence",
        "count --m 400000 --n 2 --domain enriched --method formula",
        "count --m 3 --n 100000000 --domain enriched --method formula",
    ],
)
def test_counts_past_the_width_cap_are_refused_before_they_are_computed(capsys, argv):
    # each would take from seconds to minutes to compute and print
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert f"wider than MAX_COUNT_BITS = {MAX_COUNT_BITS} bits" in err


def test_counts_at_their_own_width_pass_the_width_cap(capsys, monkeypatch):
    # a count is refused from a lower bound of its width, which never
    # exceeds the exact width: with the cap at a count's width, it prints
    cells = [(m, n, "recurrence") for m in range(1, 60) for n in range(1, 7)]
    cells += [(m, n, "formula") for m in (3, 4, 5) for n in range(1, 40)] + [(m, 2, "formula") for m in range(1, 60)]
    for m, n, method in cells:
        monkeypatch.setattr(enumeration, "MAX_COUNT_BITS", enriched_count(m, n).bit_length())
        code, out, err = run(capsys, "count", "--m", str(m), "--n", str(n), "--domain", "enriched", "--method", method)
        assert (code, err) == (0, ""), (m, n, method)


def test_unknown_flags_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--m", "3", "--n", "2", "--domain", "enriched", "--method", "brute", "--frobnicate"])
    assert err.value.code == 2


def _readme_commands() -> dict:
    # subcommand -> the options its line of README's command-line block names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = {}
    for line in block.splitlines():
        if line.startswith("votelace "):
            usage = line.split("#", 1)[0]
            commands[usage.split()[1]] = set(re.findall(r"--[a-z][a-z-]*", usage))
    return commands


def test_readme_command_block_names_every_option():
    parser = build_parser()
    (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert _readme_commands() == defined


def _subprocess_env():
    # the environment under which a child interpreter imports this votelace
    src = str(Path(votelace.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_exit_codes(tmp_path):
    # 0 holds, 1 fails, 2 malformed input, through ``python -m votelace``
    env = _subprocess_env()
    codes = {}
    for name, text in [("holds", "1 2\n2 1\n"), ("fails", "1 2 3 4\n2 4 1 3\n"), ("malformed", "1 1 2\n")]:
        f = tmp_path / f"{name}.txt"
        f.write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "votelace", "check", str(f), "--domain", "enriched"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        codes[name] = done.returncode
        assert done.stdout.startswith("domain: enriched") == (name != "malformed"), done.stdout
        assert ("error:" in done.stderr) == (name == "malformed"), done.stderr
    assert codes == {"holds": 0, "fails": 1, "malformed": 2}


#: modules no command needs at start-up: _digits imports decimal for a wide
#: count, CountReport.to_json json, and the verify command votelace.verify;
#: the records are plain classes, so nothing imports dataclasses, or inspect
#: through it; every command runs in process, so none imports
#: concurrent.futures
DEFERRED = ("concurrent.futures", "dataclasses", "decimal", "inspect", "json", "votelace.verify")


def test_start_up_imports_none_of_the_deferred_modules():
    probe = (
        "import sys; before = set(sys.modules); import votelace.cli; "
        "added = set(sys.modules) - before; "
        f"print('votelace.domains' in added, sorted(added & set({DEFERRED!r})))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_subprocess_env(), timeout=60)
    assert (done.returncode, done.stdout) == (0, "True []\n"), done.stderr


def _environment_reads(path: Path) -> list[int]:
    # the lines that name os.environ or os.getenv, however imported
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.ImportFrom) and any(alias.name in names for alias in node.names))
    )


def test_only_the_command_line_reads_the_environment():
    # library callers pass what they want; the command line turns
    # VOTELACE_GUARD into the count command's --guard default
    package = Path(votelace.__file__).parent
    reads = {path.name: _environment_reads(path) for path in sorted(package.rglob("*.py"))}
    assert reads.pop("cli.py")
    assert {name: lines for name, lines in reads.items() if lines} == {}


#: sha256 of ``votelace [COMMAND] --help`` at 80 columns, Python 3.11
HELP_DIGESTS = {
    "": "835633681ca914c05fddd47ae4efde4160badcbdca6e5e26690c0a829826e79a",
    "check": "09825fa4f671d855796d29fea76eaa0da42209ff227c504a42fadb7dae614e28",
    "count": "5a40ae93e0082fae460b6d7571f5c0ee0389eef11a088548a7316f8db4f4cb17",
    "contains": "a40fe2c56c41a56e80c38099d27549274284d71cd3b64f45d8e7960b356de048",
    "verify": "714566f7edabf2d6efab9972a2f0b220ca6cdb54397a768b9d4caa29ab629b0f",
    "bound": "559944e53c115fe5d0a7d8efa63c242cd6c2f1148e9ff215fa649c772e517a12",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the digests are of Python 3.11's argparse layout")
@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command], out
