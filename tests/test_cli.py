"""The command-line surface: verbs, formats, and the exit-code contract."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import semifuzz as sf
from semifuzz import cli, verification
from semifuzz.verification import VerificationReport

NULL2 = {"elements": ["0", "a"], "table": [["0", "0"], ["0", "0"]]}
MONO31 = {
    "elements": ["c", "c2", "c3"],
    "table": [["c2", "c3", "c3"], ["c3", "c3", "c3"], ["c3", "c3", "c3"]],
}


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return _write


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_structure_listing(self, write, capsys):
        path = write("mono.json", MONO31)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "order: 3" in out
        assert "zero: c3" in out
        assert "kernel: {c3}" in out
        assert "core: {c2, c3}" in out
        assert "c2: D = {c, c2}, N = {c3} (ideal)" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2 and "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"a": ' * 100_000 + "1" + "}" * 100_000,
    ], ids=["array", "object"])
    def test_deeply_nested_json(self, capsys, tmp_path, text):
        # the decoder's recursion limit is an input error, not a crash
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert err.startswith("error:") and "nested too deeply" in err

    def test_non_associative_table_names_witness(self, write, capsys):
        path = write("bad.json", {"elements": ["a", "b"], "table": [["b", "a"], ["a", "a"]]})
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "not associative" in err
        assert "(a*a)*b" in err

    def test_non_string_table_entry(self, write, capsys):
        path = write("bad.json", {"elements": ["a"], "table": [[["a"]]]})
        code, _, err = run(capsys, "analyze", path)
        assert code == 2 and err.startswith("error:") and "['a']" in err

    def test_unknown_table_entry_named_in_error(self, write, capsys):
        path = write("bad.json", {"elements": ["a", "b"], "table": [["a", "x"], ["b", "b"]]})
        code, _, err = run(capsys, "analyze", path)
        assert code == 2 and "'x'" in err


class TestConvolve:
    def test_worked_example(self, write, capsys):
        sg = write("null2.json", NULL2)
        f = write("f.json", {"0": "1/2", "a": "7/10"})
        g = write("g.json", {"0": "3/10", "a": "9/10"})
        code, out, _ = run(capsys, "convolve", sg, f, g)
        assert code == 0
        assert json.loads(out) == {"0": "7/10", "a": "0"}

    def test_incomplete_fuzzy_set(self, write, capsys):
        sg = write("null2.json", NULL2)
        f = write("f.json", {"0": "1/2"})
        code, _, err = run(capsys, "convolve", sg, f, f)
        assert code == 2 and "missing" in err

    def test_duplicate_keys_rejected(self, write, capsys, tmp_path):
        sg = write("null2.json", NULL2)
        f = tmp_path / "f.json"
        f.write_text('{"0": "1", "0": "0", "a": "1"}')
        code, out, err = run(capsys, "convolve", sg, str(f), str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "duplicate" in err and "'0'" in err

    def test_duplicate_keys_rejected_in_semigroup_file(self, capsys, tmp_path):
        path = tmp_path / "sg.json"
        path.write_text('{"elements": ["a"], "table": [["a"]], "table": [["b"]]}')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "duplicate" in err

    def test_float_rejected(self, write, capsys):
        sg = write("null2.json", NULL2)
        f = write("f.json", {"0": 0.5, "a": "1"})
        code, _, err = run(capsys, "convolve", sg, f, f)
        assert code == 2 and "floating point" in err

    @pytest.mark.parametrize("half", ["\u0661/\u0662", "\uff11/\uff12"])
    def test_non_ascii_digits_rejected(self, write, capsys, half):
        sg = write("null2.json", NULL2)
        f = write("f.json", {"0": half, "a": "1"})
        code, out, err = run(capsys, "convolve", sg, f, f)
        assert code == 2 and out == ""
        assert err.startswith("error: malformed membership value") and err.count("\n") == 1


class TestStar:
    def test_star_output(self, write, capsys):
        sg = write("mono.json", MONO31)
        f = write("f.json", {"base": "c2", "values": {"c": "1/3", "c2": "4/5"}})
        g = write("g.json", {"base": "c2", "values": {"c": "2/3", "c2": "1/5"}})
        code, out, _ = run(capsys, "star", sg, "-a", "c2", f, g)
        assert code == 0
        assert json.loads(out) == {"base": "c2", "values": {"c": "0", "c2": "1/3"}}

    def test_non_string_base(self, write, capsys):
        sg = write("mono.json", MONO31)
        f = write("f.json", {"base": ["c2"], "values": {"c": "1/3", "c2": "4/5"}})
        code, _, err = run(capsys, "star", sg, "-a", "c2", f, f)
        assert code == 2 and err.startswith("error:") and "base" in err

    def test_base_flag_must_match_files(self, write, capsys):
        sg = write("mono.json", MONO31)
        f = write("f.json", {"base": "c2", "values": {"c": "1/3", "c2": "4/5"}})
        code, _, err = run(capsys, "star", sg, "-a", "c3", f, f)
        assert code == 2 and "based at" in err


class TestDecompose:
    def test_tuple_output(self, write, capsys):
        sg = write("null2.json", NULL2)
        f = write("f.json", {"0": "1/2", "a": "3/4"})
        code, out, _ = run(capsys, "decompose", sg, f)
        assert code == 0
        assert json.loads(out) == {
            "0": {"base": "0", "values": {"0": "1/2", "a": "3/4"}},
            "a": {"base": "a", "values": {"a": "3/4"}},
        }


class TestVerify:
    def test_pass_gives_exit_zero(self, write, capsys):
        sg = write("null2.json", NULL2)
        code, out, _ = run(capsys, "verify", sg, "--theorem", "restriction-rees", "--chain", "2")
        assert code == 0
        assert "PASS" in out

    def test_json_report_written(self, write, capsys, tmp_path):
        sg = write("null2.json", NULL2)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", sg, "--theorem", "star-assoc", "--chain", "1",
                         "--json", str(report_path))
        assert code == 0
        blob = json.loads(report_path.read_text())
        assert blob["theorem"] == "star-assoc"
        assert blob["verdict"] == "pass"
        assert blob["strategy"] == "exhaustive"
        assert blob["seed"] is None

    def test_sampled_seed_recorded(self, write, capsys, tmp_path):
        sg = write("null2.json", NULL2)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", sg, "--theorem", "quotient-iso", "--chain", "2",
                         "--sampled", "30", "--seed", "7", "--json", str(report_path))
        assert code == 0
        blob = json.loads(report_path.read_text())
        assert blob["strategy"] == "sampled" and blob["seed"] == 7
        assert blob["cases_checked"] == 90

    def test_sampled_defaults_to_seed_zero(self, write, capsys, tmp_path):
        sg = write("null2.json", NULL2)
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", sg, "--theorem", "star-assoc", "--chain", "1",
                         "--sampled", "10", "--json", str(report_path))
        assert code == 0
        assert json.loads(report_path.read_text())["seed"] == 0

    def test_all_orders_sweep(self, capsys, tmp_path):
        report_path = tmp_path / "reports.json"
        code, out, _ = run(capsys, "verify", "--all-orders", "2", "--theorem", "phi-embedding",
                           "--chain", "1", "--json", str(report_path))
        assert code == 0
        assert "9 semigroups" in out
        blobs = json.loads(report_path.read_text())
        assert len(blobs) == 9
        assert all(b["verdict"] == "pass" for b in blobs)

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_json_path_is_refused_before_the_sweep(self, capsys, tmp_path,
                                                              monkeypatch, where):
        path = tmp_path / "absent" / "x.json" if where == "missing-directory" else tmp_path
        monkeypatch.setattr(cli, "verify_theorem", lambda *args: pytest.fail("the sweep ran"))
        code, out, err = run(capsys, "verify", "--all-orders", "2", "--theorem", "star-assoc",
                             "--chain", "1", "--json", str(path))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]
        assert not (tmp_path / "absent").exists()

    def test_json_path_is_left_alone_until_the_report_is_written(self, write, capsys, tmp_path,
                                                                 monkeypatch):
        sg = write("null2.json", NULL2)
        old = tmp_path / "old.json"
        old.write_text("keep me")
        new = tmp_path / "new.json"
        real = cli.verify_theorem
        seen = []

        def sweep(*args):
            seen.append((old.read_text(), new.exists()))
            return real(*args)

        monkeypatch.setattr(cli, "verify_theorem", sweep)
        for path in (old, new):
            code, _, _ = run(capsys, "verify", sg, "--theorem", "star-assoc", "--chain", "1",
                             "--json", str(path))
            assert code == 0
            assert json.loads(path.read_text())["verdict"] == "pass"
        assert seen == [("keep me", False), (old.read_text(), False)]

    def test_a_dangling_json_symlink_is_left_as_it_was(self, capsys, tmp_path):
        # the probe creates the link's target; the refused run must
        # remove it again and keep the link
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target)
        code, out, err = run(capsys, "verify", "--all-orders", "1", "--theorem", "star-assoc",
                             "--chain", "5000", "--json", str(link))
        assert code == 2 and out == ""
        assert "fuzzy sets" in err
        assert link.is_symlink() and not target.exists()

    def test_counterexample_gives_exit_one(self, write, capsys, monkeypatch):
        failing = VerificationReport(
            theorem="star-assoc", instance={}, strategy="exhaustive", seed=None,
            verdict="fail", cases_checked=3,
            counterexample={"base": "a", "f": {}, "g": {}, "h": {}, "lhs": {}, "rhs": {}},
        )
        monkeypatch.setattr(cli, "verify_theorem", lambda *args: failing)
        sg = write("null2.json", NULL2)
        code, out, _ = run(capsys, "verify", sg, "--theorem", "star-assoc", "--chain", "1")
        assert code == 1
        assert "FAIL" in out
        assert '"base": "a"' in out

    def test_verifier_inconsistency_gives_exit_two(self, write, capsys, monkeypatch, rows_of):
        # a kernel defect: a product outside the chain-1 universe it must stay in
        real = verification.convolve

        def planted(f, g):
            out = real(f, g)
            return sf.FuzzySet(out.semigroup, (Fraction(1, 3),) + out.values[1:])

        monkeypatch.setattr(verification, "_sup_min_rows", rows_of(planted))
        sg = write("mono.json", MONO31)
        code, out, err = run(capsys, "verify", sg, "--theorem", "delta-congruence", "--chain", "1")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: verifier inconsistency: ")
        assert "outside the enumerated universe" in lines[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--theorem", "star-assoc", "--chain", "1"),  # no file, no sweep
        ("verify", "x.json", "--all-orders", "2", "--theorem", "star-assoc", "--chain", "1"),
        ("verify", "x.json", "--theorem", "star-assoc", "--chain", "1", "--seed", "3"),
        ("verify", "x.json", "--theorem", "bogus", "--chain", "1"),
        ("verify", "x.json", "--chain", "1"),
        ("verify", "--all-orders", "0", "--theorem", "star-assoc", "--chain", "1"),
    ])
    def test_usage_errors(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--theorem", "star-assoc", "--chain", "1"),
         "give exactly one of FILE or --all-orders"),
        (("verify", "x.json", "--theorem", "star-assoc", "--chain", "1", "--seed", "3"),
         "--seed only makes sense with --sampled"),
        (("verify", "--all-orders", "0", "--theorem", "star-assoc", "--chain", "1"),
         "--all-orders needs a positive order"),
    ])
    def test_usage_errors_print_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_invalid_chain_resolution(self, write, capsys):
        sg = write("null2.json", NULL2)
        code, _, err = run(capsys, "verify", sg, "--theorem", "star-assoc", "--chain", "0")
        assert code == 2 and "positive" in err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "2", "--count-only")
        assert code == 0 and out.strip() == "8"

    def test_count_only_order_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "3", "--count-only")
        assert code == 0 and out.strip() == "113"

    def test_count_only_order_four(self, capsys):
        with pytest.warns(UserWarning, match="order <= 3"):
            code, out, _ = run(capsys, "enumerate", "--order", "4", "--count-only")
        assert code == 0 and out.strip() == "3492"

    def test_streams_parseable_tables(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--order", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        sg = sf.semigroup_from_json(json.loads(lines[0]))
        assert sg.order == 1


class TestCatalog:
    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "mono.json"
        code, out, _ = run(capsys, "catalog", "monogenic", "3", "1", "--out", str(out_path))
        assert code == 0 and out == ""
        sg = sf.semigroup_from_json(json.loads(out_path.read_text()))
        assert sg == sf.catalog("monogenic", 3, 1)

    def test_prints_to_stdout(self, capsys):
        code, out, _ = run(capsys, "catalog", "left_zero", "2")
        assert code == 0
        assert json.loads(out)["elements"] == ["a", "b"]

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "catalog", "spiral", "3")
        assert code == 2 and "unknown catalog family" in err


class TestParser:
    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_parser_is_built_once(self, capsys, monkeypatch):
        first = run(capsys, "verify", "--help")
        built = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(1) or real(self, *args, **kwargs))
        assert run(capsys, "verify", "--help") == first
        assert run(capsys, "catalog", "null", "2")[0] == 0
        assert built == []

    def test_parser_is_not_built_at_import(self):
        script = "import semifuzz.cli as cli; print(cli._build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sf.__file__))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr

    def test_no_state_leaks_between_calls(self, write, capsys):
        verify = ("verify", write("null2.json", NULL2), "--theorem", "distributivity", "--chain", "1")
        assert run(capsys, *verify, "--sampled", "3", "--seed", "2")[0] == 0
        assert run(capsys, *verify, "--seed", "2") == (
            2, "", "error: --seed only makes sense with --sampled\n")


# Fuzzed input files: arbitrary bytes, arbitrary JSON values, and objects
# shaped like the three formats (a semigroup, a fuzzy set, a restricted
# fuzzy set) whose fields are fuzzed, so that many files get past the
# parsers' first type checks.  Names and values mix arbitrary text with
# MONO31's element names and well-formed membership values.
_NAMES = st.sampled_from(["c", "c2", "c3"]) | st.text(max_size=3)
_VALUES = st.sampled_from(["0", "1", "1/2", "2/3", "0/0", "3/2"]) | st.integers(-1, 2)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | _NAMES | _VALUES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_NAMES, inner, max_size=4),
    max_leaves=16,
)
_FUZZY = st.fixed_dictionaries({name: _VALUES | JSON_VALUES for name in ("c", "c2", "c3")},
                               optional={"": _VALUES})
SHAPED = st.one_of(
    st.fixed_dictionaries({
        "elements": st.lists(_NAMES, max_size=3) | JSON_VALUES,
        "table": st.lists(st.lists(_NAMES | JSON_VALUES, max_size=3), max_size=3) | JSON_VALUES,
    }),
    st.fixed_dictionaries({"base": _NAMES | JSON_VALUES, "values": _FUZZY | JSON_VALUES}),
    _FUZZY,
)
FILE_CONTENTS = st.binary(max_size=64) | (JSON_VALUES | SHAPED).map(lambda v: json.dumps(v).encode())


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"sg": MONO31, "f": {"c": "1/3", "c2": "1", "c3": "0"},
             "rf": {"base": "c2", "values": {"c": "1/3", "c2": "4/5"}}}
    for name, obj in files.items():
        (root / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(root / f"{name}.json") for name in (*files, "fuzzed")}


class TestFuzzedFiles:
    """Any file content, in the semigroup or the fuzzy-set role, gives exit
    0 or 2; an exit 2 prints one error line and no traceback."""

    @settings(max_examples=60, deadline=None)
    @given(content=FILE_CONTENTS)
    def test_exit_code_contract(self, fuzz_files, content):
        sg, f, rf, fz = (fuzz_files[k] for k in ("sg", "f", "rf", "fuzzed"))
        with open(fz, "wb") as handle:
            handle.write(content)
        for argv in (
            ["analyze", fz],
            ["convolve", fz, f, f], ["convolve", sg, fz, f],
            ["decompose", fz, f], ["decompose", sg, fz],
            ["star", fz, "-a", "c2", rf, rf], ["star", sg, "-a", "c2", fz, rf],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2), argv
            if code == 2:
                assert err.getvalue().startswith("error: "), argv
                assert err.getvalue().count("\n") == 1, argv
