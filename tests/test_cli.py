"""CLI contract: subcommands, formats, exit codes."""

import hashlib
import io
import json
import random
import sys
from functools import partial
from math import comb
from pathlib import Path

import pytest

import satlab.cli
import satlab.process
import satlab.search
from satlab import (
    BoundReport,
    SatRecord,
    TrialStats,
    canonical_form,
    cycle,
    ehm_graph,
    estimate_expected_count,
    run_ffree_process,
    to_graph6,
)
from satlab.cli import main
from conftest import random_graph

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_ehm(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "ehm", "--n", "10", "--s", "4")
        assert code == 0
        assert out.strip() == to_graph6(ehm_graph(10, 4))

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        code, out, _ = run(
            capsys, "construct", "--family", "cycle", "--n", "5", "-o", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().strip() == to_graph6(cycle(5))

    def test_bad_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "nope", "--n", "3")
        assert code == 2 and "unknown family" in err


class TestCount:
    def test_star_count_from_file(self, capsys, tmp_path):
        src = tmp_path / "p.g6"
        src.write_text(to_graph6(__import__("satlab").petersen()) + "\n")
        code, out, _ = run(capsys, "count", "--pattern", "star", "--t", "2", "-i", str(src))
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 30 and data["pattern"] == "k_1_2"

    def test_missing_parameter(self, capsys, tmp_path):
        src = tmp_path / "p.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, _, err = run(capsys, "count", "--pattern", "star", "-i", str(src))
        assert code == 2 and "--t" in err

    def test_parse_error_exit_3(self, capsys, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_text("B\n")
        code, _, err = run(capsys, "count", "--pattern", "k4minus", "-i", str(src))
        assert code == 3 and "parse error" in err

    def test_oversized_graph_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "big.g6"
        # n=100 in the 4-byte size header, then C(100,2)/6 zero bytes
        src.write_text("~?@c" + "?" * 825 + "\n")
        code, out, err = run(capsys, "count", "--pattern", "star", "--t", "2", "-i", str(src))
        assert code == 2 and out == "" and "MAX_VERTICES" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "count", "--pattern", "k4minus", "-i", "/no/such/file")
        assert code == 3


class TestCheck:
    def test_ks_report(self, capsys, tmp_path):
        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out, _ = run(capsys, "check", "--sat", "ks", "--s", "3", "-i", str(src))
        assert code == 0
        data = json.loads(out)
        assert data["is_free"] and data["is_saturated"]

    def test_pattern_report(self, capsys, tmp_path):
        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out, _ = run(
            capsys, "check", "--sat", "pattern", "--pattern", "k_3", "-i", str(src)
        )
        assert code == 0
        assert json.loads(out)["is_saturated"]

    @pytest.mark.parametrize("flags,message", [
        (("--sat", "ks", "--s", "3", "--pattern", "c_4"), "--pattern applies only to --sat pattern"),
        (("--sat", "pattern", "--pattern", "k_3", "--s", "3"), "--s applies only to --sat ks"),
    ], ids=["ks_with_pattern", "pattern_with_s"])
    def test_flag_of_the_other_kind_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                   flags, message):
        def no_check(*args, **kwargs):
            raise AssertionError("the check ran")

        monkeypatch.setattr(satlab.cli, "is_ks_saturated", no_check)
        monkeypatch.setattr(satlab.cli, "is_h_saturated", no_check)
        src = tmp_path / "c5.g6"
        src.write_text(to_graph6(cycle(5)) + "\n")
        code, out, err = run(capsys, "check", *flags, "-i", str(src))
        assert code == 2 and out == ""
        assert message in err


def _mixed_form_lines() -> list[str]:
    """Seeded graphs on 0..64 vertices (both size-header lengths), each
    line bare, with a ``>>graph6<<`` header, with CRLF or inside spaces,
    with blank lines between."""
    rng = random.Random(23)
    forms = ("{}", ">>graph6<<{}", "{}\r", "  {} \t", ">>graph6<<{}\r")
    lines = []
    for k, n in enumerate((0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 62, 63, 64, 7, 40)):
        lines.append(forms[k % 5].format(to_graph6(random_graph(rng, n, rng.random()))))
        if k % 3 == 0:
            lines += ["", "   "]
    return lines


class TestEcho:
    """``check`` and ``count`` print each input line as read, without its
    header or surrounding whitespace, and re-encode nothing: stdout is
    the bytes the decode-then-encode CLI printed, pinned by sha256."""

    @pytest.mark.parametrize("argv,digest", [
        (("check", "--sat", "ks", "--s", "4"),
         "8bbaffb547543bc362229fe85038c9a3941d2ec79f6f635505c600a9e6e0e553"),
        (("check", "--sat", "pattern", "--pattern", "c_4"),
         "625a40972628507145e1e66927bd9a3ed8bf20cb9ce0a2cddf746d95f65ccfc6"),
        (("count", "--pattern", "kab", "--a", "2", "--b", "2"),
         "b728369236780fcf3bd730d6f5a9a5a0dde0b3e2a27126395f8144107a1b7527"),
        (("count", "--pattern", "embed", "--g6", "Bw"),
         "c256106464fbe213a9cee7841f05452f36913ff9ffc38140e37eb1d66aef5486"),
    ], ids=["check_ks4", "check_c4", "count_k22", "count_embed"])
    def test_mixed_forms_print_as_read(self, capsys, tmp_path, monkeypatch, argv, digest):
        def no_encode(g):
            raise AssertionError("re-encoded an input graph")

        monkeypatch.setattr(satlab.cli, "to_graph6", no_encode)
        lines = _mixed_form_lines()
        src = tmp_path / "mixed.g6"
        src.write_text("\n".join(lines) + "\n", newline="")
        code, out, _ = run(capsys, *argv, "-i", str(src))
        assert code == 0
        assert [json.loads(row)["graph"] for row in out.splitlines()] == [
            line.strip().removeprefix(">>graph6<<") for line in lines if line.strip()]
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestNonAsciiInput:
    """A byte past ASCII in the input is a parse error at its byte offset,
    exit 3, and a file and stdin give the same message.  ``search``
    reads input from ``-i`` only."""

    DATA = b"Bw\n\xff\n"
    RESULT = (3, "", "parse error: byte 0xff outside graph6 range (at byte offset 0)\n")

    @pytest.mark.parametrize("argv", [
        ("check", "--sat", "ks", "--s", "3"),
        ("count", "--pattern", "star", "--t", "2"),
        ("search", "--n", "3", "--h", "k_2", "--f", "k_3"),
    ], ids=["check", "count", "search"])
    def test_file_and_stdin_agree(self, capsys, monkeypatch, tmp_path, argv):
        src = tmp_path / "bad.g6"
        src.write_bytes(self.DATA)
        assert run(capsys, *argv, "-i", str(src)) == self.RESULT
        if argv[0] != "search":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(self.DATA)))
            assert run(capsys, *argv) == self.RESULT


class TestSearch:
    def test_negative_extremal_cap_is_usage_error(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(satlab.search, "saturated_classes", no_search)
        monkeypatch.setattr(satlab.search, "saturated_stream", no_search)
        code, out, err = run(
            capsys, "search", "--n", "5", "--h", "k_2", "--f", "k_3", "--max-extremal", "-1"
        )
        assert code == 2 and out == ""
        assert "max_extremal >= 0" in err

    def test_s_without_f_ks_is_usage_error(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(satlab.cli, "min_count_over_saturated", no_search)
        monkeypatch.setattr(satlab.search, "saturated_classes", no_search)
        monkeypatch.setattr(satlab.search, "saturated_stream", no_search)
        code, out, err = run(
            capsys, "search", "--n", "5", "--h", "k_2", "--f", "k_3", "--s", "4"
        )
        assert code == 2 and out == ""
        assert "--s applies only to --f ks" in err

    @pytest.mark.parametrize("f", ["k_3", "c_4"])
    def test_negative_n_is_usage_error(self, capsys, f):
        code, out, err = run(capsys, "search", "--n", "-1", "--h", "k_2", "--f", f)
        assert code == 2 and out == ""
        assert "need n >= 0, got n=-1" in err

    # pinned from the search that tested every enumerated class with
    # is_h_saturated, before the last level decided saturation itself
    @pytest.mark.parametrize("f,line", [
        ("k_3_3", '{"extremal": ["G?\\\\t|w"], "f": "k_3_3", "h": "k_2", "min_count": 16, '
                  '"n": 8, "searched": 48, "truncated": false}'),
        ("c_6", '{"extremal": ["G?Djn?"], "f": "c_6", "h": "k_2", "min_count": 11, '
                '"n": 8, "searched": 19, "truncated": false}'),
    ], ids=["k_3_3", "c_6"])
    def test_pattern_record_bytes_at_eight(self, capsys, f, line):
        code, out, _ = run(capsys, "search", "--n", "8", "--h", "k_2", "--f", f)
        assert code == 0 and out == line + "\n"

    def test_basic(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5", "--h", "k_1_2", "--f", "k_3"
        )
        assert code == 0
        rec = SatRecord.from_json(out)
        assert rec.min_count == 5
        assert rec.extremal == (canonical_form(cycle(5)),)

    def test_petersen_at_ten(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "10", "--h", "k_1_2", "--f", "k_3")
        assert code == 0
        assert json.loads(out) == {
            "extremal": ["I?LRCecq?"], "f": "k_3", "h": "k_1_2", "min_count": 30,
            "n": 10, "searched": 31, "truncated": False,
        }

    def test_beyond_the_per_s_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "search", "--n", "11", "--h", "k_1_2", "--f", "k_4")
        assert code == 2 and out == ""
        assert "n <= 10 for clique F with s=4" in err

    def test_f_ks_with_s(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5", "--h", "k_1_2", "--f", "ks", "--s", "3"
        )
        assert code == 0 and SatRecord.from_json(out).min_count == 5

    def test_sharded_runs_merge(self, capsys):
        records = []
        for i in range(2):
            code, out, _ = run(
                capsys,
                "search", "--n", "5", "--h", "k_1_2", "--f", "k_3",
                "--shard", f"{i}/2",
            )
            if code == 0:
                records.append(SatRecord.from_json(out))
        from satlab import merge_records

        merged = merge_records(records)
        assert merged.min_count == 5 and merged.searched == 3

    def test_graph6_source(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        from satlab import enumerate_graphs

        src.write_text("\n".join(to_graph6(g) for g in enumerate_graphs(5)) + "\n")
        code, out, _ = run(
            capsys, "search", "--n", "5", "--h", "k_2_2", "--f", "k_3", "-i", str(src)
        )
        assert code == 0 and SatRecord.from_json(out).min_count == 0


class TestFlagsBeforeInput:
    """A usage error in the flags exits 2 before any input is read: a
    missing input file would otherwise exit 3, and stdin would be read
    to its end first.  A range error names the flag the user typed."""

    @pytest.mark.parametrize("argv,message", [
        (("check", "--sat", "ks"), "--sat ks requires --s"),
        (("check", "--sat", "pattern"), "--sat pattern requires --pattern"),
        (("check", "--sat", "pattern", "--pattern", "bogus"), "bad pattern 'bogus'"),
        (("check", "--sat", "pattern", "--pattern", "g6:B?"), "at least one edge"),
        (("count", "--pattern", "star"), "requires --t"),
        (("count", "--pattern", "kab", "--a", "2"), "requires --b"),
        (("count", "--pattern", "clique"), "requires --r"),
        (("count", "--pattern", "cycle"), "requires --r"),
        (("count", "--pattern", "embed"), "requires --g6"),
        (("search", "--n", "5", "--h", "bogus", "--f", "k_3"), "bad pattern 'bogus'"),
        (("search", "--n", "5", "--h", "k_2", "--f", "bogus"), "bad pattern 'bogus'"),
        (("search", "--n", "5", "--h", "k_2", "--f", "g6:B?"), "at least one edge"),
        (("search", "--n", "-1", "--h", "k_2", "--f", "k_3"), "need n >= 0"),
        (("check", "--sat", "ks", "--s", "0"),
         "--s 0: bad pattern 'k_0': clique order must be >= 1"),
        (("count", "--pattern", "star", "--t", "0"),
         "--t 0: bad pattern 'k_1_0': pattern sides must be >= 1"),
        (("count", "--pattern", "clique", "--r", "0"),
         "--r 0: bad pattern 'k_0': clique order must be >= 1"),
        (("count", "--pattern", "cycle", "--r", "2"),
         "--r 2: bad pattern 'c_2': cycle length must be in 3..8"),
        (("count", "--pattern", "cycle", "--r", "9"),
         "--r 9: bad pattern 'c_9': cycle length must be in 3..8"),
        (("count", "--pattern", "embed", "--g6", "H??????"), "beyond the 8 cap"),
        (("search", "--n", "4", "--h", "k_2", "--f", "g6:"),
         "bad pattern 'g6:': empty graph6 string (at byte offset 3)"),
        # a g6: token's offset counts within the token; --g6 quotes the bare value
        (("check", "--sat", "pattern", "--pattern", "g6:Bx"),
         "bad pattern 'g6:Bx': nonzero padding bits (at byte offset 4)"),
        (("check", "--sat", "pattern", "--pattern", "g6:>>graph6<<Bx"),
         "bad pattern 'g6:>>graph6<<Bx': nonzero padding bits (at byte offset 14)"),
        (("count", "--pattern", "embed", "--g6", "Bx"),
         "bad --g6 'Bx': nonzero padding bits (at byte offset 1)"),
        # a flag the pattern does not read is an error, not ignored
        (("count", "--pattern", "star", "--t", "2", "--a", "7", "--r", "99", "--g6", "zz"),
         "--pattern star does not take --a, --r, --g6"),
        (("count", "--pattern", "kab", "--a", "2", "--b", "2", "--t", "2"),
         "--pattern kab does not take --t"),
        (("count", "--pattern", "cycle", "--r", "4", "--b", "1"),
         "--pattern cycle does not take --b"),
        (("count", "--pattern", "k4minus", "--r", "4"), "--pattern k4minus does not take --r"),
        (("count", "--pattern", "embed", "--g6", "Bw", "--t", "2"),
         "--pattern embed does not take --t"),
    ], ids=["check_ks_no_s", "check_no_pattern", "check_bad_pattern", "check_edgeless",
            "count_star", "count_kab", "count_clique", "count_cycle", "count_embed",
            "search_bad_h", "search_bad_f", "search_edgeless_f", "search_negative_n",
            "check_ks_s0", "count_star_t0", "count_clique_r0", "count_cycle_r2",
            "count_cycle_r9", "count_embed_9_vertices", "search_empty_g6_f",
            "check_bad_g6_pattern", "check_bad_g6_header_pattern", "count_bad_g6",
            "count_star_unread", "count_kab_unread", "count_cycle_unread",
            "count_k4minus_unread", "count_embed_unread"])
    def test_usage_error_before_missing_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "-i", "/nonexistent.g6")
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv,message", [
        (("--family", "petersen", "--n", "5", "--s", "9"),
         "--family petersen does not take --n, --s"),
        (("--family", "ehm", "--n", "6", "--s", "3", "--a", "1"),
         "--family ehm does not take --a"),
        (("--family", "complete_bipartite", "--a", "2", "--b", "3", "--n", "5"),
         "--family complete_bipartite does not take --n"),
    ], ids=["petersen", "ehm", "complete_bipartite"])
    def test_construct_rejects_unread_flags(self, capsys, tmp_path, argv, message):
        target = tmp_path / "g.g6"
        code, out, err = run(capsys, "construct", *argv, "-o", str(target))
        assert code == 2 and out == "" and message in err
        assert not target.exists()


class TestProcess:
    def test_stats_and_traces(self, capsys, tmp_path):
        dump = tmp_path / "traces.jsonl"
        code, out, _ = run(
            capsys,
            "process", "--n", "6", "--s", "3", "--seed", "3", "--trials", "5",
            "--count", "k_1_2", "--dump-traces", str(dump),
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["trials"] == 5 and stats["min"] >= 1
        lines = dump.read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["seed"] == 3

    def test_dump_runs_each_trial_once(self, capsys, tmp_path, monkeypatch):
        # trials run in forked workers too, so each call is one line of a
        # file that every process appends to
        log = tmp_path / "calls.jsonl"

        def counted(*args):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(json.dumps(args) + "\n")
            return run_ffree_process(*args)

        def calls():
            return sorted(tuple(json.loads(line)) for line in log.read_text().splitlines())

        # the library's binding too, so a rerun through estimate_expected_count counts
        monkeypatch.setattr(satlab.cli, "run_ffree_process", counted)
        monkeypatch.setattr(satlab.process, "run_ffree_process", counted)
        dump = tmp_path / "traces.jsonl"
        code, out, _ = run(
            capsys,
            "process", "--n", "12", "--s", "4", "--seed", "11", "--trials", "6",
            "--count", "k_3", "--dump-traces", str(dump),
        )
        assert code == 0
        assert len(calls()) == 6
        assert dump.read_text() == "".join(
            run_ffree_process(12, "k_4", 11 + i).to_json() + "\n" for i in range(6)
        )
        stats = estimate_expected_count(12, "k_4", "k_3", 6, 11).to_json() + "\n"
        assert out == stats
        # the same loop without --dump-traces: the same runs and the same stats
        log.unlink()
        code, out, _ = run(
            capsys,
            "process", "--n", "12", "--s", "4", "--seed", "11", "--trials", "6",
            "--count", "k_3",
        )
        assert code == 0 and out == stats
        assert calls() == [(12, "k_4", 11 + i) for i in range(6)]

    @pytest.mark.parametrize("s", ["3", "4", "5"])
    def test_output_does_not_depend_on_workers(self, capsys, tmp_path, monkeypatch, s):
        # trials = 1, fewer trials than workers, and many trials per worker
        for trials in (1, 2, 50):
            serial = [run_ffree_process(14, f"k_{s}", 7 + i) for i in range(trials)]
            dump_ref = "".join(trace.to_json() + "\n" for trace in serial)
            stats_ref = TrialStats.from_counts(
                [satlab.search.count_pattern(trace.result, ("clique", 3)) for trace in serial])
            for workers in (1, 2, 3):
                monkeypatch.setattr(satlab.cli, "_trial_results",
                                    partial(satlab.process._trial_results, workers=workers))
                dump = tmp_path / f"traces{trials}_{workers}.jsonl"
                code, out, err = run(
                    capsys, "process", "--n", "14", "--s", s, "--seed", "7",
                    "--trials", str(trials), "--count", "k_3", "--dump-traces", str(dump),
                )
                assert (code, err) == (0, "")
                assert out == stats_ref.to_json() + "\n"
                assert dump.read_text() == dump_ref
                code, out_plain, _ = run(
                    capsys, "process", "--n", "14", "--s", s, "--seed", "7",
                    "--trials", str(trials), "--count", "k_3",
                )
                assert code == 0 and out_plain == out

    def test_bad_dump_arguments_create_no_file(self, capsys, tmp_path):
        bad = (("--trials", "0"), ("--count", "bogus"), ("--count", "g6:Bx"), ("--s", "2"),
               ("--n", "-1"), ("--count", "g6:HhCGGE@"))
        for flag, value in bad:
            argv = {"--n": "8", "--s": "3", "--seed": "1", "--trials": "3"}
            argv[flag] = value
            dump = tmp_path / "traces.jsonl"
            code, _, _ = run(
                capsys, "process", *[x for kv in argv.items() for x in kv],
                "--dump-traces", str(dump),
            )
            assert code == 2 and not dump.exists(), flag

    def test_deterministic_output(self, capsys):
        args = ("process", "--n", "7", "--s", "3", "--seed", "9", "--trials", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestVerify:
    def test_kkko_suite_holds(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "kkko", "--n-max", "6", "--s", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# satlab bounds csv v1"
        assert lines[1] == "name,n,s,t,lhs,rhs,holds,equality"
        assert all("False" not in line.split(",")[6] for line in lines[2:] if line)

    def test_k4minus_suite_holds(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "k4minus", "--n-max", "6", "--s", "4")
        assert code == 0

    def test_formulas_suite_holds(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "formulas", "--n-max", "6", "--s", "4")
        assert code == 0
        assert "ehm_edges" in out and "k12_min" in out

    @pytest.mark.parametrize("suite", ["formulas", "all"])
    def test_s2_has_edge_rows_and_no_k3_window(self, capsys, suite):
        # K_2-saturated means edgeless: the empty graph is the one class
        # and ehm_edges is 0; the K_3 cherry window does not apply
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "6", "--s", "2")
        assert code == 0, err
        rows = out.splitlines()[2:]
        assert [r for r in rows if r.startswith("ehm_edges,")] == [
            f"ehm_edges,{n},2,,0,0,True,True" for n in range(2, 7)
        ]
        assert "k12_k3_window" not in out

    def test_prop21_suite_reports_violations_honestly(self, capsys):
        # the desk-scale counterexamples below the star floor force exit 1
        code, out, err = run(capsys, "verify", "--suite", "prop21", "--n-max", "5", "--s", "3")
        assert code == 1
        assert "violated" in err

    def test_usage_error(self, capsys):
        code = main(["verify", "--suite", "bogus", "--n-max", "5", "--s", "3"])
        assert code == 2

    def test_n_max_past_cap_fails_before_any_search(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched before checking --n-max")

        monkeypatch.setattr(satlab.cli, "saturated_classes", no_search)
        monkeypatch.setattr(satlab.search, "_enumerate", no_search)
        code, out, err = run(capsys, "verify", "--suite", "kkko", "--n-max", "11", "--s", "5")
        assert (code, out) == (2, "")
        assert err == "error: search supports n <= 10 for clique F with s=5, got n=11\n"

    # n-max < s: no search, so neither the n nor the s range is checked
    @pytest.mark.parametrize("n_max, s", [("2", "3"), ("-1", "3"), ("0", "1")])
    def test_empty_sweep_prints_header_only(self, capsys, n_max, s):
        code, out, err = run(capsys, "verify", "--suite", "all", "--n-max", n_max, "--s", s)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["# satlab bounds csv v1", "name,n,s,t,lhs,rhs,holds,equality"]

    # sha256 of stdout: s = 3 alone has the k12_k3_window rows and s = 5
    # alone the kr_min_small_n rows at r = 4; exit 1 is the star floor
    @pytest.mark.parametrize("suite, s, code, digest", [
        ("formulas", 3, 0, "10841739d65f8aeece2d4939a4cc4929596a2a423e781527631b007c28ea3100"),
        ("formulas", 5, 0, "8041b69a98c5b2c466620b37d51ac0b3691f18e4e62cae707e1b6f136ece6451"),
        ("all", 3, 1, "df557bfa860db99e6526791dfc57c222d90c95b1a68fed6ac73d2d08b298e6e8"),
        ("all", 5, 1, "57861ccbea63c7bd3e383e3fcc338b30ec5929eec1c87ce1c9490a81d34d86d1"),
    ])
    def test_csv_pinned(self, capsys, suite, s, code, digest):
        got, out, _ = run(capsys, "verify", "--suite", suite, "--n-max", "7", "--s", str(s))
        assert got == code
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_k3_window_verdict_at_every_minimum(self, monkeypatch):
        # the integer verdict against C(n,2) - n^{3/2}/2 <= low <= C(n-1,2)
        # in floats, for every cherry minimum up to the K_3 search cap
        for n in range(3, 13):
            g = ehm_graph(n, 3)
            pairs = ((g, canonical_form(g)),)
            for low in range(comb(n, 2) + 2):
                monkeypatch.setattr(satlab.cli, "count_stars", lambda g, t: low)
                _, window = satlab.cli._formula_rows(n, 3, pairs)
                assert window.lhs == low
                assert window.holds == (comb(n, 2) - n ** 1.5 / 2 - 1e-9 <= low <= comb(n - 1, 2))

    def test_all_s4_matches_benchmark_reference(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "7", "--s", "4")
        assert code == 1
        assert out.encode("ascii") == (REFS / "verify_all_n7_s4.stdout").read_bytes()


class TestRemovedOptions:
    def test_threads_flag_is_usage_error(self, capsys):
        code, out, _ = run(
            capsys, "--threads", "4", "construct", "--family", "cycle", "--n", "5"
        )
        assert code == 2 and out == ""


class TestJsonBytes:
    """Each record type's JSON, byte for byte: the field lists live only
    in the record classes."""

    def test_sat_record(self):
        rec = SatRecord(n=5, h="k_1_2", f="k_3", min_count=5, extremal=("DUW", "Dhc"),
                        searched=3, truncated=True)
        assert rec.to_json() == (
            '{"extremal": ["DUW", "Dhc"], "f": "k_3", "h": "k_1_2", "min_count": 5, '
            '"n": 5, "searched": 3, "truncated": true}'
        )
        assert SatRecord.from_json(rec.to_json()) == rec

    def test_trial_stats(self):
        stats = TrialStats(trials=3, mean=2.5, stddev=0.5, min=2, max=3)
        assert stats.to_json() == '{"max": 3, "mean": 2.5, "min": 2, "stddev": 0.5, "trials": 3}'

    def test_bound_report(self):
        report = BoundReport(name="star_floor", lhs=10, rhs=9.5, holds=True, equality=False,
                             context={"n": 5, "s": 3, "t": 3, "in_hypothesis": True})
        assert report.to_json() == (
            '{"context": {"in_hypothesis": true, "n": 5, "s": 3, "t": 3}, "equality": false, '
            '"holds": true, "lhs": 10, "name": "star_floor", "rhs": 9.5}'
        )
