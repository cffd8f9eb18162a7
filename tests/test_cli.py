import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from excol import _matrix, cli, collection, markov, regions, suites
from excol.braid import BraidWord, is_trivial, parse_word
from excol.cli import main
from excol.collection import load, to_json_text
from excol.pn import beilinson_collection
from excol.regions import InequalitySystem

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def beilinson_file(tmp_path):
    path = tmp_path / "beilinson3.json"
    assert main(["pn", "gram", "--n", "3", "-o", str(path)]) == 0
    return path


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def force_cpus(monkeypatch, cpus):
    """Make ``run_shares`` and its callers see ``cpus`` usable CPUs; return
    the pids they fork."""
    monkeypatch.setattr(suites, "usable_cpus", lambda: cpus)
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(suites.os, "fork", counting_fork)
    return forked


@pytest.fixture(scope="module")
def all_checks():
    """What ``run_suite("all", 0)`` returns: every suite's checks, labelled, in order."""
    return [
        suites.Check(f"{name}: {c.name}", c.expected, c.actual, c.passed)
        for name, suite in suites.SUITES.items()
        for c in suite(0)
    ]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_option_defaults():
    parse = cli.build_parser().parse_args
    assert parse(["orbit", "--depth", "1"]).cap == 100_000
    assert parse(["stabilizer", "f.json", "--max-len", "1"]).cap == 1_000_000
    assert parse(["verify", "all"]).seed == 0
    assert (parse(["region", "strong"]).n, parse(["region", "lemma41"]).kidx) == (3, 0)
    assert parse(["pn", "gram"]).n == 3
    assert parse(["braid", "nf", "L0"]).strands == 4


class TestPnGram:
    def test_file_contents(self, beilinson_file):
        assert load(beilinson_file) == beilinson_collection(3)

    def test_stdout(self, capsys):
        status, out, _ = run(capsys, ["pn", "gram", "--n", "1"])
        assert status == 0
        assert json.loads(out) == {
            "n": 1,
            "gram": [[1, 2], [0, 1]],
            "classes": "identity",
        }

    def test_above_bound_exits_2(self, tmp_path, capsys):
        target = tmp_path / "p.json"
        status, out, err = run(capsys, ["pn", "gram", "--n", "257", "-o", str(target)])
        assert (status, out, err) == (2, "", "error: --n must be at most 256\n")
        assert not target.exists()

    def test_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PN_N", 2)
        assert run(capsys, ["pn", "gram", "--n", "2"])[0] == 0
        assert run(capsys, ["pn", "gram", "--n", "3"])[0] == 2


class TestMutate:
    def test_delta_word(self, beilinson_file, tmp_path, capsys):
        out_path = tmp_path / "dual.json"
        status, out, _ = run(
            capsys,
            ["mutate", str(beilinson_file), "--word", "L0 L1 L2 L0 L1 L0",
             "-o", str(out_path)],
        )
        assert status == 0
        assert "(4, 6, 4, 4, 6, 4)" in out
        written = load(out_path)
        assert written.upper_entries() == (4, 6, 4, 4, 6, 4)

    def test_round_trip_bit_exact(self, beilinson_file, tmp_path, capsys):
        out_path = tmp_path / "mut.json"
        from excol.collection import apply_word

        status, _, _ = run(
            capsys,
            ["mutate", str(beilinson_file), "--word", "L0 R1", "-o", str(out_path)],
        )
        assert status == 0
        expected = apply_word(beilinson_collection(3), parse_word("L0 R1", 4))
        assert load(out_path) == expected
        assert out_path.read_text() == to_json_text(expected)

    def test_empty_word_inplace(self, beilinson_file, capsys):
        before = beilinson_file.read_text()
        status, _, _ = run(capsys, ["mutate", str(beilinson_file)])
        assert status == 0
        assert beilinson_file.read_text() == before

    def test_cancelling_word_inplace(self, beilinson_file, capsys):
        before = beilinson_file.read_text()
        status, _, _ = run(capsys, ["mutate", str(beilinson_file), "--word", "L0 R0"])
        assert status == 0
        assert beilinson_file.read_text() == before

    def test_eq1_line_only_for_four_objects(self, beilinson_file, tmp_path, capsys):
        status, out, _ = run(capsys, ["mutate", str(beilinson_file), "--word", "L0"])
        assert status == 0 and "[PASS] eq1 value: expected=- actual=0\n" in out
        p2 = tmp_path / "p2.json"
        assert main(["pn", "gram", "--n", "2", "-o", str(p2)]) == 0
        status, out, _ = run(capsys, ["mutate", str(p2), "--word", "L0"])
        assert status == 0 and "eq1 value" not in out and "strong candidate" in out

    def test_bad_word_exits_2(self, beilinson_file, capsys):
        status, _, err = run(
            capsys, ["mutate", str(beilinson_file), "--word", "L7"]
        )
        assert status == 2
        assert "error" in err

    def test_non_ascii_digit_exits_2_and_keeps_the_file(self, beilinson_file, capsys):
        before = beilinson_file.read_text()
        status, out, err = run(
            capsys, ["mutate", str(beilinson_file), "--word", "s١^-1"]  # Arabic-Indic one
        )
        assert (status, out, err) == (2, "", "error: malformed token 's١^-1'\n")
        assert beilinson_file.read_text() == before

    def test_missing_file_exits_2(self, capsys, tmp_path):
        status, _, err = run(capsys, ["mutate", str(tmp_path / "nope.json")])
        assert status == 2

    @pytest.mark.parametrize("to_other_file", [True, False])
    def test_entries_past_digit_limit(self, beilinson_file, tmp_path, capsys, to_other_file):
        from excol.collection import apply_word

        rng = random.Random(0)
        word = BraidWord(4, tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(70)))
        target = tmp_path / "out.json" if to_other_file else beilinson_file
        argv = ["mutate", str(beilinson_file), "--word", word.to_text()]
        status, out, _ = run(capsys, argv + (["-o", str(target)] if to_other_file else []))
        assert status == 0
        expected = apply_word(beilinson_collection(3), word)
        assert load(target) == expected
        assert "[PASS] gram upper entries" in out

    @pytest.mark.parametrize("text", [
        '{"n":1,"gram":[[1.0,2.5],[0,1]],"classes":"identity"}\n',
        '{"n":1,"gram":[[1,true],[0,1]],"classes":"identity"}\n',
        '{"n":1,"gram":[[1,2],[0,1]],"classes":[[2,0],[0,1]]}\n',
    ])
    def test_inexact_or_non_unimodular_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        status, out, err = run(capsys, ["mutate", str(path), "--word", "L0"])
        assert status == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert path.read_text() == text

    @pytest.mark.parametrize("classes, message", [
        ("[[1,1],[1,1]]", "classes matrix is singular"),
        ("[[2,0],[0,1]]", "classes matrix is not unimodular"),
    ])
    def test_classes_error_message(self, tmp_path, capsys, classes, message):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n":1,"gram":[[1,2],[0,1]],"classes":{classes}}}\n')
        status, out, err = run(capsys, ["mutate", str(path), "--word", "L0"])
        assert (status, out, err) == (2, "", f"error: {message}\n")

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        status, out, err = run(capsys, ["mutate", str(path), "--word", "L0"])
        assert status == 2
        assert out == "" and err.startswith("error: malformed collection file")
        assert err.count("\n") == 1

    def test_non_object_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1,2]\n")
        status, out, err = run(capsys, ["mutate", str(path), "--word", "L0"])
        assert (status, out, err) == (2, "", "error: malformed collection file: expected a JSON object\n")

    def test_json_report(self, beilinson_file, tmp_path, capsys):
        status, out, _ = run(
            capsys,
            ["mutate", str(beilinson_file), "--word", "", "-o",
             str(tmp_path / "o.json"), "--format", "json"],
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["exit_status"] == 0


class TestVerify:
    def test_failing_checks_listed_on_stderr(self, capsys, monkeypatch):
        checks = [suites.Check("good", "1", "1", True), suites.Check("bad", "1", "2", False)]
        monkeypatch.setattr(suites, "run_suite", lambda suite, seed: checks)
        status, out, err = run(capsys, ["verify", "braid"])
        assert (status, err) == (1, "failing check: (bad, 1, 2)\n")
        assert out.endswith("1/2 checks passed\n")
        status, _, err = run(capsys, ["verify", "braid", "--format", "json"])
        assert (status, err) == (1, "")

    @pytest.mark.parametrize("suite", ["braid", "regions", "pn"])
    def test_suites_pass(self, suite, capsys):
        status, out, _ = run(capsys, ["verify", suite])
        assert status == 0
        assert "FAIL" not in out

    def test_markov_prints_variant_comparison(self, capsys):
        status, out, _ = run(capsys, ["verify", "markov"])
        assert status == 0
        assert "-720" in out and "eq2 corrected" in out

    def test_json_format(self, capsys):
        status, out, _ = run(capsys, ["verify", "regions", "--format", "json"])
        assert status == 0
        payload = json.loads(out)
        assert payload["exit_status"] == 0
        assert all(c["passed"] for c in payload["checks"])

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, ["verify", "braid", "--seed", "7"])
        _, out2, _ = run(capsys, ["verify", "braid", "--seed", "7"])
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_all_same_serial_and_forked(self, seed, fmt, capsys, monkeypatch):
        argv = ["verify", "all", "--seed", seed, "--format", fmt]
        serial = force_cpus(monkeypatch, 1)
        expected = run(capsys, argv)
        assert (expected[0], serial) == (0, [])
        forked = force_cpus(monkeypatch, 2)
        assert run(capsys, argv) == expected
        assert len(forked) == 1
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_all_is_every_suite_labelled_in_order(self, cpus, all_checks, monkeypatch):
        forked = force_cpus(monkeypatch, cpus)
        assert suites.run_suite("all", 0) == all_checks
        assert len(forked) == cpus - 1
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_all_raises_a_suite_error_as_serial(self, cpus, capsys, monkeypatch):
        def boom(seed):
            raise ValueError("boom")

        force_cpus(monkeypatch, cpus)
        monkeypatch.setitem(suites.SUITES, "mutation", boom)
        with pytest.raises(ValueError, match="^boom$"):
            suites.run_suite("all", 0)
        assert_no_children()
        assert run(capsys, ["verify", "all"]) == (2, "", "error: boom\n")
        assert_no_children()

    def test_all_reruns_the_share_of_a_failed_child(self, all_checks, monkeypatch):
        parent, mutation_suite = os.getpid(), suites.SUITES["mutation"]

        def dies_in_child(seed):
            if os.getpid() != parent:
                os._exit(3)
            return mutation_suite(seed)

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setitem(suites.SUITES, "mutation", dies_in_child)
        assert suites.run_suite("all", 0) == all_checks
        assert len(forked) == 1
        assert_no_children()

    def test_all_runs_an_unforked_share_here(self, all_checks, monkeypatch):
        def no_fork():
            raise BlockingIOError("no processes left")

        force_cpus(monkeypatch, 3)
        monkeypatch.setattr(suites.os, "fork", no_fork)
        assert suites.run_suite("all", 0) == all_checks
        assert_no_children()

    def test_all_does_not_fork_a_threaded_process(self, all_checks, monkeypatch):
        forked = force_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert suites.run_suite("all", 0) == all_checks
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forked == []

    def test_all_kills_children_when_interrupted(self, monkeypatch):
        def interrupted(seed):
            raise KeyboardInterrupt

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setitem(suites.SUITES, "mutation", lambda seed: time.sleep(60))
        monkeypatch.setitem(suites.SUITES, "braid", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            suites.run_suite("all", 0)
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        assert_no_children()

    def test_all_kills_children_when_interrupted_while_waiting(self, monkeypatch):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        forked = force_cpus(monkeypatch, 2)
        for name in ("braid", "markov", "pn"):  # the parent's share, done at once
            monkeypatch.setitem(suites.SUITES, name, lambda seed: [])
        monkeypatch.setitem(suites.SUITES, "mutation", lambda seed: time.sleep(60))
        handler = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1)
            with pytest.raises(KeyboardInterrupt):
                suites.run_suite("all", 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        assert_no_children()

    @pytest.mark.parametrize("name", list(suites.SUITES))
    def test_one_suite_forks_nothing(self, name, monkeypatch):
        forked = force_cpus(monkeypatch, 5)
        assert suites.run_suite(name, 0) == suites.SUITES[name](0)
        assert forked == []


class TestInterrupt:
    def test_interrupt_exits_2(self, capsys, monkeypatch):
        def interrupted(suite, seed):
            raise KeyboardInterrupt

        monkeypatch.setattr(suites, "run_suite", interrupted)
        assert run(capsys, ["verify", "all"]) == (2, "", "error: interrupted\n")

    def test_sigint_ends_in_one_line(self):
        rng = random.Random(0)
        word = BraidWord(256, tuple((rng.randrange(255), rng.choice((1, -1)))
                                    for _ in range(2000)))  # about 25 s to normalize
        # a shell may start background jobs with SIGINT ignored; restore
        # the handler that an interactive start gives
        code = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                "from excol.cli import main; print('ready', flush=True); "
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "braid", "nf", word.to_text(), "--strands", "256"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline() == "ready\n"
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, out, err) == (2, "", "error: interrupted\n")


class TestOrbit:
    def test_depth_zero_single_record(self, capsys):
        status, out, _ = run(
            capsys, ["orbit", "--tuple", "4,6,4,4,6,4", "--depth", "0"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("0\t(4,6,4,4,6,4)")

    def test_records_show_invariants(self, capsys):
        status, out, _ = run(
            capsys, ["orbit", "--tuple", "4,6,4,4,6,4", "--depth", "3"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) > 1
        for line in lines:
            assert "eq1=0" in line and "oracle=1" in line

    def test_collection_orbit(self, beilinson_file, capsys):
        status, out, _ = run(capsys, ["orbit", str(beilinson_file), "--depth", "1"])
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7  # seed plus six single mutations
        assert sum(1 for line in lines if line.startswith("0\t")) == 1

    def test_json_records(self, capsys):
        status, out, _ = run(
            capsys,
            ["orbit", "--tuple", "4,10,20,4,10,4", "--depth", "1",
             "--format", "json"],
        )
        assert status == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert record["eq1"] == 0 and record["oracle"] is True

    def test_cap_flags_partial(self, beilinson_file, capsys):
        status, out, err = run(
            capsys, ["orbit", str(beilinson_file), "--depth", "4", "--cap", "20"]
        )
        assert status == 1
        assert len(out.strip().splitlines()) == 20
        assert "partial" in err

    # 20 records fit in stdout's buffer; 5000 take several chunks of records
    @pytest.mark.parametrize("cap", [20, 5000])
    def test_partial_records_precede_the_cap_line(self, beilinson_file, capsys, cap):
        # a block-buffered stdout, and stderr in the same pipe
        argv = ["orbit", str(beilinson_file), "--depth", "6", "--cap", str(cap)]
        status, out, err = run(capsys, argv)
        assert status == 1 and out.count("\n") == cap
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-m", "excol.cli", *argv], env=dict(env, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, out + err)

    # orbit b3.json --depth 2 has exactly 33 members
    @pytest.mark.parametrize("cap, status", [(33, 0), (32, 1), (34, 0)])
    def test_cap_boundary(self, beilinson_file, capsys, cap, status):
        _, complete, _ = run(capsys, ["orbit", str(beilinson_file), "--depth", "2"])
        assert len(complete.splitlines()) == 33
        code, out, err = run(
            capsys, ["orbit", str(beilinson_file), "--depth", "2", "--cap", str(cap)]
        )
        assert code == status
        assert err == (f"cap of {cap} exceeded; output is partial\n" if status else "")
        assert out.splitlines() == complete.splitlines()[:min(cap, 33)]

    def test_one_t_map_per_record(self, beilinson_file, capsys, monkeypatch):
        calls = []
        t_map = markov.t_map
        monkeypatch.setattr(markov, "t_map", lambda c: calls.append(c) or t_map(c))
        status, out, _ = run(capsys, ["orbit", str(beilinson_file), "--depth", "3"])
        assert status == 0
        assert len(calls) == len(out.splitlines()) == 131

    def test_needs_exactly_one_input(self, beilinson_file, capsys):
        status, _, _ = run(capsys, ["orbit", "--depth", "1"])
        assert status == 2
        status, _, _ = run(
            capsys,
            ["orbit", str(beilinson_file), "--tuple", "0,0,0,0,0,0", "--depth", "1"],
        )
        assert status == 2

    def test_bad_tuple_exits_2(self, capsys):
        status, _, _ = run(capsys, ["orbit", "--tuple", "1,2", "--depth", "1"])
        assert status == 2

    @pytest.mark.parametrize("text", [
        "\u0664,6,4,4,6,4",  # Arabic-Indic four
        "4_0,6,4,4,6,4",
        "1.5,6,4,4,6,4",
        "4,6,4,4,6,",
        "+-4,6,4,4,6,4",
    ])
    def test_tuple_entries_are_ascii_integers(self, capsys, text):
        status, out, err = run(capsys, ["orbit", "--tuple", text, "--depth", "0"])
        assert (status, out) == (2, "")
        assert err == f"error: expected six comma-separated integers, got {text!r}\n"

    def test_tuple_entries_take_a_sign(self, capsys):
        status, out, _ = run(capsys, ["orbit", "--tuple", "+4,-6, 4,4,6,4", "--depth", "0"])
        assert status == 0 and out.startswith("0\t(4,-6,4,4,6,4)")

    def test_eq2_variant_flag(self, capsys):
        status, out, _ = run(
            capsys,
            ["orbit", "--tuple", "4,6,4,4,6,4", "--depth", "0",
             "--eq2-variant", "printed"],
        )
        assert status == 0
        assert "eq2=-720" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_entries_past_digit_limit(self, beilinson_file, tmp_path, capsys, fmt):
        rng = random.Random(0)
        word = BraidWord(4, tuple((rng.randrange(3), rng.choice((1, -1))) for _ in range(70)))
        target = tmp_path / "over.json"
        status, _, _ = run(capsys, ["mutate", str(beilinson_file), "--word", word.to_text(),
                                    "-o", str(target)])
        assert status == 0
        status, out, err = run(
            capsys, ["orbit", str(target), "--depth", "0", "--format", fmt]
        )
        assert status == 0 and err == ""
        expected = load(target).upper_entries()
        assert max(abs(x) for x in expected).bit_length() > 20_000
        (line,) = out.splitlines()
        with _matrix.unlimited_int_digits():
            if fmt == "json":
                printed = tuple(json.loads(line)["tuple"])
            else:
                printed = tuple(int(x) for x in line.split("\t")[1].strip("()").split(","))
        assert printed == expected


class TestStabilizer:
    # N(L) = 6 + 30 + ... + 6 * 5^(L-1) freely reduced words: N(4) = 936,
    # N(5) = 4686; b3 has 8 stabilizer words of length 4 and none of 5
    @pytest.mark.parametrize("max_len, cap, status, words", [
        (5, 4686, 0, 8), (5, 4685, 1, 8), (4, 936, 0, 8), (4, 935, 1, 0),
    ])
    def test_cap_boundary(self, beilinson_file, capsys, max_len, cap, status, words):
        code, out, err = run(
            capsys, ["stabilizer", str(beilinson_file), "--max-len", str(max_len),
                     "--cap", str(cap)]
        )
        assert (code, len(out.splitlines())) == (status, words)
        assert err == (f"cap of {cap} exceeded; output is partial\n" if status else "")

    def test_beilinson_words_trivial(self, beilinson_file, capsys):
        status, out, _ = run(
            capsys, ["stabilizer", str(beilinson_file), "--max-len", "4"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines
        for line in lines:
            assert is_trivial(parse_word(line, 4))

    def test_negative_max_len_exits_2(self, beilinson_file, capsys):
        status, out, err = run(
            capsys, ["stabilizer", str(beilinson_file), "--max-len", "-3"]
        )
        assert status == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_deep_scan_ends_at_cap(self, beilinson_file, capsys):
        # 4686 freely reduced words have length at most 5, 23436 at most 6
        status, out, err = run(
            capsys, ["stabilizer", str(beilinson_file), "--max-len", "2000", "--cap", "5000"]
        )
        assert status == 1
        assert err == "cap of 5000 exceeded; output is partial\n"
        status, complete, _ = run(capsys, ["stabilizer", str(beilinson_file), "--max-len", "5"])
        assert status == 0
        assert out == complete and len(out.splitlines()) == 8

    def test_takes_no_format_option(self, beilinson_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stabilizer", str(beilinson_file), "--max-len", "2", "--format", "json"])
        assert exc.value.code == 2


IDENTITY_FILE = '{"n":3,"gram":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"classes":"identity"}\n'


ORBIT_DIGESTS = [
    (["orbit", "B3", "--depth", "6"],
     "d49d495678331df89d2178dab0d839541f84be38b1a30ccb65cb9735b6044140"),
    (["orbit", "B3", "--depth", "6", "--format", "json"],
     "77b5ce32d42dc89353e5d7ae88b3dbfd4599fd4064634b453d34c8df876b007c"),
    (["orbit", "--tuple", "4,6,4,4,6,4", "--depth", "14"],
     "5db7bc7b1cfd4fd50820c8107588a56be6ee8095bba9640fd0c3da4207a52a3b"),
    (["orbit", "--tuple", "1,0,0,0,0,0", "--depth", "8"],
     "9f9aa11312135bfc852a75ca53ed3e36ab6aa197a10af4bdee536acb31e380b1"),
]


class TestPinnedExploreOutputs:
    """sha256 of the stdout of the orbit and stabilizer commands, taken
    from the inverse-then-product oracle and the collection-per-node scan
    that the back-substitution oracle and the rank-2 scan replaced."""

    @staticmethod
    def files(beilinson_file, tmp_path):
        identity_file = tmp_path / "id4.json"
        identity_file.write_text(IDENTITY_FILE)
        return {"B3": str(beilinson_file), "ID4": str(identity_file)}

    @pytest.mark.parametrize("argv,digest", ORBIT_DIGESTS + [
        (["stabilizer", "B3", "--max-len", "6"],
         "5c5908a1a77c697562269f35335e76a46ea0489794f501daadac97ccb39bfd91"),
        (["stabilizer", "ID4", "--max-len", "6"],
         "56bee5bfab0dd67b3584cc615df0aa467d0fe709e0b0cd404a27a2f5914a9d82"),
    ])
    def test_stdout_digest(self, beilinson_file, tmp_path, capsys, argv, digest):
        files = self.files(beilinson_file, tmp_path)
        status, out, _ = run(capsys, [files.get(a, a) for a in argv])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("argv,digest", ORBIT_DIGESTS)
    def test_orbit_digest_on_any_number_of_cpus(self, beilinson_file, tmp_path, capsys,
                                                monkeypatch, argv, digest, cpus):
        forked = force_cpus(monkeypatch, cpus)
        files = self.files(beilinson_file, tmp_path)
        status, out, _ = run(capsys, [files.get(a, a) for a in argv])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # one share per CPU, each of at least _BLOCK distinct tuples
        shares = max(1, min(cpus, len(set(record_tuples(out))) // collection._BLOCK))
        assert len(forked) == shares - 1
        assert_no_children()

    def test_non_unipotent_records(self, capsys):
        _, out, _ = run(capsys, ["orbit", "--tuple", "1,0,0,0,0,0", "--depth", "8"])
        assert out.count("oracle=0") == 12


def record_tuples(out):
    """The tuple of each orbit record in ``out``, text or json."""
    return [
        tuple(json.loads(line)["tuple"]) if line.startswith("{")
        else tuple(map(int, line.split("\t")[1].strip("()").split(",")))
        for line in out.splitlines()
    ]


class TestOrbitShares:
    # the orbit of (4,6,4,4,6,4) has 468 members at depth 9 and 827 at depth 10
    @pytest.mark.parametrize("depth, forks", [(9, 0), (10, 2)])
    def test_chunks_of_at_least_one_block(self, capsys, monkeypatch, depth, forks):
        assert 468 < 2 * collection._BLOCK <= 827
        argv = ["orbit", "--tuple", "4,6,4,4,6,4", "--depth", str(depth)]
        expected = run(capsys, argv)
        forked = force_cpus(monkeypatch, 5)
        assert run(capsys, argv) == expected
        assert len(forked) == forks

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_partial_output_past_cap(self, beilinson_file, capsys, monkeypatch, fmt):
        argv = ["orbit", str(beilinson_file), "--depth", "6", "--cap", "2000", "--format", fmt]
        force_cpus(monkeypatch, 1)
        expected = run(capsys, argv)
        assert expected[0] == 1 and expected[2] == "cap of 2000 exceeded; output is partial\n"
        assert expected[1].count("\n") == 2000
        forked = force_cpus(monkeypatch, 2)
        assert run(capsys, argv) == expected
        assert len(forked) == 1
        assert_no_children()

    def test_oracle_sees_each_distinct_tuple_once(self, beilinson_file, capsys, monkeypatch):
        # orbit b3 --depth 6 has 5121 members but only 3597 distinct tuples
        argv = ["orbit", str(beilinson_file), "--depth", "6"]
        expected = run(capsys, argv)
        seen, oracles = [], markov.unipotency_oracles

        def counting_oracles(ts):
            seen.extend(ts)
            return oracles(ts)

        def refused_fork():
            raise OSError("fork refused")

        force_cpus(monkeypatch, 2)
        monkeypatch.setattr(suites.os, "fork", refused_fork)  # every share runs here
        monkeypatch.setattr(markov, "unipotency_oracles", counting_oracles)
        assert run(capsys, argv) == expected
        assert len(seen) == len(set(seen)) == len(set(record_tuples(expected[1]))) == 3597

    def test_reruns_the_chunk_of_a_failed_child(self, beilinson_file, capsys, monkeypatch):
        argv = ["orbit", str(beilinson_file), "--depth", "6"]
        force_cpus(monkeypatch, 1)
        expected = run(capsys, argv)
        parent, oracles = os.getpid(), markov.unipotency_oracles

        def dies_in_child(ts):
            if os.getpid() != parent:
                os._exit(3)
            return oracles(ts)

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setattr(markov, "unipotency_oracles", dies_in_child)
        assert run(capsys, argv) == expected
        assert len(forked) == 1
        assert_no_children()

    def test_sigint_while_waiting_on_a_child(self):
        # the child reports its pid, then sleeps; the parent's chunk is done
        # well within the second before the interrupt
        code = (
            "import os, signal, sys, time\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from excol import markov, suites\n"
            "from excol.cli import main\n"
            "parent, oracles = os.getpid(), markov.unipotency_oracles\n"
            "def oracles_or_sleep(ts):\n"
            "    if os.getpid() != parent:\n"
            "        os.write(1, b'%d\\n' % os.getpid())\n"
            "        time.sleep(60)\n"
            "    return oracles(ts)\n"
            "markov.unipotency_oracles = oracles_or_sleep\n"
            "suites.usable_cpus = lambda: 2\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "orbit", "--tuple", "4,6,4,4,6,4", "--depth", "10"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            child = int(proc.stdout.readline())
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert (proc.returncode, out, err) == (2, "", "error: interrupted\n")
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
class TestRunShares:
    def test_share_k_runs_on_cpu_k_round_robin(self, monkeypatch):
        cpus = sorted(os.sched_getaffinity(0))
        forked = force_cpus(monkeypatch, 3)
        pinned = suites.run_shares(
            lambda share: [sorted(os.sched_getaffinity(0))] * len(share), range(6))
        # item k is dealt to share k % 3
        assert pinned == [[cpus[k % 3 % len(cpus)]] for k in range(6)]
        assert len(forked) == 2
        assert os.sched_getaffinity(0) == set(cpus)
        assert_no_children()

    def test_mask_restored_when_the_parent_share_raises(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        parent = os.getpid()

        def work(share):
            if os.getpid() == parent:
                raise ValueError("boom")
            return share

        forked = force_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="^boom$"):
            suites.run_shares(work, [0, 1])
        assert len(forked) == 1
        assert os.sched_getaffinity(0) == mask
        assert_no_children()

    def test_a_refused_pin_still_runs_the_share(self, monkeypatch):
        def refuse(pid, cpus):
            raise PermissionError("pinning refused")

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setattr(suites.os, "sched_setaffinity", refuse)
        values = suites.run_shares(lambda share: [[k, None] for k in share], [0, 1])
        assert values == [[0, None], [1, None]]
        assert len(forked) == 1
        assert_no_children()


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("min_share", [1, 2, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_run_shares_deals_items_round_robin(monkeypatch, cpus, min_share, n):
    forked = force_cpus(monkeypatch, cpus)
    parent = os.getpid()
    values = suites.run_shares(
        lambda share: [(k, os.getpid()) for k in share], range(n), min_share)
    shares = max(1, min(cpus, n // min_share))
    assert len(forked) == shares - 1
    assert [k for k, _ in values] == list(range(n))
    # item k is computed by share k % shares: the first here, the rest in the forked children
    assert [pid for _, pid in values] == [([parent] + forked)[k % shares] for k in range(n)]
    assert_no_children()


class TestPinnedVerifyOutputs:
    """sha256 of the stdout of ``verify all``, taken at commit 0f95f2c,
    where the markov suite checked every drawn tuple and every letter's
    equivariance separately and the mutation suite ran the oracle on
    every member of the depth-5 orbit."""

    @pytest.mark.parametrize("argv,digest", [
        (["verify", "all", "--seed", "0"],
         "2435a9306c3c9e0c50e95d09285bd182664d0bd81d5d3ee826d5cf2a4b5982a7"),
        (["verify", "all", "--seed", "1"],
         "e3fb8196ddbff3912b9025a1a9f508edf51d8c181223bb8e51622c8686d88deb"),
        (["verify", "all", "--seed", "0", "--format", "json"],
         "dbf1b61a7402fd9535e07f5e12d22c6b56cf226f9e725aabb1bee0c27b1caf51"),
        (["verify", "all", "--seed", "1", "--format", "json"],
         "e3fa13e3a8b7eab9180fe036e8e069954a08d9e3b668e3919d98f8dbddac79a2"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        status, out, err = run(capsys, argv)
        assert (status, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRegion:
    def test_lemma41_prints_witness(self, capsys):
        status, out, _ = run(capsys, ["region", "lemma41", "--kidx", "0"])
        assert status == 0
        assert "feasible, witness:" in out

    def test_thm51_three_systems(self, capsys):
        status, out, _ = run(capsys, ["region", "thm51"])
        assert status == 0
        assert out.count("feasible, witness:") == 3

    def test_strong_json(self, capsys):
        status, out, _ = run(
            capsys, ["region", "strong", "--n", "3", "--format", "json"]
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert len(payload["constraints"]) == 6

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_infeasible_system_prints_certificate(self, capsys, monkeypatch, fmt):
        # every system the CLI builds is feasible, so swap in one that is not
        system = InequalitySystem(2, [([1, -1], 0), ([-1, 1], 0)])
        monkeypatch.setattr(regions, "region_system", lambda d: system)
        status, out, _ = run(capsys, ["region", "strong", "--format", fmt])
        certificate = [str(x) for x in regions.is_feasible(system).certificate]
        assert status == 0 and certificate
        if fmt == "json":
            assert json.loads(out) == {"dimension": 2, "constraints": system.rows_text(),
                                       "feasible": False, "certificate": certificate}
        else:
            assert out == "\n".join(system.rows_text() + ["infeasible, certificate: "
                                                           + ",".join(certificate)]) + "\n"

    def test_strong_one_object(self, capsys):
        status, out, _ = run(capsys, ["region", "strong", "--n", "0"])
        assert (status, out) == (0, "feasible, witness: 0\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_strong_negative_n_exits_2(self, capsys, fmt):
        status, out, err = run(capsys, ["region", "strong", "--n", "-1", "--format", fmt])
        assert (status, out, err) == (2, "", "error: degree matrix needs at least one object\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_strong_above_bound_exits_2(self, capsys, fmt):
        status, out, err = run(capsys, ["region", "strong", "--n", "129", "--format", fmt])
        assert (status, out, err) == (2, "", "error: --n must be at most 128\n")

    def test_strong_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_REGION_N", 3)
        status, out, _ = run(capsys, ["region", "strong", "--n", "3"])
        assert status == 0 and out.count("\n") == 7
        assert run(capsys, ["region", "strong", "--n", "4"])[0] == 2

    @pytest.mark.parametrize("argv", [
        ["thm51", "--n", "64"], ["thm51", "--kidx", "1"],
        ["lemma41", "--n", "64"], ["strong", "--kidx", "1"],
        ["--n", "3", "strong"],
    ])
    def test_foreign_option_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["region"] + argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.startswith("usage: ") and "error: " in captured.err

    @pytest.mark.parametrize("which,options", [
        ("lemma41", {"--kidx", "--format"}),
        ("thm51", {"--format"}),
        ("strong", {"--n", "--format"}),
    ])
    def test_help_names_only_the_options_read(self, capsys, which, options):
        with pytest.raises(SystemExit) as exc:
            main(["region", which, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        for flag in ("--kidx", "--n", "--format"):
            assert (f"[{flag}" in out) == (flag in options), flag


class TestPinnedRegionOutputs:
    """sha256 of the stdout of the region commands, taken from the dense
    Fourier-Motzkin elimination and the pairwise chain minima that the
    sparse rows and the one-pass minima replaced; the digests of n=128,
    the CLI's upper bound, and of thm51 in json were taken while each
    system still stored its rows densely as well."""

    @pytest.mark.parametrize("argv,digest", [
        (["region", "strong", "--n", "32"],
         "a021a56661072c7280c5b8c22c9282938c54ac4ea2b5c525030e06684fbcb405"),
        (["region", "strong", "--n", "32", "--format", "json"],
         "2539808eb3a55aa6770fa7da9167ab01f8ce482d5bd8730f47a042946158d6c4"),
        (["region", "thm51"],
         "f0f7ca6bdd1a866565e179444cef8d6859de51fdb2b38a0cc448a9a5e5b9eb3a"),
        (["region", "lemma41", "--kidx", "0"],
         "cefa58fca419200d296ed7b096e1c527db89df91fd0ee527e10d486c6bbc91eb"),
        (["region", "lemma41", "--kidx", "1"],
         "2380093a7e7ca648758cd2a7e45a2fd02bfdf76964c9961f7eafcdaf96178e45"),
        (["region", "lemma41", "--kidx", "2"],
         "0717ec35515ad5b107f8059497bfd1a635c629bb295d04bc483072af35e49284"),
        (["region", "strong", "--n", "128"],
         "cb65d28d4c9f9398127aac65947e8bf605aef6e2e7c582eb523f5b275888dfaf"),
        (["region", "strong", "--n", "128", "--format", "json"],
         "360108c99687dace0647d20626d9cd2be4d37117a31985d91180a5c4587f0e9a"),
        (["region", "thm51", "--format", "json"],
         "769c686da51b121dfa8039e575aef79402ce23cb1dcc769fa87f0114f4b66278"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        status, out, err = run(capsys, argv)
        assert (status, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBraidNf:
    def test_delta(self, capsys):
        status, out, _ = run(capsys, ["braid", "nf", "L0 L1 L2 L0 L1 L0"])
        assert status == 0
        assert out.splitlines()[0] == "D^1"

    def test_trivial_flag(self, capsys):
        status, out, _ = run(capsys, ["braid", "nf", "L0 R0", "--format", "json"])
        assert status == 0
        assert json.loads(out)["trivial"] is True

    def test_parse_error(self, capsys):
        status, _, err = run(capsys, ["braid", "nf", "Q3"])
        assert status == 2
        assert "error" in err

    def test_strands_above_bound_exits_2(self, capsys):
        status, out, err = run(capsys, ["braid", "nf", "L0", "--strands", "257"])
        assert (status, out, err) == (2, "", "error: --strands must be at most 256\n")

    def test_strands_at_bound(self, capsys):
        status, out, _ = run(capsys, ["braid", "nf", "L0 R0", "--strands", "256"])
        assert status == 0 and out.endswith("trivial: True\n")

    @pytest.mark.parametrize("word, token", [
        ("L\u0660 L\u0661", "L\u0660"),  # Arabic-Indic zero and one
        ("L\u00b2", "L\u00b2"),  # superscript two
    ])
    def test_non_ascii_digits_are_malformed(self, capsys, word, token):
        status, out, err = run(capsys, ["braid", "nf", word])
        assert (status, out, err) == (2, "", f"error: malformed token {token!r}\n")

    def test_syntax_error_comes_before_index_error(self, capsys):
        status, out, err = run(capsys, ["braid", "nf", "L9 X"])
        assert (status, out, err) == (2, "", "error: malformed token 'X'\n")

    def test_index_out_of_range(self, capsys):
        status, out, err = run(capsys, ["braid", "nf", "L9"])
        assert (status, out, err) == (2, "", "error: generator index 9 out of range for 4 strands\n")

    def test_index_past_digit_limit(self, capsys):
        ones = "1" * 5000
        status, out, err = run(capsys, ["braid", "nf", "L" + ones])
        assert (status, out) == (2, "")
        assert err == f"error: generator index {ones} out of range for 4 strands\n"
        status, out, _ = run(capsys, ["braid", "nf", "L" + "0" * 5000 + "1"])
        assert (status, out) == (0, "D^0 . (1 3 2 4)\ntrivial: False\n")

    @pytest.mark.parametrize("word, strands, form", [
        # B2 is infinite cyclic: the form is D^(exponent sum)
        ("L0 L0 L0", "2", "D^3"),
        ("R0 L0 R0", "2", "D^-1"),
        ("L0 R0", "2", "D^0"),
        ("", "1", "D^0"),
    ])
    def test_two_strands_and_one(self, capsys, word, strands, form):
        status, out, _ = run(capsys, ["braid", "nf", word, "--strands", strands])
        assert (status, out) == (0, f"{form}\ntrivial: {form == 'D^0'}\n")

    @pytest.mark.parametrize("word", ["", "L0", "L3 R0"])
    def test_zero_strands_names_the_strand_count(self, capsys, word):
        status, out, err = run(capsys, ["braid", "nf", word, "--strands", "0"])
        assert (status, out, err) == (2, "", "error: strand count must be positive, got 0\n")


class TestPinnedBraidOutputs:
    """sha256 of the stdout of ``braid nf`` on seeded random words, taken
    from the normal form whose output checked each factor and pair again."""

    @pytest.mark.parametrize("strands, length, fmt, digest", [
        (4, 2000, "text", "9f1e3bc0aae0b93050d9e00df3df07010849a1ce9a505cec0af022cc5d462680"),
        (4, 2000, "json", "507fc1fd433ac399f98c4f381621d6025b39771da5755badf3d8cc552b02c9af"),
        (10, 300, "text", "5fb17b11a2a286a0ed75c7cd9ef806d5707abb19505ef3827f9f2d7a7b6ead1f"),
        (10, 300, "json", "91afd6cad3827b18a88e7467878e6f0577d1ca8937332fbde6d70a44fd9f09e4"),
        (64, 40, "text", "9910f5049bb316e90a1609d4cf3b5e2bdb5d58c79a12ab08f4dbe20caf8f2ae9"),
        (64, 40, "json", "960554699edfe8a1cf62791b103aa5a4841a1355300a9f376bc7fb2e8f2af55c"),
    ])
    def test_stdout_digest(self, capsys, strands, length, fmt, digest):
        rng = random.Random(strands)
        word = " ".join(("L" if rng.choice((1, -1)) == 1 else "R") + str(rng.randrange(strands - 1))
                        for _ in range(length))
        status, out, _ = run(capsys, ["braid", "nf", word, "--strands", str(strands),
                                      "--format", fmt])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
