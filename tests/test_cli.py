"""Tests for the ``spanner-join`` command-line interface."""

import pytest

from repro.cli import main


def test_extract_strings(capsys):
    code = main(
        [
            "extract",
            "(ε|.* )m{u{[a-z]+}@d{[a-z]+\\.[a-z]+}}( .*|ε)",
            "--text",
            "mail ada@example.com now",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ada@example.com" in out
    assert "u='ada'" in out


def test_extract_spans_format(capsys):
    code = main(["extract", "x{a+}", "--text", "aa", "--format", "spans"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 3>" in out


def test_extract_tsv_and_limit(capsys):
    code = main(
        [
            "extract",
            ".*x{a}.*",
            "--text",
            "aaa",
            "--format",
            "tsv",
            "--limit",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_extract_count_flag(capsys):
    code = main(["extract", "x{a}", "--text", "a", "--count"])
    captured = capsys.readouterr()
    assert code == 0
    assert "# 1 tuples" in captured.err


def test_extract_from_file(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text("say hi")
    code = main(["extract", ".*x{hi}.*", "--file", str(path)])
    assert code == 0
    assert "hi" in capsys.readouterr().out


def test_extract_many_files_shares_one_compilation(tmp_path, capsys):
    """Repeated --file streams every document through one spanner."""
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    first.write_text("say hi")
    second.write_text("hi hi")
    code = main(
        [
            "extract",
            ".*x{hi}.*",
            "--file",
            str(first),
            "--file",
            str(second),
            "--count",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    # Rows are prefixed with their document when several are given.
    assert len(lines) == 3
    assert sum(1 for line in lines if line.startswith(str(first))) == 1
    assert sum(1 for line in lines if line.startswith(str(second))) == 2
    assert "# 3 tuples" in captured.err


def test_query_over_many_files(tmp_path, capsys):
    first = tmp_path / "a.log"
    second = tmp_path / "b.log"
    first.write_text("code=1")
    second.write_text("nothing")
    code = main(
        [
            "query",
            "--atom",
            ".*x{[0-9]+}.*",
            "--file",
            str(first),
            "--file",
            str(second),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert f"{first}: true" in captured.out
    assert f"{second}: false" in captured.out


def test_query_boolean(capsys):
    code = main(["query", "--atom", ".*x{ab}.*", "--text", "zabz"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_query_boolean_false(capsys):
    code = main(["query", "--atom", ".*x{ab}.*", "--text", "zzz"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "false"


def test_query_with_head_and_explain(capsys):
    code = main(
        [
            "query",
            "--atom",
            ".*x{a+}.*",
            "--atom",
            ".*y{b+}.*",
            "--head",
            "x",
            "y",
            "--text",
            "ab",
            "--explain",
            "--format",
            "spans",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "strategy:" in captured.err
    assert "x=[1, 2>" in captured.out


def test_query_with_equality(capsys):
    code = main(
        [
            "query",
            "--atom",
            ".*x{a+}.*",
            "--atom",
            ".*y{a+}.*",
            "--head",
            "x",
            "y",
            "--equal",
            "x,y",
            "--text",
            "aba",
            "--strategy",
            "canonical",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_info_functional(capsys):
    code = main(["info", "a*x{a*}a*"])
    out = capsys.readouterr().out
    assert code == 0
    assert "functional: True" in out
    assert "states" in out


def test_info_non_functional(capsys):
    code = main(["info", "x{a}x{a}"])
    out = capsys.readouterr().out
    assert code == 1
    assert "functional: False" in out
    assert "reason:" in out


def test_parse_error_reported(capsys):
    code = main(["extract", "(a", "--text", "a"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


class TestWorkerSharding:
    """--workers output must be byte-identical to the serial run."""

    @staticmethod
    def _write_corpus(tmp_path, texts):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"doc{i}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        return [arg for p in paths for arg in ("--file", p)]

    def test_extract_file_dispatch_matches_serial(self, tmp_path, capsys):
        files = self._write_corpus(
            tmp_path, [f"ab code={i}{i} ba" for i in range(5)]
        )
        assert main(["extract", ".*x{[0-9]+}.*"] + files) == 0
        serial = capsys.readouterr().out
        assert main(["extract", ".*x{[0-9]+}.*", "--workers", "2"] + files) == 0
        assert capsys.readouterr().out == serial

    def test_extract_text_precedence_survives_workers(self, tmp_path, capsys):
        # --text wins over --file in the serial path; the worker branch
        # must not silently switch the corpus to the files.
        files = self._write_corpus(tmp_path, ["111", "222"])
        args = ["extract", ".*x{[0-9]+}.*", "--text", "999"] + files
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "999" in parallel and "111" not in parallel

    def test_query_equality_workers_match_serial_with_limit(
        self, tmp_path, capsys
    ):
        # The serial path sorts the full relation before --limit, so the
        # sharded path must not cap enumeration inside the workers.
        files = self._write_corpus(
            tmp_path, ["ababab", "aabbaa", "babab", "abba"]
        )
        args = [
            "query",
            "--atom", ".*x{[ab]+}.*",
            "--atom", ".*y{[ab]+}.*",
            "--equal", "x,y",
            "--head", "x", "y",
            "--strategy", "compiled",
            "--limit", "3",
        ] + files
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_query_boolean_workers_match_serial(self, tmp_path, capsys):
        files = self._write_corpus(tmp_path, ["abab", "ba", "aa"])
        args = [
            "query",
            "--atom", ".*x{ab}.*",
            "--atom", ".*y{ab}.*",
            "--equal", "x,y",
        ] + files
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_extract_multiple_formulas_fleet_matches_serial(
        self, tmp_path, capsys
    ):
        # Several formulas are served over ONE SpannerService fleet;
        # output is grouped per formula (q0, q1, ...) and must be
        # byte-identical to the serial loop.
        files = self._write_corpus(
            tmp_path, ["ab code=11 ba Hello", "x code=7 There", "plain"]
        )
        args = ["extract", ".*x{[0-9]+}.*", ".*w{[A-Z][a-z]+}"] + files
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert "q0" in serial and "q1" in serial
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_extract_multiple_formulas_missing_file_fails_early(
        self, tmp_path, capsys
    ):
        files = self._write_corpus(tmp_path, ["code=1"])
        code = main(
            ["extract", ".*x{[0-9]+}.*", ".*y{[a-z]+}.*",
             "--workers", "2", "--file", str(tmp_path / "absent.txt")]
            + files
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "flag",
        [
            "--task-timeout",
            "--max-tuples",
            "--shm-budget",
            "--worker-memory-limit",
            "--max-compile-states",
            "--compile-timeout",
        ],
    )
    def test_bad_fleet_setting_exits_2(self, tmp_path, capsys, flag):
        files = self._write_corpus(tmp_path, ["code=1", "code=2"])
        code = main(
            ["extract", ".*x{[0-9]+}.*", "--workers", "2", flag, "0"] + files
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_query_workers_reject_canonical_strategy(self, tmp_path, capsys):
        files = self._write_corpus(tmp_path, ["ab", "ba"])
        code = main(
            ["query", "--atom", ".*x{a}.*", "--strategy", "canonical",
             "--workers", "2"] + files
        )
        assert code == 2
        assert "canonical" in capsys.readouterr().err

    def test_query_transport_modes_match_serial(self, tmp_path, capsys):
        from repro.runtime import shm_available

        files = self._write_corpus(
            tmp_path, [f"ab code={i}{i} ba" for i in range(4)]
        )
        args = ["query", "--atom", ".*x{[0-9]+}.*", "--head", "x"] + files
        assert main(args) == 0
        serial = capsys.readouterr().out
        modes = ["pipe", "auto"] + (["shm"] if shm_available() else [])
        for mode in modes:
            assert main(args + ["--workers", "2", "--transport", mode]) == 0
            assert capsys.readouterr().out == serial, mode


class TestEncodingFlags:
    """--encoding/--errors reach the serial and worker read paths."""

    def test_latin1_file_serial_and_workers(self, tmp_path, capsys):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        first.write_bytes(b"ab caf\xe9 code=7 zz")
        second.write_bytes(b"no match here\xe9")
        args = [
            "extract", ".*x{[0-9]+}.*",
            "--file", str(first), "--file", str(second),
            "--encoding", "latin-1",
        ]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert "7" in serial
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_stray_byte_is_a_clean_error_not_a_crash(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"code=1 caf\xe9")
        # Serial: the decode error surfaces through the CLI's single
        # error convention (exit 2, "error: ..."), not a traceback.
        assert main(["extract", ".*x{[0-9]+}.*", "--file", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--encoding" in err
        # Worker path: same contract.
        other = tmp_path / "ok.txt"
        other.write_text("code=2", encoding="utf-8")
        code = main(
            ["extract", ".*x{[0-9]+}.*", "--workers", "2",
             "--file", str(bad), "--file", str(other)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_errors_replace_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"code=3 \xff")
        assert main(
            ["extract", ".*x{[0-9]+}.*", "--file", str(bad),
             "--errors", "replace"]
        ) == 0
        assert "3" in capsys.readouterr().out


class TestOneFleetRoute:
    """Every ``--workers N > 1`` run goes through one fleet route.

    Whatever the command, input kind and number of formulas, CQs or
    documents: stdout is the ``--workers 1`` run's, and the fleet's
    result cap and admission control both apply.
    """

    DOCS = ["xaab", "baxa"]
    QUERIES = {
        "extract": [
            [".*x{a+}.*"],
            [".*x{a+}.*", ".*y{[ab]+}.*"],
        ],
        "query": [
            ["--atom", ".*x{a+}.*", "--head", "x"],
            ["--atom", ".*x{a+}.*", "--head", "x", "--next-query",
             "--atom", ".*x{a+}.*", "--atom", ".*y{a+}.*",
             "--equal", "x,y", "--head", "x", "y"],
        ],
    }

    @pytest.fixture
    def run(self, tmp_path, capsys, monkeypatch):
        paths = []
        for i, text in enumerate(self.DOCS):
            path = tmp_path / f"d{i}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        inputs = {
            "text": ["--text", self.DOCS[0]],
            "stdin": [],
            "one-file": ["--file", paths[0]],
            "two-files": ["--file", paths[0], "--file", paths[1]],
        }

        def run(command, n_queries, source, *extra):
            import io

            monkeypatch.setattr("sys.stdin", io.StringIO(self.DOCS[1]))
            head = [command] + self.QUERIES[command][n_queries - 1]
            code = main(head + inputs[source] + list(extra))
            out, err = capsys.readouterr()
            return code, out, err

        return run

    @pytest.mark.parametrize("source", ["text", "stdin", "one-file", "two-files"])
    @pytest.mark.parametrize("n_queries", [1, 2])
    @pytest.mark.parametrize("command", ["extract", "query"])
    def test_every_shape_is_one_fleet(self, run, command, n_queries, source):
        code, serial, _err = run(command, n_queries, source)
        assert code == 0 and serial
        fleet = ["--workers", "2", "--backend", "serial"]
        code, out, _err = run(command, n_queries, source, *fleet)
        assert (code, out) == (0, serial)
        code, _out, err = run(
            command, n_queries, source, *fleet, "--max-tuples", "1"
        )
        assert code == 2 and err.startswith("error:"), err
        code, _out, err = run(
            command, n_queries, source, *fleet, "--max-compile-states", "1"
        )
        assert code == 2 and "query rejected" in err, err

    def test_process_fleet_matches_serial(self, run):
        code, serial, _err = run("query", 2, "two-files")
        assert code == 0
        code, out, _err = run(
            "query", 2, "two-files", "--workers", "2", "--backend", "process"
        )
        assert (code, out) == (0, serial)

    @pytest.mark.parametrize("command", ["extract", "query"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_an_error(self, run, command, workers):
        code, out, err = run(command, 1, "text", "--workers", workers)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--workers" in err
        assert "Traceback" not in err

    def test_explain_has_one_fleet_line_per_query(self, run):
        code, _out, err = run(
            "query", 2, "two-files", "--workers", "2", "--backend", "serial",
            "--explain",
        )
        assert code == 0
        assert err.splitlines() == [
            "# strategy: compiled — q0 served on a 2-worker fleet",
            "# strategy: compiled — q1 served on a 2-worker fleet "
            "(fused equality runtime)",
        ]

    def test_one_query_streams_window_by_window(
        self, tmp_path, capsys, monkeypatch
    ):
        # Windows of `workers` chunks, at most two in flight: a window
        # is submitted only after the one two back has printed its rows.
        from repro.runtime.config import DEFAULT_CHUNK_SIZE
        from repro.runtime.service import SpannerService

        window = 2 * DEFAULT_CHUNK_SIZE
        n_docs = 3 * window + 6
        files = []
        for i in range(n_docs):
            path = tmp_path / f"doc{i:03d}.txt"
            path.write_text("a", encoding="utf-8")
            files += ["--file", str(path)]
        submit_all = SpannerService.submit_all

        def marked(service, work, **kwargs):
            print(f"# window of {len(work)}")
            return submit_all(service, work, **kwargs)

        monkeypatch.setattr(SpannerService, "submit_all", marked)
        code = main(
            ["extract", ".*x{a}.*", "--workers", "2", "--backend", "serial"]
            + files
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        marks = [n for n, line in enumerate(lines) if line.startswith("#")]
        assert [lines[n] for n in marks] == [f"# window of {window}"] * 3 + [
            "# window of 6"
        ]
        for k, n in enumerate(marks):
            printed = n - k  # rows before the k-th submission
            assert printed == max(0, k - 1) * window
        assert len(lines) - len(marks) == n_docs
