import csv
import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from tvblock import dnswire, reports
from tvblock.cli import main

from conftest import CORPUS_DIR, CORPUS_CONFIG, PSL_PATH


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def roku_bundle(tmp_path, capsys):
    out = tmp_path / "roku"
    code, _, _ = run(
        capsys,
        "ingest",
        "--flows",
        os.path.join(CORPUS_DIR, "roku_flows.jsonl"),
        "--http",
        os.path.join(CORPUS_DIR, "roku_http.jsonl"),
        "--label",
        "Roku",
        "--platform",
        "roku",
        "--out",
        str(out),
    )
    assert code == 0
    return out


class TestIngest:
    def test_valid_logs_write_bundle_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code, stdout, _ = run(
            capsys,
            "ingest",
            "--flows",
            os.path.join(CORPUS_DIR, "roku_flows.jsonl"),
            "--http",
            os.path.join(CORPUS_DIR, "roku_http.jsonl"),
            "--label",
            "Roku",
            "--platform",
            "roku",
            "--out",
            str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["app_count"] == 12
        for name in ["flows.jsonl", "http.jsonl", "summary.json", "meta.json"]:
            assert (out / name).exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "ingest",
            "--flows",
            str(tmp_path / "nope.jsonl"),
            "--out",
            str(tmp_path / "b"),
        )
        assert code == 2
        assert "nope.jsonl" in err

    def test_malformed_lines_warn_and_exit_1(self, tmp_path, capsys):
        log = tmp_path / "flows.jsonl"
        good = '{"device_id":"d","platform":"Roku","app_id":"a","fqdn":"x.com","start_time":0}'
        log.write_text(good + "\nnot json\n{}\n{\"device_id\":\"d\"}\n")
        code, _, err = run(
            capsys, "ingest", "--flows", str(log), "--out", str(tmp_path / "b")
        )
        assert code == 1
        assert err.count("warning:") == 3
        assert (tmp_path / "b" / "flows.jsonl").exists()

    def test_non_boolean_was_encrypted_is_a_malformed_line(self, tmp_path, capsys):
        flows = tmp_path / "flows.jsonl"
        flows.write_text('{"device_id":"d","platform":"Roku","fqdn":"x.com","start_time":0}\n')
        tx = {"app_id": "a", "platform": "Roku", "fqdn": "x.com", "method": "GET", "uri": "/",
              "timestamp": 0}
        http = tmp_path / "http.jsonl"
        http.write_text("".join(
            json.dumps({**tx, **extra}) + "\n"
            for extra in ({}, {"was_encrypted": "false"}, {"was_encrypted": True})
        ))
        out = tmp_path / "b"
        code, _, err = run(
            capsys, "ingest", "--flows", str(flows), "--http", str(http), "--out", str(out)
        )
        assert code == 1
        assert err == "warning: http line 2: field 'was_encrypted' must be a boolean\n"
        kept = [json.loads(line) for line in (out / "http.jsonl").read_text().splitlines()]
        assert [t["was_encrypted"] for t in kept] == [False, True]

    FLOW = {"device_id": "d", "platform": "Roku", "fqdn": "x.com", "start_time": 0}
    TX = {"app_id": "a", "platform": "Roku", "fqdn": "x.com", "method": "GET", "uri": "/",
          "timestamp": 0}
    HEADERS_REASON = "field 'headers' must hold a string name and value in each pair"

    @pytest.mark.parametrize("log, extra, reason", [
        pytest.param("flows", {"app_id": 7}, "field 'app_id' must be a string or null",
                     id="flow-app_id"),
        pytest.param("flows", {"developer": False}, "field 'developer' must be a string or null",
                     id="flow-developer"),
        pytest.param("flows", {"remote_ip": [1]}, "field 'remote_ip' must be a string or null",
                     id="flow-remote_ip"),
        pytest.param("http", {"developer": False}, "field 'developer' must be a string or null",
                     id="http-developer"),
        pytest.param("http", {"body": {"k": 1}}, "field 'body' must be a string or null",
                     id="http-body"),
        pytest.param("http", {"headers": [["X-Id", None]]}, HEADERS_REASON,
                     id="http-header-value"),
        pytest.param("http", {"headers": [[1, "v"]]}, HEADERS_REASON, id="http-header-name"),
    ])
    def test_non_string_optional_field_is_a_malformed_line(
        self, tmp_path, capsys, log, extra, reason
    ):
        """A present value that is not a string or null is not turned into text."""
        base = self.FLOW if log == "flows" else self.TX
        lines = {"flows": [self.FLOW], "http": [self.TX]}
        lines[log] = [base, {**base, **extra}, {**base, "developer": None}]
        for name, objs in lines.items():
            (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(o) + "\n" for o in objs))
        out = tmp_path / "b"
        code, _, err = run(
            capsys, "ingest", "--flows", str(tmp_path / "flows.jsonl"),
            "--http", str(tmp_path / "http.jsonl"), "--out", str(out),
        )
        assert code == 1
        assert err == f"warning: {log} line 2: {reason}\n"
        kept = [json.loads(line) for line in (out / f"{log}.jsonl").read_text().splitlines()]
        assert len(kept) == 2 and "developer" not in kept[1]

    def test_zero_records_exits_2(self, tmp_path, capsys):
        log = tmp_path / "flows.jsonl"
        log.write_text("junk\n")
        code, _, _ = run(
            capsys, "ingest", "--flows", str(log), "--out", str(tmp_path / "b")
        )
        assert code == 2


class TestIngestWritesBesideOut:
    """ingest writes its bundle beside --out and moves it in at the end, so a
    failed ingest leaves no directory and no existing bundle changed."""

    def _ingest(self, capsys, flows, out):
        return run(
            capsys, "ingest", "--flows", str(flows),
            "--http", os.path.join(CORPUS_DIR, "roku_http.jsonl"), "--out", str(out),
        )

    def test_junk_flows_leave_an_existing_bundle_untouched(self, roku_bundle, tmp_path, capsys):
        (roku_bundle / "exposures.jsonl").write_text('{"kept": true}\n')
        before = {p.name: p.read_bytes() for p in roku_bundle.iterdir()}
        junk = tmp_path / "junk.jsonl"
        junk.write_text("junk\n")
        code, stdout, err = self._ingest(capsys, junk, roku_bundle)
        assert (code, stdout, err) == (2, "", "error: no flow records parsed from input\n")
        assert {p.name: p.read_bytes() for p in roku_bundle.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["junk.jsonl", "roku"]

    def test_bad_byte_after_good_lines_leaves_nothing(self, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        flows = inputs / "flows.jsonl"
        line = json.dumps(TestIngest.FLOW) + "\n"
        flows.write_bytes((line * 1000).encode() + b"\xff\n")
        parent = tmp_path / "parent"
        parent.mkdir()
        code, stdout, err = self._ingest(capsys, flows, parent / "b")
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {flows} is not UTF-8 text: ")
        assert list(parent.iterdir()) == []

    def test_reingest_keeps_other_files(self, roku_bundle, tmp_path, capsys):
        (roku_bundle / "exposures.jsonl").write_text('{"kept": true}\n')
        flows = tmp_path / "flows.jsonl"
        flows.write_text(json.dumps(TestIngest.FLOW) + "\n")
        code, _, _ = self._ingest(capsys, flows, roku_bundle)
        assert code == 0
        assert (roku_bundle / "exposures.jsonl").read_text() == '{"kept": true}\n'
        assert len((roku_bundle / "flows.jsonl").read_text().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flows.jsonl", "roku"]


class TestEvaluate:
    def test_single_bundle_omits_overlap_with_note(self, roku_bundle, tmp_path, capsys):
        out = tmp_path / "report"
        code, _, _ = run(
            capsys,
            "evaluate",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(out),
        )
        assert code == 0
        assert not (out / "overlap.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert any("overlap" in note for note in report["notes"])
        for name in [
            "block_rates.csv",
            "penetration.csv",
            "popularity_curve.csv",
            "pii_table.csv",
            "fn_candidates.csv",
        ]:
            assert (out / name).exists()

    def test_empty_list_manifest_exits_2(self, roku_bundle, tmp_path, capsys):
        manifest = tmp_path / "lists.json"
        manifest.write_text("{}")
        code, _, err = run(
            capsys,
            "evaluate",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--lists",
            str(manifest),
            "--out",
            str(tmp_path / "r"),
        )
        assert code == 2
        assert "no blocklists" in err

    def test_report_json_carries_org_and_ats_sections(
        self, roku_bundle, tmp_path, capsys
    ):
        out = tmp_path / "report"
        code, _, _ = run(
            capsys,
            "evaluate",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        orgs = report["organizations"]
        assert orgs["doubleclick.net"] == "Alphabet"
        assert orgs["pluto.tv"] == "ViacomCBS"
        assert orgs["aimitv.com"].startswith("Unknown(")
        ats = set(report["ats_labeled"])
        # labeled by the external file even though no list blocks it
        assert "p.ads.roku.com" in ats
        # unlabeled but on a blocklist
        assert "ads.spotxchange.com" in ats
        assert "api.ifood.tv" not in ats

    def test_flow_weighted_columns_when_enabled(self, roku_bundle, tmp_path, capsys):
        cfg = _read_json(CORPUS_CONFIG)
        base = os.path.dirname(CORPUS_CONFIG)
        for key in ["psl_path", "pii_spec_path", "org_esld_path", "org_parent_path", "ats_labels_path"]:
            cfg[key] = os.path.join(base, cfg[key])
        cfg["lists"] = {
            name: [os.path.join(base, p) for p in paths]
            for name, paths in cfg["lists"].items()
        }
        cfg["flow_weighted"] = True
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "report"
        code, _, _ = run(
            capsys,
            "evaluate",
            "--bundle",
            str(roku_bundle),
            "--config",
            str(config_path),
            "--out",
            str(out),
        )
        assert code == 0
        lines = (out / "block_rates.csv").read_text().splitlines()
        assert lines[1].endswith("flow_rate_exact,flow_rate_suffix")

    def test_missing_bundle_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "evaluate",
            "--bundle",
            str(tmp_path / "missing"),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(tmp_path / "r"),
        )
        assert code == 2


class TestScanPii:
    def test_scan_writes_exposures_and_redacted_log(self, roku_bundle, capsys):
        code, stdout, _ = run(
            capsys,
            "scan-pii",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
        )
        assert code == 0
        result = json.loads(stdout)
        assert result["exposures"] == 8
        exposures_path = roku_bundle / "exposures.jsonl"
        assert exposures_path.exists()
        lines = [json.loads(l) for l in exposures_path.read_text().splitlines()]
        assert all(e["party"] is not None for e in lines)

    def test_rescan_of_redacted_log_finds_nothing(self, roku_bundle, tmp_path, capsys):
        code, _, _ = run(
            capsys, "scan-pii", "--bundle", str(roku_bundle), "--config", CORPUS_CONFIG
        )
        assert code == 0
        clean = tmp_path / "clean"
        clean.mkdir()
        for name in ["meta.json", "flows.jsonl"]:
            (clean / name).write_text((roku_bundle / name).read_text())
        (clean / "http.jsonl").write_text(
            (roku_bundle / "http.redacted.jsonl").read_text()
        )
        code, stdout, _ = run(
            capsys, "scan-pii", "--bundle", str(clean), "--config", CORPUS_CONFIG
        )
        assert code == 0
        assert json.loads(stdout)["exposures"] == 0

    def test_missing_spec_exits_2(self, roku_bundle, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "scan-pii",
            "--bundle",
            str(roku_bundle),
            "--pii-spec",
            str(tmp_path / "missing.json"),
        )
        assert code == 2

    def test_malformed_mac_exits_2_with_detail(self, roku_bundle, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"mac_address": ["not-a-mac"]}')
        code, _, err = run(
            capsys,
            "scan-pii",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--pii-spec",
            str(spec),
        )
        assert code == 2
        assert "not-a-mac" in err


class TestServe:
    def test_invalid_upstream_exits_2_before_binding(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "serve",
            "--config",
            CORPUS_CONFIG,
            "--listen",
            "127.0.0.1:5454",
            "--upstream",
            "127.0.0.1:5454",
        )
        assert code == 2
        assert "differ" in err

    def test_serve_blocks_and_reloads_on_sighup(self, tmp_path):
        list_file = tmp_path / "list.txt"
        list_file.write_text("0.0.0.0 ads.sample-fixture.net\n")
        manifest = tmp_path / "lists.json"
        manifest.write_text(json.dumps({"FIX": [str(list_file)]}))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "psl_path": PSL_PATH,
                    "lists": {"FIX": [str(list_file)]},
                    "sinkhole": {
                        "listen_address": "127.0.0.1:0",
                        "upstream_resolver": "127.0.0.1:59999",
                        "upstream_timeout_ms": 300,
                    },
                }
            )
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "tvblock.cli", "serve", "--config", str(config)],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            match = re.search(r"serving on ([\d.]+):(\d+)", line)
            assert match, line
            addr = (match.group(1), int(match.group(2)))

            def ask(qname, txid):
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    sock.settimeout(3)
                    sock.sendto(dnswire.build_query(qname, dnswire.TYPE_A, txid), addr)
                    data, _ = sock.recvfrom(4096)
                return dnswire.parse_message(data)

            msg = ask("ads.sample-fixture.net", 1)
            assert msg.answers and msg.answers[0].address == "0.0.0.0"

            list_file.write_text("0.0.0.0 other.sample-fixture.net\n")
            proc.send_signal(signal.SIGHUP)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                msg = ask("other.sample-fixture.net", 2)
                if msg.answers and msg.answers[0].address == "0.0.0.0":
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("reload never took effect")
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stderr.close()


    @pytest.mark.parametrize("sigint", ["default", "ignored"])
    def test_sigterm_answers_the_pending_query_and_exits_0(self, tmp_path, sigint):
        """SIGTERM stops serve as SIGINT does: a query still waiting on a
        silent upstream gets SERVFAIL and its log line, and serve exits 0.
        A background job of a non-interactive shell starts with SIGINT
        ignored; SIGTERM must stop it all the same."""
        list_file = tmp_path / "list.txt"
        list_file.write_text("0.0.0.0 ads.sample-fixture.net\n")
        query_log = tmp_path / "queries.jsonl"
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as upstream:
            upstream.bind(("127.0.0.1", 0))
            upstream.settimeout(5)
            config = tmp_path / "config.json"
            config.write_text(
                json.dumps(
                    {
                        "lists": {"FIX": [str(list_file)]},
                        "sinkhole": {
                            "listen_address": "127.0.0.1:0",
                            "upstream_resolver": "127.0.0.1:%d" % upstream.getsockname()[1],
                            "upstream_timeout_ms": 1000,
                            "query_log_path": str(query_log),
                        },
                    }
                )
            )
            proc = subprocess.Popen(
                [sys.executable, "-m", "tvblock.cli", "serve", "--config", str(config)],
                stderr=subprocess.PIPE,
                text=True,
                preexec_fn=(
                    (lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
                    if sigint == "ignored"
                    else None
                ),
            )
            try:
                match = re.search(r"serving on ([\d.]+):(\d+)", proc.stderr.readline())
                assert match
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                    client.settimeout(5)
                    query = dnswire.build_query("example.org", dnswire.TYPE_A, 77)
                    client.sendto(query, (match.group(1), int(match.group(2))))
                    upstream.recvfrom(4096)  # forwarded, so now pending
                    proc.send_signal(signal.SIGTERM)
                    msg = dnswire.parse_message(client.recvfrom(4096)[0])
                assert proc.wait(timeout=10) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stderr.close()
        assert (msg.header.txid, msg.header.rcode) == (77, dnswire.RCODE_SERVFAIL)
        entries = [json.loads(line) for line in query_log.read_text().splitlines()]
        assert [(e["qname"], e["verdict"]) for e in entries] == [
            ("example.org", "upstream_error")
        ]

    def test_sigusr1_dumps_stats_and_sighup_names_the_lists(self, tmp_path):
        """The installed serve prints its counters on SIGUSR1 and the active
        lists after a SIGHUP reload, on stderr, and nothing per query."""
        list_file = tmp_path / "list.txt"
        list_file.write_text("0.0.0.0 ads.sample-fixture.net\n")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "lists": {"FIX": [str(list_file)]},
                    "sinkhole": {
                        "listen_address": "127.0.0.1:0",
                        "upstream_resolver": "127.0.0.1:59999",
                    },
                }
            )
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "tvblock.cli", "serve", "--config", str(config)],
            stderr=subprocess.PIPE,
            text=True,
        )
        lines = queue.Queue()
        reader = threading.Thread(target=lambda: [lines.put(line) for line in proc.stderr])
        reader.start()

        def next_line() -> str:
            try:
                return lines.get(timeout=5)
            except queue.Empty:
                return ""

        try:
            match = re.search(r"serving on ([\d.]+):(\d+)", next_line())
            assert match
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
                client.settimeout(5)
                query = dnswire.build_query("ads.sample-fixture.net", dnswire.TYPE_A, 5)
                client.sendto(query, (match.group(1), int(match.group(2))))
                client.recvfrom(4096)
            proc.send_signal(signal.SIGUSR1)
            stats_line = next_line()
            proc.send_signal(signal.SIGHUP)
            lists_line = next_line()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stderr.close()
        stats = json.loads(stats_line.split("stats: ", 1)[1])
        assert (stats["total"], stats["blocked"]) == (1, 1)
        assert lists_line.rstrip("\n").endswith("active lists now: FIX")
        assert lines.empty()


# The shared flags that a command does not read, so does not take.
UNREAD_FLAGS = [
    ("ingest", "--psl"),
    ("ingest", "--lists"),
    ("ingest", "--mode"),
    ("classify", "--lists"),
    ("classify", "--mode"),
    ("serve", "--psl"),
    ("serve", "--out"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_exits_2(command, flag, capsys):
    required = {"ingest": ["--flows", "f.jsonl"], "classify": ["--bundle", "b"], "serve": []}
    value = "exact" if flag == "--mode" else "x"
    with pytest.raises(SystemExit) as exc:
        main([command, *required[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestClassify:
    def test_writes_classification_rows(self, roku_bundle, tmp_path, capsys):
        out = tmp_path / "cls"
        code, stdout, _ = run(
            capsys,
            "classify",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(out),
        )
        assert code == 0
        text = (out / "classifications.csv").read_text().splitlines()
        assert text[1] == "platform,app_id,developer,esld,party"
        assert any("platform" in line and "roku.com" in line for line in text[2:])

    def test_punycode_name_resolves_through_a_twin(self, tmp_path, capsys):
        """A name under the punycode form of the corpus PSL's 公司.cn rule gets
        the eSLD that the twin its lookup builds gives."""
        flows = tmp_path / "flows.jsonl"
        flows.write_text("".join(
            json.dumps({"device_id": "d", "platform": "Roku", "app_id": "Shop",
                        "developer": "Shop Inc", "fqdn": fqdn, "start_time": t}) + "\n"
            for t, fqdn in enumerate(("cdn.shop.xn--55qx5d.cn", "www.example.com"), 1)
        ))
        bundle, out = tmp_path / "bundle", tmp_path / "cls"
        assert run(capsys, "ingest", "--config", CORPUS_CONFIG, "--flows", str(flows),
                   "--out", str(bundle))[0] == 0
        assert run(capsys, "classify", "--config", CORPUS_CONFIG, "--bundle", str(bundle),
                   "--out", str(out))[0] == 0
        with open(out / "classifications.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh.readlines()[1:]))
        assert {row["esld"] for row in rows} == {"shop.xn--55qx5d.cn", "example.com"}


class TestVersion:
    def test_version_prints(self, capsys):
        code, stdout, _ = run(capsys, "version")
        assert code == 0
        assert stdout.startswith("tvblock ")


def _absolute_corpus_config(**overrides):
    cfg = _read_json(CORPUS_CONFIG)
    base = os.path.dirname(CORPUS_CONFIG)
    for key in ["psl_path", "pii_spec_path", "org_esld_path", "org_parent_path", "ats_labels_path"]:
        cfg[key] = os.path.join(base, cfg[key])
    cfg["lists"] = {
        name: [os.path.join(base, p) for p in paths] for name, paths in cfg["lists"].items()
    }
    cfg.update(overrides)
    return cfg


class TestPlatformProcessFile:
    @pytest.mark.parametrize(
        "content", [None, '{"app_id": "x", "is_platform": tru\n'], ids=["missing", "malformed"]
    )
    @pytest.mark.parametrize("command", ["evaluate", "scan-pii", "classify"])
    def test_unreadable_file_exits_2_without_report(
        self, roku_bundle, tmp_path, capsys, command, content
    ):
        processes = tmp_path / "processes.jsonl"
        if content is not None:
            processes.write_text(content)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps(_absolute_corpus_config(platform_processes_path=str(processes)))
        )
        out = tmp_path / "out"
        before = sorted(os.listdir(roku_bundle))
        code, stdout, err = run(
            capsys,
            command,
            "--bundle",
            str(roku_bundle),
            "--config",
            str(config_path),
            "--out",
            str(out),
        )
        assert code == 2
        assert "platform process file" in err
        assert stdout == ""
        assert not out.exists()
        assert sorted(os.listdir(roku_bundle)) == before


class TestCorruptBundle:
    def test_unparsable_http_log_fails_scan_pii_and_keeps_outputs(
        self, roku_bundle, capsys
    ):
        code, _, _ = run(
            capsys, "scan-pii", "--bundle", str(roku_bundle), "--config", CORPUS_CONFIG
        )
        assert code == 0
        exposures = (roku_bundle / "exposures.jsonl").read_bytes()
        redacted = (roku_bundle / "http.redacted.jsonl").read_bytes()
        assert exposures
        (roku_bundle / "http.jsonl").write_text("not json\n{\"also\": \"not a tx\"}\n")
        code, stdout, err = run(
            capsys, "scan-pii", "--bundle", str(roku_bundle), "--config", CORPUS_CONFIG
        )
        assert code == 2
        assert "http.jsonl" in err
        assert stdout == ""
        assert (roku_bundle / "exposures.jsonl").read_bytes() == exposures
        assert (roku_bundle / "http.redacted.jsonl").read_bytes() == redacted

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    def test_unparsable_flow_log_exits_2_without_report(
        self, roku_bundle, tmp_path, capsys, command
    ):
        (roku_bundle / "flows.jsonl").write_text("{broken\n[1, 2]\n")
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys,
            command,
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(out),
        )
        assert code == 2
        assert "flows.jsonl" in err
        assert stdout == ""
        assert not out.exists()

    def test_some_bad_lines_warn_once_with_count(self, roku_bundle, tmp_path, capsys):
        flows = roku_bundle / "flows.jsonl"
        flows.write_text(flows.read_text() + "{broken\nnot json either\n")
        out = tmp_path / "cls"
        code, _, err = run(
            capsys,
            "classify",
            "--bundle",
            str(roku_bundle),
            "--config",
            CORPUS_CONFIG,
            "--out",
            str(out),
        )
        assert code == 0
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "flows.jsonl" in warnings[0] and "skipped 2 " in warnings[0]
        assert (out / "classifications.csv").exists()


def _ingest(capsys, out, platform, label):
    code, _, _ = run(
        capsys,
        "ingest",
        "--flows",
        os.path.join(CORPUS_DIR, f"{platform}_flows.jsonl"),
        "--http",
        os.path.join(CORPUS_DIR, f"{platform}_http.jsonl"),
        "--label",
        label,
        "--platform",
        platform,
        "--out",
        str(out),
    )
    assert code == 0
    return out


def _evaluate_corpus(capsys, work):
    """Ingest and scan both corpus bundles, evaluate them together; return the
    report directory and the exit code."""
    bundles = []
    for platform, label in (("roku", "Roku"), ("firetv", "FireTV")):
        bundle = _ingest(capsys, work / platform, platform, label)
        code, _, _ = run(
            capsys, "scan-pii", "--bundle", str(bundle), "--config", CORPUS_CONFIG
        )
        assert code == 0
        bundles += ["--bundle", str(bundle)]
    out = work / "report"
    code, _, _ = run(
        capsys, "evaluate", *bundles, "--config", CORPUS_CONFIG, "--out", str(out)
    )
    return out, code


def _csv_table(path):
    """(generated_at line, header, body rows) of a report CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    return first, rows[0], rows[1:]


def _render(value):
    """A report.json cell as its CSV text."""
    if value is None or isinstance(value, float):
        return reports.fmt_pct(value)
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


class TestReportJson:
    TABLES = ["block_rates", "penetration", "popularity_curve", "fn_candidates"]
    PARTIES = ["first_party", "third_party", "platform_party", "total"]

    def test_sections_carry_the_csv_rows(self, tmp_path, capsys):
        out, code = _evaluate_corpus(capsys, tmp_path)
        assert code == 0
        report = _read_json(out / "report.json")
        assert list(report) == [
            "generated_at",
            "bundles",
            "notes",
            "failures",
            *self.TABLES[:3],
            "pii_table",
            "fn_candidates",
            "overlap",
            "organizations",
            "ats_labeled",
        ]
        for name in self.TABLES:
            _, header, body = _csv_table(out / f"{name}.csv")
            assert body, name
            assert all(list(row) == header for row in report[name]), name
            assert [[_render(v) for v in row.values()] for row in report[name]] == body

        _, header, body = _csv_table(out / "pii_table.csv")
        assert header[2:] == [
            f"{party}_{part}" for party in self.PARTIES for part in ("count", "pct_blocked")
        ]
        rendered = []
        for row in report["pii_table"]:
            assert list(row) == ["platform", "pii_kind", *self.PARTIES]
            cells = [row["platform"], row["pii_kind"]]
            for party in self.PARTIES:
                assert isinstance(row[party], list) and len(row[party]) == 2
                cells += [str(row[party][0]), reports.fmt_pct(row[party][1])]
            rendered.append(cells)
        assert rendered == body
        assert any(row["total"][1] is not None for row in report["pii_table"])

        _, header, body = _csv_table(out / "overlap.csv")
        overlap = report["overlap"]
        assert list(overlap) == ["common_app_count", "apps", "totals"]
        assert overlap["common_app_count"] == len(overlap["apps"]) == len(body) - 1 > 0
        assert [[_render(v) for v in app.values()] for app in overlap["apps"]] == body[:-1]
        totals = overlap["totals"]
        assert list(totals) == ["only_a", "only_b", "both"]
        assert body[-1] == ["TOTAL", "", "", *(str(totals[k]) for k in totals)]

    def test_one_timestamp_covers_the_run(self, tmp_path, capsys, monkeypatch):
        stamps = iter(range(1000))
        monkeypatch.setattr(reports, "_now_iso", lambda: f"T{next(stamps)}")
        out, code = _evaluate_corpus(capsys, tmp_path)
        assert code == 0
        seen = {_read_json(out / "report.json")["generated_at"]}
        for name in [*self.TABLES, "pii_table", "overlap"]:
            first, _, _ = _csv_table(out / f"{name}.csv")
            seen.add(first.strip().removeprefix("# generated_at="))
        assert len(seen) == 1


class TestIngestHttpWarnings:
    GOOD = (
        '{"app_id":"a","platform":"Roku","fqdn":"x.com","method":"GET","uri":"/",'
        '"headers":[],"timestamp":0}'
    )
    FLOWS = '{"device_id":"d","platform":"Roku","app_id":"a","fqdn":"x.com","start_time":0}\n'

    def _ingest_http(self, tmp_path, capsys, http_text):
        flows = tmp_path / "flows.jsonl"
        flows.write_text(self.FLOWS)
        http = tmp_path / "http.jsonl"
        http.write_text(http_text)
        out = tmp_path / "b"
        code, _, err = run(
            capsys, "ingest", "--flows", str(flows), "--http", str(http), "--out", str(out)
        )
        return code, err, out

    def test_partly_bad_log_warns_per_line(self, tmp_path, capsys):
        code, err, out = self._ingest_http(
            tmp_path, capsys, self.GOOD + "\nnot json\n\n[1]\n{}\n"
        )
        assert code == 1
        assert err.splitlines() == [
            "warning: http line 2: invalid JSON: Expecting value",
            "warning: http line 4: line is not a JSON object",
            "warning: http line 5: missing field 'app_id'",
        ]
        assert len((out / "http.jsonl").read_text().splitlines()) == 1

    def test_wholly_bad_log_warns_and_keeps_no_transaction(self, tmp_path, capsys):
        code, err, out = self._ingest_http(tmp_path, capsys, "not json\n{}\n")
        assert code == 1
        assert err.splitlines() == [
            "warning: http line 1: invalid JSON: Expecting value",
            "warning: http line 2: missing field 'app_id'",
        ]
        assert (out / "http.jsonl").read_text() == ""


class TestIngestNotUtf8:
    """An input log that is not UTF-8 is a configuration error (exit 2) that
    names the file, before any output and without a bundle."""

    @pytest.mark.parametrize("flag", ["--flows", "--http"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, flag):
        flows = tmp_path / "flows.jsonl"
        flows.write_text(TestIngestHttpWarnings.FLOWS)
        http = tmp_path / "http.jsonl"
        http.write_text(TestIngestHttpWarnings.GOOD + "\n")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe" + TestIngestHttpWarnings.GOOD.encode("utf-16-le"))
        inputs = {"--flows": str(flows), "--http": str(http), flag: str(bad)}
        out = tmp_path / "b"
        code, stdout, err = run(
            capsys, "ingest", *(x for pair in inputs.items() for x in pair), "--out", str(out)
        )
        assert code == 2
        assert str(bad) in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()


class TestUnreadableInput:
    """An input that cannot be opened, such as a directory, is a configuration
    error (exit 2) that names it, not a traceback, and no output is written."""

    @pytest.mark.parametrize("flag", ["--flows", "--http"])
    def test_ingest_exits_2(self, tmp_path, capsys, flag):
        flows = tmp_path / "flows.jsonl"
        flows.write_text(TestIngestHttpWarnings.FLOWS)
        inputs = {"--flows": str(flows), flag: str(tmp_path)}
        out = tmp_path / "b"
        code, stdout, err = run(
            capsys, "ingest", *(x for pair in inputs.items() for x in pair), "--out", str(out)
        )
        assert code == 2
        assert f"error: cannot read {tmp_path}: " in err
        assert stdout == ""
        assert not out.exists()

    def test_bundle_log_exits_2(self, roku_bundle, tmp_path, capsys):
        flows = roku_bundle / "flows.jsonl"
        flows.unlink()
        flows.mkdir()
        out = tmp_path / "cls"
        code, stdout, err = run(
            capsys, "classify", "--bundle", str(roku_bundle), "--config", CORPUS_CONFIG,
            "--out", str(out),
        )
        assert code == 2
        assert f"error: cannot read {flows}: " in err
        assert stdout == ""
        assert not out.exists()


class TestServeStartFailure:
    def test_unconnectable_upstream_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "serve",
            "--config",
            CORPUS_CONFIG,
            "--listen",
            "127.0.0.1:0",
            "--upstream",
            "255.255.255.255:53",  # a UDP connect() to broadcast is refused
        )
        assert code == 2
        assert "cannot connect to 255.255.255.255:53" in err

    def test_interrupt_before_serve_waits_still_stops_the_service(self, capsys, monkeypatch):
        """The first query can be answered, and SIGINT sent, before serve()
        returns; an interrupt from then on exits 0 and stops the service."""
        from tvblock import cli, sinkhole

        stopped = []
        real_stop = sinkhole.Sinkhole.stop
        monkeypatch.setattr(
            sinkhole.Sinkhole, "stop", lambda self: (stopped.append(self), real_stop(self))
        )

        def interrupted(signum, handler):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.signal, "signal", interrupted)
        code, _, _ = run(
            capsys, "serve", "--config", CORPUS_CONFIG, "--listen", "127.0.0.1:0",
            "--upstream", "127.0.0.1:9",
        )
        assert code == 0
        assert len(stopped) == 1


class TestConfigValidation:
    """A bad match_mode or max_bucket is a configuration error (exit 2),
    reported before any command writes output."""

    def _config(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_absolute_corpus_config(**overrides)))
        return str(path)

    @pytest.mark.parametrize("command", ["evaluate", "classify"])
    def test_bad_match_mode_exits_2_without_report(
        self, roku_bundle, tmp_path, capsys, command
    ):
        config = self._config(tmp_path, match_mode="sufix")
        out = tmp_path / "out"
        before = sorted(os.listdir(roku_bundle))
        code, stdout, err = run(
            capsys, command, "--bundle", str(roku_bundle), "--config", config, "--out", str(out)
        )
        assert code == 2
        assert "match_mode" in err and "table failed" not in err
        assert stdout == ""
        assert not out.exists()
        assert sorted(os.listdir(roku_bundle)) == before

    def test_bad_match_mode_keeps_scan_pii_outputs(self, roku_bundle, tmp_path, capsys):
        code, _, _ = run(
            capsys, "scan-pii", "--bundle", str(roku_bundle), "--config", CORPUS_CONFIG
        )
        assert code == 0
        exposures = (roku_bundle / "exposures.jsonl").read_bytes()
        redacted = (roku_bundle / "http.redacted.jsonl").read_bytes()
        config = self._config(tmp_path, match_mode="sufix")
        code, stdout, err = run(
            capsys, "scan-pii", "--bundle", str(roku_bundle), "--config", config
        )
        assert code == 2
        assert "match_mode" in err
        assert stdout == ""
        assert (roku_bundle / "exposures.jsonl").read_bytes() == exposures
        assert (roku_bundle / "http.redacted.jsonl").read_bytes() == redacted

    def test_bad_match_mode_fails_ingest(self, tmp_path, capsys):
        config = self._config(tmp_path, match_mode="sufix")
        out = tmp_path / "b"
        code, stdout, err = run(
            capsys,
            "ingest",
            "--flows",
            os.path.join(CORPUS_DIR, "roku_flows.jsonl"),
            "--config",
            config,
            "--out",
            str(out),
        )
        assert code == 2
        assert "match_mode" in err
        assert stdout == ""
        assert not out.exists()

    def test_bad_match_mode_fails_serve_before_binding(self, tmp_path):
        config = self._config(tmp_path, match_mode="sufix")
        query_log = tmp_path / "queries.jsonl"
        done = subprocess.run(
            [
                sys.executable, "-m", "tvblock.cli", "serve", "--config", config,
                "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:59999",
                "--query-log", str(query_log),
            ],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode == 2
        assert "match_mode" in done.stderr
        assert "serving" not in done.stderr
        assert not query_log.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_max_bucket_below_one_exits_2(self, roku_bundle, tmp_path, capsys, where):
        if where == "flag":
            argv = ["--config", CORPUS_CONFIG, "--max-bucket", "0"]
        else:
            argv = ["--config", self._config(tmp_path, max_bucket=0)]
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "evaluate", "--bundle", str(roku_bundle), *argv, "--out", str(out)
        )
        assert code == 2
        assert "max_bucket" in err
        assert stdout == ""
        assert not out.exists()

    def test_max_bucket_flag_overrides_config(self, roku_bundle, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "evaluate", "--bundle", str(roku_bundle), "--config", CORPUS_CONFIG,
            "--max-bucket", "1", "--out", str(out),
        )
        assert code == 0
        _, _, body = _csv_table(out / "popularity_curve.csv")
        assert [row[1] for row in body] == ["1+"]
