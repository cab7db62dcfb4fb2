"""The append-only ledger store: entries, refs, baselines, env gates,
incremental reads and sharing one instance across threads."""

import http.client
import json
import os
import sys
import threading

import pytest

from repro.core.spec import PolicySpec
from repro.ecommerce.config import SystemConfig
from repro.ecommerce.spec import ArrivalSpec
from repro.obs.ledger import Ledger, ledger_enabled, record_run
from repro.obs.ledger.manifest import simulate_manifest


def make_manifest(seed=7, **overrides):
    kwargs = dict(
        config=SystemConfig(),
        arrival=ArrivalSpec.poisson(1.8),
        policy=PolicySpec.sraa(2, 5, 3),
        n_transactions=1000,
        replications=2,
        seed=seed,
    )
    kwargs.update(overrides)
    return simulate_manifest(**kwargs)


@pytest.fixture
def ledger(tmp_path):
    return Ledger(str(tmp_path / "ledger"))


class TestAppendAndGet:
    def test_append_assigns_sequential_ids(self, ledger):
        first = ledger.append(make_manifest(), {"x": 1})
        second = ledger.append(make_manifest(), {"x": 2})
        assert first["id"].startswith("sim-0001-")
        assert second["id"].startswith("sim-0002-")
        assert [e["id"] for e in ledger.entries()] == [
            first["id"],
            second["id"],
        ]

    def test_entry_layout(self, ledger):
        entry = ledger.append(make_manifest(), {"x": 1}, {"wall_clock_s": 2.0})
        assert entry["schema_version"] == 1
        assert entry["kind"] == "simulate"
        assert entry["outcomes"] == {"x": 1}
        assert entry["timing"] == {"wall_clock_s": 2.0}
        assert entry["manifest"]["manifest_hash"].startswith(entry["id"][-8:])

    def test_get_by_full_id_prefix_and_latest(self, ledger):
        entry = ledger.append(make_manifest(), {})
        newest = ledger.append(make_manifest(seed=8), {})
        assert ledger.get(entry["id"]) == entry
        assert ledger.get(entry["id"][:10]) == entry
        assert ledger.get("latest") == newest
        assert ledger.get("last") == newest

    def test_get_ambiguous_prefix_rejected(self, ledger):
        ledger.append(make_manifest(), {})
        ledger.append(make_manifest(), {})
        with pytest.raises(LookupError, match="ambiguous"):
            ledger.get("sim-")

    def test_get_unknown_ref_rejected(self, ledger):
        ledger.append(make_manifest(), {})
        with pytest.raises(LookupError, match="no ledger entry"):
            ledger.get("exp-9999")

    def test_get_on_empty_ledger_explains(self, ledger):
        with pytest.raises(LookupError, match="empty"):
            ledger.get("latest")

    def test_latest_filters_by_manifest_hash(self, ledger):
        a = ledger.append(make_manifest(seed=1), {})
        ledger.append(make_manifest(seed=2), {})
        wanted = a["manifest"]["manifest_hash"]
        assert ledger.latest(wanted)["id"] == a["id"]
        assert ledger.latest("no-such-hash") is None

    def test_corrupt_line_reported_with_location(self, ledger, tmp_path):
        ledger.append(make_manifest(), {})
        with open(ledger.runs_path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="corrupt ledger line"):
            ledger.entries()


class TestBaselines:
    def test_pin_and_resolve(self, ledger):
        entry = ledger.append(make_manifest(), {})
        ledger.set_baseline("default", entry)
        assert ledger.baseline_entry("default")["id"] == entry["id"]
        pins = ledger.baselines()
        assert pins["default"]["manifest_hash"] == (
            entry["manifest"]["manifest_hash"]
        )

    def test_missing_baseline_lists_known(self, ledger):
        entry = ledger.append(make_manifest(), {})
        ledger.set_baseline("smoke", entry)
        with pytest.raises(LookupError, match="smoke"):
            ledger.baseline_entry("paper")


class TestCheckState:
    def test_round_trip(self, ledger):
        assert ledger.check_state() == {}
        ledger.save_check_state({"abc": {"streak": 2}})
        assert ledger.check_state() == {"abc": {"streak": 2}}


class TestEnvironmentGates:
    def test_ledger_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LEDGER", value)
        assert not ledger_enabled()

    def test_record_run_honours_disable(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert record_run(make_manifest(), {}, directory=str(tmp_path)) is None

    def test_record_run_never_raises(self, monkeypatch, tmp_path, capsys):
        # Point the ledger directory at an existing *file*: mkdir fails.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert record_run(make_manifest(), {}, directory=str(blocker)) is None
        assert "recording failed" in capsys.readouterr().err

    def test_directory_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "custom"))
        assert Ledger().directory == str(tmp_path / "custom")


class TestEntriesAreJsonl:
    def test_file_is_one_json_object_per_line(self, ledger):
        ledger.append(make_manifest(), {"x": 1})
        ledger.append(make_manifest(), {"x": 2})
        with open(ledger.runs_path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


class TestIncrementalReads:
    """The cached reader must agree with a full re-parse, always."""

    def test_same_inode_truncated_and_rewritten_shorter(self, ledger):
        for _ in range(5):
            ledger.append(make_manifest(), {})
        with open(ledger.runs_path, "rb") as handle:
            pristine = handle.read()
        ledger.append(make_manifest(seed=8), {})
        assert len(ledger.entries()) == 6
        inode = os.stat(ledger.runs_path).st_ino
        # shutil.copyfile truncates and rewrites the same inode.
        with open(ledger.runs_path, "wb") as handle:
            handle.write(pristine[: pristine.index(b"\n") + 1])
        assert os.stat(ledger.runs_path).st_ino == inode
        assert len(ledger.entries()) == 1
        assert ledger.append(make_manifest(), {})["id"].startswith("sim-0002-")

    def test_same_inode_same_size_different_content(self, ledger):
        ledger.append(make_manifest(seed=1), {"x": 1})
        ledger.append(make_manifest(seed=2), {"x": 2})
        entries = ledger.entries()
        size = os.path.getsize(ledger.runs_path)
        swapped = "".join(
            json.dumps(entry, separators=(",", ":")) + "\n"
            for entry in reversed(entries)
        ).encode("utf-8")
        assert len(swapped) == size
        with open(ledger.runs_path, "r+b") as handle:
            handle.write(swapped)
        assert ledger.entries() == list(reversed(entries))

    def test_same_size_rewrite_of_an_earlier_line(self, ledger):
        ledger.append(make_manifest(seed=1), {"x": 1})
        ledger.append(make_manifest(seed=2), {"x": 2})
        generation, _ = ledger.snapshot()
        before = os.stat(ledger.runs_path)
        with open(ledger.runs_path, "rb") as handle:
            data = handle.read()
        with open(ledger.runs_path, "r+b") as handle:
            handle.write(data.replace(b'{"x":1}', b'{"x":3}', 1))
        # The clock the file system stamps mtimes with may tick slower
        # than this test runs: date the rewrite a second later.
        later = before.st_mtime_ns + 10**9
        os.utime(ledger.runs_path, ns=(later, later))
        assert os.path.getsize(ledger.runs_path) == before.st_size
        rewritten, entries = ledger.snapshot()
        assert rewritten > generation
        assert [entry["outcomes"] for entry in entries] == [{"x": 3}, {"x": 2}]

    def test_replaced_by_rename_is_reread(self, ledger, tmp_path):
        ledger.append(make_manifest(seed=1), {})
        ledger.append(make_manifest(seed=2), {})
        assert len(ledger.entries()) == 2
        other = Ledger(str(tmp_path / "other"))
        for seed in (3, 4, 5):
            other.append(make_manifest(seed=seed), {})
        expected = Ledger(other.directory).entries()
        os.replace(other.runs_path, ledger.runs_path)
        assert ledger.entries() == expected

    def test_sees_appends_from_another_instance(self, ledger):
        ledger.append(make_manifest(), {})
        assert len(ledger.entries()) == 1
        writer = Ledger(ledger.directory)
        added = writer.append(make_manifest(seed=8), {})
        assert added["id"].startswith("sim-0002-")
        assert ledger.entries()[-1] == added
        assert ledger.append(make_manifest(), {})["id"].startswith("sim-0003-")

    def test_blank_lines_are_skipped(self, ledger):
        ledger.append(make_manifest(), {})
        with open(ledger.runs_path, "a") as handle:
            handle.write("\n  \n")
        assert len(ledger.entries()) == 1
        second = ledger.append(make_manifest(), {})
        assert second["id"].startswith("sim-0002-")
        assert [e["id"] for e in ledger.entries()][-1] == second["id"]

    def test_corrupt_line_raises_with_line_number_every_time(self, ledger):
        ledger.append(make_manifest(), {})
        assert len(ledger.entries()) == 1
        with open(ledger.runs_path, "a") as handle:
            handle.write("\n{not json\n")
        for _ in range(2):
            with pytest.raises(ValueError, match=r"runs\.jsonl:3: corrupt"):
                ledger.entries()
        # A fresh reader reports the same location.
        with pytest.raises(ValueError, match=r"runs\.jsonl:3: corrupt"):
            Ledger(ledger.directory).entries()

    def test_half_written_line_is_invisible_until_newline(self, ledger):
        ledger.append(make_manifest(), {})
        line = json.dumps(
            Ledger(ledger.directory).entries()[0], separators=(",", ":")
        )
        with open(ledger.runs_path, "a") as handle:
            handle.write(line[:40])
        assert len(ledger.entries()) == 1
        with open(ledger.runs_path, "a") as handle:
            handle.write(line[40:])
        assert len(ledger.entries()) == 1
        with open(ledger.runs_path, "a") as handle:
            handle.write("\n")
        assert len(ledger.entries()) == 2

    def test_600_appends_keep_the_full_count_ids(self, ledger):
        manifest = make_manifest()
        suffix = manifest.to_dict()["manifest_hash"][:8]
        second = Ledger(ledger.directory)
        ids = []
        for index in range(600):
            writer = second if index % 7 == 3 else ledger
            ids.append(writer.append(manifest, {"i": index})["id"])
            if index % 150 == 0:
                # The old scheme: a full parse of the file, plus one.
                fresh = len(Ledger(ledger.directory).entries())
                assert ids[-1] == f"sim-{fresh:04d}-{suffix}"
        assert ids == [f"sim-{seq:04d}-{suffix}" for seq in range(1, 601)]
        assert [e["id"] for e in ledger.entries()] == ids

    def test_generation_moves_exactly_when_entries_change(self, ledger):
        generation, entries = ledger.snapshot()
        assert entries == [] and ledger.snapshot()[0] == generation
        ledger.append(make_manifest(), {})
        after_append, entries = ledger.snapshot()
        assert after_append > generation and len(entries) == 1
        with open(ledger.runs_path, "rb") as handle:
            data = handle.read()
        with open(ledger.runs_path, "r+b") as handle:
            handle.write(data.replace(b'"outcomes":{}', b'"outcomes":[]'))
        rewritten, entries = ledger.snapshot()
        assert rewritten > after_append and entries[0]["outcomes"] == []
        with open(ledger.runs_path, "a") as handle:
            handle.write("\n  \n")
        assert ledger.snapshot()[0] == rewritten
        os.remove(ledger.runs_path)
        removed, entries = ledger.snapshot()
        assert removed > rewritten and entries == []
        assert ledger.snapshot()[0] == removed

    def test_returned_list_is_a_copy(self, ledger):
        ledger.append(make_manifest(), {})
        listed = ledger.entries()
        listed.clear()
        listed.append({"id": "bogus"})
        assert [e["id"][:8] for e in ledger.entries()] == ["sim-0001"]

    def test_one_write_per_append(self, ledger, monkeypatch):
        import repro.obs.appendlog as appendlog

        writes = []

        class Spy:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                writes.append(bytes(data))
                return self.handle.write(data)

        def spy_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            return Spy(handle) if "a" in mode else handle

        monkeypatch.setattr(appendlog, "open", spy_open, raising=False)
        ledger.append(make_manifest(), {"x": 1})
        assert len(writes) == 1 and writes[0].endswith(b"}\n")
        assert Ledger(ledger.directory).entries()[0]["outcomes"] == {"x": 1}

    def test_threads_sharing_one_ledger_mint_unique_ids(self, ledger):
        manifest = make_manifest()
        results = []

        def worker():
            for _ in range(10):
                results.append(ledger.append(manifest, {})["id"])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(e["id"] for e in ledger.entries())
        assert len(set(results)) == 40


class TestServedLedgerUnderConcurrentAppends:
    def test_get_threads_never_fail_and_total_never_decreases(self, tmp_path):
        from repro.serve import ReproServer

        directory = str(tmp_path / "served")
        server = ReproServer(port=0, ledger_dir=directory).start()
        writer = Ledger(directory)
        manifest = make_manifest()
        appends = 40
        stop = threading.Event()
        errors = []
        totals = []
        n_pollers = 3
        # Appends start once every poller has its first answer.
        polling = threading.Barrier(n_pollers + 1, timeout=30)

        def poll():
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            seen = []
            try:
                while not stop.is_set() or not seen:
                    connection.request("GET", "/api/runs?limit=5")
                    response = connection.getresponse()
                    body = response.read()
                    if response.status != 200:
                        errors.append((response.status, body))
                        return
                    seen.append(json.loads(body)["total"])
                    if len(seen) == 1:
                        polling.wait()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
                polling.abort()
            finally:
                connection.close()
                totals.append(seen)

        pollers = [threading.Thread(target=poll) for _ in range(n_pollers)]
        try:
            for thread in pollers:
                thread.start()
            polling.wait()
            for index in range(appends):
                writer.append(manifest, {"i": index})
            stop.set()
            for thread in pollers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pollers)
            final = get_json(server, "/api/runs?limit=1")
        finally:
            stop.set()
            server.close()
        assert errors == []
        for seen in totals:
            assert seen, "a poller completed no request"
            assert seen == sorted(seen)
        assert final["total"] == appends


def get_json(server, path):
    """One GET on a fresh connection, parsed."""
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()
