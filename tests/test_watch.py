"""Watch-mode behaviour: polling, partial writes, rolling deploys.

WatchSession takes injectable clock/sleep and a single-step ``poll()``,
so every test drives iterations deterministically — no threads, no
real time, no real file-watcher latency beyond tmp_path mtimes.
"""

import os

import pytest

from fixtures import EMCO_WORKCELL_SOURCE

from repro.cli import main
from repro.cache import ArtifactCache
from repro.k8s import Cluster
from repro.watch import WatchSession

EDITED_IP = "10.197.12.88"


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "factory.sysml"
    path.write_text(EMCO_WORKCELL_SOURCE)
    return path


def edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    # poll detection is (mtime_ns, size); force mtime forward so
    # same-length edits within one clock tick still register
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


class TestPolling:
    def test_first_poll_generates_everything(self, source_file):
        session = WatchSession([source_file])
        event = session.poll()
        assert event is not None and event.ok
        assert event.changed_files == [str(source_file)]
        assert event.reused == 0
        assert event.regenerated  # every artifact

    def test_unchanged_file_polls_to_none(self, source_file):
        session = WatchSession([source_file])
        session.poll()
        assert session.poll() is None

    def test_touch_without_content_change_reuses_everything(
            self, source_file):
        session = WatchSession([source_file])
        session.poll()
        stat = os.stat(source_file)
        os.utime(source_file,
                 ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        event = session.poll()
        assert event is not None and event.ok
        assert event.regenerated == []

    def test_driver_ip_edit_regenerates_one_machine(self, source_file):
        session = WatchSession([source_file])
        session.poll()
        edit(source_file, "10.197.12.11", EDITED_IP)
        event = session.poll()
        assert event.ok
        assert "machine:emco" in event.regenerated
        assert all(not artifact.startswith("client:")
                   for artifact in event.regenerated)
        assert event.reused > 0


class TestPartialWrites:
    def test_only_changed_files_rewritten(self, source_file, tmp_path):
        out = tmp_path / "out"
        session = WatchSession([source_file], out_dir=out)
        first = session.poll()
        assert len(first.written) == len(first.regenerated)
        edit(source_file, "10.197.12.11", EDITED_IP)
        event = session.poll()
        written = {path.name for path in event.written}
        assert "machine-emco.json" in written
        # untouched outputs keep their bytes and are not rewritten
        assert len(event.written) < len(first.written)
        assert EDITED_IP in (out / "intermediate"
                             / "machine-emco.json").read_text()


    def test_out_tree_equals_write_to(self, source_file, tmp_path):
        def tree(root):
            return {path.relative_to(root): path.read_bytes()
                    for path in root.rglob("*") if path.is_file()}

        out = tmp_path / "out"
        session = WatchSession([source_file], out_dir=out)
        for revision in range(2):
            if revision:
                edit(source_file, "10.197.12.11", EDITED_IP)
            session.poll()
            reference = tmp_path / f"write-to-{revision}"
            session.engine.previous.write_to(reference)
            assert tree(out) == tree(reference)


class TestBrokenModel:
    def test_parse_error_keeps_previous_generation(self, source_file):
        session = WatchSession([source_file])
        good = session.poll()
        assert good.ok
        previous = session.engine.previous
        edit(source_file, "part ICETopology",
             "part broken : Nowhere;\npart ICETopology")
        event = session.poll()
        assert not event.ok
        assert "Nowhere" in event.error
        assert session.engine.previous is previous  # still serving it

    def test_session_recovers_after_repair(self, source_file):
        session = WatchSession([source_file])
        session.poll()
        edit(source_file, "part ICETopology",
             "part broken : Nowhere;\npart ICETopology")
        assert not session.poll().ok
        edit(source_file, "part broken : Nowhere;\n", "")
        event = session.poll()
        assert event.ok
        assert event.regenerated == []  # back to the known-good state


class TestRollingDeploy:
    def test_first_generation_deploys_everything(self, source_file):
        cluster = Cluster()
        session = WatchSession([source_file], cluster=cluster)
        event = session.poll()
        assert event.deployed["applied"] > 0
        assert event.deployed["running"] > 0

    def test_edit_rolls_only_regenerated_manifests(self, source_file):
        cluster = Cluster()
        session = WatchSession([source_file], cluster=cluster)
        first = session.poll()
        edit(source_file, "10.197.12.11", EDITED_IP)
        event = session.poll()
        assert event.deployed["manifests"] \
            == ["workcell02-opcua-server.yaml"]
        assert event.deployed["applied"] < first.deployed["applied"]
        # a rolled server restarts its downstream bridges/historians
        assert event.deployed["restarted_downstream"] > 0

    def test_rollouts_go_through_apply_incremental(self, source_file,
                                                   monkeypatch):
        import repro.k8s.deploy as deploy
        real = deploy.apply_incremental
        calls = []

        def spy(cluster, result):
            outcome = real(cluster, result)
            calls.append(outcome)
            return outcome

        monkeypatch.setattr(deploy, "apply_incremental", spy)
        session = WatchSession([source_file], cluster=Cluster())
        first = session.poll()
        assert first.deployed["manifests"] \
            == sorted(session.engine.previous.manifests)
        assert first.deployed["restarted_downstream"] == 0
        edit(source_file, "10.197.12.11", EDITED_IP)
        event = session.poll()
        assert event.deployed["restarted_downstream"] > 0
        assert calls == [first.deployed, event.deployed]

    def test_first_poll_over_a_warm_cache_deploys_everything(
            self, source_file, tmp_path):
        # a cold engine over a warm artifact cache reports its
        # manifests reused; the empty cluster still gets all of them
        cache = ArtifactCache(tmp_path / "cache")
        WatchSession([source_file], cache=cache).poll()
        session = WatchSession([source_file], cache=cache,
                               cluster=Cluster())
        event = session.poll()
        assert event.reused > 0
        assert event.deployed["manifests"] \
            == sorted(session.engine.previous.manifests)
        assert event.deployed["restarted_downstream"] == 0

    def test_revert_over_a_warm_cache_redeploys_the_changed_manifest(
            self, source_file, tmp_path):
        # B renames the enterprise (a full engine run) and moves emco's
        # IP; going back to A replays A's whole result from the cache,
        # yet the cluster runs B's config until the manifest is applied
        session = WatchSession([source_file],
                               cache=ArtifactCache(tmp_path / "cache"),
                               cluster=Cluster())
        session.poll()
        edit(source_file, "part UniVR :", "part UniVR2 :")
        edit(source_file, "10.197.12.11", EDITED_IP)
        assert session.poll().deployed["applied"] > 0
        edit(source_file, "part UniVR2 :", "part UniVR :")
        edit(source_file, EDITED_IP, "10.197.12.11")
        event = session.poll()
        assert "manifest:workcell02-opcua-server.yaml" in event.regenerated
        assert event.deployed["manifests"] \
            == ["workcell02-opcua-server.yaml"]
        assert event.deployed["applied"] > 0


class TestRunLoop:
    def test_run_counts_rebuilds_not_polls(self, source_file):
        sleeps = []
        session = WatchSession([source_file], interval=0.25,
                               sleep=sleeps.append)

        def edit_on_first(event):
            if event.iteration == 0:
                edit(source_file, "10.197.12.11", EDITED_IP)

        rebuilds = session.run(max_iterations=2, on_event=edit_on_first)
        assert rebuilds == 2
        assert sleeps == [0.25]  # slept between the two rebuilds

    def test_empty_path_list_rejected(self):
        with pytest.raises(ValueError):
            WatchSession([])


class TestWatchCli:
    def test_once_writes_and_reports(self, source_file, tmp_path, capsys):
        out = tmp_path / "generated"
        assert main(["watch", str(source_file), "--once",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "regenerated" in printed
        assert (out / "manifests").exists()

    def test_once_with_broken_model_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.sysml"
        bad.write_text("part broken : Nowhere;")
        assert main(["watch", str(bad), "--once"]) == 1
        assert "BROKEN MODEL" in capsys.readouterr().out

    def test_max_iterations_loop(self, source_file, capsys):
        assert main(["watch", str(source_file),
                     "--max-iterations", "1", "--interval", "0"]) == 0
        assert "watching 1 file(s)" in capsys.readouterr().out
