"""Command outputs appear whole or not at all, and replace old outputs without overwriting them."""

import errno
import os

import pytest

from nnwm import model_store
from nnwm.cli import main
from nnwm.errors import NnwmError

OUTPUTS = ("marked.json", "marked.bin", "r.json")


def embed(host, out_dir, payload="101100111", receipt=None):
    return main(["embed", "--arch", str(host / "tiny.json"),
                 "--weights", str(host / "tiny.bin"),
                 "--payload", payload, "--key", "owner", "--l", "3",
                 "--out-prefix", str(out_dir / "marked"),
                 "--receipt", str(receipt or out_dir / "r.json")])


def contents(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def plain_open_mode():
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


def test_embed_receipt_in_missing_directory_writes_nothing(tiny_host, tmp_path, capsys):
    rc = embed(tiny_host, tmp_path, receipt=tmp_path / "nodir" / "r.json")
    assert rc == 2
    assert "no directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_attack_blob_target_is_a_directory_writes_nothing(tiny_host, tmp_path, capsys):
    (tmp_path / "a.bin").mkdir()
    rc = main(["attack", "--type", "noise", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--out-prefix", str(tmp_path / "a")])
    assert rc == 2
    assert "is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
    assert list((tmp_path / "a.bin").iterdir()) == []


def test_blob_write_failing_partway_keeps_the_old_outputs(tiny_host, tmp_path, capsys,
                                                         monkeypatch):
    assert embed(tiny_host, tmp_path) == 0
    before = contents(tmp_path)
    assert sorted(before) == sorted(OUTPUTS)

    class FullDisk:
        """A blob file that takes its header, then runs out of space."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return FullDisk(fh) if ".bin" in os.fspath(path) and "r" not in mode else fh

    monkeypatch.setattr(model_store, "open", failing_open, raising=False)
    rc = embed(tiny_host, tmp_path, payload="011011011")
    assert rc == 2
    assert "No space left" in capsys.readouterr().err
    assert contents(tmp_path) == before


def test_embed_into_existing_prefix_replaces_each_output(tiny_host, tmp_path, monkeypatch,
                                                        capsys):
    fresh, again = tmp_path / "fresh", tmp_path / "again"
    fresh.mkdir()
    again.mkdir()
    assert embed(tiny_host, again, payload="011011011") == 0
    old_inodes = {name: (again / name).stat().st_ino for name in OUTPUTS}
    renames = []

    def spy(move):
        def moved(src, dst, *args, **kwargs):
            renames.append((os.fspath(dst), os.path.lexists(dst)))
            return move(src, dst, *args, **kwargs)
        return moved

    monkeypatch.setattr(model_store.os, "rename", spy(os.rename))
    monkeypatch.setattr(model_store.os, "replace", spy(os.replace))
    assert embed(tiny_host, again) == 0
    monkeypatch.undo()
    assert embed(tiny_host, fresh) == 0

    assert sorted(os.path.basename(dst) for dst, _ in renames) == sorted(OUTPUTS)
    assert not any(existed for _, existed in renames), renames
    assert sorted(p.name for p in again.iterdir()) == sorted(OUTPUTS)
    for name in OUTPUTS:
        assert (again / name).stat().st_ino != old_inodes[name]
        assert (again / name).read_bytes() == (fresh / name).read_bytes()
        assert (again / name).stat().st_mode & 0o777 == plain_open_mode()


@pytest.mark.parametrize("expect, rc", [("101100111", 0), ("000000000", 1)])
def test_attack_leaves_only_its_named_outputs(tiny_host, tmp_path, capsys, expect, rc):
    assert embed(tiny_host, tmp_path) == 0
    assert main(["attack", "--type", "noise", "--arch", str(tmp_path / "marked.json"),
                 "--weights", str(tmp_path / "marked.bin"), "--out-prefix", str(tmp_path / "a"),
                 "--receipt", str(tmp_path / "r.json"), "--expect", expect]) == rc
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(OUTPUTS + ("a.json", "a.bin"))


def test_embed_replaces_a_symlinked_target_without_writing_through(tiny_host, tmp_path):
    elsewhere = tmp_path / "elsewhere.json"
    elsewhere.write_bytes(b"keep")
    (tmp_path / "r.json").symlink_to(elsewhere)
    assert embed(tiny_host, tmp_path) == 0
    assert not (tmp_path / "r.json").is_symlink()
    assert elsewhere.read_bytes() == b"keep"


def test_staged_outputs_move_nothing_when_the_block_raises(tmp_path):
    (tmp_path / "a").write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with model_store.staged_outputs(tmp_path / "a", tmp_path / "b") as (ta, tb):
            assert ta.parent == tmp_path and tb.parent == tmp_path
            with model_store.open_new(ta) as fh:
                fh.write(b"new")
            raise RuntimeError
    assert contents(tmp_path) == {"a": b"old"}


def test_embed_receipt_naming_the_marked_manifest_moves_nothing(tiny_host, tmp_path, capsys):
    assert embed(tiny_host, tmp_path) == 0
    before = contents(tmp_path)
    rc = embed(tiny_host, tmp_path, payload="011011011", receipt=tmp_path / "." / "marked.json")
    assert rc == 2
    assert "name one file" in capsys.readouterr().err
    assert contents(tmp_path) == before


def test_staged_outputs_refuse_two_targets_naming_one_entry(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "a").write_bytes(b"old")
    (tmp_path / "link").symlink_to(tmp_path / "d")
    ran = []
    with pytest.raises(NnwmError, match="name one file"):
        with model_store.staged_outputs(tmp_path / "d" / "a", tmp_path / "link" / "a") as temps:
            for tmp in temps:
                with model_store.open_new(tmp) as fh:
                    fh.write(b"new")
            ran.append(True)
    assert ran  # the block's own errors come first
    assert contents(tmp_path / "d") == {"a": b"old"}


def test_staged_outputs_replace_a_symlink_beside_its_target(tmp_path):
    (tmp_path / "a").write_bytes(b"old")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    with model_store.staged_outputs(tmp_path / "a", tmp_path / "b") as temps:
        for tmp, data in zip(temps, (b"new a", b"new b")):
            with model_store.open_new(tmp) as fh:
                fh.write(data)
    assert contents(tmp_path) == {"a": b"new a", "b": b"new b"}


def test_staged_outputs_check_every_target_before_the_block(tmp_path):
    (tmp_path / "d").mkdir()
    for bad in (tmp_path / "d", tmp_path / "missing" / "x"):
        with pytest.raises(NnwmError):
            with model_store.staged_outputs(tmp_path / "ok", bad):
                raise AssertionError("the block ran")


def test_open_new_replaces_an_existing_file_without_truncating_it(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"old contents")
    os.link(path, tmp_path / "other name")  # sees the old file's inode
    with model_store.open_new(path) as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert (tmp_path / "other name").read_bytes() == b"old contents"
    assert path.stat().st_mode & 0o777 == plain_open_mode()
