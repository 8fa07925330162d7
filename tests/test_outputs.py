"""The derived-output writer: rewrites in place, byte for byte."""

import os

import numpy as np
import pytest

from graphlift import outputs
from graphlift.outputs import rewrite_csv, rewrite_in_place


@pytest.mark.parametrize("new", ["abc" * 1000, "x" * 3000, "short\n", ""],
                         ids=["longer", "equal", "shorter", "empty"])
def test_rewrite_keeps_the_inode_and_gives_exactly_the_new_bytes(tmp_path, new):
    path = tmp_path / "out.csv"
    path.write_text("y" * 3000)
    inode = os.stat(path).st_ino
    rewrite_in_place(path, new)
    assert os.stat(path).st_ino == inode
    assert path.read_bytes() == new.encode("utf-8")


def test_missing_file_is_created(tmp_path):
    path = tmp_path / "new.csv"
    rewrite_in_place(str(path), "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"


def test_never_truncates_to_zero_before_writing(tmp_path, monkeypatch):
    calls = []
    real_open, real_ftruncate = os.open, os.ftruncate
    monkeypatch.setattr(outputs.os, "open", lambda path, flags, mode=0o777:
                        calls.append(("open", flags)) or real_open(path, flags, mode))
    monkeypatch.setattr(outputs.os, "ftruncate", lambda fd, n:
                        calls.append(("ftruncate", n)) or real_ftruncate(fd, n))
    path = tmp_path / "out.csv"
    path.write_text("old content, longer than the new one\n")
    rewrite_in_place(path, "new\n")
    (_, flags), last = calls
    assert not flags & os.O_TRUNC
    assert last == ("ftruncate", 4)
    assert path.read_bytes() == b"new\n"


def test_partial_writes_are_completed(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(outputs.os, "write", lambda fd, data: real_write(fd, data[:7]))
    path = tmp_path / "out.csv"
    text = "".join(f"{i},{i * i}\n" for i in range(100))
    rewrite_in_place(path, text)
    assert path.read_text() == text


def test_csv_rows_are_lf_terminated(tmp_path):
    path = tmp_path / "t.csv"
    rewrite_csv(path, [["threshold", "fraction"], ["0.5", "1.0"], ["a,b", 3],
                       [None, np.float64(0.1)]])
    assert path.read_bytes() == b'threshold,fraction\n0.5,1.0\n"a,b",3\n,0.1\n'
