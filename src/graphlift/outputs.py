"""The one writer of derived output files (eval reports, ablation tables,
the training log, exported adjacency CSVs) and the owner of their one
format: `rewrite_csv` renders rows of plain values as comma-separated,
`\\n`-terminated lines, every float (Python or numpy) as its `repr`, `None`
as an empty cell and ints through `str`.

Each file is overwritten from byte 0 and only then cut to its new length.
Opening with truncation would free every old block first, which costs
~70 ms per file on ext4 mounted with `discard`.  A process killed between
the write and the cut can leave a stale tail of the old text, which a
rerun regenerates; checkpoints and datasets keep truncating first, so that
a torn one fails loudly on load.
"""

from __future__ import annotations

import csv
import io
import os

__all__ = ["rewrite_in_place", "rewrite_csv"]


def rewrite_in_place(path, text: str) -> None:
    """Make `text` (UTF-8) the whole content of the file at `path`.

    The file is created if missing.  It is never truncated to zero unless
    `text` is empty: every byte is written first, then the file is cut to
    the written length.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def rewrite_csv(path, rows) -> None:
    """Rewrite `path` as `rows` in the one format of the module docstring."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    rewrite_in_place(path, buf.getvalue())
