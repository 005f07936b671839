"""The source tree of a git revision, for the tools that compare one with
the working tree (`same_outputs.py`, `bench_pairs.py`). Reads `.git` only
through `git archive`."""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def extract_src(rev: str, dest: Path) -> Path:
    """Extract `git archive <rev> src` under the directory `dest`; returns
    the extracted `dest/src`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"
