"""Compares the bytes this tree's outputs have with those of a git revision:

    python runs/compare.py REV

REV (a commit, branch or tag, usually the parent commit) is checked out with
``git worktree add --detach`` into a temporary directory, which is removed
afterwards.  This tree's ``runs/same_bytes.sh``, which also writes the line
of ``runs/belief_hash.py``, then runs against each tree's ``src`` in its own
process with an absolute ``PYTHONPATH``, so both trees' outputs come from the
same scripts.  Every output but the ``*manifest.json`` files, which hold
wall-clock times, is compared byte for byte.  Each output that differs or
exists on one side only is named, and the exit status is 1 if any does, else
0; it is 2 if a run or the checkout fails.  The two runs of ``same_bytes.sh``
take about a minute.
"""
from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def outputs(tree: Path, out: Path) -> None:
    """Write the ``same_bytes.sh`` outputs of ``tree``'s ``src``, the belief
    hash included, under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run(["bash", str(HERE / "same_bytes.sh"), str(out)], env=env,
                   stdout=subprocess.DEVNULL, check=True)


def differing(a: Path, b: Path) -> list[str]:
    """The files under a or b, but for manifests, that are not byte-equal
    in the other."""
    names = {p.relative_to(top).as_posix() for top in (a, b) for p in top.rglob("*")
             if p.is_file() and not p.name.endswith("manifest.json")}
    return sorted(n for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and filecmp.cmp(a / n, b / n, shallow=False)))


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="scma-compare-"))
    tree = tmp / "tree"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), sys.argv[1]], check=True)
        outputs(tree, tmp / "rev")
        outputs(ROOT, tmp / "work")
        diff = differing(tmp / "rev", tmp / "work")
    except subprocess.CalledProcessError as err:
        print(f"compare.py: {' '.join(err.cmd)} exited with status {err.returncode}",
              file=sys.stderr)
        return 2
    finally:
        if tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(diff)} differing outputs against {sys.argv[1]}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
