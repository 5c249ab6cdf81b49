"""Compares the bytes this tree's outputs have with those of a git revision:

    python runs/compare.py REV

REV (a commit, branch or tag, usually the parent commit or a pull request's
merge base) has its ``src`` extracted with ``git archive`` into a temporary
directory, which is removed afterwards.  This tree's ``runs/same_bytes.sh``,
which also writes the line of ``runs/belief_hash.py``, then runs against each
tree's ``src`` in its own process with an absolute ``PYTHONPATH``, so both
trees' outputs come from the same scripts.  Every output but the
``*manifest.json`` files, which hold wall-clock times, is compared byte for
byte, and each output that differs or exists on one side only is named.

A change that moves bytes on purpose declares the outputs it moves in this
tree's ``runs/byte_changes.txt``, one ``fnmatch`` pattern per line, relative
to the output directory (``belief_hash/*``, say); blank lines and ``#``
comments are skipped.  The exit status is 1 if an output differs that no
pattern matches, or if a pattern matches no differing output, so a
declaration lasts only as long as the change that needs it; else 0.  It is 2
if a run or the extraction fails.  The two runs of ``same_bytes.sh`` take
about a minute.
"""
from __future__ import annotations

import filecmp
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = HERE / "byte_changes.txt"


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
    rev = sys.argv[1]
    declared = [line.strip() for line in DECLARED.read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    tmp = Path(tempfile.mkdtemp(prefix="scma-compare-"))
    tree = tmp / "tree"
    tree.mkdir()
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        outputs(tree, tmp / "rev")
        outputs(ROOT, tmp / "work")
        diff = differing(tmp / "rev", tmp / "work")
    except subprocess.CalledProcessError as err:
        print(f"compare.py: {' '.join(err.cmd)} exited with status {err.returncode}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    undeclared = [n for n in diff if not any(fnmatch.fnmatch(n, p) for p in declared)]
    stale = [p for p in declared if not fnmatch.filter(diff, p)]
    for name in diff:
        print(f"differs{'' if name in undeclared else ' (declared)'}: {name}")
    for pattern in stale:
        print(f"declared in {DECLARED.name}, but no output differs: {pattern}")
    print(f"{len(diff)} differing outputs against {rev}, {len(undeclared)} undeclared, "
          f"{len(stale)} stale declarations")
    return 1 if undeclared or stale else 0


if __name__ == "__main__":
    sys.exit(main())
