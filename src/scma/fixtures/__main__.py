"""Dump a fixture document as JSON: python -m scma.fixtures <id> [out.json]"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from . import FIXTURE_IDS, load_fixture


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help"):
        print(f"usage: python -m scma.fixtures <id> [out.json]\n"
              f"ids: {', '.join(sorted(FIXTURE_IDS))}")
        return 0 if args else 2
    try:
        doc = load_fixture(args[0])
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=1) + "\n"
    if len(args) > 1:
        try:
            Path(args[1]).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args[1]}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
