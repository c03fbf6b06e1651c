"""Compare every artifact that two source trees write at the pinned configs
of docs/artifact_digests.py, as written and after normalising what a change
of the config fields alone moves.

    mkdir -p /tmp/old && git archive <commit> | tar -x -C /tmp/old
    python3 docs/compare_artifacts.py /tmp/old . --drop path_steps --drop inf_x_values

Each tree runs, in a fresh interpreter, the kinds that both trees know:
every kind at workers = 1 and each replica kind also at workers = 3, with
that tree's `docs/artifact_digests.py` settings.  The normalisation replaces
the 16-hex config hash (in a table's `config=` line and in report.json's
`config_hash`) and drops each `--drop` key's line from `config_lines`.  The
script prints the counts and the files that differ, and exits non-zero if
any file differs after the normalisation.
"""
from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_RUN = """
import importlib.util, os, sys
root, work, kinds = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
sys.path.insert(0, os.path.join(root, "src"))
spec = importlib.util.spec_from_file_location(
    "digests", os.path.join(root, "docs", "artifact_digests.py"))
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)
from sbmlab.harness import REGISTRY
if kinds == ["?"]:
    print(" ".join(REGISTRY))
    sys.exit()
os.chdir(work)
for kind in kinds:
    digests._artifacts(kind, 1)
    if REGISTRY[kind].run is None:
        digests._artifacts(kind, digests.POOL_WORKERS)
"""


def _python(tree: str, work: str, kinds: str) -> str:
    tree = str(Path(tree).resolve())
    out = subprocess.run([sys.executable, "-c", _RUN, tree, work, kinds], check=True,
                         capture_output=True, text=True)
    return out.stdout


def _artifacts(tree: str, work: Path, kinds: list[str]) -> dict[str, bytes]:
    work.mkdir()
    _python(tree, str(work), ",".join(kinds))
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*"))
            if p.is_file()}


def _normalised(data: bytes, drop: list[str]) -> bytes:
    text = re.sub(r"config=[0-9a-f]{16}", "config=HASH", data.decode())
    text = re.sub(r'"config_hash": "[0-9a-f]{16}"', '"config_hash": "HASH"', text)
    return "".join(line for line in text.splitlines(keepends=True)
                   if not any(f'"{key} = ' in line for key in drop)).encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="source tree of the parent")
    ap.add_argument("new", help="source tree of the change")
    ap.add_argument("--drop", action="append", default=[], metavar="KEY",
                    help="a config key whose config_lines line is dropped before comparing")
    args = ap.parse_args()
    old_kinds, new_kinds = (_python(tree, ".", "?").split() for tree in (args.old, args.new))
    kinds = [k for k in new_kinds if k in old_kinds]
    with tempfile.TemporaryDirectory() as tmp:
        old = _artifacts(args.old, Path(tmp, "old"), kinds)
        new = _artifacts(args.new, Path(tmp, "new"), kinds)
    names = sorted(old.keys() | new.keys())
    moved = [n for n in names if old.get(n) != new.get(n)]
    differ = [n for n in moved if n not in old or n not in new
              or _normalised(old[n], args.drop) != _normalised(new[n], args.drop)]
    print(f"kinds: {' '.join(kinds)}")
    print(f"{len(names)} artifacts: {len(names) - len(moved)} identical as written, "
          f"{len(names) - len(differ)} identical after normalisation")
    print(f"moved as written: {' '.join(moved)}")
    print(f"differ after normalisation: {' '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
