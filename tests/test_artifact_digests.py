"""Every artifact digest of docs/artifact_digests.py against the committed
table, tests/artifact_digests.txt.

Update rule: a change that moves a digest on purpose rewrites the table in
the same change,

    PYTHONPATH=src python3 docs/artifact_digests.py --write tests/artifact_digests.txt

and CHANGES.md explains every moved line.  Never rewrite the table only to
make this test pass."""
import importlib.util
from pathlib import Path

TABLE = Path(__file__).with_name("artifact_digests.txt")
SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "artifact_digests.py"


def _digests(lines: list[str]) -> dict[str, str]:
    return {"/".join(line.split()[:2]): line.split()[2] for line in lines}


def test_artifact_digests_match_the_committed_table(tmp_path):
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    committed = TABLE.read_text().splitlines()
    recorded = [line for line in committed if line.startswith("#")]
    running = script.versions()
    assert recorded == running, f"table written under {recorded}, run under {running}"
    lines, differ = script.digest_table(tmp_path)
    assert differ == [], f"artifacts differ at workers = {script.POOL_WORKERS}: {differ}"
    want, got = _digests(committed[len(recorded):]), _digests(lines)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert moved == [], f"moved artifacts: {moved}"
