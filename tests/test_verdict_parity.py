"""scripts/verdict_parity.py, the working tree against itself."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "verdict_parity", ROOT / "scripts" / "verdict_parity.py")
verdict_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_parity)


def test_a_checkout_agrees_with_itself(capsys):
    code = verdict_parity.main(["--parent", str(ROOT), "--change", str(ROOT),
                                "--count", "150"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("150 cases, 1152 calls: ") and out.endswith("; 0 cases differ\n")
