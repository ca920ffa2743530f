"""tools/lapack_counts.py counts the same solves and transforms in two copies
of a tree."""
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load():
    # the tool imports same_results from its own directory
    sys.path.insert(0, str(_TOOLS))
    try:
        spec = importlib.util.spec_from_file_location(
            "lapack_counts", _TOOLS / "lapack_counts.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_TOOLS))
    return module


def test_head_against_head_gives_equal_counts():
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=_TOOLS,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    tool = _load()
    with tempfile.TemporaryDirectory() as tmp:
        tool.extract("HEAD", Path(tmp))
        base, again = tool.run_tree(Path(tmp)), tool.run_tree(Path(tmp))
    assert base == again
    # the 16 x 16 blocks of nc-tensor reach LAPACK, each DiscOp.apply of
    # ksk one inverse real FFT, and each row shows Δ 0 calls and blocks
    assert any(name.startswith("nc-tensor:") and side == 16
               for name, _, side, _ in base)
    applies = [base[key] for key in base
               if key[:2] == ("loc-suite:ksk", "irfft")]
    assert applies and all(calls > 0 and blocks >= calls
                           for calls, blocks in applies)
    assert all(flag == "-" for _, routine, _, flag in base
               if "fft" in routine)
    rows = tool.table(base, again).splitlines()[2:]
    assert len(rows) > len(base)
    assert all(r.endswith("| +0 |") and r.count("| +0 |") == 2
               for r in rows)
