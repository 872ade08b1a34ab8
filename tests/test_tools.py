"""The scripts under tools/, with the commands they run replaced by stubs."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pooled, status, verdict", [("a", 0, "identical"), ("b", 1, "differs")])
def test_compare_outputs_checks_pooled_against_serial(compare_outputs, monkeypatch, capsys,
                                                      tmp_path, pooled, status, verdict):
    # both sides write the same files, so only the check within each side can
    # tell a pooled trend CSV that differs from the serial one
    def run_all(checkout, folder):
        Path(folder).mkdir(parents=True)
        (Path(folder) / "trend_t1.csv").write_text("a")
        (Path(folder) / "trend_t2.csv").write_text(pooled)

    monkeypatch.setattr(compare_outputs, "run_all", run_all)
    assert compare_outputs.main(["parent", "change", "--work", str(tmp_path / "work")]) == status
    assert capsys.readouterr().out.splitlines() == [
        "identical trend_t1.csv", "identical trend_t2.csv",
        f"{verdict} serial-vs-pooled parent", f"{verdict} serial-vs-pooled change"]
