"""tools/bit_identity.py on a two-point grid, with this checkout on both sides."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bit_identity", ROOT / "tools" / "bit_identity.py")
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)

GRID = [["gen_logical", 20], ["train_predict", "br", "logical"]]
MODEL = "train_predict br logical: model.json"


def _stub_runs(monkeypatch, changed):
    """Record each run_side call's hashes, with MODEL's replaced by zeros in
    the runs for which changed(call index, one_thread) holds."""
    run_side = bit_identity.run_side
    runs = []

    def stubbed(checkout, grid, one_thread=False):
        hashes = run_side(checkout, grid, one_thread)
        runs.append(dict(hashes))
        if changed(len(runs) - 1, one_thread):
            hashes[MODEL] = "0" * 64
        return hashes

    monkeypatch.setattr(bit_identity, "run_side", stubbed)
    return runs


def test_same_checkout_has_no_differing_artifact(capsys):
    assert bit_identity.report(ROOT, ROOT, GRID) == 0
    assert capsys.readouterr().out == (
        "0 of 3 artifacts differ over 2 grid points\n"
        "0 of 3 artifacts of the change differ on one BLAS thread\n")


def test_a_differing_artifact_is_printed_with_its_grid_point(monkeypatch, capsys):
    # Calls 1 and 2 are the change's runs, on the default and on one thread.
    runs = _stub_runs(monkeypatch, lambda call, one_thread: call > 0)
    assert bit_identity.report(ROOT, ROOT, GRID) == 1
    assert capsys.readouterr().out == (
        f"DIFFERS  {MODEL}  parent {runs[0][MODEL]}  change {'0' * 64}\n"
        "1 of 3 artifacts differ over 2 grid points\n"
        "0 of 3 artifacts of the change differ on one BLAS thread\n")


def test_an_artifact_that_differs_on_one_thread_is_printed(monkeypatch, capsys):
    runs = _stub_runs(monkeypatch, lambda call, one_thread: one_thread)
    assert bit_identity.report(ROOT, ROOT, GRID) == 1
    assert capsys.readouterr().out == (
        "0 of 3 artifacts differ over 2 grid points\n"
        f"THREADS  {MODEL}  default {runs[1][MODEL]}  one-thread {'0' * 64}\n"
        "1 of 3 artifacts of the change differ on one BLAS thread\n")
