"""tools/bit_identity.py on a two-point grid, with this checkout on both sides."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bit_identity", ROOT / "tools" / "bit_identity.py")
bit_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_identity)

GRID = [["gen_logical", 20], ["train_predict", "br", "logical"]]


def test_same_checkout_has_no_differing_artifact(capsys):
    assert bit_identity.report(ROOT, ROOT, GRID) == 0
    assert capsys.readouterr().out == "0 of 3 artifacts differ over 2 grid points\n"


def test_a_differing_artifact_is_printed_with_its_grid_point(monkeypatch, capsys):
    run_side = bit_identity.run_side
    sides = []

    def stubbed(checkout, grid):
        hashes = run_side(checkout, grid)
        sides.append(hashes)
        if len(sides) == 2:
            hashes["train_predict br logical: model.json"] = "0" * 64
        return hashes

    monkeypatch.setattr(bit_identity, "run_side", stubbed)
    assert bit_identity.report(ROOT, ROOT, GRID) == 1
    parent = sides[0]["train_predict br logical: model.json"]
    assert capsys.readouterr().out == (
        f"DIFFERS  train_predict br logical: model.json  parent {parent}  change {'0' * 64}\n"
        "1 of 3 artifacts differ over 2 grid points\n")
