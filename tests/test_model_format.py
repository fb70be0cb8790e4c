"""Saved models of format version 1 stay readable and byte-stable.

tests/data holds one model per method, trained on gen_logical(20) with
MethodConfig(seed=1) and saved with the dataset's feature and label names
and no standardizer, next to its predictions for the same 20 rows.  An
earlier version of the program wrote these files; they are not regenerated.
Each must still load, predict the same bits and save back to the same bytes.
"""

from pathlib import Path

import numpy as np
import pytest

from mlcascade.data import gen_logical
from mlcascade.methods import METHOD_NAMES, MODEL_VERSION, load_model, save_model

DATA = Path(__file__).resolve().parent / "data"


def test_model_version_is_still_1():
    assert MODEL_VERSION == 1


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_frozen_model_predicts_and_resaves_identically(name, tmp_path):
    stem = name.replace("+", "_")
    frozen = DATA / f"{stem}.json"
    model, meta = load_model(frozen)
    assert model.kind == name

    header, *rows = (DATA / f"{stem}-predictions.csv").read_text().splitlines()
    assert header.split(",") == meta["label_names"] == ["or", "and", "xor"]
    expected = np.array([[int(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(model.predict(gen_logical(20).X), expected)

    resaved = tmp_path / "model.json"
    save_model(model, resaved, meta["feature_names"], meta["label_names"], meta["standardizer"])
    assert resaved.read_bytes() == frozen.read_bytes()
