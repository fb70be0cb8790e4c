"""Saved models of format version 1 stay readable and byte-stable.

tests/data holds one model per method, trained on gen_logical(20) with
MethodConfig(seed=1) and saved with the dataset's feature and label names
and no standardizer, next to its predictions for the same 20 rows.  An
earlier version of the program wrote these files; they are not regenerated.
Each must still load, predict the same bits and save back to the same bytes.
With any one node replaced by a junk value, each must still either load and
predict 0/1 bits or be rejected with an error naming the file and a JSON path.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# Replacement values for one node of a model file: too large for any 64-bit
# number, scalars of every JSON type, and the empty and nested containers.
_JUNK = [10**400, 5, -1, 1.5, "a", True, None, [], [[1]], {}]


def _node_paths(node, keys=()):
    """The key path of node and of every node below it, depth first."""
    yield keys
    if isinstance(node, (dict, list)):
        for k, v in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(v, (*keys, k))


def _documents():
    """The tests/data model documents, and one of them with a standardizer."""
    docs = [json.loads((DATA / f"{name.replace('+', '_')}.json").read_text())
            for name in METHOD_NAMES]
    docs.append({**docs[0], "standardizer": {"mean": [0.5, 0.5], "std": [0.5, 1e-9]}})
    return docs


_DOCS = _documents()
# (document, key path) of every node under $.model or $.standardizer.
_EDITS = [(i, (field, *keys)) for i, doc in enumerate(_DOCS)
          for field in ("model", "standardizer") if doc[field] is not None
          for keys in _node_paths(doc[field])]


@settings(max_examples=300, deadline=None)
@given(edit=st.sampled_from(_EDITS), junk=st.sampled_from(_JUNK))
def test_edited_model_predicts_or_names_its_path(edit, junk):
    """A model file with one node replaced either loads and predicts a 0/1
    matrix, or is rejected with a ValueError naming the file and then a JSON
    path (or the unknown model kind)."""
    i, keys = edit
    doc = copy.deepcopy(_DOCS[i])
    parent = doc
    for k in keys[:-1]:
        parent = parent[k]
    parent[keys[-1]] = copy.deepcopy(junk)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.json"
        path.write_text(json.dumps(doc))
        try:
            model, _ = load_model(path)
        except ValueError as e:
            named = rf"{re.escape(str(path))}: ((missing )?field \$|\$|cannot load model kind )"
            assert re.match(named, str(e)), str(e)
            return
    X = np.random.default_rng(0).normal(size=(3, model.input_dim))
    bits = model.predict(X)
    assert bits.shape == (3, model.n_labels)
    assert set(np.unique(bits)) <= {0, 1}
