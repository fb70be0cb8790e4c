import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcascade import cli
from mlcascade.cli import main
from mlcascade.data import (Dataset, apply_standardizer, fit_standardizer, gen_logical,
                            load_csv, save_csv)
from mlcascade.methods import METHOD_NAMES, MethodConfig, train_method

DATA = Path(__file__).resolve().parent / "data"


def reference_predictions_csv(label_names, preds) -> bytes:
    """The predict output as one string per cell, the way it was first written."""
    lines = [",".join(label_names), *(",".join(map(str, row)) for row in preds.tolist())]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestGen:
    def test_logical_csv_and_manifest(self, tmp_path):
        out = tmp_path / "logical.csv"
        assert main(["gen", "logical", "--n", "20", "--out", str(out)]) == 0
        ds = load_csv(out, label_count=3)
        assert ds.n_rows == 20 and ds.n_features == 2 and ds.n_labels == 3
        manifest = json.loads((tmp_path / "logical.manifest.json").read_text())
        assert manifest == {"kind": "logical", "n": 20}

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen", "synthetic", "--n", "50", "--d", "3", "--l", "2",
              "--hidden", "5", "--seed", "9", "--out", str(a)])
        main(["gen", "synthetic", "--n", "50", "--d", "3", "--l", "2",
              "--hidden", "5", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_failing_writer_leaves_no_files(self, tmp_path, monkeypatch):
        def failing_save_csv(dataset, path):
            path.write_text("x1,x2,or\n0.0,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_csv", failing_save_csv)
        assert main(["gen", "logical", "--out", str(tmp_path / "logical.csv")]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_invalid_kind_is_usage_error(self, tmp_path):
        assert main(["gen", "fractal", "--out", str(tmp_path / "x.csv")]) == 1


class TestBench:
    def test_single_method_single_iteration(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["bench", "--dataset", "logical", "--methods", "br",
                     "--iters", "1", "--out", str(out)])
        assert code == 0
        exact = (out / "logical-exactmatch.csv").read_text().strip().split("\n")
        assert exact[0] == "dataset,br,br_rank"
        assert len(exact) == 2
        assert (out / "logical-hamming.csv").exists()
        assert "exact match" in (out / "logical-report.txt").read_text()
        assert "exact match" in capsys.readouterr().out

    def test_missing_csv_is_data_error(self, tmp_path, capsys):
        code = main(["bench", "--dataset", str(tmp_path / "nope.csv"),
                     "--label-count", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_diverging_method_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["bench", "--dataset", "logical", "--methods", "br",
                     "--iters", "1", "--lr", "1e30", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mlcascade: data error: method 'br' failed on dataset "
                              "'logical', iteration 0: label 'or': training diverged at epoch ")
        assert not out.exists()

    def test_method_raising_another_error_is_internal_error(self, tmp_path, monkeypatch,
                                                             capsys):
        def boom(name, dataset, cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr("mlcascade.evaluate.train_method", boom)
        code = main(["bench", "--dataset", "logical", "--methods", "br",
                     "--iters", "1", "--out", str(tmp_path / "reports")])
        assert code == 3
        assert capsys.readouterr().err == ("mlcascade: method 'br' failed on dataset "
                                           "'logical', iteration 0: boom\n")

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_csv_without_label_columns_is_data_error(self, tmp_path, capsys, method):
        data = tmp_path / "nolab.csv"
        save_csv(Dataset(gen_logical(20).X, np.zeros((20, 0), dtype=np.int64)), data)
        out = tmp_path / "reports"
        code = main(["bench", "--dataset", str(data), "--label-count", "0", "--methods", method,
                     "--iters", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"mlcascade: data error: method {method!r} failed on dataset 'nolab', iteration 0: "
            "training data has no label columns\n")
        assert not out.exists()

    def test_unknown_method_is_usage_error(self, tmp_path):
        code = main(["bench", "--dataset", "logical", "--methods", "svm",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_name_flag_names_the_report_files(self, tmp_path):
        code = main(["bench", "--dataset", "logical", "--methods", "br", "--iters", "1",
                     "--name", "myname", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "myname-exactmatch.csv", "myname-hamming.csv", "myname-report.txt"]

    @pytest.mark.parametrize("argv, message", [
        (["--dataset", "logical", "--name", "\udcff"],
         "--name: name '\\udcff' cannot be written as UTF-8"),
        (["--dataset", "{dir}/x\udcff.csv", "--label-count", "3"],
         "--dataset: dataset 'x\\udcff' cannot be written as UTF-8"),
    ], ids=["--name", "--dataset"])
    def test_report_name_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, argv, message):
        # A command-line byte that is not UTF-8 reaches argv as a lone surrogate.
        save_csv(gen_logical(20), tmp_path / "x\udcff.csv")
        out = tmp_path / "out"
        assert main(["bench", *(a.format(dir=tmp_path) for a in argv), "--methods", "br",
                     "--iters", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mlcascade: error: {message}\n"
        assert not out.exists()

    def test_same_seed_is_byte_identical(self, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            code = main(["bench", "--dataset", "logical", "--methods", "br,ccasl",
                         "--iters", "2", "--seed", "7", "--out", str(d)])
            assert code == 0
        for name in ("logical-exactmatch.csv", "logical-hamming.csv", "logical-report.txt"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestTrainPredict:
    @pytest.fixture()
    def logical_csv(self, tmp_path):
        path = tmp_path / "logical.csv"
        save_csv(gen_logical(20), path)
        return path

    def test_round_trip_matches_in_process(self, tmp_path, logical_csv):
        model_path = tmp_path / "model.json"
        code = main(["train", "--dataset", str(logical_csv), "--label-count", "3",
                     "--method", "ccasl", "--seed", "3", "--out", str(model_path)])
        assert code == 0
        preds_path = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(model_path), "--data", str(logical_csv),
                     "--label-count", "3", "--out", str(preds_path)])
        assert code == 0

        lines = preds_path.read_text().strip().split("\n")
        assert lines[0] == "or,and,xor"
        got = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
        assert got.shape == (20, 3)

        # The train command standardizes features before fitting.
        ds = apply_standardizer(fit_standardizer(gen_logical(20)), gen_logical(20))
        expected = train_method("ccasl", ds, MethodConfig(seed=3)).predict(ds.X)
        assert np.array_equal(got, expected)

    def test_no_standardize_trains_on_raw_features(self, tmp_path, logical_csv):
        model_path = tmp_path / "model.json"
        code = main(["train", "--dataset", str(logical_csv), "--label-count", "3",
                     "--method", "br", "--no-standardize", "--out", str(model_path)])
        assert code == 0
        preds_path = tmp_path / "preds.csv"
        main(["predict", "--model", str(model_path), "--data", str(logical_csv),
              "--label-count", "3", "--out", str(preds_path)])
        lines = preds_path.read_text().strip().split("\n")[1:]
        got = np.array([[int(v) for v in line.split(",")] for line in lines])
        ds = gen_logical(20)
        expected = train_method("br", ds, MethodConfig(seed=1)).predict(ds.X)
        assert np.array_equal(got, expected)

    def test_model_trained_on_a_byte_order_marked_csv_predicts_the_bare_one(self, tmp_path,
                                                                             logical_csv):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + logical_csv.read_bytes())
        model_path = tmp_path / "model.json"
        assert main(["train", "--dataset", str(marked), "--label-count", "3",
                     "--method", "br", "--out", str(model_path)]) == 0
        assert json.loads(model_path.read_text())["feature_names"] == ["x1", "x2"]
        assert main(["predict", "--model", str(model_path), "--data", str(logical_csv),
                     "--label-count", "3", "--out", str(tmp_path / "p.csv")]) == 0

    def test_dimension_mismatch_is_data_error(self, tmp_path, logical_csv, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--dataset", str(logical_csv), "--label-count", "3",
              "--method", "br", "--out", str(model_path)])
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,c\n1.0,2.0,3.0\n")
        code = main(["predict", "--model", str(model_path), "--data", str(wide),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "features" in capsys.readouterr().err

    def test_csv_without_label_columns_is_data_error(self, tmp_path, logical_csv, capsys):
        code = main(["train", "--dataset", str(logical_csv), "--label-count", "0",
                     "--method", "br", "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "mlcascade: data error: training data has no label columns\n"
        assert not (tmp_path / "m.json").exists()

    def test_missing_model_is_data_error(self, tmp_path, logical_csv):
        code = main(["predict", "--model", str(tmp_path / "no.json"),
                     "--data", str(logical_csv), "--label-count", "3",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_diverging_fit_is_data_error_without_warnings(self, tmp_path, logical_csv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--dataset", str(logical_csv), "--label-count", "3",
                         "--method", "br", "--lr", "1e30", "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "diverged at epoch " in err and "learning_rate=1e+30" in err
        assert "data error: label 'or': training diverged" in err
        assert caught == []
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("method, where", [
        ("cc", "chain position 0 (target 'or')"),
        ("ccasl", "chain position 0 (target 'z1')"),
    ])
    def test_diverging_chain_fit_names_its_position(self, tmp_path, logical_csv, capsys,
                                                    method, where):
        code = main(["train", "--dataset", str(logical_csv), "--label-count", "3",
                     "--method", method, "--lr", "1e30", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"data error: {where}: training diverged at epoch " in capsys.readouterr().err

    @pytest.fixture()
    def model_doc(self, tmp_path, logical_csv):
        path = tmp_path / "model.json"
        main(["train", "--dataset", str(logical_csv), "--label-count", "3",
              "--method", "ccasl+br", "--out", str(path)])
        return json.loads(path.read_text())

    def _predict(self, tmp_path, doc, data):
        model_path = tmp_path / "edited.json"
        model_path.write_text(json.dumps(doc))
        return main(["predict", "--model", str(model_path), "--data", str(data),
                     "--label-count", "3", "--out", str(tmp_path / "p.csv")])

    def test_reordered_feature_columns_are_data_error(self, tmp_path, logical_csv,
                                                      model_doc, capsys):
        header, *rows = logical_csv.read_text().splitlines()
        assert header.startswith("x1,x2,")
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("\n".join(["x2,x1," + header[6:], *rows]) + "\n")
        assert self._predict(tmp_path, model_doc, swapped) == 2
        err = capsys.readouterr().err
        assert "feature column 1" in err and "'x2'" in err and "'x1'" in err
        assert not (tmp_path / "p.csv").exists()

    def test_unknown_model_version_is_data_error(self, tmp_path, logical_csv,
                                                 model_doc, capsys):
        model_doc["version"] = 99
        assert self._predict(tmp_path, model_doc, logical_csv) == 2
        assert "unsupported model version 99" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"format": "mlcascade-model", "version": 1, ',
         "not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 45 (char 44)"),
        ("[" * 5000 + "]" * 5000, "JSON nested too deeply"),
        ('{"format": "mlcascade-data", "version": 1}', "not a saved model file"),
    ], ids=["truncated", "nested-5000", "other-format"])
    def test_model_that_is_not_json_is_data_error(self, tmp_path, logical_csv, capsys,
                                                  text, message):
        model_path = tmp_path / "broken.json"
        model_path.write_text(text)
        assert main(["predict", "--model", str(model_path), "--data", str(logical_csv),
                     "--label-count", "3", "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"mlcascade: data error: {model_path}: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["meta"].update(models=5),
         "field $.model.meta.models must be a list of objects"),
        (lambda m: m.update(first_layer=5), "field $.model.first_layer must be an object, got 5"),
        (lambda m: m.update(first_layer="abc"),
         'field $.model.first_layer must be an object, got "abc"'),
        (lambda m: m.update(first_layer=[]), "field $.model.first_layer must be an object, got []"),
        (lambda m: m["first_layer"].update(cascade=[1]),
         "field $.model.first_layer.cascade must be an object, got [1]"),
        (lambda m: m.update(kind="svm"), "cannot load model kind 'svm'"),
    ])
    def test_wrong_type_model_field_is_data_error(self, tmp_path, logical_csv,
                                                  model_doc, capsys, edit, message):
        edit(model_doc["model"])
        assert self._predict(tmp_path, model_doc, logical_csv) == 2
        assert f"edited.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("model, shown", [(5, "5"), ("abc", '"abc"'), ([], "[]")])
    def test_model_that_is_not_an_object_is_data_error(self, tmp_path, logical_csv,
                                                       model_doc, capsys, model, shown):
        model_doc["model"] = model
        assert self._predict(tmp_path, model_doc, logical_csv) == 2
        assert f"edited.json: field $.model must be an object, got {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["first_layer"].update(cascade_at_test="false"),
         'field $.model.first_layer.cascade_at_test must be true or false, got "false"'),
        (lambda m: m["first_layer"].update(n_labels="3"),
         'field $.model.first_layer.n_labels must be an integer, got "3"'),
        (lambda m: m["first_layer"]["chain"].update(input_dim=2.0),
         "field $.model.first_layer.chain.input_dim must be an integer, got 2.0"),
        (lambda m: m["first_layer"]["cascade"].update(D=True),
         "field $.model.first_layer.cascade.D must be an integer, got true"),
    ])
    def test_wrong_type_scalar_field_is_data_error(self, tmp_path, logical_csv,
                                                   model_doc, capsys, edit, message):
        edit(model_doc["model"])
        assert self._predict(tmp_path, model_doc, logical_csv) == 2
        assert f"edited.json: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["model"]["middle"]["models"][0]["weights"].__setitem__(1, "0.5"),
         'field $.model.middle.models[0].weights[1] must be a number, got "0.5"'),
        (lambda d: d["model"]["cascade"]["weights"][1].__setitem__(0, "0.1"),
         'field $.model.cascade.weights[1][0] must be a number, got "0.1"'),
        (lambda d: d["model"]["cascade"]["thresholds"].__setitem__(0, True),
         "field $.model.cascade.thresholds[0] must be a number, got true"),
        (lambda d: d["model"]["middle"]["label_order"].__setitem__(0, 0.0),
         "field $.model.middle.label_order[0] must be an integer, got 0.0"),
        (lambda d: d["model"]["indicators"]["entries"][0][0].__setitem__(0, "0"),
         'field $.model.indicators.entries[0][0][0] must be an integer, got "0"'),
        (lambda d: d["model"]["indicators"]["entries"][1].__setitem__(1, False),
         "field $.model.indicators.entries[1][1] must be an integer, got false"),
        (lambda d: d["model"]["indicators"]["entries"][0].__setitem__(1, [1]),
         "$.model.indicators: entries[0][1] must be an integer, got [1]"),
        (lambda d: d["model"]["indicators"]["entries"][0][0].__setitem__(0, [1]),
         "$.model.indicators: entries[0][0][0] must be an integer, got [1]"),
        (lambda d: d["standardizer"]["mean"].__setitem__(0, "0.5"),
         'field $.standardizer.mean[0] must be a number, got "0.5"'),
        (lambda d: d["standardizer"].update(std=[1.0, None]),
         "field $.standardizer.std[1] must be a number, got null"),
        (lambda d: d["model"]["indicators"]["entries"].__setitem__(0, [[0, 1]]),
         "$.model.indicators: entries[0] must be a pair [subset, code], got [[0, 1]]"),
        (lambda d: d["model"]["indicators"]["entries"].__setitem__(0, [[0, 1], 1, 9]),
         "$.model.indicators: entries[0] must be a pair [subset, code], got [[0, 1], 1, 9]"),
        (lambda d: d["model"]["cascade"].update(seed="abc"),
         'field $.model.cascade.seed must be an integer, got "abc"'),
        (lambda d: d["model"]["indicators"].update(seed=[1.5]),
         "field $.model.indicators.seed must be an integer, got [1.5]"),
        (lambda d: d["model"]["cascade"].pop("seed"), "missing field $.model.cascade.seed"),
        (lambda d: d["model"]["cascade"]["weights"].__setitem__(1, [0.1]),
         "$.model.cascade: unit 1 weight row must have length 3"),
        (lambda d: d["model"]["middle"]["label_order"].__setitem__(1, 0),
         "$.model.middle: label_order must be a permutation of the chain positions"),
        (lambda d: d["model"]["indicators"]["entries"][0].__setitem__(1, 99),
         "$.model.indicators: code 99 out of range for subset of size 3"),
        (lambda d: d["model"]["cascade"]["weights"][1].__setitem__(2, float("nan")),
         "$.model.cascade: unit 1 weight row must be finite"),
        (lambda d: d["model"]["indicators"]["entries"][0].__setitem__(0, []),
         "$.model.indicators: subsets must be nonempty"),
        (lambda d: d["model"]["indicators"]["entries"][0][0].reverse(),
         "$.model.indicators: subset indices must be strictly increasing"),
        # A list field holding a bare number.
        (lambda d: d["model"]["middle"].update(label_order=5),
         "field $.model.middle.label_order must be a list, got 5"),
        (lambda d: d["model"]["cascade"].update(weights=1.5),
         "field $.model.cascade.weights must be a list, got 1.5"),
        (lambda d: d["model"]["indicators"].update(entries=5),
         "field $.model.indicators.entries must be a list, got 5"),
    ])
    def test_wrong_type_number_list_entry_is_data_error(self, tmp_path, logical_csv,
                                                        capsys, edit, message):
        path = tmp_path / "model.json"
        main(["train", "--dataset", str(logical_csv), "--label-count", "3",
              "--method", "ccasl+aml", "--out", str(path)])
        doc = json.loads(path.read_text())
        edit(doc)
        assert self._predict(tmp_path, doc, logical_csv) == 2
        assert f"edited.json: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.fixture()
    def br_doc(self, tmp_path, logical_csv):
        path = tmp_path / "br.json"
        main(["train", "--dataset", str(logical_csv), "--label-count", "3",
              "--method", "br", "--out", str(path)])
        return json.loads(path.read_text())

    @pytest.mark.parametrize("edit, message", [
        # JSON's "\ud800" escape reads as a lone surrogate, which UTF-8 cannot write.
        *((lambda d, k=k: d[k].__setitem__(0, "\ud800"),
           f"field $.{k}[0] '\\ud800' cannot be written as UTF-8")
          for k in ("feature_names", "label_names")),
        (lambda d: d.update(label_names=["or"]),
         "field $.label_names has length 1, but the model has 3 labels"),
        (lambda d: d["standardizer"].update(mean=[0.5]),
         "field $.standardizer.mean has length 1, but the model has 2 inputs"),
        (lambda d: d["standardizer"].pop("mean"), "missing field $.standardizer.mean"),
        (lambda d: d["label_names"].__setitem__(1, 5),
         "field $.label_names[1] must be a string, got 5"),
        (lambda d: d.update(feature_names="x1"),
         'field $.feature_names must be a flat list, got "x1"'),
        (lambda d: d.update(standardizer=[0.0, 1.0]),
         "field $.standardizer must be an object, got [0.0, 1.0]"),
        (lambda d: d["model"]["models"][1].update(weights=[0.1]),
         "$.model: all per-label models must share input_dim"),
        (lambda d: d["model"]["models"][0].update(weights=[[0.1, 0.2, 0.3]]),
         "$.model.models[0]: weights must be a 1-D vector"),
        # Python's json reads and writes NaN and Infinity.
        (lambda d: d["model"]["models"][1]["weights"].__setitem__(0, float("nan")),
         "$.model.models[1]: weights must be finite"),
        (lambda d: d["standardizer"]["std"].__setitem__(0, -0.5),
         "$.standardizer: std[0] must be finite and >= 1e-09, got -0.5"),
        (lambda d: d["standardizer"]["std"].__setitem__(1, 0),
         "$.standardizer: std[1] must be finite and >= 1e-09, got 0.0"),
        (lambda d: d["standardizer"]["std"].__setitem__(0, float("inf")),
         "$.standardizer: std[0] must be finite and >= 1e-09, got inf"),
        (lambda d: d["standardizer"]["mean"].__setitem__(1, float("nan")),
         "$.standardizer: mean[1] must be finite, got nan"),
        (lambda d: d["standardizer"]["mean"].__setitem__(0, 10**400),
         "$.standardizer: int too large to convert to float"),
        (lambda d: d["standardizer"].update(std=-1),
         "field $.standardizer.std must be a list, got -1"),
        # Models that predict no labels, with no label names to count them by.
        (lambda d: d.update(label_names=None) or d["model"].update(models=[]),
         "$.model: the model predicts no labels"),
        (lambda d: d.update(label_names=None, model={
            "kind": "cc", "models": [], "label_order": [], "input_dim": 2}),
         "$.model: the model predicts no labels"),
        (lambda d: d.update(label_names=None, model={
            "kind": "ccasl", "n_labels": -1, "cascade_at_test": False,
            "cascade": {"D": 2, "H": 1, "seed": 0, "weights": [[1.0, -1.0]], "thresholds": [0.0]},
            "chain": {"models": [], "label_order": [], "input_dim": 2}}),
         "$.model: the model predicts no labels"),
    ])
    def test_malformed_metadata_is_data_error(self, tmp_path, logical_csv, br_doc, capsys,
                                              edit, message):
        edit(br_doc)
        assert self._predict(tmp_path, br_doc, logical_csv) == 2
        assert f"edited.json: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("method, edit, message", [
        ("elm", lambda m: m["projection"]["weights"][0].__setitem__(0, float("nan")),
         "$.model.projection: unit 0 weight row must be finite"),
        ("elm", lambda m: m["projection"]["weights"][2].__setitem__(1, float("inf")),
         "$.model.projection: unit 2 weight row must be finite"),
        ("ccasl", lambda m: m.update(n_labels=4),
         "$.model: n_labels is 4, but the chain predicts 3 labels after 3 synthetic bits"),
        ("ccasl", lambda m: m.update(n_labels=2),
         "$.model: n_labels is 2, but the chain predicts 3 labels after 3 synthetic bits"),
        ("elm", lambda m: m["projection"]["thresholds"].pop(),
         "$.model.projection: need one weight row and one threshold per unit"),
        # Python's json reads and writes NaN.
        ("elm", lambda m: m["projection"]["thresholds"].__setitem__(1, float("nan")),
         "$.model.projection: thresholds must be finite"),
        ("cc", lambda m: m["models"][1].update(weights=m["models"][1]["weights"][:-1]),
         "$.model: chain position 1 expects 3 features, model has 2"),
        # Parts that each pass their own checks but do not fit together.
        ("ccasl", lambda m: m["cascade"].update(D=1, weights=[w[1:] for w in
                                                             m["cascade"]["weights"]]),
         "$.model: cascade.D is 1, but chain.input_dim is 2"),
        ("ccasl+aml", lambda m: m["indicators"]["entries"].pop(),
         "$.model: middle.n_labels is 9, but cascade.H + indicators.n_nodes is 8"),
        ("elm", lambda m: m["projection"].update(H=5, weights=m["projection"]["weights"][:-1],
                                                 thresholds=m["projection"]["thresholds"][:-1]),
         "$.model: br.input_dim is 8, but projection.D + projection.H is 7"),
        ("ccasl+aml", lambda m: m["output"].update(
            input_dim=10, models=[{"weights": o["weights"][:-1]} for o in m["output"]["models"]]),
         "$.model: output.input_dim is 10, but middle.input_dim + middle.n_labels is 11"),
        ("ccasl+br", lambda m: m.update(input_dim=3),
         "$.model: first_layer.input_dim is 2, but input_dim is 3"),
        ("ccasl+br", lambda m: m["meta"].update(
            input_dim=4, models=[{"weights": o["weights"][:-1]} for o in m["meta"]["models"]]),
         "$.model: meta.input_dim is 4, but input_dim + first_layer.n_labels is 5"),
        # An integer too large for the array it is read into.
        ("br", lambda m: m["models"][0]["weights"].__setitem__(0, 10**400),
         "$.model.models[0]: int too large to convert to float"),
        ("ccasl", lambda m: m["cascade"]["thresholds"].__setitem__(0, 10**400),
         "$.model.cascade: int too large to convert to float"),
        ("cc", lambda m: m["label_order"].__setitem__(0, 10**400),
         "$.model: Python int too large to convert to C long"),
        ("elm", lambda m: m["projection"].update(weights=-1),
         "field $.model.projection.weights must be a list, got -1"),
        # A negative seed, which no generator accepts.
        ("ccasl", lambda m: m["cascade"].update(seed=-1),
         "$.model.cascade: seed must be >= 0, got -1"),
        ("elm", lambda m: m["projection"].update(seed=-1),
         "$.model.projection: seed must be >= 0, got -1"),
        ("ccasl+aml", lambda m: m["indicators"].update(seed=-1),
         "$.model.indicators: seed must be >= 0, got -1"),
    ])
    def test_inconsistent_model_part_is_data_error(self, tmp_path, logical_csv, capsys,
                                                   method, edit, message):
        path = tmp_path / "model.json"
        main(["train", "--dataset", str(logical_csv), "--label-count", "3",
              "--method", method, "--out", str(path)])
        doc = json.loads(path.read_text())
        edit(doc["model"])
        # The label names follow the stored count, so only the model check catches it.
        doc["label_names"] = [f"y{j + 1}" for j in range(doc["model"].get("n_labels", 3))]
        assert self._predict(tmp_path, doc, logical_csv) == 2
        assert f"edited.json: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_null_metadata_predicts_with_default_names(self, tmp_path, logical_csv, br_doc):
        br_doc.update(feature_names=None, label_names=None, standardizer=None)
        assert self._predict(tmp_path, br_doc, logical_csv) == 0
        assert (tmp_path / "p.csv").read_text().splitlines()[0] == "y1,y2,y3"

    def test_non_finite_feature_is_data_error(self, tmp_path, logical_csv, model_doc, capsys):
        header, *rows = logical_csv.read_text().splitlines()
        rows[2] = "nan," + rows[2].split(",", 1)[1]
        data = tmp_path / "nan.csv"
        data.write_text("\n".join([header, *rows]) + "\n")
        assert self._predict(tmp_path, model_doc, data) == 2
        assert "nan.csv: row 4, column 'x1': value 'nan' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("text, label_count, message", [
        ("", "3", "empty file"),
        ("x1,x2,a,b,c\n0,1,0,1,1\n", "6", "label_count 6 exceeds 5 columns"),
        ("x1,x2,a,b,c\n0,1,0,1,1\n", "5", "label_count 5 leaves no feature column in 5 columns"),
    ], ids=["zero-byte", "label-count-too-large", "label-count-equals-width"])
    def test_unreadable_prediction_csv_is_data_error(self, tmp_path, capsys, text, label_count,
                                                     message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert main(["predict", "--model", str(DATA / "br.json"), "--data", str(data),
                     "--label-count", label_count, "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"mlcascade: data error: {data}: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("argv, bad, message", [
        ("bench --dataset {bad} --methods br", "dir",
         "cannot read dataset file {bad}: Is a directory"),
        ("train --dataset {bad} --method br", "dir",
         "cannot read dataset file {bad}: Is a directory"),
        ("predict --model {model} --data {bad}", "dir",
         "cannot read data file {bad}: Is a directory"),
        ("predict --model {bad} --data {data}", "dir",
         "cannot read model file {bad}: Is a directory"),
        ("bench --dataset {bad} --methods br", "latin-1", "{bad}: line 3: 'utf-8' codec can't "
         "decode byte 0xe9 in position 19: invalid continuation byte"),
        ("predict --model {model} --data {bad}", "long-cell",
         "{bad}: line 2: field larger than field limit (131072)"),
    ], ids=["bench-dir", "train-dir", "data-dir", "model-dir", "latin-1", "long-cell"])
    def test_unreadable_input_file_is_data_error(self, tmp_path, logical_csv, capsys,
                                                 argv, bad, message):
        path = tmp_path / "bad.csv"
        if bad == "dir":
            path.mkdir()
        elif bad == "latin-1":
            path.write_bytes(b"x1,x2,or\n0.5,0.5,1\n\xe9,0.5,0\n")
        else:
            path.write_text("x1,x2,or\n" + "0" * 131072 + "1,0.5,1\n")
        names = dict(bad=path, model=DATA / "br.json", data=logical_csv)
        out = tmp_path / "out"
        assert main([*(a.format(**names) for a in argv.split()),
                     "--label-count", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"mlcascade: data error: {message.format(**names)}\n"
        assert not out.exists()

    def test_missing_model_field_is_data_error(self, tmp_path, logical_csv,
                                               model_doc, capsys):
        del model_doc["model"]["first_layer"]["chain"]["models"][1]["weights"]
        assert self._predict(tmp_path, model_doc, logical_csv) == 2
        err = capsys.readouterr().err
        assert "missing field $.model.first_layer.chain.models[1].weights" in err

    def test_label_names_that_need_quoting_are_quoted(self, tmp_path):
        ds = gen_logical(20)
        data, model, preds = tmp_path / "quoted.csv", tmp_path / "m.json", tmp_path / "p.csv"
        # The header reads x1,x2,"y,1",y2.
        save_csv(Dataset(ds.X, ds.Y[:, :2], ["x1", "x2"], ["y,1", "y2"]), data)
        assert main(["train", "--dataset", str(data), "--label-count", "2", "--method", "br",
                     "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--label-count", "2", "--out", str(preds)]) == 0
        with open(preds, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y,1", "y2"]
        assert len(rows) == 21 and {len(row) for row in rows} == {2}

    def test_prediction_csv_has_exactly_label_columns(self, tmp_path, logical_csv):
        model_path = tmp_path / "model.json"
        main(["train", "--dataset", str(logical_csv), "--label-count", "3",
              "--method", "elm", "--out", str(model_path)])
        preds_path = tmp_path / "p.csv"
        main(["predict", "--model", str(model_path), "--data", str(logical_csv),
              "--label-count", "3", "--out", str(preds_path)])
        for line in preds_path.read_text().strip().split("\n"):
            assert len(line.split(",")) == 3


class TestPredictionOutput:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_matches_reference_writer(self, n, n_labels, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=(n, n_labels))
        names = [f"label{j}" for j in range(n_labels)]
        assert cli._predictions_csv(names, bits) == reference_predictions_csv(names, bits)

    @pytest.mark.parametrize("bits", [[[0]], [[1]], [[1], [0], [1]], [[0, 1, 1, 0]]])
    def test_single_row_or_label_matches_reference_writer(self, bits):
        bits = np.array(bits, dtype=np.int64)
        names = [f"y{j + 1}" for j in range(bits.shape[1])]
        assert cli._predictions_csv(names, bits) == reference_predictions_csv(names, bits)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_frozen_model_predictions_are_byte_identical(self, tmp_path, name):
        stem = name.replace("+", "_")
        data, out = tmp_path / "logical.csv", tmp_path / "p.csv"
        save_csv(gen_logical(20), data)
        assert main(["predict", "--model", str(DATA / f"{stem}.json"), "--data", str(data),
                     "--label-count", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{stem}-predictions.csv").read_bytes()


class TestUsage:
    def test_bad_flag_is_usage_error(self):
        assert main(["bench", "--no-such-flag"]) == 1

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

    def test_bad_iters_is_usage_error(self, tmp_path):
        code = main(["bench", "--dataset", "logical", "--iters", "0",
                     "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--dataset", "logical", "--iters", "0"], "--iters: iters must be >= 1, got 0"),
        (["bench", "--dataset", str(DATA / "missing.csv"), "--label-count", "-1"],
         "--label-count: label_count must be >= 0, got -1"),
        (["bench", "--dataset", "logical", "--gen-seed", "-1"],
         "--gen-seed: gen_seed must be >= 0, got -1"),
    ], ids=["--iters", "--label-count", "--gen-seed"])
    def test_lower_bound_message_names_flag_and_value(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"mlcascade: error: {message}\n"

    @pytest.mark.parametrize("argv, flag", [
        *(pytest.param(argv, argv[-2], id=" ".join(argv[-2:])) for argv in [
            *(["train", "--dataset", "logical", "--method", "ccasl+aml", flag, value]
              for flag, value in [("--epochs", "0"), ("--lr", "0"), ("--lr", "inf"), ("--l2", "-1"),
                                  ("--l2", "nan"), ("--l2", "inf"), ("--h", "-1"),
                                  ("--hprime", "-1"), ("--subset-size", "0")]),
            *(["gen", "synthetic", flag, value]
              for flag, value in [("--d", "0"), ("--l", "0"), ("--n", "0"), ("--hidden", "-1")]),
            ["gen", "logical", "--n", "3"],
            # A negative seed; --seed and --gen-seed both set a generator's seed.
            ["gen", "synthetic", "--seed", "-1"],
            ["gen", "logical", "--seed", "-1"],
            ["bench", "--dataset", "logical", "--seed", "-1"],
            ["train", "--dataset", "logical", "--method", "br", "--seed", "-1"],
            ["train", "--dataset", "synthetic", "--method", "br", "--gen-seed", "-1"],
            ["bench", "--dataset", str(DATA / "missing.csv"), "--label-count", "3",
             "--gen-seed", "-1"],
            ["train", "--dataset", str(DATA / "missing.csv"), "--method", "br",
             "--label-count", "-1"],
            ["predict", "--model", str(DATA / "br.json"), "--data", str(DATA / "missing.csv"),
             "--label-count", "-1"],
            ["bench", "--dataset", "logical", "--split", "1.5"],
            ["bench", "--dataset", "logical", "--methods", ","],
            # --name starts the name of each report file.
            ["bench", "--dataset", "logical", "--methods", "br", "--iters", "1", "--name", "a/b"],
            ["bench", "--dataset", "logical", "--methods", "br", "--iters", "1", "--name", ""],
        ]),
        # A CSV dataset needs --label-count, so the message names that flag.
        pytest.param(["bench", "--dataset", str(DATA / "missing.csv")], "--label-count",
                     id="csv without --label-count"),
    ])
    def test_flag_value_out_of_range_is_usage_error(self, tmp_path, capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"mlcascade: error: {flag}")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["train", "--dataset", "data.txt", "--method", "br"],
         "unknown dataset source 'data.txt'"),
        (["train", "--dataset", "logical", "--method", "mlp"], "unknown method 'mlp'"),
    ])
    def test_unknown_dataset_source_or_method_is_usage_error(self, tmp_path, capsys, argv,
                                                             message):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"mlcascade: error: {message}")
        assert not list(tmp_path.iterdir())

    def test_parser_is_built_once_per_process(self, monkeypatch):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        assert main(["bench", "--no-such-flag"]) == 1
        assert main([]) == 1
        assert built == [1]


@pytest.mark.parametrize("argv", [
    ["gen", "logical"],
    ["train", "--dataset", "logical", "--method", "br"],
    ["predict", "--model", str(DATA / "br.json"), "--data", "{data}", "--label-count", "3"],
])
def test_output_in_a_missing_directory_is_internal_error(tmp_path, capsys, argv):
    # Every input is read through cli._read, which names a missing file as a
    # data error; an output that cannot be written is an internal error.
    data = tmp_path / "logical.csv"
    save_csv(gen_logical(20), data)
    out = tmp_path / "missing" / "out"
    code = main([a.format(data=data) for a in argv] + ["--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "mlcascade: internal error: FileNotFoundError: [Errno 2] No such file or directory: ")
    assert list(tmp_path.iterdir()) == [data]


def test_bench_and_gen_never_import_numpy_ma(tmp_path):
    # numpy.ma costs ~1.3 MB of memory in every process that imports it; it
    # is imported by np.unique and np.median, which the package avoids.
    script = f"""
import sys
from mlcascade.cli import main
assert main(["bench", "--dataset", "logical", "--methods", "{','.join(METHOD_NAMES)}",
             "--iters", "2", "--out", "reports"]) == 0
assert main(["gen", "synthetic", "--hidden", "20", "--out", "gen.csv"]) == 0
sys.exit("numpy.ma was imported" if "numpy.ma" in sys.modules else 0)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "gen.csv").exists()
