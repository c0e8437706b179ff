"""Regressor training wrappers and model serialization."""

import base64
import json

import numpy as np
import pytest

from sdabe.features import HB_DIM, NB_DIM, FeaturePair
from sdabe.mlp import MlpConfig
from sdabe.regressor import (
    ModelError,
    load_model,
    predict_hb,
    save_model,
    train_gmm,
    train_mlp,
)


def _fake_pairs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        nb = rng.standard_normal(NB_DIM)
        hb = 0.5 * np.tanh(nb[:HB_DIM].sum()) * rng.standard_normal(HB_DIM)
        pairs.append(FeaturePair(nb=nb, hb=hb, g1=float(rng.normal(-1.0, 0.3))))
    return pairs


def _tiny_cfg():
    return MlpConfig(hidden_layers=1, hidden_units=8, epochs=20, batch_size=20, seed=0)


def test_train_mlp_produces_trained_model():
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    assert model.net.kind == "mlp"
    assert model.net.trained


def test_predict_hb_shapes():
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    hb, g1 = predict_hb(model, np.zeros(NB_DIM))
    assert hb.shape == (HB_DIM,)
    assert np.isfinite(g1)


def test_predict_rejects_wrong_input_dimension():
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    with pytest.raises(ModelError):
        predict_hb(model, np.zeros(NB_DIM + 1))


def test_train_requires_pairs():
    with pytest.raises(ModelError):
        train_mlp([], _tiny_cfg())


def test_mlp_round_trip_is_exact(tmp_path):
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.net.kind == "mlp"
    probe = np.linspace(-1, 1, NB_DIM)
    hb1, g1 = predict_hb(model, probe)
    hb2, g2 = predict_hb(back, probe)
    assert np.array_equal(hb1, hb2)
    assert g1 == g2


def test_gmm_round_trip_is_exact(tmp_path):
    model = train_gmm(_fake_pairs(), components=3, seed=0)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    probe = np.linspace(-1, 1, NB_DIM)
    hb1, g1 = predict_hb(model, probe)
    hb2, g2 = predict_hb(back, probe)
    assert np.array_equal(hb1, hb2)
    assert g1 == g2


@pytest.mark.parametrize(
    "extra",
    [{"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "bn_momentum": 0.9, "batch_norm": True},
     {"not_a_setting": 1}],
    ids=["older-twelve-key-config", "unknown-key"],
)
def test_model_config_is_kept_as_written(tmp_path, extra):
    # the older format also wrote the MLP's fixed optimizer and batch-norm
    # settings into `config`; the loader reads the net from its tensors alone
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["config"].update(extra)
    path.write_text(json.dumps(doc))
    back = load_model(path)
    assert back.config == doc["config"]
    probe = np.linspace(-1, 1, NB_DIM)
    hb1, g1 = predict_hb(model, probe)
    hb2, g2 = predict_hb(back, probe)
    assert np.array_equal(hb1, hb2)
    assert g1 == g2


def test_save_is_deterministic(tmp_path):
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "unknown"}')
    with pytest.raises(ModelError):
        load_model(path)


def test_model_file_stores_tensors_as_bytes(tmp_path):
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    w0 = doc["mlp"]["W"][0]
    assert w0["shape"] == [NB_DIM, 8]
    assert np.array_equal(np.frombuffer(base64.b64decode(w0["f8le"]), "<f8").reshape(NB_DIM, 8),
                          model.net.W[0])
    # the readable parts stay JSON numbers
    assert doc["mlp"]["dims"] == model.net.dims
    assert doc["mlp"]["loss_history"] == model.net.loss_history
    assert doc["mvn_in"]["mean"] == model.mvn_in.mean.tolist()


@pytest.mark.parametrize("kind", ["mlp", "gmm"])
def test_version_one_file_loads_bit_identically(tmp_path, kind):
    # a version-1 file held every tensor as nested JSON number lists
    model = (train_mlp(_fake_pairs(), _tiny_cfg()) if kind == "mlp"
             else train_gmm(_fake_pairs(), components=3, seed=0))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    state = model.net.state()
    for key in model.net.TENSORS:
        t = state[key]
        doc[kind][key] = [p.tolist() for p in t] if isinstance(t, list) else t.tolist()
    doc["format_version"] = 1
    path.write_text(json.dumps(doc, sort_keys=True, indent=1))
    back = load_model(path)
    probe = np.linspace(-1, 1, NB_DIM)
    hb1, g1 = predict_hb(model, probe)
    hb2, g2 = predict_hb(back, probe)
    assert np.array_equal(hb1, hb2)
    assert g1 == g2


def test_gmm_of_the_wrong_width_is_refused(tmp_path):
    # a mixture over 32 dimensions cannot join 11 inputs to 22 outputs
    model = train_gmm(_fake_pairs(), components=3, seed=0)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    for key, t in (("means", model.net.means[:, :-1]), ("covs", model.net.covs[:, :-1, :-1])):
        raw = np.ascontiguousarray(t, dtype="<f8").tobytes()
        doc["gmm"][key] = {"shape": list(t.shape), "f8le": base64.b64encode(raw).decode()}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="gmm means are 32 wide, not 33"):
        load_model(path)


def test_unknown_format_version_is_refused(tmp_path):
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="version 3"):
        load_model(path)


@pytest.mark.parametrize("rows", [3, 4, 7])
def test_predict_hb_on_stacked_rows_of_a_gmm_is_per_row(rows):
    # 3 rows of 11 are 33 numbers, the joint dimension: a flattened input
    # would have been read as one vector
    model = train_gmm(_fake_pairs(), components=3, seed=0)
    X = np.random.default_rng(1).standard_normal((rows, NB_DIM))
    hb, g1 = predict_hb(model, X)
    assert hb.shape == (rows, HB_DIM) and g1.shape == (rows,)
    for i, x in enumerate(X):
        hb_i, g1_i = predict_hb(model, x)
        assert np.array_equal(hb[i], hb_i)
        assert g1[i] == g1_i


def test_predict_hb_on_stacked_rows_of_an_mlp_is_per_row():
    model = train_mlp(_fake_pairs(), _tiny_cfg())
    X = np.random.default_rng(1).standard_normal((5, NB_DIM))
    hb, g1 = predict_hb(model, X)
    assert hb.shape == (5, HB_DIM) and g1.shape == (5,)
    for i, x in enumerate(X):
        hb_i, g1_i = predict_hb(model, x)
        np.testing.assert_allclose(hb[i], hb_i, rtol=1e-12, atol=1e-12 * np.max(np.abs(hb_i)))
        assert g1[i] == pytest.approx(g1_i, rel=1e-12)
