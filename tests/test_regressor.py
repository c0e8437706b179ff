"""Regressor training wrappers and model serialization."""

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
