"""Regressor wrapper: MLP or GMM mapping the 11-dim narrowband feature to the
21-dim high-band FIR feature and gain, with MVN on both sides and a
versioned JSON serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .features import FeaturePair, MvnStats, mvn_apply, mvn_fit, mvn_invert, NB_DIM, HB_DIM
from .gmm import Gmm
from .mlp import Mlp, MlpConfig

FORMAT_VERSION = 1


class ModelError(ValueError):
    pass


@dataclass
class RegressorModel:
    kind: str  # "mlp" | "gmm"
    mvn_in: MvnStats
    mvn_out: MvnStats
    mlp: Mlp | None = None
    gmm: Gmm | None = None
    config: dict = field(default_factory=dict)

    @property
    def trained(self) -> bool:
        if self.kind == "mlp":
            return self.mlp is not None and self.mlp.trained
        return self.gmm is not None and self.gmm.means is not None


def _stack_pairs(pairs: list[FeaturePair]):
    X = np.array([p.nb for p in pairs])
    Y = np.array([np.concatenate([p.hb, [p.g1]]) for p in pairs])
    return X, Y


def train_mlp(pairs: list[FeaturePair], cfg: MlpConfig | None = None) -> RegressorModel:
    """Fit the MLP on MVN-normalized features, target [hb(21); g1]."""
    if not pairs:
        raise ModelError("no training pairs")
    cfg = cfg or MlpConfig()
    X, Y = _stack_pairs(pairs)
    mvn_in = mvn_fit(X)
    mvn_out = mvn_fit(Y)
    net = Mlp(NB_DIM, HB_DIM + 1, cfg)
    net.fit(mvn_apply(mvn_in, X), mvn_apply(mvn_out, Y))
    return RegressorModel(
        kind="mlp", mvn_in=mvn_in, mvn_out=mvn_out, mlp=net, config=asdict(cfg)
    )


def train_gmm(pairs: list[FeaturePair], components: int = 128, seed: int = 0) -> RegressorModel:
    """EM baseline on the joint normalized 33-dim space."""
    if components < 1:
        raise ModelError("components must be >= 1")
    if len(pairs) < max(components, 2):
        raise ModelError("not enough samples for requested components")
    X, Y = _stack_pairs(pairs)
    mvn_in = mvn_fit(X)
    mvn_out = mvn_fit(Y)
    joint = np.hstack([mvn_apply(mvn_in, X), mvn_apply(mvn_out, Y)])
    gmm = Gmm(components, seed=seed).fit(joint)
    return RegressorModel(
        kind="gmm",
        mvn_in=mvn_in,
        mvn_out=mvn_out,
        gmm=gmm,
        config={"components": components, "seed": seed},
    )


def predict_hb(model: RegressorModel, nb: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized forward pass (or GMM conditioning), then reverse MVN; returns (hb, g1)."""
    nb = np.asarray(nb, dtype=float).reshape(-1)
    if len(nb) != NB_DIM:
        raise ModelError(f"nb feature must have dim {NB_DIM}")
    if not model.trained:
        raise ModelError("model is not trained")
    x = mvn_apply(model.mvn_in, nb)
    if model.kind == "mlp":
        y = model.mlp.predict(x[None, :])[0]
    else:
        y = model.gmm.conditional_expectation(x, NB_DIM)
    out = mvn_invert(model.mvn_out, y)
    return out[:HB_DIM], float(out[HB_DIM])


# ---- serialization ----------------------------------------------------------


def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def save_model(model: RegressorModel, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "mvn_in": {"mean": _arr(model.mvn_in.mean), "std": _arr(model.mvn_in.std)},
        "mvn_out": {"mean": _arr(model.mvn_out.mean), "std": _arr(model.mvn_out.std)},
        "config": model.config,
    }
    if model.kind == "mlp":
        net = model.mlp
        doc["mlp"] = {
            "dims": net.dims,
            "W": [_arr(w) for w in net.W],
            "b": [_arr(b) for b in net.b],
            "gamma": [_arr(g) for g in net.gamma],
            "beta": [_arr(b) for b in net.beta],
            "run_mean": [_arr(m) for m in net.run_mean],
            "run_var": [_arr(v) for v in net.run_var],
            "loss_history": _arr(net.loss_history),
        }
    else:
        doc["gmm"] = {
            "weights": _arr(model.gmm.weights),
            "means": _arr(model.gmm.means),
            "covs": _arr(model.gmm.covs),
            "loglik_history": _arr(model.gmm.loglik_history),
        }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def load_model(path) -> RegressorModel:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not a model file ({exc})") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: not a model file (expected a JSON object)")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {doc.get('format_version')!r}")
    try:
        mvn_in = MvnStats(np.array(doc["mvn_in"]["mean"]), np.array(doc["mvn_in"]["std"]))
        mvn_out = MvnStats(np.array(doc["mvn_out"]["mean"]), np.array(doc["mvn_out"]["std"]))
        kind = doc["kind"]
        if kind == "mlp":
            blob = doc["mlp"]
            cfg = MlpConfig(**{k: v for k, v in doc["config"].items()})
            net = Mlp(blob["dims"][0], blob["dims"][-1], cfg)
            net.dims = list(blob["dims"])
            net.W = [np.array(w) for w in blob["W"]]
            net.b = [np.array(b) for b in blob["b"]]
            net.gamma = [np.array(g) for g in blob["gamma"]]
            net.beta = [np.array(b) for b in blob["beta"]]
            net.run_mean = [np.array(m) for m in blob["run_mean"]]
            net.run_var = [np.array(v) for v in blob["run_var"]]
            net.loss_history = list(blob["loss_history"])
            net.trained = True
            return RegressorModel(
                kind="mlp", mvn_in=mvn_in, mvn_out=mvn_out, mlp=net, config=doc["config"]
            )
        if kind == "gmm":
            blob = doc["gmm"]
            gmm = Gmm(len(blob["weights"]), seed=doc["config"].get("seed", 0))
            gmm.weights = np.array(blob["weights"])
            gmm.means = np.array(blob["means"])
            gmm.covs = np.array(blob["covs"])
            gmm.loglik_history = list(blob["loglik_history"])
            return RegressorModel(
                kind="gmm", mvn_in=mvn_in, mvn_out=mvn_out, gmm=gmm, config=doc["config"]
            )
    except KeyError as exc:
        raise ModelError(f"{path}: model file lacks key {exc.args[0]!r}") from exc
    raise ModelError(f"unknown model kind {kind!r}")
