"""Regressor wrapper: MLP or GMM mapping the 11-dim narrowband feature to the
21-dim high-band FIR feature and gain, with MVN on both sides and a
versioned JSON serialization."""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .features import FeaturePair, MvnStats, mvn_apply, mvn_fit, mvn_invert, NB_DIM, HB_DIM
from .gmm import Gmm
from .mlp import Mlp, MlpConfig

FORMAT_VERSION = 2  # version 1 (tensors as JSON number lists) is still read


class ModelError(ValueError):
    pass


_NETS = {net.kind: net for net in (Mlp, Gmm)}


@dataclass
class RegressorModel:
    """A trained net (`Mlp` or `Gmm`) between the MVN of its input and of its
    output; `config` is what trained it, kept as written."""

    mvn_in: MvnStats
    mvn_out: MvnStats
    net: Mlp | Gmm
    config: dict


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
    return RegressorModel(mvn_in, mvn_out, net, asdict(cfg))


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
    return RegressorModel(mvn_in, mvn_out, gmm, {"components": components, "seed": seed})


def predict_hb(model: RegressorModel, nb: np.ndarray):
    """Normalized forward pass (or GMM conditioning), then reverse MVN.

    For one feature vector returns (hb, g1); for one row per frame returns
    (hb rows, g1 array)."""
    nb = np.asarray(nb, dtype=float)
    if nb.ndim not in (1, 2) or nb.shape[-1] != NB_DIM:
        raise ModelError(f"nb feature must have dim {NB_DIM}")
    if not model.net.trained:
        raise ModelError("model is not trained")
    out = mvn_invert(model.mvn_out, model.net.regress(mvn_apply(model.mvn_in, nb)))
    if nb.ndim == 1:
        return out[:HB_DIM], float(out[HB_DIM])
    return out[:, :HB_DIM], out[:, HB_DIM]


# ---- serialization ----------------------------------------------------------


def _encode_tensor(t: np.ndarray) -> dict:
    """A tensor as its shape and the base64 of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(t, dtype="<f8").tobytes()
    return {"shape": list(t.shape), "f8le": base64.b64encode(raw).decode("ascii")}


def _decode_tensor(blob) -> np.ndarray:
    """The tensor `_encode_tensor` wrote; raises ValueError (or TypeError) when
    the blob is not one, its bytes are not base64 or their count does not
    match its shape."""
    if not isinstance(blob, dict):
        raise TypeError(f"tensor is a {type(blob).__name__}, not a shape and bytes object")
    shape = tuple(int(d) for d in blob["shape"])
    raw = base64.b64decode(blob["f8le"], validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"tensor of shape {list(shape)} holds {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def _map_tensors(state: dict, tensors, fn) -> dict:
    """`state` with `fn` applied to each named tensor (or to each tensor of a
    named list of them)."""
    out = dict(state)
    for key in tensors:
        out[key] = [fn(t) for t in state[key]] if isinstance(state[key], list) else fn(state[key])
    return out


def save_model(model: RegressorModel, path) -> None:
    kind = model.net.kind
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "mvn_in": {"mean": model.mvn_in.mean.tolist(), "std": model.mvn_in.std.tolist()},
        "mvn_out": {"mean": model.mvn_out.mean.tolist(), "std": model.mvn_out.std.tolist()},
        "config": model.config,
        kind: _map_tensors(model.net.state(), model.net.TENSORS, _encode_tensor),
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
    version = doc.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise ModelError(f"unsupported model format version {version!r}")
    try:
        mvn = {}
        for key, dim in (("mvn_in", NB_DIM), ("mvn_out", HB_DIM + 1)):
            mvn[key] = MvnStats(np.array(doc[key]["mean"]), np.array(doc[key]["std"]))
            if len(mvn[key].mean) != dim:
                raise ValueError(f"{key} has {len(mvn[key].mean)} entries, not {dim}")
        kind = doc["kind"]
        if kind not in _NETS:
            raise ValueError(f"unknown model kind {kind!r}")
        net = _NETS[kind]
        state = doc[kind] if version == 1 else _map_tensors(doc[kind], net.TENSORS, _decode_tensor)
        net = net.from_state(state)
        if kind == "mlp" and net.dims[:1] + net.dims[-1:] != [NB_DIM, HB_DIM + 1]:
            raise ValueError(f"mlp dims {net.dims} do not map {NB_DIM} inputs to {HB_DIM + 1} outputs")
        if kind == "gmm" and net.means.shape[1] != NB_DIM + HB_DIM + 1:
            raise ValueError(f"gmm means are {net.means.shape[1]} wide, not {NB_DIM + HB_DIM + 1}")
        return RegressorModel(mvn["mvn_in"], mvn["mvn_out"], net, doc["config"])
    except KeyError as exc:
        raise ModelError(f"{path}: model file lacks key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"{path}: malformed model file ({exc})") from exc
