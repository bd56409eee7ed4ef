"""Save/load trained systems as ``.npz`` archives.

Deployment flows train once and evaluate many times (noise sweeps,
DSE, ensembling), so trained architectures need durable storage.  One
``.npz`` file holds the arrays plus a JSON metadata blob:

* :func:`save_mlp` / :func:`load_mlp` — bare networks;
* :func:`save_mei` / :func:`load_mei` — MEI with config + pruning masks;
* :func:`save_rcs` / :func:`load_rcs` — traditional AD/DA RCS;
* :func:`save_saab` / :func:`load_saab` — a boosted ensemble (alphas +
  every member), stored as sibling files.

Loading re-deploys onto fresh (ideal) crossbars; chip-instance state
(frozen variation, calibration corrections, injected faults) is
intentionally not persisted — it belongs to a physical array, not to
the trained model.  (The serving layer's model artifact is the
exception: :mod:`repro.serve.artifact` persists programmed
conductances on top of these primitives.)

Every archive written here carries a content digest (BLAKE2b over the
canonical metadata JSON plus every array's name/dtype/shape/bytes).
Reads recompute it and refuse a mismatch with :class:`IntegrityError`;
digest-less archives from older versions still load.  Damaged bytes
(truncation, a flipped byte, an empty file) also raise
:class:`IntegrityError`, and a readable archive without a JSON-object
``__meta__`` record raises ``ValueError``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import zipfile
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.saab import SAAB, SAABConfig
from repro.cost.area import Topology
from repro.nn.network import MLP

__all__ = [
    "IntegrityError",
    "content_digest",
    "read_archive",
    "write_archive",
    "save_mlp",
    "load_mlp",
    "save_mei",
    "load_mei",
    "save_rcs",
    "load_rcs",
    "save_saab",
    "load_saab",
]

_FORMAT_VERSION = 1


class IntegrityError(ValueError):
    """An archive's bytes are damaged or its digest does not match its payload."""


_UNREADABLE = (
    zipfile.BadZipFile, EOFError, KeyError, NotImplementedError, OSError,
    RuntimeError, TypeError, ValueError,
)
"""What NumPy and :mod:`zipfile` raise on damaged archive bytes
(``TypeError``: a bare ``.npy`` array, which is no ``NpzFile``)."""


def content_digest(meta: Mapping[str, object], arrays: Mapping[str, np.ndarray]) -> str:
    """BLAKE2b hex digest of an archive's logical content.

    Covers the canonical (sorted-key) JSON of ``meta`` minus any
    embedded ``digest`` field, then every array in name order as
    ``name / dtype / shape / raw bytes`` — so the digest is stable
    across save/load round-trips and independent of zip-member order.
    """
    h = hashlib.blake2b(digest_size=16)
    clean = {k: v for k, v in meta.items() if k != "digest"}
    h.update(json.dumps(clean, sort_keys=True).encode())
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _network_arrays(net: MLP) -> dict:
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"weights_{i}"] = layer.weights
        arrays[f"bias_{i}"] = layer.bias
    return arrays


def _network_meta(net: MLP) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "activations": [layer.activation.name for layer in net.layers],
    }


def _restore_network(meta: dict, data) -> MLP:
    sizes = meta["layer_sizes"]
    activations = meta["activations"]
    net = MLP(
        sizes,
        hidden_activation=activations[0] if len(activations) > 1 else activations[-1],
        output_activation=activations[-1],
        rng=0,
    )
    for i, layer in enumerate(net.layers):
        layer.weights = np.array(data[f"weights_{i}"])
        layer.bias = np.array(data[f"bias_{i}"])
        layer.activation = __import__(
            "repro.nn.activations", fromlist=["get_activation"]
        ).get_activation(activations[i])
    return net


def _write(path, kind: str, meta: dict, arrays: dict) -> None:
    meta = dict(meta, kind=kind, format_version=_FORMAT_VERSION)
    meta["digest"] = content_digest(meta, arrays)
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def read_archive(path, kind: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read + digest-verify an archive of ``kind``; returns (meta, arrays)."""
    with open(path, "rb") as handle:
        try:
            with np.load(handle) as data:
                arrays = {name: data[name] for name in data.files}
        except _UNREADABLE as exc:
            raise IntegrityError(
                f"{path}: unreadable archive ({type(exc).__name__}: {exc})"
            ) from exc
    raw = arrays.pop("__meta__", None)
    try:
        meta = None if raw is None else json.loads(bytes(raw).decode())
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: no JSON-object __meta__ record; not a repro archive")
    if meta.get("kind") != kind:
        raise ValueError(
            f"{path} holds a {meta.get('kind')!r} archive, expected {kind!r}"
        )
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {meta.get('format_version')}")
    declared = meta.get("digest")
    if declared is not None:
        actual = content_digest(meta, arrays)
        if actual != declared:
            raise IntegrityError(
                f"{path}: content digest mismatch (declared {declared}, "
                f"recomputed {actual}) — the archive is corrupt or was "
                "modified after writing; refusing to load it"
            )
    return meta, arrays


def write_archive(path, kind: str, meta: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Write a digest-protected archive of ``kind`` (serving-layer API)."""
    _write(path, kind, meta, arrays)


def save_mlp(net: MLP, path) -> None:
    """Persist a bare network."""
    _write(path, "mlp", _network_meta(net), _network_arrays(net))


def load_mlp(path) -> MLP:
    """Restore a bare network."""
    meta, data = read_archive(path, "mlp")
    return _restore_network(meta, data)


def save_mei(mei: MEI, path) -> None:
    """Persist an MEI (config, pruning masks, weights)."""
    config = mei.config
    meta = {
        "config": {
            "in_groups": config.in_groups,
            "out_groups": config.out_groups,
            "hidden": config.hidden,
            "bits": config.bits,
            "msb_weighted": config.msb_weighted,
            "weight_decay_ratio": config.weight_decay_ratio,
        },
        "in_bits": mei.in_bits,
        "out_bits": mei.out_bits,
        "network": _network_meta(mei.network),
    }
    _write(path, "mei", meta, _network_arrays(mei.network))


def load_mei(path) -> MEI:
    """Restore an MEI and re-deploy it onto ideal crossbars."""
    meta, data = read_archive(path, "mei")
    mei = MEI(MEIConfig(**meta["config"]), seed=0)
    mei.network = _restore_network(meta["network"], data)
    mei.in_bits = int(meta["in_bits"])
    mei.out_bits = int(meta["out_bits"])
    mei.deploy()
    return mei


def save_rcs(rcs: TraditionalRCS, path) -> None:
    """Persist a traditional RCS (topology + weights)."""
    topo = rcs.topology
    meta = {
        "topology": {
            "inputs": topo.inputs,
            "hidden": topo.hidden,
            "outputs": topo.outputs,
            "bits": topo.bits,
        },
        "network": _network_meta(rcs.network),
    }
    _write(path, "rcs", meta, _network_arrays(rcs.network))


def load_rcs(path) -> TraditionalRCS:
    """Restore a traditional RCS and re-deploy it."""
    meta, data = read_archive(path, "rcs")
    rcs = TraditionalRCS(Topology(**meta["topology"]), seed=0)
    rcs.network = _restore_network(meta["network"], data)
    rcs.deploy()
    return rcs


def save_saab(saab: SAAB, path) -> List[pathlib.Path]:
    """Persist an ensemble: an index file plus one file per member.

    ``path`` names the index archive; members land next to it as
    ``<stem>.member<k>.npz``.  Returns all written paths.
    """
    if not saab.is_trained:
        raise ValueError("cannot save an untrained ensemble")
    path = pathlib.Path(path)
    member_paths = []
    for k, learner in enumerate(saab.learners):
        if not isinstance(learner, MEI):
            raise TypeError("save_saab currently supports MEI learners only")
        member_path = path.with_suffix(f".member{k}.npz")
        save_mei(learner, member_path)
        member_paths.append(member_path)
    config = saab.config
    meta = {
        "alphas": list(map(float, saab.alphas)),
        "round_errors": [float(r.error) for r in saab.rounds],
        "members": [p.name for p in member_paths],
        "config": {
            "n_learners": config.n_learners,
            "compare_bits": config.compare_bits,
            "seed": config.seed,
        },
    }
    _write(path, "saab", meta, {})
    return [path, *member_paths]


def load_saab(path) -> SAAB:
    """Restore an ensemble saved by :func:`save_saab`."""
    path = pathlib.Path(path)
    meta, _ = read_archive(path, "saab")
    saab = SAAB(
        lambda k: (_ for _ in ()).throw(RuntimeError("loaded ensembles cannot extend")),
        SAABConfig(**meta["config"]),
    )
    from repro.core.saab import _BoostRound

    for name, alpha, error in zip(meta["members"], meta["alphas"], meta["round_errors"]):
        saab.learners.append(load_mei(path.parent / name))
        saab.alphas.append(float(alpha))
        saab.rounds.append(_BoostRound(error=float(error), alpha=float(alpha)))
    return saab
