"""Load-once model artifacts for the serving layer.

:func:`repro.serialization.load_mei` deliberately re-deploys onto
fresh ideal crossbars — chip state belongs to a physical array.  A
*serving* artifact is the opposite contract: it must reproduce the
exact system that was validated, so it persists the **programmed
conductances** (canonical :meth:`AnalogMLP.conductance_snapshot`
order) next to the network weights, the mapping config, the bit-codec
interface (``B_I/B_O/B_N``), ensemble vote weights and a provenance
header, in one ``.npz`` archive with a versioned schema and a content
digest (see :mod:`repro.serialization`).  A corrupted archive is
refused loudly at load time.

Schema (``kind="serve-model"``, ``schema_version=1``)::

    meta = {
      "schema_version": 1,
      "system": "mei" | "saab",
      "benchmark": str | null,
      "interface": {"B_I": int, "B_O": int, "B_N": int},
      "provenance": {...},            # repro.obs.runinfo.provenance_header()
      "members": [{config, in_bits, out_bits, mapping, network,
                   n_conductances}, ...],
      "saab": null | {"alphas": [...], "round_errors": [...],
                      "config": {n_learners, compare_bits, seed}},
    }
    arrays = {"m<k>_weights_<i>", "m<k>_bias_<i>", "m<k>_g_<j>"}

Arrays keep the dtype they were deployed under (``REPRO_DTYPE``), so a
loaded artifact is bit-faithful when served under the same dtype.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import serialization
from repro.core.mei import MEI, MEIConfig
from repro.core.runner import ExperimentScale, default_scale, paper_setup
from repro.core.saab import SAAB, SAABConfig
from repro.obs.log import get_logger
from repro.obs.runinfo import provenance_header
from repro.xbar.mapping import MappingConfig

__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_SCHEMA_VERSION",
    "LoadedModel",
    "load_artifact",
    "save_artifact",
    "train_serve_system",
]

ARTIFACT_KIND = "serve-model"
ARTIFACT_SCHEMA_VERSION = 1

_log = get_logger("serve.artifact")


@dataclass
class LoadedModel:
    """A system restored from a serving artifact, ready to serve."""

    system: Union[MEI, SAAB]
    kind: str
    """``"mei"`` or ``"saab"``."""
    meta: Dict[str, object]
    path: pathlib.Path

    @property
    def interface(self) -> Dict[str, int]:
        """The bit interface: ``{"B_I": .., "B_O": .., "B_N": ..}``."""
        return dict(self.meta["interface"])  # type: ignore[call-overload]


def _mapping_meta(config: Optional[MappingConfig]) -> Optional[Dict[str, object]]:
    if config is None:
        return None
    return {
        "g_s": config.g_s,
        "row_sum_headroom": config.row_sum_headroom,
        "coefficient_ceiling": config.coefficient_ceiling,
        "input_nonlinearity": config.input_nonlinearity,
        "max_rows_per_tile": config.max_rows_per_tile,
        "wire_resistance": config.wire_resistance,
    }


def _mapping_from(meta: Optional[Dict[str, object]]) -> Optional[MappingConfig]:
    if meta is None:
        return None
    return MappingConfig(**meta)  # type: ignore[arg-type]


def _member_meta(mei: MEI, n_conductances: int) -> Dict[str, object]:
    config = mei.config
    net = mei.network
    return {
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
        "mapping": _mapping_meta(mei.mapping_config),
        "network": {
            "layer_sizes": list(net.layer_sizes),
            "activations": [layer.activation.name for layer in net.layers],
        },
        "n_conductances": n_conductances,
    }


def _member_arrays(mei: MEI, prefix: str) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for i, layer in enumerate(mei.network.layers):
        arrays[f"{prefix}weights_{i}"] = layer.weights
        arrays[f"{prefix}bias_{i}"] = layer.bias
    assert mei.analog is not None
    for j, g in enumerate(mei.analog.conductance_snapshot()):
        arrays[f"{prefix}g_{j}"] = g
    return arrays


_MEMBER_FIELDS = ("config", "in_bits", "out_bits", "mapping", "network", "n_conductances")


def _restore_member(path: pathlib.Path, member: Dict[str, object],
                    arrays: Dict[str, np.ndarray], prefix: str) -> MEI:
    serialization.require_fields(path, member, _MEMBER_FIELDS, f"member {prefix!r}")
    n = int(member["n_conductances"])  # type: ignore[arg-type]
    serialization.require_fields(path, arrays, [f"{prefix}g_{j}" for j in range(n)],
                                 "the archive")
    net = serialization.restore_network(
        path, member["network"], arrays, prefix  # type: ignore[arg-type]
    )
    mei = MEI(
        MEIConfig(**member["config"]),  # type: ignore[call-overload]
        mapping_config=_mapping_from(member["mapping"]),  # type: ignore[arg-type]
        seed=0,
    )
    mei.network = net
    mei.in_bits = int(member["in_bits"])  # type: ignore[arg-type]
    mei.out_bits = int(member["out_bits"])  # type: ignore[arg-type]
    mei.deploy()
    assert mei.analog is not None
    mei.analog.restore_conductances([arrays[f"{prefix}g_{j}"] for j in range(n)])
    return mei


def save_artifact(
    system: Union[MEI, SAAB],
    path: Union[str, pathlib.Path],
    benchmark: Optional[str] = None,
    extra_meta: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    """Serialize a deployed system into one load-once serving archive.

    Undeployed MEI members are deployed first (the artifact *is* the
    programmed chip).  Returns the written path.
    """
    path = pathlib.Path(path)
    if isinstance(system, SAAB):
        if not system.is_trained:
            raise ValueError("cannot build a serving artifact from an untrained ensemble")
        members: List[MEI] = []
        for learner in system.learners:
            if not isinstance(learner, MEI):
                raise TypeError("serving artifacts support MEI learners only")
            members.append(learner)
        saab_meta: Optional[Dict[str, object]] = {
            "alphas": [float(a) for a in system.alphas],
            "round_errors": [float(r.error) for r in system.rounds],
            "config": {
                "n_learners": system.config.n_learners,
                "compare_bits": system.config.compare_bits,
                "seed": system.config.seed,
            },
        }
        system_kind = "saab"
    else:
        members = [system]
        saab_meta = None
        system_kind = "mei"

    arrays: Dict[str, np.ndarray] = {}
    member_metas: List[Dict[str, object]] = []
    for k, mei in enumerate(members):
        if mei.analog is None:
            mei.deploy()
        member_arrays = _member_arrays(mei, f"m{k}_")
        n_conductances = sum(1 for name in member_arrays if name.startswith(f"m{k}_g_"))
        member_metas.append(_member_meta(mei, n_conductances))
        arrays.update(member_arrays)

    first = members[0]
    meta: Dict[str, object] = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "system": system_kind,
        "benchmark": benchmark,
        "interface": {"B_I": first.in_bits, "B_O": first.out_bits, "B_N": first.bits},
        "provenance": provenance_header(),
        "members": member_metas,
        "saab": saab_meta,
    }
    if extra_meta:
        meta.update(extra_meta)
    serialization.write_archive(path, ARTIFACT_KIND, meta, arrays)
    _log.info(
        "serving artifact written",
        extra={"fields": {"path": str(path), "system": system_kind,
                          "members": len(members), "benchmark": benchmark}},
    )
    return path


def load_artifact(path: Union[str, pathlib.Path]) -> LoadedModel:
    """Load + digest-verify a serving artifact and rebuild its system.

    Raises :class:`repro.serialization.IntegrityError` when the
    archive's content digest does not match its payload, and
    ``ValueError`` on a wrong kind or an unsupported schema version.
    """
    path = pathlib.Path(path)
    meta, arrays = serialization.read_archive(path, ARTIFACT_KIND)
    version = meta.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported serving-artifact schema version {version!r} "
            f"(this build reads version {ARTIFACT_SCHEMA_VERSION})"
        )
    serialization.require_fields(path, meta, ("system", "interface", "members", "saab"),
                                 "metadata")
    member_metas: List[Dict[str, object]] = meta["members"]
    if not member_metas:
        raise ValueError(f"{path}: metadata 'members' lists no member")
    members = [
        _restore_member(path, member, arrays, f"m{k}_")
        for k, member in enumerate(member_metas)
    ]
    if meta["system"] == "mei":
        system: Union[MEI, SAAB] = members[0]
    else:
        saab_meta: Dict[str, object] = meta["saab"]
        serialization.require_fields(path, saab_meta, ("config", "alphas", "round_errors"),
                                     "saab metadata")
        from repro.core.saab import _BoostRound

        saab = SAAB(
            lambda k: (_ for _ in ()).throw(
                RuntimeError("loaded ensembles cannot extend")
            ),
            SAABConfig(**saab_meta["config"]),  # type: ignore[call-overload]
        )
        alphas: List[float] = saab_meta["alphas"]  # type: ignore[assignment]
        errors: List[float] = saab_meta["round_errors"]  # type: ignore[assignment]
        for learner, alpha, error in zip(members, alphas, errors):
            saab.learners.append(learner)
            saab.alphas.append(float(alpha))
            saab.rounds.append(_BoostRound(error=float(error), alpha=float(alpha)))
        system = saab
    _log.info(
        "serving artifact loaded",
        extra={"fields": {"path": str(path), "system": str(meta["system"]),
                          "members": len(members)}},
    )
    return LoadedModel(system=system, kind=str(meta["system"]), meta=meta, path=path)


def train_serve_system(
    name: str,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    ensemble: int = 0,
) -> Tuple[Union[MEI, SAAB], object]:
    """Train a servable system on one AxBench workload.

    Uses the Table-1 recipe (paper pruned-MEI hidden width, standard
    training config at ``scale``).  ``ensemble > 1`` trains a SAAB of
    that many MEI learners instead of a single MEI.  Returns
    ``(system, dataset)`` so callers can run differential checks
    against the held-out split.
    """
    setup = paper_setup(name, scale if scale is not None else default_scale(), seed)
    data, cfg, mei_config = setup.data, setup.train, setup.mei
    if ensemble > 1:
        saab = SAAB(
            lambda k: MEI(mei_config, seed=seed + k),
            SAABConfig(n_learners=ensemble, seed=seed),
        )
        saab.train(data.x_train, data.y_train, cfg)
        return saab, data
    mei = MEI(mei_config, seed=seed).train(data.x_train, data.y_train, cfg)
    return mei, data
