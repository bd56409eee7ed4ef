"""MEI: MErging the Interface (Sec. 3.1) — the paper's core contribution.

A MEI RCS removes the AD/DA converters and exposes one crossbar port
per bit of the fixed-point interface.  Digital 0/1 levels drive the
input ports directly; output ports are binarized by 1-bit comparators.
The network *learns the mapping between bit arrays*, trained with the
MSB-weighted loss of Eq. (5) so most-significant-bit errors dominate
the gradient.

LSB pruning (Sec. 4.3, Algorithm 2 Line 22) is modeled with port
masks: a pruned input port is driven with a constant 0 and a pruned
output port is excluded from decoding.  For accuracy this is exactly
equivalent to physically removing the crossbar rows/columns and
re-mapping the remaining coefficients, while the cost model
(:class:`repro.cost.MEITopology`) counts only the kept ports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analog.periphery import Comparator
from repro.core.deploy import AnalogMLP
from repro.cost.area import MEITopology, Topology
from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.device.variation import IDEAL, NonIdealFactors, TrialSpec
from repro.nn.losses import WeightedMSE, mse
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer
from repro.quant.binarray import msb_weights
from repro.quant.fixedpoint import FixedPointCodec
from repro.xbar.mapping import MappingConfig

__all__ = ["MEIConfig", "MEI"]


@dataclass(frozen=True)
class MEIConfig:
    """Static configuration of a MEI architecture.

    Parameters
    ----------
    in_groups, out_groups:
        Number of analog values on each side (the application's I/O
        dimensionality).
    hidden:
        Hidden layer size ``H'``.
    bits:
        Base interface bit length ``B_r`` (8 in the paper).
    msb_weighted:
        Use the Eq. (5) loss (True) or the plain Eq. (4) loss (False —
        the ablation of Fig. 3).
    weight_decay_ratio:
        Ratio between adjacent bit weights in Eq. (5); the paper's
        example uses 2 (MSB ``2**0`` down to LSB ``2**-(B-1)``).
    """

    in_groups: int
    out_groups: int
    hidden: int
    bits: int = 8
    msb_weighted: bool = True
    weight_decay_ratio: float = 2.0

    def __post_init__(self) -> None:
        if min(self.in_groups, self.out_groups, self.hidden) < 1:
            raise ValueError("in_groups, out_groups and hidden must be >= 1")
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        if self.weight_decay_ratio <= 0:
            raise ValueError("weight_decay_ratio must be positive")


class MEI:
    """A MEI RCS: bit-array ports, weighted-loss training, comparators.

    Parameters
    ----------
    config:
        Architecture description.
    mapping_config, device:
        Crossbar deployment knobs.
    seed:
        Weight-init / training shuffle seed.
    """

    def __init__(
        self,
        config: MEIConfig,
        mapping_config: Optional[MappingConfig] = None,
        device: RRAMDevice = HFOX_DEVICE,
        seed: Optional[int] = None,
    ):
        self.config = config
        self.codec = FixedPointCodec(config.bits)
        self.comparator = Comparator()
        self.mapping_config = mapping_config
        self.device = device
        self.seed = seed
        in_ports = config.in_groups * config.bits
        out_ports = config.out_groups * config.bits
        self.network = MLP((in_ports, config.hidden, out_ports), rng=seed)
        self.analog: Optional[AnalogMLP] = None
        # Pruning masks: number of *kept* MSBs per group on each side.
        self.in_bits = config.bits
        self.out_bits = config.bits

    # -- port bookkeeping ------------------------------------------------

    @property
    def bits(self) -> int:
        return self.config.bits

    @property
    def in_ports_full(self) -> int:
        return self.config.in_groups * self.bits

    @property
    def out_ports_full(self) -> int:
        return self.config.out_groups * self.bits

    @property
    def in_ports(self) -> int:
        """Kept input ports after pruning."""
        return self.config.in_groups * self.in_bits

    @property
    def out_ports(self) -> int:
        """Kept output ports after pruning."""
        return self.config.out_groups * self.out_bits

    def _group_mask(self, groups: int, kept: int) -> np.ndarray:
        """Boolean mask over ``groups * bits`` ports keeping MSBs."""
        mask = np.zeros(groups * self.bits, dtype=bool)
        for g in range(groups):
            mask[g * self.bits : g * self.bits + kept] = True
        return mask

    @property
    def in_mask(self) -> np.ndarray:
        return self._group_mask(self.config.in_groups, self.in_bits)

    @property
    def out_mask(self) -> np.ndarray:
        return self._group_mask(self.config.out_groups, self.out_bits)

    def topology(self) -> MEITopology:
        """Cost-model topology of the (possibly pruned) architecture."""
        return MEITopology(
            in_ports=self.in_ports,
            hidden=self.config.hidden,
            out_ports=self.out_ports,
            in_groups=self.config.in_groups,
            out_groups=self.config.out_groups,
        )

    def pruned(self, in_bits: Optional[int] = None, out_bits: Optional[int] = None) -> "MEI":
        """Shallow copy with different pruning masks (shares weights)."""
        clone = copy.copy(self)
        if in_bits is not None:
            if not 1 <= in_bits <= self.bits:
                raise ValueError(f"in_bits must be in [1, {self.bits}], got {in_bits}")
            clone.in_bits = in_bits
        if out_bits is not None:
            if not 1 <= out_bits <= self.bits:
                raise ValueError(f"out_bits must be in [1, {self.bits}], got {out_bits}")
            clone.out_bits = out_bits
        return clone

    def deploy_variant(
        self,
        *,
        in_bits: Optional[int] = None,
        out_bits: Optional[int] = None,
        mapping_config: Optional[MappingConfig] = None,
        exact_mapping: bool = False,
        comparator: Optional[Comparator] = None,
    ) -> "MEI":
        """Deployment clone with selected interface stages swapped.

        Shares the trained software network with ``self`` (a shallow
        :meth:`pruned` copy) but redeploys the analog side under the
        given overrides — the counterfactual-variant constructor of the
        error-budget harness (:mod:`repro.analysis.errorbudget`):
        unprune a side by passing ``in_bits=self.bits``, idealize the
        conductance mapping with ``exact_mapping=True``, change the
        wire/mapping policy via ``mapping_config``, or swap the output
        stage via ``comparator``.  ``self`` is left untouched.
        """
        clone = self.pruned(in_bits, out_bits)
        if mapping_config is not None:
            clone.mapping_config = mapping_config
        if comparator is not None:
            clone.comparator = comparator
        clone.analog = AnalogMLP(
            clone.network,
            clone.mapping_config,
            clone.device,
            digital_input=True,
            exact_mapping=exact_mapping,
        )
        return clone

    # -- codecs ----------------------------------------------------------

    def encode_inputs(self, x: np.ndarray) -> np.ndarray:
        """Unit values -> full-width input bit array, pruned ports zeroed."""
        bits = self.codec.encode(np.asarray(x, dtype=float))
        if self.in_bits < self.bits:
            bits = bits * self.in_mask
        return bits

    def encode_targets(self, y: np.ndarray) -> np.ndarray:
        """Unit values -> full-width target bit array (no masking)."""
        return self.codec.encode(np.asarray(y, dtype=float))

    def decode_outputs(self, bits: np.ndarray) -> np.ndarray:
        """Output bit array -> unit values, pruned ports excluded."""
        bits = np.asarray(bits, dtype=float)
        if self.out_bits < self.bits:
            bits = bits * self.out_mask
        return self.codec.decode(bits)

    # -- training ----------------------------------------------------------

    def loss(self) -> WeightedMSE:
        """The training loss: Eq. (5) if MSB-weighted, else Eq. (4)."""
        if not self.config.msb_weighted:
            return WeightedMSE()
        weights = msb_weights(
            self.bits, self.config.out_groups, self.config.weight_decay_ratio
        )
        return WeightedMSE(port_weights=weights)

    def train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        config: Optional[TrainConfig] = None,
        sample_weights: Optional[np.ndarray] = None,
    ) -> "MEI":
        """Train on bit arrays and deploy to crossbars.

        ``x``/``y`` are unit-interval arrays; the encoding to bit
        arrays happens here (MEI learns the binary relationship
        directly, Sec. 3.1).
        """
        config = config if config is not None else TrainConfig(shuffle_seed=self.seed)
        x_bits = self.encode_inputs(x)
        y_bits = self.encode_targets(y)
        trainer = Trainer(loss=self.loss(), config=config)
        trainer.fit(self.network, x_bits, y_bits, sample_weights=sample_weights)
        self.deploy()
        return self

    def deploy(self) -> None:
        """(Re)program the crossbars from the current software weights.

        ``digital_input=True``: MEI's input ports carry 0/1 levels that
        the receiving buffers regenerate, so signal fluctuation on the
        inputs only survives when it crosses the logic threshold —
        the source of MEI's Fig. 5 robustness advantage.
        """
        self.analog = AnalogMLP(
            self.network, self.mapping_config, self.device, digital_input=True
        )

    # -- inference ---------------------------------------------------------

    def predict_bits(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trial: int = 0
    ) -> np.ndarray:
        """Digital-in digital-out path: one-trial view of :meth:`predict_bits_trials`."""
        return self.predict_bits_trials(x, noise, [trial])[0]

    def predict_bits_trials(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trials: TrialSpec = 1,
    ) -> np.ndarray:
        """Digital-in digital-out path over Monte-Carlo trials.

        Bits -> crossbars -> comparator, as one stacked crossbar pass
        that hands the comparator to the last stage; returns a
        ``(trials, samples, ports)`` stack.
        """
        if self.analog is None:
            raise RuntimeError("train() or deploy() must run before predict_bits_trials()")
        x_bits = self.encode_inputs(x)
        hard = self.analog.forward_trials(x_bits, noise, trials, comparator=self.comparator)
        if self.out_bits < self.bits:
            hard = hard * self.out_mask
        return hard

    def predict(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trial: int = 0,
    ) -> np.ndarray:
        """End-to-end unit-value prediction (bits decoded)."""
        return self.decode_outputs(self.predict_bits(x, noise, trial))

    def predict_trials(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trials: TrialSpec = 1,
    ) -> np.ndarray:
        """Batched end-to-end prediction: ``(trials, samples, values)``."""
        return self.decode_outputs(self.predict_bits_trials(x, noise, trials))

    def predict_digital(self, x: np.ndarray) -> np.ndarray:
        """Software-network prediction (pre-deployment check)."""
        soft = self.network.predict(self.encode_inputs(x))
        return self.decode_outputs((soft >= 0.5).astype(float))

    def mse(self, x: np.ndarray, y: np.ndarray, noise: NonIdealFactors = IDEAL) -> float:
        """MSE of decoded unit values against unit targets."""
        return mse(self.predict(x, noise), self.codec.quantize(np.asarray(y, dtype=float)))

    # -- SAAB bit interface --------------------------------------------------

    def target_bits(self, y: np.ndarray) -> np.ndarray:
        return self.encode_targets(y)

    @property
    def out_groups(self) -> int:
        return self.config.out_groups

    @property
    def bits_per_group(self) -> int:
        return self.bits

    @classmethod
    def from_traditional(
        cls,
        topology: Topology,
        hidden: Optional[int] = None,
        **kwargs,
    ) -> "MEI":
        """MEI replacing a traditional ``I x H x O`` RCS.

        The hidden layer typically needs to grow to support the wider
        bit-level interface (Sec. 3.2 observation 1); ``hidden``
        defaults to twice the traditional size, matching the scale of
        the paper's Table 1 topologies.
        """
        config = MEIConfig(
            in_groups=topology.inputs,
            out_groups=topology.outputs,
            hidden=hidden if hidden is not None else 2 * topology.hidden,
            bits=topology.bits,
        )
        return cls(config, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MEI({self.topology()}, weighted={self.config.msb_weighted})"
