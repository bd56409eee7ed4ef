"""Traditional RRAM crossbar-based computing system with AD/DA interface.

This is the paper's baseline architecture (Sec. 2): a 3-layer analog
ANN on crossbars, fed by B-bit DACs and read out by B-bit ADCs.  Its
accuracy losses relative to the digital ANN come from (a) interface
quantization and (b) device non-idealities; its area/power is Eq. 6.

The class also exposes ``predict_bits``/``target_bits`` so SAAB can
treat AD/DA learners and MEI learners uniformly (Algorithm 1 compares
the most significant ``B_C`` bits either way).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analog.converters import ADC, DAC
from repro.core.deploy import AnalogMLP
from repro.cost.area import Topology
from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.device.variation import IDEAL, NonIdealFactors, TrialSpec
from repro.nn.losses import WeightedMSE, mse
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig, Trainer
from repro.quant.fixedpoint import FixedPointCodec
from repro.xbar.mapping import MappingConfig

__all__ = ["TraditionalRCS"]


class TraditionalRCS:
    """An ``I x H x O`` RCS with B-bit AD/DA converters.

    Parameters
    ----------
    topology:
        Analog network dimensions and interface bit width.
    mapping_config, device:
        Crossbar deployment knobs.
    seed:
        Weight-init / training shuffle seed.
    """

    def __init__(
        self,
        topology: Topology,
        mapping_config: Optional[MappingConfig] = None,
        device: RRAMDevice = HFOX_DEVICE,
        seed: Optional[int] = None,
    ):
        self.topology = topology
        self.codec = FixedPointCodec(topology.bits)
        self.dac = DAC(bits=topology.bits)
        self.adc = ADC(bits=topology.bits)
        self.mapping_config = mapping_config
        self.device = device
        self.seed = seed
        self.network = MLP(
            (topology.inputs, topology.hidden, topology.outputs), rng=seed
        )
        self.analog: Optional[AnalogMLP] = None

    # -- training ------------------------------------------------------

    def train(
        self,
        x: np.ndarray,
        y: np.ndarray,
        config: Optional[TrainConfig] = None,
        sample_weights: Optional[np.ndarray] = None,
    ) -> "TraditionalRCS":
        """Train the software network (Eq. 4) and deploy to crossbars.

        ``x``/``y`` are unit-interval arrays from the workload layer.
        Training sees DAC-quantized inputs so the network learns the
        interface it will actually be driven through.
        """
        config = config if config is not None else TrainConfig(shuffle_seed=self.seed)
        x_q = self.codec.quantize(np.asarray(x, dtype=self.network.dtype))
        trainer = Trainer(loss=WeightedMSE(), config=config)
        trainer.fit(self.network, x_q, y, sample_weights=sample_weights)
        self.deploy()
        return self

    def deploy(self) -> None:
        """(Re)program the crossbars from the current software weights."""
        self.analog = AnalogMLP(self.network, self.mapping_config, self.device)

    # -- inference -------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        """The data-path dtype: the deployed chip's, else the network's."""
        return self.network.dtype if self.analog is None else self.analog.dtype

    def predict(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trial: int = 0
    ) -> np.ndarray:
        """Full mixed-signal path: one-trial view of :meth:`predict_trials`."""
        return self.predict_trials(x, noise, [trial])[0]

    def predict_trials(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trials: TrialSpec = 1,
    ) -> np.ndarray:
        """Full mixed-signal path over Monte-Carlo trials: DAC -> analog ANN -> ADC.

        Returns ``(trials, samples, outputs)`` unit-interval values
        quantized to the interface grid.  Converter noise
        (``noise_lsb > 0``) is drawn from unseeded generators.
        """
        if self.analog is None:
            raise RuntimeError("train() or deploy() must run before predict_trials()")
        analog_in = self.dac.convert(np.asarray(x, dtype=self.analog.dtype))
        analog_out = self.analog.forward_trials(analog_in, noise, trials)
        return self.adc.convert(analog_out)

    def predict_digital(self, x: np.ndarray) -> np.ndarray:
        """Ideal software network output (the 'Digital ANN' column)."""
        return self.network.predict(np.asarray(x, dtype=float))

    def mse(self, x: np.ndarray, y: np.ndarray, noise: NonIdealFactors = IDEAL) -> float:
        """Mean squared error of the deployed system on unit targets."""
        return mse(self.predict(x, noise), np.asarray(y, dtype=float))

    # -- SAAB bit interface ----------------------------------------------

    def predict_bits(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trial: int = 0
    ) -> np.ndarray:
        """Outputs as bit arrays (the ADC's digital code words)."""
        return self.predict_bits_trials(x, noise, [trial])[0]

    def predict_bits_trials(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trials: TrialSpec = 1
    ) -> np.ndarray:
        """Batched bit-array outputs: ``(trials, samples, ports)``."""
        return self.codec.encode(self.predict_trials(x, noise, trials))

    def target_bits(self, y: np.ndarray) -> np.ndarray:
        """Unit targets encoded on the interface grid."""
        return self.codec.encode(np.asarray(y, dtype=self.dtype))

    @property
    def out_groups(self) -> int:
        """Output value count (bit groups per prediction row)."""
        return self.topology.outputs

    @property
    def bits_per_group(self) -> int:
        return self.topology.bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraditionalRCS({self.topology}, {self.topology.bits}-bit AD/DA)"
