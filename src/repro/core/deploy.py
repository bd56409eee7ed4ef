"""Deployment of a trained MLP onto RRAM crossbar hardware.

:class:`AnalogMLP` is the bridge between the software substrate
(:mod:`repro.nn`) and the circuit substrate (:mod:`repro.xbar`,
:mod:`repro.analog`): each dense layer becomes a differential crossbar
pair (matrix) plus a bank of sigmoid neurons (activation + bias), which
is exactly the paper's RCS structure (Fig. 1(b), Sec. 2.1).

The forward pass accepts :class:`NonIdealFactors` and is the chain's
one draw site: per Monte-Carlo trial it draws signal fluctuation on the
input ports and process variation on every crossbar's conductances,
and hands each crossbar its factors (the crossbars only compute).
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from typing import TYPE_CHECKING

from repro.analog.periphery import Comparator, SigmoidNeuron
from repro.device.rram import HFOX_DEVICE, RRAMDevice
from repro.device.variation import (
    IDEAL,
    NonIdealFactors,
    TrialSpec,
    lognormal_factor_stack,
    lognormal_factors,
    pv_factor_stacks,
    regenerated_bit_stack,
    trial_indices,
)
from repro.nn.network import MLP
from repro.obs import metrics as obs_metrics
from repro.xbar.mapping import (
    DifferentialCrossbar,
    ExactDifferentialCrossbar,
    MappingConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.programming import ProgrammingConfig

__all__ = ["AnalogMLP"]


class AnalogMLP:
    """A trained MLP realized as crossbars + analog sigmoid periphery.

    Parameters
    ----------
    mlp:
        Trained network; weights are copied at deployment (programming
        a chip snapshots the weights).
    mapping_config:
        Crossbar mapping policy.
    device:
        RRAM device model.
    digital_input:
        True when the first layer's ports are driven by digital 0/1
        levels (MEI).  The receiving buffers then *regenerate* a
        fluctuated input before it reaches the crossbar — the digital
        noise-margin effect behind the paper's observation that "as
        MEI only requires discrete inputs of 0/1 signals, [it]
        demonstrates much better robustness to the signal fluctuation"
        (Sec. 5.3).  A fluctuated level still flips when the noise
        crosses the threshold, so immunity is strong but not absolute.
        Internal (hidden-layer) analog signals see fluctuation either
        way.
    exact_mapping:
        Deploy every layer as an
        :class:`~repro.xbar.mapping.ExactDifferentialCrossbar` — the
        weight matrix realized exactly, no scale/base/discretization/
        wire loss.  This is the error-budget harness's "ideal mapping"
        counterfactual; incompatible with ``programming`` (there are no
        conductances to program).
    """

    def __init__(
        self,
        mlp: MLP,
        mapping_config: Optional[MappingConfig] = None,
        device: RRAMDevice = HFOX_DEVICE,
        digital_input: bool = False,
        programming: "Optional[ProgrammingConfig]" = None,
        exact_mapping: bool = False,
    ):
        if exact_mapping and programming is not None:
            raise ValueError(
                "exact_mapping deploys no conductances; programming does not apply"
            )
        self.digital_input = digital_input
        self.exact_mapping = exact_mapping
        self.layer_sizes = mlp.layer_sizes
        self.crossbars: List[DifferentialCrossbar] = []
        self.neurons: List[SigmoidNeuron] = []
        self.output_correction: "Optional[tuple]" = None
        """Optional per-port affine correction ``(gain, offset)`` set by
        ICE-style inline calibration (:mod:`repro.core.calibration`)."""
        tile_rows = mapping_config.max_rows_per_tile if mapping_config is not None else None
        for index, layer in enumerate(mlp.layers):
            if exact_mapping:
                xbar = ExactDifferentialCrossbar(
                    layer.weights, config=mapping_config, device=device
                )
            elif tile_rows is not None and layer.weights.shape[0] > tile_rows:
                from repro.xbar.tiling import TiledDifferentialCrossbar

                xbar = TiledDifferentialCrossbar(
                    layer.weights, tile_rows, config=mapping_config, device=device
                )
            else:
                xbar = DifferentialCrossbar(
                    layer.weights, config=mapping_config, device=device
                )
            if programming is not None:
                self._program(xbar, programming, index)
            self.crossbars.append(xbar)
            # The crossbar's apply() restores the mapping gain, so the
            # neuron only contributes the trained bias and the sigmoid.
            self.neurons.append(SigmoidNeuron(gain=1.0, bias=layer.bias.copy()))
        obs_metrics.counter("deployments").inc()
        obs_metrics.counter("rram_devices_programmed").inc(self.device_count)

    @staticmethod
    def _arrays_of(xbar):
        """All single-ended arrays of a (possibly tiled) crossbar pair."""
        tiles = getattr(xbar, "tiles", None)
        pairs = tiles if tiles is not None else [xbar]
        for pair in pairs:
            yield pair.positive
            yield pair.negative

    def arrays(self):
        """Every single-ended array of the deployment, in layer order.

        This is the canonical enumeration order shared by fault
        injection (:mod:`repro.device.faults`), spare-column repair and
        the conductance snapshot/restore pair — index ``i`` always
        refers to the same physical array across all of them.
        """
        for xbar in self.crossbars:
            yield from self._arrays_of(xbar)

    def conductance_snapshot(self) -> "List[np.ndarray]":
        """Copies of every array's programmed conductances.

        Taken before fault injection, the snapshot is the set of
        programming *targets* that spare-column repair
        (:meth:`repair_with_spares`) steers onto healthy spares.
        """
        return [array.conductances.copy() for array in self.arrays()]

    def restore_conductances(self, snapshot: "List[np.ndarray]") -> None:
        """Reprogram every array from a :meth:`conductance_snapshot`."""
        arrays = list(self.arrays())
        if len(snapshot) != len(arrays):
            raise ValueError(
                f"snapshot has {len(snapshot)} arrays, deployment has {len(arrays)}"
            )
        for array, g in zip(arrays, snapshot):
            if g.shape != array.conductances.shape:
                raise ValueError("snapshot shape does not match deployment")
            array.conductances = g.copy()

    def repair_with_spares(
        self,
        defect_maps: "List[np.ndarray]",
        pristine: "List[np.ndarray]",
        spares_per_array: int,
    ) -> "List":
        """Spare-column repair across the whole deployment.

        Each single-ended array spends an independent budget of
        ``spares_per_array`` spare columns on its worst defective
        columns (see :func:`repro.xbar.redundancy.remap_spare_columns`).
        ``defect_maps`` and ``pristine`` must be in :meth:`arrays`
        order — exactly what
        :func:`repro.device.faults.inject_faults_analog_report` and
        :meth:`conductance_snapshot` return.  Returns the per-array
        :class:`~repro.xbar.redundancy.RemapReport` list.
        """
        from repro.xbar.redundancy import remap_spare_columns

        arrays = list(self.arrays())
        if not (len(defect_maps) == len(pristine) == len(arrays)):
            raise ValueError(
                f"got {len(defect_maps)} defect maps and {len(pristine)} "
                f"snapshots for {len(arrays)} arrays"
            )
        return [
            remap_spare_columns(array, defects, targets, spares_per_array)
            for array, defects, targets in zip(arrays, defect_maps, pristine)
        ]

    @classmethod
    def _program(cls, xbar, config: "ProgrammingConfig", index: int) -> None:
        """Replace ideal conductances with write-verify programmed states.

        Models the residual programming error of a real deployment
        (distinct from drift-style process variation, which is drawn
        per inference trial).  Each array gets its own pulse-noise
        stream.
        """
        import dataclasses

        from repro.device.programming import program_conductances

        for offset, array in enumerate(cls._arrays_of(xbar)):
            array_config = (
                config
                if config.seed is None
                else dataclasses.replace(config, seed=config.seed + 1000 * index + offset)
            )
            result = program_conductances(array.conductances, array.device, array_config)
            array.conductances = result.conductances

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def device_count(self) -> int:
        """Total RRAM cells across all layers."""
        return sum(xbar.device_count for xbar in self.crossbars)

    def forward(
        self, x: np.ndarray, noise: NonIdealFactors = IDEAL, trial: int = 0
    ) -> np.ndarray:
        """Analog forward pass under one noise draw: one-trial view of :meth:`forward_trials`."""
        return self.forward_trials(x, noise, [trial])[0]

    def forward_trials(
        self,
        x: np.ndarray,
        noise: NonIdealFactors = IDEAL,
        trials: TrialSpec = 1,
        comparator: "Optional[Comparator]" = None,
    ) -> np.ndarray:
        """Analog forward pass over a stack of Monte-Carlo trials.

        Draws every trial's variation tensors up front (one generator
        per trial: input signal fluctuation, then every array's process
        variation in :meth:`arrays` order) and pushes each *distinct*
        trial input through the layer chain once, as one
        ``(passes, samples, ports)`` stack.  Without PV, trials whose
        inputs coincide share a pass: noise-free, every trial is the
        one noise-free pass; digital inputs that SF left clean are too.
        A pass runs the same per-slice matmuls and elementwise ops as
        the trial it stands for, so sharing changes no bit.  The raw
        output is the last sigmoid stage's analog level; the
        architecture layer (AD/DA's ADC or MEI's comparator) digitizes it.

        Parameters
        ----------
        x:
            Inputs of shape ``(samples, ports)`` (or ``(ports,)``).
        noise:
            Non-ideal factors shared by all trials.
        trials:
            Trial count ``n`` (trials ``0..n-1``) or explicit trial
            indices.
        comparator:
            Optional 1-bit output stage: the result is then its 0/1
            decision of the output level.  An ideal one with no
            ``output_correction`` decides on the last stage's
            pre-activation (:meth:`Comparator.apply` with ``neuron``),
            once per pass.

        Returns
        -------
        Stack of shape ``(trials, samples, out_dim)``; slice ``[t]``
        depends only on ``noise.rng(trial)`` for that trial's index.
        """
        base = np.atleast_2d(np.asarray(x, dtype=float))
        if base.shape[1] != self.in_dim:
            raise ValueError(f"input has {base.shape[1]} ports, network expects {self.in_dim}")
        indices = trial_indices(trials)
        rngs = None if noise.is_ideal else noise.rngs(indices)
        # Trial t's input is out[which[t]].
        which = np.zeros(len(indices), dtype=np.intp)
        out = base[np.newaxis]
        t0 = time.perf_counter()
        # Signal fluctuation is *interface* noise (Sec. 5.3: "noise to
        # the electrical signal, such as the input signal"): it
        # corrupts the signals arriving at the accelerator's input
        # ports.  On-chip inter-layer wires are short and shielded;
        # device-level disturbance is covered by PV.
        if rngs is not None and noise.sigma_sf > 0 and self.digital_input:
            # Digital receivers regenerate 0/1 levels: only noise that
            # crosses the logic threshold survives — MEI's Fig. 5
            # advantage.
            out, which = regenerated_bit_stack(base, noise.sigma_sf, rngs)
        elif rngs is not None and noise.sigma_sf > 0:
            out = base * lognormal_factor_stack(base.shape, noise.sigma_sf, rngs)
            which = np.arange(len(indices))
        pv_factor_args: "List" = [None] * len(self.crossbars)
        if rngs is not None and noise.sigma_pv > 0:
            # Every trial draws its own conductances: one pass each.
            if len(out) == 1:
                out = np.broadcast_to(out, (len(indices),) + base.shape)
            elif len(out) < len(indices):
                out = out[which]
            which = np.arange(len(indices))
            pv_factor_args = pv_factor_stacks(self.crossbars, noise.sigma_pv, rngs)
        passes = len(out)
        # One analog MAC per RRAM cell per sample (Eq. 2's column sums).
        obs_metrics.counter("crossbar_macs").inc(self.device_count * base.shape[0] * passes)
        obs_metrics.counter("forward_passes").inc()
        decide = (
            comparator is not None and comparator.is_ideal and self.output_correction is None
        )
        last = len(self.crossbars) - 1
        for index, (xbar, neuron, pv_factors) in enumerate(
            zip(self.crossbars, self.neurons, pv_factor_args)
        ):
            analog = xbar.apply_trials(out, pv_factors)
            if decide and index == last:
                out = comparator.apply(analog, neuron=neuron)
            else:
                out = neuron.apply(analog)
        if self.output_correction is not None:
            gain, offset = self.output_correction
            out = np.clip(gain * out + offset, 0.0, 1.0)
        obs_metrics.histogram("forward_latency_seconds").observe(
            time.perf_counter() - t0
        )
        if passes < len(indices):  # else ``which`` is the identity
            out = out[which]
        if comparator is not None and not decide:
            # Offset noise is drawn per conversion: after the fan-out.
            out = comparator.apply(out)
        return out

    def freeze_variation(
        self, noise: NonIdealFactors, trial: int = 0
    ) -> "AnalogMLP":
        """Permanently apply one process-variation draw to this chip.

        Models *fabrication-time* variation: the programmed states of a
        physical array instance deviate statically from their targets
        (as opposed to per-inference drift, which ``forward`` draws per
        Monte-Carlo trial).  Inline calibration
        (:mod:`repro.core.calibration`) measures and corrects exactly
        this kind of static deviation.
        """
        if noise.sigma_pv <= 0:
            return self
        rng = noise.rng(trial)
        for array in self.arrays():
            factors = lognormal_factors(array.conductances.shape, noise.sigma_pv, rng)
            array.conductances = array.device.clip_conductance(array.conductances * factors)
        return self
