"""Per-trial reference oracle the trial-stacked forward chain is pinned to.

A plain loop, one Monte-Carlo trial at a time, over the module-level
primitives; it reads deployed objects' attributes only.  Trial ``t``
draws from ``noise.rng(t)``: signal fluctuation (SF) on the network's
input ports (digital inputs then regenerated at 0.5), then per layer
and tile, positive-array PV and negative-array PV.  Those are the
chain's only draws: a matrix stage (:func:`layer_output`) draws
nothing of its own, it computes under the PV factors its caller drew
(``repro.device.variation.pv_factor_stacks``), with the same
generator draw order as here.
"""

import numpy as np

from repro.device.variation import lognormal_factors
from repro.xbar.crossbar import (
    coefficients_from_conductance,
    effective_conductances,
    sinh_nonlinearity,
)
from repro.xbar.mapping import ExactDifferentialCrossbar


def array_output(array, v, sigma_pv, rng):
    """One single-ended crossbar: Eq. 1 over (optionally PV-drawn) Eq. 2."""
    g = array.conductances
    if rng is not None and sigma_pv > 0:
        g = array.device.clip_conductance(g * lognormal_factors(g.shape, sigma_pv, rng))
    if array.wire_resistance > 0:
        g = effective_conductances(g, array.wire_resistance)
    if array.nonlinearity > 0:
        v = sinh_nonlinearity(v, array.nonlinearity)
    return v @ coefficients_from_conductance(g, array.g_s)


def layer_output(xbar, x, sigma_pv, rng):
    """One matrix stage (single array, plain, tiled or exact pair); PV drawn from ``rng``."""
    tiles = getattr(xbar, "tiles", None)
    if tiles is not None:
        parts = [layer_output(tile, x[:, rows], sigma_pv, rng)
                 for rows, tile in zip(xbar._row_slices, tiles)]
        return sum(parts[1:], parts[0])
    if hasattr(xbar, "conductances"):
        return array_output(xbar, x, sigma_pv, rng)
    if isinstance(xbar, ExactDifferentialCrossbar):
        if rng is None or sigma_pv == 0:
            return x @ xbar.weights
        f_pos = lognormal_factors(xbar.weights.shape, sigma_pv, rng)
        f_neg = lognormal_factors(xbar.weights.shape, sigma_pv, rng)
        return x @ (xbar.w_pos * f_pos - xbar.w_neg * f_neg)
    pos = array_output(xbar.positive, x, sigma_pv, rng)
    neg = array_output(xbar.negative, x, sigma_pv, rng)
    return (pos - neg) * xbar.gain


def forward(analog, x, noise, trial):
    """``AnalogMLP`` forward pass for one trial."""
    out = np.atleast_2d(np.asarray(x, dtype=float))
    rng = None if noise.is_ideal else noise.rng(trial)
    if rng is not None and noise.sigma_sf > 0:
        out = out * lognormal_factors(out.shape, noise.sigma_sf, rng)
        if analog.digital_input:
            out = (out >= 0.5).astype(float)
    for xbar, neuron in zip(analog.crossbars, analog.neurons):
        out = neuron.apply(layer_output(xbar, out, noise.sigma_pv, rng))
    if analog.output_correction is not None:
        gain, offset = analog.output_correction
        out = np.clip(gain * out + offset, 0.0, 1.0)
    return out


def mei_bits(mei, x, noise, trial):
    """MEI: bit-encoded inputs -> crossbars -> comparators, pruned ports masked."""
    hard = mei.comparator.apply(forward(mei.analog, mei.encode_inputs(x), noise, trial))
    return hard * mei.out_mask if mei.out_bits < mei.bits else hard


def rcs_predict(rcs, x, noise, trial):
    """Traditional RCS: DAC -> crossbars -> ADC."""
    analog_in = rcs.dac.convert(np.asarray(x, dtype=float))
    return rcs.adc.convert(forward(rcs.analog, analog_in, noise, trial))


def saab_bits(saab, x, noise, trial):
    """SAAB vote; member ``k`` of ``K`` draws trial ``trial * K + k``."""
    weights = np.maximum(saab.alphas, 0.0)
    if weights.sum() <= 0:
        weights = np.ones(len(saab.learners))
    votes = 0.0
    for k, (learner, weight) in enumerate(zip(saab.learners, weights)):
        member_trial = trial * len(saab.learners) + k
        if weight == 0.0:
            continue
        if hasattr(learner, "comparator"):
            bits = mei_bits(learner, x, noise, member_trial)
        else:
            bits = learner.codec.encode(rcs_predict(learner, x, noise, member_trial))
        votes = votes + weight * bits
    return (votes >= 0.5 * weights.sum()).astype(float)
