"""Extended property-based tests: scalers, metrics, devices, codecs."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.device.rram import RRAMDevice
from repro.metrics.error import average_relative_error, image_diff, miss_rate
from repro.metrics.image import psnr
from repro.nn.datasets import UnitScaler
from repro.quant.fixedpoint import FixedPointCodec

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestScalerProperties:
    @given(
        low=st.floats(-100, 100),
        span=st.floats(0.1, 100),
        margin=st.floats(0, 0.4),
        value=st.floats(-100, 200),
    )
    def test_roundtrip_identity(self, low, span, margin, value):
        scaler = UnitScaler(low=np.array([low]), high=np.array([low + span]), margin=margin)
        v = np.array([value])
        assert np.allclose(scaler.inverse(scaler.transform(v)), v, atol=1e-6 * max(1, abs(value)))

    @given(
        low=st.floats(-10, 10),
        span=st.floats(0.5, 10),
        margin=st.floats(0, 0.4),
        a=st.floats(-10, 20),
        b=st.floats(-10, 20),
    )
    def test_transform_monotone(self, low, span, margin, a, b):
        scaler = UnitScaler(low=np.array([low]), high=np.array([low + span]), margin=margin)
        ta = scaler.transform(np.array([a]))[0]
        tb = scaler.transform(np.array([b]))[0]
        if a <= b:
            assert ta <= tb + 1e-12

    @given(low=st.floats(-10, 10), span=st.floats(0.5, 10), margin=st.floats(0.01, 0.4))
    def test_in_range_values_land_inside_margin(self, low, span, margin):
        scaler = UnitScaler(low=np.array([low]), high=np.array([low + span]), margin=margin)
        values = np.linspace(low, low + span, 11)
        unit = scaler.transform(values[:, None])
        assert np.all(unit >= margin - 1e-12)
        assert np.all(unit <= 1 - margin + 1e-12)


class TestMetricProperties:
    @given(arrays(float, (5, 2), elements=st.floats(-10, 10, allow_nan=False)))
    def test_relative_error_zero_iff_identical(self, arr):
        assert average_relative_error(arr, arr) == 0.0

    @given(
        arrays(float, (5, 2), elements=st.floats(-10, 10, allow_nan=False)),
        arrays(float, (5, 2), elements=st.floats(-10, 10, allow_nan=False)),
    )
    def test_relative_error_capped(self, a, b):
        assert 0.0 <= average_relative_error(a, b) <= 1.0

    @given(
        arrays(float, (6, 2), elements=st.floats(0, 1, allow_nan=False)),
        arrays(float, (6, 2), elements=st.floats(0, 1, allow_nan=False)),
    )
    def test_miss_rate_bounds(self, a, b):
        assert 0.0 <= miss_rate(a, b) <= 1.0

    @given(
        arrays(float, (4, 4), elements=st.floats(0, 255, allow_nan=False)),
        arrays(float, (4, 4), elements=st.floats(0, 255, allow_nan=False)),
    )
    def test_image_diff_symmetric(self, a, b):
        assert image_diff(a, b, 255.0) == image_diff(b, a, 255.0)

    @given(
        img=arrays(float, (8, 8), elements=st.floats(0, 200, allow_nan=False)),
        shift=st.floats(1, 50),
    )
    def test_psnr_worse_for_larger_offsets(self, img, shift):
        close = psnr(img, img + shift / 2)
        far = psnr(img, img + shift)
        assert close >= far


class TestDeviceProperties:
    @given(
        r_on=st.floats(1e3, 1e5),
        ratio=st.floats(2, 1e4),
        g=st.floats(0, 1),
    )
    def test_clip_stays_in_window(self, r_on, ratio, g):
        device = RRAMDevice(r_on=r_on, r_off=r_on * ratio)
        clipped = device.clip_conductance(np.array([g]))
        assert device.g_min <= clipped[0] <= device.g_max

    @given(levels=st.integers(2, 64), g=st.floats(0, 2e-4))
    def test_discretize_idempotent(self, levels, g):
        device = RRAMDevice(levels=levels)
        once = device.discretize(np.array([g]))
        twice = device.discretize(once)
        assert np.allclose(once, twice)


class TestCodecCrossProperties:
    @given(
        bits=st.integers(2, 12),
        values=arrays(float, (3, 2), elements=st.floats(0, 0.999, allow_nan=False)),
    )
    def test_encode_decode_within_group_resolution(self, bits, values):
        codec = FixedPointCodec(bits)
        decoded = codec.decode(codec.encode(values))
        assert np.all(np.abs(decoded - values) < codec.resolution)

    @given(bits=st.integers(1, 12), dims=st.integers(1, 6))
    def test_ports_scale_linearly(self, bits, dims):
        codec = FixedPointCodec(bits)
        assert codec.ports(dims) == dims * bits
