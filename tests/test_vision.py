"""Tap scheduling, tap-to-layer assignment, and encoder behavior."""

import random

import pytest

from evlm.errors import ConfigError, DimensionError
from evlm.layers import block_params
from evlm.numerics import Graph, Tensor, derive_seed
from evlm.vision import FFN_MULT, EncoderConfig, VisionEncoder, assign_taps_to_xattn, tap_schedule


# -- tap_schedule -------------------------------------------------------------


def test_schedule_full_depth_window():
    assert tap_schedule(40, 40, 8) == [4, 9, 14, 19, 24, 29, 34, 39]


def test_schedule_deep_encoder_shallow_window():
    assert tap_schedule(64, 40, 8) == [28, 33, 38, 43, 48, 53, 58, 63]


def test_schedule_toy_default():
    assert tap_schedule(12, 8, 4) == [5, 7, 9, 11]


def test_schedule_taps_equal_window_covers_every_layer():
    for layers, window in [(5, 3), (10, 10), (7, 4)]:
        sched = tap_schedule(layers, window, window)
        assert sched == list(range(layers - window, layers))


def test_schedule_degenerate_single():
    assert tap_schedule(1, 1, 1) == [0]


def test_schedule_properties_randomized():
    rng = random.Random(0)
    for _ in range(200):
        layers = rng.randint(1, 60)
        window = rng.randint(1, layers)
        taps = rng.randint(1, window)
        sched = tap_schedule(layers, window, taps)
        assert len(sched) == taps
        assert sched[-1] == layers - 1
        assert all(a < b for a, b in zip(sched, sched[1:]))
        assert all(layers - window <= i <= layers - 1 for i in sched)


def test_schedule_rejects_overwide():
    with pytest.raises(ConfigError):
        tap_schedule(10, 4, 5)


# -- assign_taps_to_xattn --------------------------------------------------------


def test_assign_single_tap():
    assert assign_taps_to_xattn(1, 4) == [0, 0, 0, 0]


def test_assign_blocks_of_five():
    out = assign_taps_to_xattn(8, 40)
    assert out == [j for j in range(8) for _ in range(5)]


def test_assign_uneven():
    assert assign_taps_to_xattn(4, 6) == [0, 0, 1, 2, 2, 3]


def test_assign_monotone_surjective_randomized():
    rng = random.Random(1)
    for _ in range(200):
        taps = rng.randint(1, 12)
        layers = rng.randint(taps, 48)
        out = assign_taps_to_xattn(taps, layers)
        assert len(out) == layers
        assert all(a <= b for a, b in zip(out, out[1:]))
        assert set(out) == set(range(taps))


def test_assign_rejects_fewer_layers_than_taps():
    with pytest.raises(ConfigError):
        assign_taps_to_xattn(4, 3)


# -- encode ------------------------------------------------------------------------


def encoder_params(cfg, seed):
    """Every block's parameters by full name, drawn as FusedModel draws them."""
    d = cfg.feature_dim
    return {
        f"vision.block{i}.{name}": init.draw(seed)
        for i in range(cfg.layers)
        for name, init in block_params(f"vision.block{i}.", d, FFN_MULT * d).items()
    }


def encode(enc, params, patches):
    """The taps of `patches` as plain tensors, on a fresh graph."""
    g = Graph()
    nodes = {name: g.param(t) for name, t in params.items()}
    return [n.t for n in enc.encode_nodes(g, g.param(patches), nodes)]


def test_encode_degenerate_single_layer():
    cfg = EncoderConfig(layers=1, patch_count=3, feature_dim=4, tap_window=1, num_taps=1)
    enc = VisionEncoder(cfg)
    taps = encode(enc, encoder_params(cfg, seed=0), Tensor.randn((3, 4), derive_seed(0, "patches")))
    assert enc.schedule == [0]
    assert len(taps) == 1
    assert taps[0].shape == (3, 4)


def test_encode_toy_schedule_and_shapes():
    cfg = EncoderConfig(layers=12, patch_count=5, feature_dim=8, tap_window=8, num_taps=4)
    enc = VisionEncoder(cfg)
    taps = encode(enc, encoder_params(cfg, seed=7), Tensor.randn((5, 8), derive_seed(7, "patches")))
    assert enc.schedule == [5, 7, 9, 11]
    assert all(t.shape == (5, 8) for t in taps)


def test_encode_zero_weights_is_identity():
    cfg = EncoderConfig(layers=3, patch_count=4, feature_dim=6, tap_window=3, num_taps=3)
    params = encoder_params(cfg, seed=0)
    for t in params.values():
        t.data[:] = [0.0] * t.size
    patches = Tensor.randn((4, 6), derive_seed(3, "patches"))
    for tap in encode(VisionEncoder(cfg), params, patches):
        assert tap.data == patches.data


def test_encode_deterministic_and_taps_distinct():
    cfg = EncoderConfig(layers=4, patch_count=4, feature_dim=8, tap_window=4, num_taps=3)
    patches = Tensor.randn((4, 8), derive_seed(9, "patches"))
    a = encode(VisionEncoder(cfg), encoder_params(cfg, seed=5), patches)
    b = encode(VisionEncoder(cfg), encoder_params(cfg, seed=5), patches)
    for ta, tb in zip(a, b):
        assert ta.data == tb.data
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            assert a[i].data != a[j].data


def test_encode_rejects_wrong_patch_shape():
    cfg = EncoderConfig(layers=2, patch_count=4, feature_dim=6, tap_window=2, num_taps=1)
    with pytest.raises(DimensionError):
        encode(VisionEncoder(cfg), encoder_params(cfg, seed=0), Tensor.zeros(3, 6))
