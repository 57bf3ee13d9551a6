import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoacodec.errors import ShapeError
from hoacodec.noise_subst import (
    AAC_48K_LONG_OFFSETS,
    NUM_GROUPS,
    FrequencyGroups,
    NoiseGroupInfo,
    analyze_discarded,
    dequantize_energy,
    group_flatness,
    groups_for,
    quantize_energy,
    spectral_flatness,
    synthesize_noise,
)


# --- flatness ---

def test_constant_power_is_perfectly_flat():
    assert spectral_flatness([3.5, 3.5, 3.5, 3.5]) == 1.0


def test_two_bin_hand_value():
    # geometric mean 2, arithmetic mean 2.5
    assert spectral_flatness([1.0, 4.0]) == pytest.approx(0.8, abs=1e-12)


def test_impulse_like_group_is_peaky():
    assert spectral_flatness([1.0, 0.0, 0.0, 0.0]) < 0.01


def test_zero_group_is_flat():
    assert spectral_flatness([0.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_empty_group_rejected():
    with pytest.raises(ShapeError):
        spectral_flatness([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40))
def test_flatness_always_in_unit_interval(power):
    f = spectral_flatness(power)
    assert 0.0 <= f <= 1.0 + 1e-12


# --- group tables ---

def test_aac_table_has_49_groups_covering_1024_bins():
    g = FrequencyGroups.aac_48k_long()
    assert len(g.edges) == NUM_GROUPS
    assert g.num_bins == 1024
    assert g.offsets == AAC_48K_LONG_OFFSETS


def test_uniform_fallback_and_dispatch():
    assert groups_for(1024).offsets == AAC_48K_LONG_OFFSETS
    g = groups_for(256)
    assert len(g.edges) == NUM_GROUPS and g.num_bins == 256
    with pytest.raises(ShapeError):
        FrequencyGroups.uniform(10)


def test_group_config_roundtrip(tmp_path):
    g = FrequencyGroups.aac_48k_long()
    g.to_config(tmp_path / "g.json", sample_rate=48000)
    back = FrequencyGroups.from_config(tmp_path / "g.json")
    assert back.offsets == g.offsets


def test_malformed_offsets_rejected():
    with pytest.raises(ShapeError):
        FrequencyGroups(offsets=tuple(range(10)))


# --- energy quantizer ---

def test_energy_quantizer_zero_and_range():
    assert quantize_energy(0.0) == 0
    assert dequantize_energy(0) == 0.0
    for e in (1e-6, 1e-3, 1.0, 42.0, 1e3):
        idx = quantize_energy(e)
        back = float(dequantize_energy(idx))
        assert abs(10 * np.log10(back / e)) <= 0.8  # within half a step


def test_energy_below_floor_is_silence():
    assert quantize_energy(1e-9) == 0


# --- analysis ---

def test_white_noise_marks_all_groups_active(rng):
    g = groups_for(1024)
    spectra = rng.standard_normal((1024, 12))
    info = analyze_discarded(spectra, g, threshold=0.25)
    assert info.active.all()
    energies = info.energies()
    for j, (a, b) in enumerate(g.edges):
        true = float(np.mean(spectra[a:b] ** 2))
        assert abs(energies[j] - true) <= 0.2 * true


def test_pure_tone_group_stays_inactive(rng):
    g = groups_for(1024)
    spectra = np.zeros((1024, 3))
    spectra[500] = 25.0  # single dominant bin
    info = analyze_discarded(spectra, g, threshold=0.25)
    tone_group = next(j for j, (a, b) in enumerate(g.edges) if a <= 500 < b)
    assert not info.active[tone_group]


def test_no_discarded_channels_gives_empty_info():
    g = groups_for(256)
    info = analyze_discarded(np.zeros((256, 0)), g)
    assert not info.active.any()


def test_silence_gives_inactive_groups():
    g = groups_for(256)
    info = analyze_discarded(np.zeros((256, 4)), g)
    assert not info.active.any()


# --- synthesis ---

def test_inactive_groups_synthesize_zero():
    g = groups_for(256)
    out = synthesize_noise(NoiseGroupInfo.empty(), g, 4, 1, 0)
    assert np.all(out == 0.0)


def test_group_power_matches_transmitted_energy_exactly(rng):
    g = groups_for(1024)
    spectra = rng.standard_normal((1024, 5)) * 0.3
    info = analyze_discarded(spectra, g, threshold=0.25)
    out = synthesize_noise(info, g, 5, stream_seed=77, frame_index=3)
    energies = info.energies()
    for j, (a, b) in enumerate(g.edges):
        if not info.active[j]:
            assert np.all(out[a:b] == 0.0)
            continue
        for c in range(5):
            power = float(np.mean(out[a:b, c] ** 2))
            assert power == pytest.approx(energies[j], rel=1e-9)


def test_same_seed_is_bit_identical(rng):
    g = groups_for(256)
    spectra = rng.standard_normal((256, 4))
    info = analyze_discarded(spectra, g)
    a = synthesize_noise(info, g, 4, stream_seed=5, frame_index=9)
    b = synthesize_noise(info, g, 4, stream_seed=5, frame_index=9)
    assert np.array_equal(a, b)
    c = synthesize_noise(info, g, 4, stream_seed=5, frame_index=10)
    assert not np.array_equal(a, c)


def _reference_noise(info, groups, channels, seed, frame, offset):
    """The documented draw contract, one group at a time."""
    out = np.zeros((groups.num_bins, channels))
    energies = info.energies()
    for c in range(channels):
        rng = np.random.default_rng(np.random.SeedSequence([seed, frame, offset + c]))
        for j, (a, b) in enumerate(groups.edges):
            if energies[j] > 0:
                draw = rng.standard_normal(b - a)
                out[a:b, c] = draw * np.sqrt(energies[j] * (b - a) / np.sum(draw**2))
    return out


@settings(max_examples=40, deadline=None)
@given(
    num_bins=st.sampled_from([1024, 256, 300]),
    active=st.lists(st.booleans(), min_size=NUM_GROUPS, max_size=NUM_GROUPS),
    indices=st.lists(st.integers(0, 63), min_size=NUM_GROUPS, max_size=NUM_GROUPS),
    channels=st.integers(0, 12),
    seed=st.integers(0, 2**32),
    frame=st.integers(0, 5000),
    offset=st.integers(0, 9),
)
def test_synthesis_is_bit_identical_to_per_group_draws(num_bins, active, indices, channels, seed, frame, offset):
    g = groups_for(num_bins)
    info = NoiseGroupInfo(active=np.array(active), energy_indices=np.array(indices, dtype=np.uint8))
    out = synthesize_noise(info, g, channels, seed, frame, channel_offset=offset)
    assert np.array_equal(out, _reference_noise(info, g, channels, seed, frame, offset))


def _reference_quantize_energy(energy):
    if energy <= 0:
        return 0
    db = 10.0 * np.log10(energy)
    if db < -60.0 - 96.0 / 62 / 2:
        return 0
    return int(np.clip(int(round((db + 60.0) / (96.0 / 62))) + 1, 1, 63))


def test_energy_quantizer_matches_scalar_reference(rng):
    step = 96.0 / 62
    db = np.concatenate([rng.uniform(-80, 50, 2000), -60.0 + step * (np.arange(-2, 66) + 0.5)])
    energies = np.concatenate([10.0 ** (db / 10), [0.0, -1.0, 5e-324, 1e300]])
    energies = np.concatenate([energies, np.nextafter(energies, 0), np.nextafter(energies, np.inf)])
    expected = [_reference_quantize_energy(e) for e in energies]
    assert quantize_energy(energies).tolist() == expected
    assert [quantize_energy(float(e)) for e in energies] == expected


def _reference_flatness(discarded, groups):
    """Per group, one (bins, C) block at a time: channel-averaged flatness
    and mean power."""
    power = discarded**2
    flat, mean = [], []
    for a, b in groups.edges:
        p = power[a:b]
        floored = np.maximum(p, 1e-12 * p.mean(axis=0) + 1e-30)
        ratio = floored / floored.mean(axis=0)
        flat.append(float(np.mean(np.minimum(1.0, np.exp(np.mean(np.log(ratio), axis=0))))))
        mean.append(float(p.mean()))
    return flat, mean


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    num_bins=st.sampled_from([1024, 256, 300]),
    channels=st.integers(1, 16),
    seed=st.integers(0, 2**32),
    pivot=st.integers(0, NUM_GROUPS - 1),
    silent_bins=st.integers(0, 400),
)
def test_analysis_is_bit_identical_to_per_group_loop(num_bins, channels, seed, pivot, silent_bins):
    g = groups_for(num_bins)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_bins, channels)) * 10.0 ** rng.uniform(-8, 4, channels)
    x *= 10.0 ** rng.uniform(-3, 3, (num_bins, 1))
    x[:silent_bins] = 0.0
    flat, mean = _reference_flatness(x, g)
    got_flat, got_mean = group_flatness(x, g)
    assert got_flat.tolist() == flat and got_mean.tolist() == mean
    # the scalar reference, one group and channel at a time, adds in its own order
    scalar = [np.mean([spectral_flatness(x[a:b, c] ** 2) for c in range(channels)]) for a, b in g.edges]
    np.testing.assert_allclose(got_flat, scalar, rtol=1e-12)
    # a threshold equal to one group's flatness, and one ulp below it, flips
    # that group on any change in how its means add up
    for threshold in (0.25, flat[pivot], np.nextafter(flat[pivot], -np.inf)):
        info = analyze_discarded(x, g, threshold)
        expected = [f > threshold and _reference_quantize_energy(m) > 0 for f, m in zip(flat, mean)]
        assert info.active.tolist() == expected
        assert info.energy_indices.tolist() == [
            _reference_quantize_energy(m) if on else 0 for on, m in zip(expected, mean)
        ]


def test_bit_budget_of_info_block():
    info = NoiseGroupInfo.empty()
    assert info.active.size == NUM_GROUPS
    assert info.energy_indices.size == NUM_GROUPS
    assert info.energy_indices.dtype == np.uint8
