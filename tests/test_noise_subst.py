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


def _reference_noise(info, groups, channels, seed, frame):
    """The documented draw contract, one group and channel at a time: row c
    of one (C, L) Philox draw keyed by the seed with the frame in counter
    word 1, group j on its own bins [a_j, b_j) of the row."""
    out = np.zeros((groups.num_bins, channels))
    energies = info.energies()
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, frame, 0, 0]))
    draws = rng.standard_normal((channels, groups.num_bins))
    for c in range(channels):
        for j, (a, b) in enumerate(groups.edges):
            if energies[j] > 0:
                draw = draws[c, a:b]
                out[a:b, c] = draw * np.sqrt(energies[j] * (b - a) / np.sum(draw**2))
    return out


@settings(max_examples=40, deadline=None)
@given(
    num_bins=st.sampled_from([1024, 256, 300]),
    active=st.lists(st.booleans(), min_size=NUM_GROUPS, max_size=NUM_GROUPS),
    indices=st.lists(st.integers(0, 63), min_size=NUM_GROUPS, max_size=NUM_GROUPS),
    channels=st.integers(0, 12),
    seed=st.integers(0, 2**64 - 1),
    frame=st.integers(0, 5000),
)
def test_synthesis_is_bit_identical_to_per_group_draws(num_bins, active, indices, channels, seed, frame):
    g = groups_for(num_bins)
    info = NoiseGroupInfo(active=np.array(active), energy_indices=np.array(indices, dtype=np.uint8))
    out = synthesize_noise(info, g, channels, seed, frame)
    expected = _reference_noise(info, g, channels, seed, frame)
    assert np.array_equal(out, expected)
    # inactive bins are +0.0, not -0.0 from a zero gain times a negative draw
    assert not np.signbit(out[expected == 0]).any()


def _all_active(index=30):
    return NoiseGroupInfo(
        active=np.ones(NUM_GROUPS, dtype=bool), energy_indices=np.full(NUM_GROUPS, index, dtype=np.uint8)
    )


def _neighbour_ratios(out):
    """Sorted ratios of adjacent bins of each channel: a group's gain
    cancels, so two frames whose draws overlap share ratios."""
    return np.sort((out[1:] / out[:-1]).ravel())


def test_consecutive_frames_share_no_drawn_value():
    """Philox steps counter word 0 per block, so a frame index there would
    make frame f + 1 replay frame f's draws from its second block on; in
    word 1 no two frames overlap."""
    g = groups_for(1024)
    info = _all_active()
    for frame in (0, 1, 77):
        a = _neighbour_ratios(synthesize_noise(info, g, 4, 3, frame))
        b = _neighbour_ratios(synthesize_noise(info, g, 4, 3, frame + 1))
        i = np.clip(np.searchsorted(a, b), 1, a.size - 1)
        gap = np.minimum(np.abs(a[i] - b), np.abs(a[i - 1] - b))
        assert not np.any(gap <= 1e-13 * np.abs(b))


def test_frame_noise_does_not_depend_on_earlier_frames():
    g = groups_for(256)
    info = _all_active()
    direct = synthesize_noise(info, g, 6, 11, 40)
    for frame in range(40):
        synthesize_noise(info, g, 6, 11, frame)
    assert np.array_equal(synthesize_noise(info, g, 6, 11, 40), direct)


def test_other_groups_activity_leaves_a_group_unchanged(rng):
    g = groups_for(1024)
    full = _all_active()
    reference = synthesize_noise(full, g, 5, 9, 2)
    for _ in range(5):
        active = rng.random(NUM_GROUPS) < 0.5
        info = NoiseGroupInfo(active=active, energy_indices=full.energy_indices.copy())
        out = synthesize_noise(info, g, 5, 9, 2)
        on = np.repeat(active, g.layout().widths)
        assert np.array_equal(out[on], reference[on])
        assert np.all(out[~on] == 0.0)


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


def test_energies_gather_equals_per_call_dequantization(rng):
    """NoiseGroupInfo.energies gathers from a 64-entry table; each entry is
    bit for bit what dequantize_energy gives for that index alone, in a
    whole set and in any subset, with 0 wherever a group is inactive.  (A
    0-d index takes numpy's scalar power, which can differ in the last bit;
    energies never dequantized one.)"""
    table = NoiseGroupInfo(np.ones(64, dtype=bool), np.arange(64, dtype=np.uint8)).energies()
    assert [dequantize_energy([i])[0] for i in range(64)] == table.tolist()
    assert dequantize_energy(np.arange(64)).tolist() == table.tolist()
    for _ in range(2000):
        active = rng.random(NUM_GROUPS) < 0.5
        indices = rng.integers(0, 64, NUM_GROUPS).astype(np.uint8)
        expected = np.zeros(NUM_GROUPS)
        expected[active] = dequantize_energy(indices[active])
        assert NoiseGroupInfo(active, indices).energies().tolist() == expected.tolist()


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
