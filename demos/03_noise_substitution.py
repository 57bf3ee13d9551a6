"""Noise substitution for discarded ambient channels.

Flatness gating decides which of the 49 frequency groups are noise-like;
their average energies travel in at most 49 six-bit values per frame, and
the decoder regenerates the groups with seeded noise at exactly the
transmitted power.  The noise of frame f comes from one Philox generator
keyed by the stream seed with f in its counter, so any frame's noise is
drawn directly, without synthesizing the frames before it.
"""

import numpy as np

from hoacodec import noise_subst

L = 1024
rng = np.random.default_rng(7)
groups = noise_subst.groups_for(L)

# discarded-channel spectra: noise floor everywhere plus one strong tone
discarded = 0.05 * rng.standard_normal((L, 12))
discarded[300, :] += 8.0

info = noise_subst.analyze_discarded(discarded, groups, threshold=0.25)
tone_group = next(j for j, (a, b) in enumerate(groups.edges) if a <= 300 < b)
print(f"{info.active.sum()} of {noise_subst.NUM_GROUPS} groups flagged noise-like")
print(f"group {tone_group} holds the tone -> active: {bool(info.active[tone_group])}")

synth = noise_subst.synthesize_noise(info, groups, 12, stream_seed=42, frame_index=0)
energies = info.energies()
errs = []
for j, (a, b) in enumerate(groups.edges):
    if info.active[j] and energies[j] > 0:
        got = float(np.mean(synth[a:b, 0] ** 2))
        errs.append(abs(got - energies[j]) / energies[j])
print(f"decoder group power vs transmitted energy, worst relative error: {max(errs):.2e}")

again = noise_subst.synthesize_noise(info, groups, 12, stream_seed=42, frame_index=0)
print(f"same seed, same frame -> bit-identical: {np.array_equal(synth, again)}")

# frame 500 directly, and again after synthesizing frames 0..499 in order
direct = noise_subst.synthesize_noise(info, groups, 12, stream_seed=42, frame_index=500)
for f in range(500):
    noise_subst.synthesize_noise(info, groups, 12, stream_seed=42, frame_index=f)
in_order = noise_subst.synthesize_noise(info, groups, 12, stream_seed=42, frame_index=500)
print(f"frame 500 drawn directly == after frames 0..499: {np.array_equal(direct, in_order)}")

bits = noise_subst.NUM_GROUPS + int(info.active.sum()) * noise_subst.ENERGY_BITS
print(f"side cost this frame: {bits} bits (mask + energies)")
