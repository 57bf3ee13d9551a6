"""Reproduce the frozen default Huffman table.

Collects quantized-magnitude statistics from encoding the synthetic corpus
at several MNMR operating points with both codecs, trains a canonical
table, and prints the code lengths that live in core_codec as
DEFAULT_MAGNITUDE_LENGTHS.
"""

import heapq

import numpy as np

from hoacodec import core_codec, pipeline, scenes, sideinfo


def train(magnitude_histogram) -> core_codec.HuffmanTable:
    """Optimal lengths for a magnitude histogram, then reassigned in
    magnitude order so code length never decreases with magnitude
    (keeps the coarser-step-never-costs-more property exact)."""
    hist = np.maximum(np.asarray(magnitude_histogram, dtype=np.float64), 1.0)
    # enforce non-increasing counts so lengths are monotone in magnitude
    hist = np.maximum.accumulate(hist[::-1])[::-1]
    heap = [(float(count), s, (s,)) for s, count in enumerate(hist)]
    heapq.heapify(heap)
    lengths = [0] * hist.size
    counter = hist.size
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, counter, s1 + s2))
        counter += 1
    return core_codec.HuffmanTable(sorted(lengths))


histogram = np.zeros(17)
original = core_codec.quantize_mnmr


def counting_quantizer(spectrum, mask, target, groups):
    """Count every channel of the (L, C) matrix one call codes: both RD
    trials' components of a proposed frame, or a baseline frame's."""
    coded = original(spectrum, mask, target, groups)
    np.add.at(histogram, np.minimum(np.abs(coded.quant_indices), 16).ravel(), 1)
    return coded


specs = scenes.corpus_specs(duration=1.0)
signals = [scenes.render_scene(s) for s in specs]
config = sideinfo.TrainingConfig(half_length=1024, rank=4, coeff_size=16,
                                 residual_size=256, intra_size=256, max_iter=30)
quantizers = sideinfo.train_quantizers(signals[:3], config)

core_codec.quantize_mnmr = counting_quantizer
try:
    for sig in signals[:4]:
        for tau in (0.5, 1.0, 2.0, 8.0):
            for codec in ("proposed", "baseline"):
                cfg = pipeline.EncoderConfig(
                    codec=codec, half_length=1024, rank=4,
                    quantizers=quantizers, mnmr=tau,
                )
                pipeline.encode(sig, cfg)
finally:
    core_codec.quantize_mnmr = original

table = train(histogram)
print("magnitude histogram:", histogram.astype(int).tolist())
print("trained code lengths:", tuple(table.lengths))
print("frozen default:     ", core_codec.DEFAULT_MAGNITUDE_LENGTHS)

p = histogram / histogram.sum()
entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
print(f"sample entropy {entropy:.3f} bits, trained table {np.sum(p * table.lengths):.3f} bits/symbol")
