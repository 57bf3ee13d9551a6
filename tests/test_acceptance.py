"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single [criterion] PASS/FAIL line (visible with -s or in
the captured output of a failing run).  The comparison harness criterion
also reports its directional observation without asserting it.
"""

import csv
import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hoacodec import baseline_td, freq_svd, noise_subst, pipeline, scenes, transform
from hoacodec.baseline_td import TruncatedBasis
from hoacodec.bitio import BitReader, BitWriter
from hoacodec.cli import main as cli_main
from hoacodec.hoa_io import write_hoa_wav
from hoacodec.numlin import hungarian, svd
from hoacodec.sideinfo import SideInfoState, decode_sideinfo, encode_sideinfo
from hoacodec.transform import SpectralFrame, sine_window


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL")
        raise
    print(f"[{name}] PASS")


@pytest.fixture(scope="module")
def corpus():
    return [scenes.render_scene(s) for s in scenes.corpus_specs(duration=1.2)]


@pytest.fixture(scope="module")
def cb_dir(tmp_path_factory, full_quantizers):
    d = tmp_path_factory.mktemp("codebooks")
    full_quantizers.save(d)
    return d


def test_c01_transform_fidelity(rng):
    with criterion("transform-fidelity"):
        L = 1024
        win = sine_window(L)
        start = time.perf_counter()
        worst = 0.0
        for i in range(20):
            n = (10 + int(rng.integers(0, 3))) * L + int(rng.integers(0, L))
            x = rng.standard_normal((n, 16))
            spectra, _ = transform.analyze(x, L, win)
            y = transform.synthesize(spectra, win, n)
            worst = max(worst, np.linalg.norm(y - x) / np.linalg.norm(x))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"worst relative error {worst:.3e}"
        assert elapsed < 5.0, f"took {elapsed:.2f} s"
        print(f" worst rel err {worst:.2e} in {elapsed:.2f} s", end="")


def test_c02_svd_contract(rng):
    with criterion("svd-contract"):
        for i in range(100):
            m = int(rng.integers(8, 1025))
            n = int(rng.integers(2, 17))
            A = rng.standard_normal((m, n))
            res = svd(A)
            scale = np.linalg.norm(A)
            assert np.linalg.norm(res.reconstruct() - A) < 1e-9 * scale
            k = min(m, n)
            assert np.linalg.norm(res.left.T @ res.left - np.eye(k)) < 1e-9
            assert np.linalg.norm(res.right.T @ res.right - np.eye(k)) < 1e-9
            assert np.all(np.diff(res.singular_values) <= 0)
            r = min(4, n)
            trunc = (res.left[:, :r] * res.singular_values[:r]) @ res.right[:, :r].T
            err_svd = np.linalg.norm(A - trunc)
            for _ in range(50):
                Y = np.linalg.qr(rng.standard_normal((m, r)))[0]
                Z = Y.T @ A  # optimal coefficients for this random column space
                assert err_svd <= np.linalg.norm(A - Y @ Z) + 1e-12


def test_c03_hungarian_oracle(rng):
    with criterion("hungarian-oracle"):
        for i in range(200):
            r = int(rng.integers(1, 7))
            cost = rng.uniform(-5, 5, (r, r))
            a = hungarian(cost)
            best = min(
                sum(cost[i, p[i]] for i in range(r))
                for p in itertools.permutations(range(r))
            )
            assert a.total_cost == pytest.approx(best, abs=1e-9)


def test_c04_projection_least_squares_oracle(rng):
    with criterion("projection-oracle"):
        for i in range(100):
            M = int(rng.integers(4, 17))
            r = int(rng.integers(1, min(M, 6)))
            X = rng.standard_normal((512, M))
            V = np.linalg.qr(rng.standard_normal((M, r)))[0]
            Vq = np.round(V * 64) / 64  # quantized basis
            fg = baseline_td.extract_foreground(X, TruncatedBasis(vectors=Vq))
            oracle = np.linalg.lstsq(Vq, X.T, rcond=None)[0].T
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(fg - oracle)) < 1e-8 * scale


def test_c05_compaction_dominance(rng, corpus):
    with criterion("compaction-dominance"):
        L, r = 1024, 4
        win = sine_window(L)
        layout = freq_svd.layout_for_mode(1, L)
        violations = 0
        checked = 0
        for sig in corpus:
            spectra, _ = transform.analyze(sig.samples, L, win)
            for sp in spectra:
                eg, eb = freq_svd.compaction_gain(sp, r, layout)
                checked += 1
                if eb < eg - 1e-9 * float(np.sum(sp.coeffs**2)):
                    violations += 1
        for _ in range(50):
            sp = SpectralFrame(index=0, coeffs=rng.standard_normal((L, 16)))
            eg, eb = freq_svd.compaction_gain(sp, r, layout)
            checked += 1
            if eb < eg - 1e-9 * float(np.sum(sp.coeffs**2)):
                violations += 1
        assert violations == 0, f"{violations} violations"
        print(f" {checked} frames, zero violations", end="")


def test_c06_flatness_values(rng):
    with criterion("flatness-values"):
        assert noise_subst.spectral_flatness([3.0, 3.0, 3.0, 3.0]) == 1.0
        assert noise_subst.spectral_flatness([1.0, 4.0]) == pytest.approx(0.8, abs=1e-12)
        for _ in range(10**5):
            n = int(rng.integers(1, 25))
            p = rng.uniform(0, 10, n) ** 2
            f = noise_subst.spectral_flatness(p)
            assert 0.0 <= f <= 1.0 + 1e-12


def test_c07_noise_energy_fidelity(rng):
    with criterion("noise-energy-fidelity"):
        L, r, t = 1024, 4, 1
        win = sine_window(L)
        spec = scenes.corpus_specs(duration=2.2)[3]  # helicopter_fountain
        sig = scenes.render_scene(spec)
        spectra, _ = transform.analyze(sig.samples, L, win)
        assert len(spectra) >= 100
        groups = noise_subst.groups_for(L)
        nbg = (t + 1) ** 2
        active_checked = 0
        for sp in spectra[:100]:
            layout = freq_svd.layout_for_mode(1, L)
            dec = freq_svd.band_decompose(freq_svd.band_split(sp, layout), r, layout)
            residual = freq_svd.compute_residual(sp, dec)
            discarded = residual[:, nbg:]
            info = noise_subst.analyze_discarded(discarded, groups, 0.25)
            out = noise_subst.synthesize_noise(
                info, groups, discarded.shape[1], stream_seed=7, frame_index=sp.index
            )
            energies = info.energies()
            for j, (a, b) in enumerate(groups.edges):
                if not info.active[j] or energies[j] == 0:
                    continue
                active_checked += 1
                power = np.mean(out[a:b] ** 2, axis=0)
                assert np.max(np.abs(power - energies[j])) <= 1e-9 * energies[j]
        assert active_checked > 0
        print(f" {active_checked} active groups exact", end="")


def test_c08_mnmr_contract(corpus, full_quantizers):
    with criterion("mnmr-contract"):
        sig = corpus[0]
        taus = (0.5, 1.0, 2.0)
        for codec in ("proposed", "baseline"):
            bits = []
            for tau in taus:
                cfg = pipeline.EncoderConfig(
                    codec=codec, half_length=1024, rank=4, background_order=1,
                    mnmr=tau, quantizers=full_quantizers, seed=1,
                )
                res = pipeline.encode(sig, cfg)
                worst = max(f.max_nmr for f in res.stats.frames)
                escalated = sum(f.escalated_bands for f in res.stats.frames)
                assert escalated == 0, f"{codec}: {escalated} escalated bands"
                assert worst <= tau * (1 + 1e-9), f"{codec} tau={tau}: worst {worst}"
                bits.append(res.stats.total_bits)
            assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:])), (
                f"{codec}: bits not monotone {bits}"
            )
        print(f" taus {taus} satisfied, rates monotone", end="")


def test_c09_near_lossless_bypass(corpus):
    with criterion("near-lossless"):
        sig = corpus[5]
        for codec in ("proposed", "baseline"):
            cfg = pipeline.EncoderConfig(
                codec=codec, half_length=1024, rank=16, background_order=3,
                bypass_quantization=True, seed=2,
            )
            res = pipeline.encode(sig, cfg)
            dec = pipeline.decode(res.stream)
            err = np.linalg.norm(dec.signal.samples - sig.samples)
            snr = -20 * np.log10(err / np.linalg.norm(sig.samples))
            assert snr > 100, f"{codec}: {snr:.1f} dB"
        print(f" both codecs > 100 dB", end="")


def test_c10_determinism(corpus, full_quantizers, tmp_path):
    with criterion("determinism"):
        sig = corpus[1]
        cfg = pipeline.EncoderConfig(
            codec="proposed", half_length=1024, rank=4, background_order=1,
            mnmr=1.0, quantizers=full_quantizers, seed=42,
        )
        r1 = pipeline.encode(sig, cfg)
        r2 = pipeline.encode(sig, cfg)
        assert r1.stream == r2.stream
        d1 = pipeline.decode(r1.stream, quantizers=full_quantizers)
        d2 = pipeline.decode(r1.stream, quantizers=full_quantizers)
        assert np.array_equal(d1.signal.samples, d2.signal.samples)
        write_hoa_wav(d1.signal, tmp_path / "a.wav")
        write_hoa_wav(d2.signal, tmp_path / "b.wav")
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_c11_sideinfo_sync_500_frames(rng, full_quantizers):
    with criterion("sideinfo-sync"):
        q = full_quantizers
        modes = [(f // 40) % 2 for f in range(500)]  # 12 switches
        switches = sum(a != b for a, b in zip(modes, modes[1:]))
        assert switches >= 10
        enc_state, dec_state = SideInfoState(), SideInfoState()
        ranks = {0: [4], 1: [4] * 4}
        drift = rng.standard_normal((16, 4)) * 0.05
        base = np.linalg.qr(rng.standard_normal((16, 4)))[0]
        encoded = []
        for f, mode in enumerate(modes):
            base = np.linalg.qr(base + rng.standard_normal((16, 4)) * 0.08 + drift * 0.01)[0]
            nb = 1 if mode == 0 else 4
            raw = [
                svd(rng.standard_normal((64, 16)) * 0.2 + rng.standard_normal((64, 1)) @ base[:, :1].T).right[:, :4]
                if b else base.copy()
                for b in range(nb)
            ]
            w = BitWriter()
            frame, recon = encode_sideinfo(raw, mode, q, enc_state, w)
            encoded.append((w.getvalue(), frame.bit_count, recon))
        for data, bit_count, recon in encoded:
            r = BitReader(data)
            dframe, drecon = decode_sideinfo(r, q, dec_state, ranks)
            assert dframe.bit_count == bit_count
            for a, b in zip(recon, drecon):
                assert np.array_equal(a, b)
        print(f" 500 frames, {switches} switches, bit-exact", end="")


def test_c12_comparison_harness(corpus, cb_dir, tmp_path):
    with criterion("comparison-harness"):
        start = time.perf_counter()
        wav_dir = tmp_path / "corpus"
        wav_dir.mkdir()
        names = [s.name for s in scenes.corpus_specs()]
        for sig, name in zip(corpus, names):
            write_hoa_wav(sig, wav_dir / f"{name}.wav")
        out = tmp_path / "table.csv"
        code = cli_main([
            "compare", "--corpus", str(wav_dir), "--codebooks", str(cb_dir),
            "--mnmr", "0.5,1.0,2.0", "--csv", str(out),
        ])
        elapsed = time.perf_counter() - start
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18  # 6 files x 3 operating points
        taus = sorted({r["mnmr"] for r in rows})
        assert len(taus) == 3
        for tau in taus:
            vals = [float(r["reduction_percent"]) for r in rows if r["mnmr"] == tau]
            assert len(vals) == 6
        assert elapsed < 1800, f"took {elapsed:.0f} s"
        # directional observation, reported not asserted
        bs = [float(r["reduction_percent"]) for r in rows
              if r["file"] == "band_separated.wav"]
        print(f" {elapsed:.0f} s; band-separated reductions "
              f"{['%.2f%%' % v for v in bs]} (reported, not asserted)", end="")


def test_c13_baseline_seam_regression(rng):
    with criterion("seam-regression"):
        # static scene whose content is exactly rank 4: the proposed path
        # reconstructs the foreground seamlessly, the blockwise time-domain
        # path leaves blend error at frame transitions
        spec = scenes.SceneSpec(
            duration=1.5, sample_rate=48000, order=3,
            sources=[
                scenes.SourceSpec(kind="bandnoise", freq=100, freq_hi=3000, level=0.35, azimuth=0.8, seed=1),
                scenes.SourceSpec(kind="bandnoise", freq=300, freq_hi=6000, level=0.30, azimuth=-1.5, elevation=0.4, seed=2),
                scenes.SourceSpec(kind="bandnoise", freq=150, freq_hi=8000, level=0.25, azimuth=2.4, elevation=-0.5, seed=3),
                scenes.SourceSpec(kind="tone", freq=880, level=0.2, azimuth=-0.3, elevation=0.9, seed=4),
            ],
            diffuse_level=0.0, seed=9, name="static_rank4",
        )
        sig = scenes.render_scene(spec)
        L, r = 1024, 4
        x = sig.samples

        from hoacodec.hoa_io import num_frames, pad_signal

        padded = pad_signal(x, L)
        F = num_frames(sig.length, L)
        interp = baseline_td.InterpolationWindow.make(L)
        prev = None
        approx_stream = np.zeros((F * L, x.shape[1]))
        for f in range(F):
            X = padded[f * L : f * L + 2 * L]
            raw = baseline_td.truncated_basis(X, r, f)
            aligned = raw if prev is None else baseline_td.match_bases(prev, raw)[2]
            res = baseline_td.decompose_frame(X, aligned, prev, interp)
            approx_stream[f * L : (f + 1) * L] = (X - res.ambient)[:L]
            prev = aligned
        xb = approx_stream[L : L + sig.length]
        seam_baseline = np.linalg.norm(xb - x) / np.linalg.norm(x)

        win = sine_window(L)
        spectra, _ = transform.analyze(x, L, win)
        recon_frames = []
        for sp in spectra:
            layout = freq_svd.layout_for_mode(1, L)
            dec = freq_svd.band_decompose(freq_svd.band_split(sp, layout), r, layout)
            recon_frames.append(
                SpectralFrame(index=sp.index, coeffs=freq_svd.reconstruct_spectrum(dec))
            )
        xp = transform.synthesize(recon_frames, win, sig.length)
        seam_proposed = np.linalg.norm(xp - x) / np.linalg.norm(x)

        assert seam_proposed < 1e-9, f"proposed not transform-exact: {seam_proposed:.3e}"
        assert seam_baseline > 100 * seam_proposed
        # error concentration near frame boundaries, reported
        err = np.sum((xb - x) ** 2, axis=1)
        mask = np.zeros(sig.length, bool)
        for f in range(2, F):
            n = f * L - L
            if 0 <= n < sig.length:
                mask[max(0, n - 64) : min(sig.length, n + 64)] = True
        conc = err[mask].mean() / err[~mask].mean()
        print(
            f" baseline {seam_baseline:.2e} vs proposed {seam_proposed:.2e}; "
            f"baseline error {conc:.2f}x concentrated at seams", end="",
        )
