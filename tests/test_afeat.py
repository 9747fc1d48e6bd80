"""Acoustic feature extraction tests against straight-line DSP oracles."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import next_fast_len
from scipy.io import wavfile

from emopred import afeat
from emopred.afeat import AudioClip
from emopred.corpusio import read_manifest

from conftest import make_tone
from oracles import (
    oracle_autocorrelation_pow2,
    oracle_delta_column,
    oracle_f0_hnr,
    oracle_functionals,
    oracle_mfcc_frame,
)
from synthcorpus import generate_micro_corpus


class TestLoadAudio:
    def test_one_second_24k_int16(self, tmp_path):
        path = tmp_path / "tone.wav"
        samples = (0.5 * np.sin(2 * np.pi * 220 * np.arange(24000) / 24000))
        wavfile.write(path, 24000, (samples * 32767).astype(np.int16))
        clip = afeat.load_audio(path)
        assert len(clip.samples) == 24000
        assert clip.sample_rate == 24000
        assert np.abs(clip.samples).max() <= 1.0

    def test_float32_passthrough(self, tmp_path):
        path = tmp_path / "tone32.wav"
        samples = np.linspace(-0.9, 0.9, 16000).astype(np.float32)
        wavfile.write(path, 16000, samples)
        clip = afeat.load_audio(path)
        assert np.allclose(clip.samples, samples, atol=1e-7)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        data = np.zeros((1000, 2), dtype=np.int16)
        wavfile.write(path, 16000, data)
        with pytest.raises(ValueError, match="multi-channel"):
            afeat.load_audio(path)

    def test_low_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "low.wav"
        wavfile.write(path, 8000, np.zeros(1000, dtype=np.int16))
        with pytest.raises(ValueError, match="sample rate below 16000"):
            afeat.load_audio(path)

    @pytest.mark.parametrize("rate", [384001, 2 ** 32 - 1])
    def test_high_sample_rate_rejected(self, tmp_path, rate):
        # at 2**32 - 1 Hz one frame would take gigabytes
        path = tmp_path / "high.wav"
        wavfile.write(path, 16000, np.zeros(1000, dtype=np.int16))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 24, rate)  # the fmt chunk's rate field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"{path}: sample rate above "
                           f"384000 \\({rate}\\)"):
            afeat.load_audio(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav file at all")
        with pytest.raises(ValueError, match="unreadable"):
            afeat.load_audio(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            afeat.load_audio(tmp_path / "absent.wav")


def _riff(*chunks: tuple[bytes, bytes]) -> bytes:
    """RIFF WAVE file bytes from (id, body) chunks; odd bodies padded."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
        for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag: int, bits: int, rate: int = 16000) -> bytes:
    align = bits // 8
    return struct.pack("<HHIIHH", tag, 1, rate, rate * align, align, bits)


def _scipy_samples(path) -> tuple[int, np.ndarray]:
    """scipy.io.wavfile's samples, scaled to float64 as load_audio does."""
    rate, data = wavfile.read(path)
    scale = 32768.0 if data.dtype == np.int16 else 1.0
    return rate, data.astype(np.float64) / scale


_WAV_ARRAYS = st.one_of(
    arrays("<i2", st.integers(1, 300)),
    arrays("<f4", st.integers(1, 300),
           elements=st.floats(-1, 1, width=32)),
    arrays("<f8", st.integers(1, 300), elements=st.floats(-1, 1)),
)


class TestWavReader:
    """The RIFF chunk walker against scipy.io.wavfile as the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(data=_WAV_ARRAYS,
           rate=st.sampled_from([16000, 22050, 24000, 44100, 48000, 96000]))
    def test_matches_scipy_wavfile(self, data, rate):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            wavfile.write(path, rate, data)
            clip = afeat.load_audio(path)
            expected_rate, expected = _scipy_samples(path)
        assert clip.sample_rate == expected_rate == rate
        assert clip.samples.dtype == np.float64
        np.testing.assert_array_equal(clip.samples, expected)

    def test_float64_file(self, tmp_path):
        path = tmp_path / "tone64.wav"
        samples = np.sin(np.arange(16000) / 7.0) * (1 - 2 ** -40)
        wavfile.write(path, 16000, samples)
        np.testing.assert_array_equal(afeat.load_audio(path).samples, samples)

    def test_extensible_with_odd_chunk_before_data(self, tmp_path):
        samples = np.linspace(-0.5, 0.5, 101).astype("<f4")
        guid = struct.pack("<H", 3) + (
            b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")
        fmt = _fmt(0xFFFE, 32, 44100) + struct.pack("<HHI", 22, 32, 4) + guid
        path = tmp_path / "ext.wav"
        path.write_bytes(_riff((b"fmt ", fmt), (b"LIST", b"odd"),
                               (b"data", samples.tobytes())))
        clip = afeat.load_audio(path)
        assert clip.sample_rate == 44100
        np.testing.assert_array_equal(clip.samples, samples)
        np.testing.assert_array_equal(clip.samples, _scipy_samples(path)[1])

    @pytest.mark.parametrize("data, name", [
        (np.full(100, 128, dtype=np.uint8), "8-bit PCM"),
        (np.zeros(100, dtype=np.int32), "32-bit PCM"),
    ])
    def test_other_pcm_widths_rejected(self, tmp_path, data, name):
        path = tmp_path / "pcm.wav"
        wavfile.write(path, 16000, data)
        with pytest.raises(ValueError,
                           match=f"unsupported sample encoding {name}"):
            afeat.load_audio(path)

    def test_24_bit_rejected(self, tmp_path):
        path = tmp_path / "pcm24.wav"
        path.write_bytes(_riff((b"fmt ", _fmt(1, 24)),
                               (b"data", bytes(300))))
        with pytest.raises(ValueError,
                           match="unsupported sample encoding 24-bit PCM"):
            afeat.load_audio(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        wavfile.write(path, 16000, np.zeros(1000, dtype=np.int16))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError,
                           match="unreadable WAV file: data chunk runs past the end"):
            afeat.load_audio(path)


class TestFrameSignal:
    def test_count_formula(self):
        clip = AudioClip(np.zeros(16000), 16000)
        frames = afeat.frame_signal(clip)
        assert frames.shape == (98, 400)

    def test_short_input_zero_padded(self):
        clip = AudioClip(np.ones(100), 16000)
        frames = afeat.frame_signal(clip)
        assert frames.shape == (1, 400)
        assert np.all(frames[0, :100] == 1.0)
        assert np.all(frames[0, 100:] == 0.0)

    def test_frames_are_a_read_only_view(self):
        samples = np.arange(1000, dtype=np.float64)
        frames = afeat.frame_signal(AudioClip(samples, 16000))
        assert not frames.flags.writeable
        assert np.shares_memory(frames[0], frames[1])
        np.testing.assert_array_equal(frames[2], samples[320:720])


class TestExtractLld:
    def test_silence_degenerate_values(self):
        clip = AudioClip(np.zeros(8000), 16000)
        lld = afeat.extract_lld(clip)
        assert np.all(lld[:, 0] == 0.0)  # zcr
        assert np.all(lld[:, 1] == 0.0)  # rms
        assert np.all(lld[:, 2] == 0.0)  # f0
        assert np.all(lld[:, 3] == 0.0)  # hnr
        # mfcc of silence = DCT of the log-floor constant vector, which is
        # mathematically zero for coefficients 1..12
        expected = oracle_mfcc_frame(np.zeros(400), 16000)
        assert np.abs(expected).max() < 1e-12
        for row in lld:
            np.testing.assert_allclose(row[4:], expected, atol=1e-12)

    @pytest.mark.parametrize("sample_rate", [16000, 24000])
    def test_sine_f0_within_5hz(self, sample_rate):
        clip = make_tone(440.0, sample_rate, 1.0)
        lld = afeat.extract_lld(clip)
        f0 = lld[2:-2, 2]
        assert np.all(f0 > 0), "interior frames must be voiced"
        assert np.abs(f0 - 440.0).max() < 5.0

    def test_sine_mfcc_matches_oracle(self, sine_clip):
        lld = afeat.extract_lld(sine_clip)
        frames = afeat.frame_signal(sine_clip)
        for i in range(0, frames.shape[0], 19):
            expected = oracle_mfcc_frame(frames[i], sine_clip.sample_rate)
            err = np.linalg.norm(lld[i, 4:] - expected) / np.linalg.norm(expected)
            assert err <= 1e-6

    def test_sine_is_voiced_with_high_hnr(self, sine_clip):
        lld = afeat.extract_lld(sine_clip)
        assert np.all(lld[2:-2, 3] > 0.0)


RATES = [16000, 22050, 44100, 48000]


def _lag_window(sample_rate: int) -> tuple[int, int]:
    """First and last lag of the F0 search at the default 25 ms frame."""
    frame_len = int(sample_rate * afeat.FRAME_MS / 1000.0)
    return (int(np.floor(sample_rate / afeat.F0_MAX_HZ)),
            min(int(np.ceil(sample_rate / afeat.F0_MIN_HZ)), frame_len - 1))


def _f0_test_signal(kind: str, sample_rate: int) -> AudioClip:
    """Half a second of one kind of signal. "first_lag" is a sine whose
    period is one sample shorter than the lag window, so voiced frames
    peak at its first lag; "last_lag" is a train of 1 ms Hann pulses one
    sample further apart than its last lag, so frames holding two
    pulses peak at the last lag."""
    n = sample_rate // 2
    rng = np.random.default_rng(sample_rate)
    lag_min, lag_max = _lag_window(sample_rate)
    if kind == "tone":
        return make_tone(187.0, sample_rate, 0.5, amplitude=0.6)
    if kind == "noise":
        x = rng.uniform(-0.5, 0.5, n)
    elif kind == "impulses":
        x = np.zeros(n)
        x[rng.choice(n, 6, replace=False)] = rng.uniform(-1, 1, 6)
    elif kind == "silence":
        x = np.zeros(n)
    elif kind == "first_lag":
        x = 0.5 * np.sin(2 * np.pi * np.arange(n) / (lag_min - 1))
    else:
        pulse = np.hanning(sample_rate // 1000)
        period = np.concatenate([pulse, np.zeros(lag_max + 1 - len(pulse))])
        x = np.tile(period, n // len(period) + 1)[:n]
    return AudioClip(x, sample_rate)


class TestF0Oracle:
    """The all-frames peak search against the per-frame loop."""

    @staticmethod
    def _oracle(clip: AudioClip) -> np.ndarray:
        # the autocorrelation and RMS that extract_lld feeds its search
        frames = afeat.frame_signal(clip)
        frame_len = frames.shape[1]
        acf = afeat._autocorrelation(frames, _lag_window(clip.sample_rate)[1])
        rms = np.sqrt(np.mean(frames ** 2, axis=1))
        return np.column_stack(oracle_f0_hnr(acf, rms, clip.sample_rate,
                                             frame_len))

    @pytest.mark.parametrize("sample_rate", RATES)
    @pytest.mark.parametrize("kind", ["tone", "noise", "impulses", "silence",
                                      "first_lag", "last_lag"])
    def test_bitwise_equal_to_per_frame_loop(self, kind, sample_rate):
        clip = _f0_test_signal(kind, sample_rate)
        lld = afeat.extract_lld(clip)
        assert np.array_equal(lld[:, 2:4], self._oracle(clip))

    @pytest.mark.parametrize("sample_rate", RATES)
    @pytest.mark.parametrize("kind, end", [("first_lag", 0), ("last_lag", 1)])
    def test_peaks_at_the_ends_of_the_lag_window(self, kind, end,
                                                 sample_rate):
        # A refined lag stays within half a sample of a maximum's lag and
        # is never refined at the window ends, so F0 equals sr / lag
        # exactly only when the peak sits at that end.
        lag = _lag_window(sample_rate)[end]
        f0 = afeat.extract_lld(_f0_test_signal(kind, sample_rate))[:, 2]
        assert np.count_nonzero(f0 == sample_rate / lag) >= 10


def _within(actual: np.ndarray, expected: np.ndarray, bound: float) -> bool:
    return bool(np.all(np.abs(actual - expected)
                       <= bound * (1.0 + np.abs(expected))))


class TestAutocorrelation:
    """The right-sized ACF against a direct sum and the power-of-two path."""

    @pytest.mark.parametrize("sample_rate", RATES)
    @pytest.mark.parametrize("kind", ["tone", "noise", "impulses", "silence"])
    def test_every_lag_equals_the_direct_sum(self, kind, sample_rate):
        # A too-short FFT would add lag N - k to lag k; the tone is
        # correlated at every lag, so any such fold shows.
        frames = afeat.frame_signal(_f0_test_signal(kind, sample_rate))
        lag_max = _lag_window(sample_rate)[1]
        acf = afeat._autocorrelation(frames, lag_max)
        c = frames - frames.mean(axis=1, keepdims=True)
        direct = np.stack([np.einsum("ij,ij->i", c[:, :c.shape[1] - k], c[:, k:])
                           for k in range(lag_max + 1)], axis=1)
        assert acf.shape == direct.shape
        assert np.all(np.abs(acf - direct) <= 1e-12 * (1.0 + direct[:, :1]))

    @given(st.integers(1, 10_000))
    @example(400 + 267)  # 675, the length at 16 kHz
    def test_fast_len_matches_scipy(self, n):
        assert afeat._fast_len(n) == next_fast_len(n, real=True)

    @staticmethod
    def _assert_near_pow2_path(clip: AudioClip) -> None:
        # The power-of-two ACF, then the per-contour functionals oracle.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(afeat, "_autocorrelation", lambda frames, lag_max:
                       oracle_autocorrelation_pow2(frames)[:, :lag_max + 1])
            expected_lld = afeat.extract_lld(clip)
        contours = np.hstack([expected_lld, afeat.delta(expected_lld)])
        expected = np.stack([oracle_functionals(c) for c in contours.T])
        lld = afeat.extract_lld(clip)
        got = afeat.extract_features(clip).reshape(expected.shape)
        assert np.array_equal(lld[:, 2] == 0.0, expected_lld[:, 2] == 0.0)
        assert _within(lld, expected_lld, 1e-11)
        smooth = [not name.startswith("relpos") for name in afeat.FUNCTIONAL_NAMES]
        assert _within(got[:, smooth], expected[:, smooth], 1e-11)
        # A relative position names a frame, which can move among frames
        # whose values tie up to rounding; it must name an extreme of the
        # expected contour to within the bound.
        picked = np.rint(got[:, 7:9] * (len(contours) - 1)).astype(int)
        columns = np.arange(contours.shape[1])
        assert _within(contours[picked[:, 0], columns], contours.min(axis=0), 1e-11)
        assert _within(contours[picked[:, 1], columns], contours.max(axis=0), 1e-11)

    @pytest.mark.parametrize("sample_rate", RATES)
    @pytest.mark.parametrize("kind", ["tone", "noise", "impulses", "silence",
                                      "first_lag", "last_lag"])
    def test_f0_signals_match_pow2_path(self, kind, sample_rate):
        self._assert_near_pow2_path(_f0_test_signal(kind, sample_rate))

    def test_synthetic_corpus_matches_pow2_path(self, tmp_path):
        manifest = generate_micro_corpus(tmp_path, seed=4, per_emotion=2)
        for rec in read_manifest(manifest):
            self._assert_near_pow2_path(afeat.load_audio(rec.audio_path))


class TestSpectralTables:
    @pytest.mark.parametrize("sample_rate", RATES)
    def test_built_once_and_read_only(self, sample_rate):
        frame_len = int(sample_rate * afeat.FRAME_MS / 1000.0)
        tables = afeat._spectral_tables(sample_rate, frame_len)
        assert afeat._spectral_tables(sample_rate, frame_len) is tables
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1.0


class TestDelta:
    def test_constant_column_is_zero(self):
        matrix = np.full((7, 3), 2.5)
        assert np.all(afeat.delta(matrix) == 0.0)

    def test_unit_ramp_interior(self):
        column = np.arange(10, dtype=float)
        d = afeat.delta(column[:, None])
        assert d.shape == (10, 1)
        np.testing.assert_allclose(d[2:-2], 1.0)

    def test_random_column_matches_hand_loop(self):
        rng = np.random.default_rng(11)
        column = rng.normal(size=10)
        np.testing.assert_allclose(afeat.delta(column[:, None])[:, 0],
                                   oracle_delta_column(column), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(value=st.floats(-1e6, 1e6), frames=st.integers(1, 30),
           columns=st.integers(1, 4))
    def test_constant_contour_has_zero_delta(self, value, frames, columns):
        assert np.all(afeat.delta(np.full((frames, 1), value)) == 0.0)
        assert np.all(afeat.delta(np.full((frames, columns), value)) == 0.0)

    def test_matrix_applies_per_column(self):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(9, 4))
        d = afeat.delta(matrix)
        for c in range(4):
            np.testing.assert_allclose(d[:, c],
                                       oracle_delta_column(matrix[:, c]),
                                       atol=1e-15)

    @pytest.mark.parametrize("bad", [np.zeros(5), np.zeros((0, 3)),
                                     np.zeros((2, 2, 2)), np.float64(1.0)])
    def test_refuses_all_but_a_nonempty_matrix(self, bad):
        with pytest.raises(ValueError, match=r"delta needs a nonempty "
                           r"\(frames, k\) matrix, got shape"):
            afeat.delta(bad)


def contour_functionals(contour) -> np.ndarray:
    """The 12 functionals of one contour, run as a (frames, 1) matrix."""
    return afeat.functionals(np.asarray(contour, dtype=np.float64)[:, None])[0]


class TestFunctionals:
    def test_constant_contour_exact(self):
        for c in (0.0, 0.7, -3.25):
            result = contour_functionals(np.full(17, c))
            expected = np.array([c, 0, 0, 0, c, c, 0, 0, 0, c, 0, 0])
            np.testing.assert_array_equal(result, expected)

    def test_length_one(self):
        result = contour_functionals([4.5])
        expected = np.array([4.5, 0, 0, 0, 4.5, 4.5, 0, 0, 0, 4.5, 0, 0])
        np.testing.assert_array_equal(result, expected)

    def test_exact_line(self):
        f = contour_functionals([0.0, 1.0, 2.0, 3.0])
        assert f[0] == 1.5          # mean
        assert f[4] == 0.0          # min
        assert f[5] == 3.0          # max
        assert f[6] == 3.0          # range
        assert abs(f[9]) < 1e-12    # offset
        np.testing.assert_allclose(f[10], 1.0)  # slope
        assert f[11] < 1e-24        # mse

    def test_relpos_first_occurrence(self):
        f = contour_functionals([5.0, 1.0, 1.0, 5.0])
        assert f[7] == pytest.approx(1 / 3)  # first min at index 1
        assert f[8] == 0.0                   # first max at index 0

    def test_random_contour_matches_stats_oracle(self):
        rng = np.random.default_rng(13)
        contour = rng.normal(2.0, 3.0, size=100)
        result = contour_functionals(contour)
        expected = oracle_functionals(contour)
        for got, want in zip(result, expected):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_tiny_contour_has_finite_moments(self):
        # sd = 7e-127: m2*sd and m2*m2 underflow to 0
        f = contour_functionals([0.0, 1.4e-126])
        assert np.all(np.isfinite(f))
        assert f[2] == 0.0 and f[3] == -2.0

    def test_skew_and_kurtosis_do_not_depend_on_scale(self):
        contour = np.random.default_rng(14).normal(size=50)
        m = np.stack([contour, contour * 2.0 ** -430], axis=1)
        big, small = afeat.functionals(m)
        np.testing.assert_allclose(small[2:4], big[2:4], rtol=1e-12)


@st.composite
def _contour_matrices(draw):
    """(frames, contours) matrices on a grid of quarter steps, so values
    tie often; some columns are made constant, and a single frame (every
    column constant, length 1) is among the shapes."""
    frames = draw(st.integers(1, 40))
    columns = draw(st.integers(1, 6))
    m = draw(arrays(np.float64, (frames, columns),
                    elements=st.integers(-32, 32).map(lambda k: k / 4.0)))
    constant = draw(arrays(np.bool_, columns))
    m[:, constant] = m[0, constant]
    return m


class TestFunctionalsMatrix:
    @settings(max_examples=150, deadline=None)
    @given(m=_contour_matrices())
    def test_columns_match_1d_calls_and_oracle(self, m):
        result = afeat.functionals(m)
        assert result.shape == (m.shape[1], afeat.NUM_FUNCTIONALS)
        for c in range(m.shape[1]):
            # bit for bit, including the sign of zeros
            assert (result[c].tobytes()
                    == contour_functionals(m[:, c]).tobytes())
            want = oracle_functionals(m[:, c])
            assert np.all(np.abs(result[c] - want)
                          <= 1e-9 * np.maximum(1.0, np.abs(want)))
            if np.all(m[:, c] == m[0, c]):
                assert result[c].tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(offset=st.floats(-100, 100), slope=st.floats(-10, 10),
           n=st.integers(2, 300))
    def test_affine_contour_has_zero_residual(self, offset, slope, n):
        contour = offset + slope * np.arange(n)
        f = contour_functionals(contour)
        scale = max(1.0, abs(offset) + abs(slope) * n)
        assert f[11] <= (1e-12 * scale) ** 2
        assert abs(f[10] - slope) <= 1e-12 * scale
        assert abs(f[9] - offset) <= 1e-12 * scale

    def test_rejects_empty_and_3d(self):
        for bad in (np.zeros(5), np.zeros(0), np.zeros((0, 3)),
                    np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match=r"functionals needs a "
                               r"nonempty \(frames, contours\) matrix"):
                afeat.functionals(bad)


class TestExtractFeatures:
    def test_shape_and_finiteness(self, sine_clip):
        vec = afeat.extract_features(sine_clip)
        assert vec.shape == (384,)
        assert np.all(np.isfinite(vec))

    def test_silence_reference_vector(self):
        clip = AudioClip(np.zeros(8000), 16000)
        vec = afeat.extract_features(clip)
        # Reference: degenerate LLD rules -> delta -> functionals,
        # composed with the independent oracles.
        n_frames = (8000 - 400) // 160 + 1
        mfcc_row = oracle_mfcc_frame(np.zeros(400), 16000)
        lld = np.zeros((n_frames, 16))
        lld[:, 4:] = mfcc_row
        contours = np.hstack([
            lld, np.stack([oracle_delta_column(lld[:, c]) for c in range(16)],
                          axis=1),
        ])
        expected = np.concatenate([
            oracle_functionals(contours[:, c]) for c in range(32)
        ])
        # The MFCC residues of silence are ~1e-14 and summation order
        # differs between oracle and pipeline; everything else is exact.
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_sine_composition_oracle(self, sine_clip):
        vec = afeat.extract_features(sine_clip)
        lld = afeat.extract_lld(sine_clip)
        contours = np.hstack([lld, afeat.delta(lld)])
        expected = np.concatenate([
            contour_functionals(contours[:, c]) for c in range(32)
        ])
        np.testing.assert_array_equal(vec, expected)


class TestInvariants:
    def test_determinism(self, sine_clip):
        a = afeat.extract_features(sine_clip)
        b = afeat.extract_features(
            AudioClip(sine_clip.samples.copy(), sine_clip.sample_rate))
        np.testing.assert_array_equal(a, b)

    def test_time_shift_f0_stability(self):
        clip = make_tone(220.0, 16000, 2.0)
        hop = int(16000 * afeat.HOP_MS / 1000)
        f0_a = afeat.extract_lld(clip)[:, 2]
        shifted = AudioClip(clip.samples[hop:], clip.sample_rate)
        f0_b = afeat.extract_lld(shifted)[:, 2]
        n = len(f0_b)
        diffs = np.abs(f0_a[1:1 + n] - f0_b)[2:-2]
        assert diffs.max() < 1.0

    def test_amplitude_scaling(self):
        clip = make_tone(330.0, 16000, 0.5, amplitude=0.4)
        base = afeat.extract_lld(clip)
        scaled = afeat.extract_lld(
            AudioClip(clip.samples * 2.0, clip.sample_rate))
        np.testing.assert_array_equal(scaled[:, 0], base[:, 0])  # zcr
        np.testing.assert_array_equal(scaled[:, 2], base[:, 2])  # f0
        np.testing.assert_array_equal(scaled[:, 1], base[:, 1] * 2.0)

    def test_no_nan_inf_on_random_signals(self):
        rng = np.random.default_rng(99)
        for case in range(60):
            n = int(rng.integers(50, 8000))
            kind = case % 4
            if kind == 0:
                x = np.zeros(n)
            elif kind == 1:
                x = np.clip(rng.normal(0, 1.0, n), -1, 1)
            elif kind == 2:
                x = np.zeros(n)
                x[rng.integers(0, n)] = 1.0  # impulse
            else:
                x = np.sign(rng.normal(size=n))  # square-ish clipping
            vec = afeat.extract_features(AudioClip(x, 16000))
            assert vec.shape == (384,)
            assert np.all(np.isfinite(vec))
