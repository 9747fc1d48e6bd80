"""Acoustic emotion features: 16 low-level descriptors per frame, their
regression deltas, and 12 statistical functionals per contour, packed into a
fixed 384-dimensional utterance vector.

Per frame the descriptors are, in column order: zero-crossing rate, RMS
energy, F0 (autocorrelation, 0 on unvoiced frames), harmonics-to-noise ratio
in dB (0 on unvoiced frames), and MFCC 1..12 (Hann window, 26 triangular mel
filters spanning 0..sr/2, log floor 1e-10, DCT-II with coefficient 0
dropped). Functional order per contour: mean, stddev, skewness, kurtosis,
min, max, range, relative position of min, relative position of max, linear
regression offset, slope, and residual MSE.

Each clip goes through a fixed number of whole-array passes: the frames
are one strided view, the F0 peak search runs over all frames at once,
the mel bank is one broadcast, and `functionals` reduces all 32 contours
together.

The autocorrelation is one FFT pair whose length is the smallest
2^a*3^b*5^c of at least frame_len + lag_max (675 for 400-sample frames
at 16 kHz). A circular correlation of that length adds lag N - k to lag
k, and for k <= lag_max that lag is at least frame_len, longer than any
two samples of a frame lie apart, so lags 0..lag_max are the linear
ones up to rounding. The Hann window, mel bank and DCT matrix are built
once per (sample rate, frame length) and shared read-only. `functionals`
forms each moment from products of the deviations, so it equals the
textbook formulas up to rounding, not bit for bit.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FRAME_MS = 25.0
HOP_MS = 10.0

MIN_SAMPLE_RATE = 16000
# the highest common audio rate: a frame's samples and its mel bank grow
# with the rate, so a header's rate is bounded before anything is sized
MAX_SAMPLE_RATE = 384000
F0_MIN_HZ = 60.0
F0_MAX_HZ = 500.0
VOICING_PEAK_THRESHOLD = 0.3
VOICING_RMS_FLOOR = 1e-4
HNR_CLAMP_DB = 100.0
NUM_MEL_FILTERS = 26
NUM_MFCC = 12
LOG_FLOOR = 1e-10

LLD_NAMES = (
    "zcr", "rms", "f0", "hnr",
    "mfcc1", "mfcc2", "mfcc3", "mfcc4", "mfcc5", "mfcc6",
    "mfcc7", "mfcc8", "mfcc9", "mfcc10", "mfcc11", "mfcc12",
)
FUNCTIONAL_NAMES = (
    "mean", "stddev", "skewness", "kurtosis", "min", "max", "range",
    "relpos_min", "relpos_max", "linreg_offset", "linreg_slope", "linreg_mse",
)
NUM_LLD = len(LLD_NAMES)
NUM_FUNCTIONALS = len(FUNCTIONAL_NAMES)
FEATURE_DIM = NUM_LLD * 2 * NUM_FUNCTIONALS  # 384


@dataclass
class AudioClip:
    """Mono waveform with samples in [-1, 1] and sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def validate(self) -> None:
        if self.sample_rate < MIN_SAMPLE_RATE:
            raise ValueError(f"sample rate below {MIN_SAMPLE_RATE}")
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise ValueError("samples must be a nonempty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")


# (format tag, bits per sample) -> sample dtype and full-scale value
_ENCODINGS = {(1, 16): ("<i2", 32768.0), (3, 32): ("<f4", 1.0),
              (3, 64): ("<f8", 1.0)}
_FORMAT_NAMES = {1: "PCM", 3: "float"}
# What follows the 2-byte tag in a standard WAVE_FORMAT_EXTENSIBLE GUID
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _read_wav(path: str | Path) -> tuple[int, int, int, int, bytes]:
    """(format tag, channels, rate, bits per sample, data) of a WAV file.

    Walks the RIFF chunks, skipping all but `fmt ` and `data` (odd sizes
    are padded to even); an extensible file's tag is its subformat's.
    Raises ValueError if either chunk is missing or `data` is cut short."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF WAVE file")
    end = min(len(raw), 8 + int.from_bytes(raw[4:8], "little"))
    pos, fmt, data = 12, None, None
    while pos + 8 <= end:
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        body = raw[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            if len(body) < size:
                raise ValueError("data chunk runs past the end of the file")
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or len(fmt) < 16 or data is None:
        raise ValueError("missing fmt or data chunk")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == 0xFFFE and fmt[26:40] == _GUID_TAIL:
        tag = int.from_bytes(fmt[24:26], "little")
    return tag, channels, rate, bits, data


def load_audio(path: str | Path) -> AudioClip:
    """Load a mono WAV file: 16-bit PCM, 32-bit or 64-bit float.

    Raises ValueError for an unreadable or truncated file, multi-channel
    audio, sample rates below 16 kHz (no silent resampling) or above
    384 kHz, and any other encoding (8-, 24- or 32-bit PCM, compressed
    formats).
    """
    try:
        tag, channels, rate, bits, data = _read_wav(path)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable WAV file: {exc}") from exc
    if channels != 1:
        raise ValueError(f"{path}: multi-channel unsupported ({channels} channels)")
    if rate < MIN_SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate below {MIN_SAMPLE_RATE} ({rate})")
    if rate > MAX_SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate above {MAX_SAMPLE_RATE} ({rate})")
    if (tag, bits) not in _ENCODINGS:
        name = _FORMAT_NAMES.get(tag, f"format {tag:#06x}")
        raise ValueError(f"{path}: unsupported sample encoding {bits}-bit {name}")
    dtype, full_scale = _ENCODINGS[tag, bits]
    samples = np.frombuffer(data, dtype, len(data) // np.dtype(dtype).itemsize)
    clip = AudioClip(samples.astype(np.float64) / full_scale, rate)
    clip.validate()
    return clip


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Slice a clip into overlapping frames, shape (frames, frame_len).

    Frame and hop lengths are FRAME_MS and HOP_MS converted to samples
    (rounded down). A signal shorter than one frame is zero-padded to a
    single frame. The result is a read-only strided view of one copy of
    the samples, in which consecutive frames share memory; copy it
    before writing.
    """
    x = np.asarray(clip.samples, dtype=np.float64)
    frame_len = int(clip.sample_rate * FRAME_MS / 1000.0)
    hop = int(clip.sample_rate * HOP_MS / 1000.0)
    x = np.pad(x, (0, max(0, frame_len - len(x))))
    return sliding_window_view(x, frame_len)[::hop]


def _mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz) / 700.0)


def _mel_inv(mels):
    return 700.0 * (10.0 ** (np.asarray(mels) / 2595.0) - 1.0)


def _mel_filterbank(sample_rate: int, n_fft: int) -> np.ndarray:
    """Triangular mel filters evaluated at the rFFT bin frequencies."""
    fmax = sample_rate / 2.0
    edges_hz = _mel_inv(np.linspace(_mel(0.0), _mel(fmax), NUM_MEL_FILTERS + 2))
    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (sample_rate / n_fft)
    # filter m (a row) rises over edges m..m+1 and falls over m+1..m+2
    lo, center, hi = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_hz - lo) / (center - lo)
    falling = (hi - bin_hz) / (hi - center)
    return np.maximum(0.0, np.minimum(rising, falling))


def _dct_matrix(n_input: int) -> np.ndarray:
    """DCT-II basis rows for coefficients 1..NUM_MFCC (coefficient 0 dropped)."""
    n = np.arange(n_input)
    k = np.arange(1, NUM_MFCC + 1)[:, None]
    return np.cos(np.pi * k * (n[None, :] + 0.5) / n_input)


@functools.lru_cache(maxsize=8)
def _spectral_tables(sample_rate: int,
                     frame_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hann window, transposed mel bank and transposed DCT matrix for one
    (sample rate, frame length), built once and read-only because every
    clip at that rate shares them."""
    tables = (np.hanning(frame_len), _mel_filterbank(sample_rate, frame_len).T,
              _dct_matrix(NUM_MEL_FILTERS).T)
    for table in tables:
        table.flags.writeable = False
    return tables


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c that is at least n (n >= 1)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that takes p35 to at least n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _autocorrelation(frames: np.ndarray, lag_max: int) -> np.ndarray:
    """Linear autocorrelation of each mean-removed frame at lags
    0..lag_max, shape (frames, lag_max + 1), from one FFT pair of the
    smallest fast length that cannot wrap (see the module docstring)."""
    centered = frames - frames.mean(axis=1, keepdims=True)
    n_fft = _fast_len(frames.shape[1] + lag_max)
    spectrum = np.fft.rfft(centered, n=n_fft)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=n_fft)[:, :lag_max + 1]


def extract_lld(clip: AudioClip) -> np.ndarray:
    """Per-frame low-level descriptors, shape (frames, 16).

    F0 uses the normalized autocorrelation of the mean-removed frame:
    the peak lag is searched over [60, 500] Hz and refined by parabolic
    interpolation. A frame is voiced when the normalized peak is at
    least 0.3 and the frame RMS is at least 1e-4; unvoiced frames get
    F0 = HNR = 0. HNR is 10*log10(r / (1 - r)) at the integer peak lag,
    clamped to [-100, 100] dB.
    """
    clip.validate()
    frames = frame_signal(clip)
    frame_len = frames.shape[1]
    sr = clip.sample_rate

    zcr = np.sum(frames[:, :-1] * frames[:, 1:] < 0, axis=1) / frame_len
    rms = np.sqrt(np.mean(frames ** 2, axis=1))

    # Peak of the normalized ACF over the lag window, all frames at once.
    # Rows that fail a voicing test still compute (possibly inf or NaN)
    # values; the mask below discards them.
    lag_min = int(np.floor(sr / F0_MAX_HZ))
    lag_max = min(int(np.ceil(sr / F0_MIN_HZ)), frame_len - 1)
    acf = _autocorrelation(frames, lag_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        window = acf[:, lag_min:lag_max + 1] / acf[:, :1]
        last = window.shape[1] - 1
        k = np.argmax(window, axis=1)
        neighbours = np.clip(k[:, None] + (-1, 0, 1), 0, last)
        y_prev, r, y_next = np.take_along_axis(window, neighbours, axis=1).T
        denom = y_prev - 2.0 * r + y_next
        refine = (k > 0) & (k < last) & (denom != 0.0)
        lag = (lag_min + k).astype(np.float64)
        lag[refine] += 0.5 * (y_prev - y_next)[refine] / denom[refine]
        hnr = np.where(r >= 1.0, HNR_CLAMP_DB,
                       np.clip(10.0 * np.log10(r / (1.0 - r)),
                               -HNR_CLAMP_DB, HNR_CLAMP_DB))
        voiced = ((acf[:, 0] > 0.0) & (rms >= VOICING_RMS_FLOOR)
                  & (r >= VOICING_PEAK_THRESHOLD))
        f0 = np.where(voiced, sr / lag, 0.0)
        hnr = np.where(voiced, hnr, 0.0)

    hann, bank_t, dct_t = _spectral_tables(sr, frame_len)
    power = np.abs(np.fft.rfft(frames * hann, n=frame_len)) ** 2
    log_mel = np.log(np.maximum(power @ bank_t, LOG_FLOOR))
    mfcc = log_mel @ dct_t
    return np.column_stack([zcr, rms, f0, hnr, mfcc])


def delta(matrix: np.ndarray) -> np.ndarray:
    """Two-frame regression delta of each column of a nonempty (frames, k)
    matrix, with edge replication; returns the same shape.

    d_t = (1*(c[t+1] - c[t-1]) + 2*(c[t+2] - c[t-2])) / 10
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or len(m) < 1:
        raise ValueError("delta needs a nonempty (frames, k) matrix, "
                         f"got shape {m.shape}")
    padded = np.vstack([m[:1], m[:1], m, m[-1:], m[-1:]])
    return (1.0 * (padded[3:-1] - padded[1:-3])
            + 2.0 * (padded[4:] - padded[:-4])) / 10.0


def functionals(contours: np.ndarray) -> np.ndarray:
    """The 12 statistical functionals of each column of a nonempty
    (frames, contours) matrix, shape (contours, 12).

    A column's row is, bit for bit, what the column alone gives as a
    (frames, 1) matrix. Uses population moments; skewness is m3/m2^1.5
    and kurtosis is excess (m4/m2^2 - 3). Relative positions use the first
    occurrence divided by len-1 (0 for length-1 contours). Constant
    contours (including length 1) take the exact degenerate values
    [c, 0, 0, 0, c, c, 0, 0, 0, c, 0, 0].
    """
    m = np.asarray(contours, dtype=np.float64)
    if m.ndim != 2 or len(m) < 1:
        raise ValueError("functionals needs a nonempty (frames, contours) "
                         f"matrix, got shape {m.shape}")
    n = len(m)
    # One contiguous row per contour: numpy then reduces each row with the
    # same pairwise summation as a 1-D array, which keeps the bits of the
    # per-contour formulas (reducing over axis 0 would not).
    x = np.ascontiguousarray(m.T)
    constant = np.all(x == x[:, :1], axis=1)

    t = np.arange(n, dtype=np.float64)
    t_mean = (n - 1) / 2.0
    # Constant rows and length 1 divide 0 by 0 here; the mask below
    # replaces their values.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.mean(x, axis=1)
        d = x - mean[:, None]
        # products, not d ** 3 and d ** 4, which numpy sends to C pow
        d2 = d * d
        m2 = np.mean(d2, axis=1)
        sd = np.sqrt(m2)
        skew = np.where(m2 > 0, np.mean(d2 * d, axis=1) / (m2 * sd), 0.0)
        kurt = np.where(m2 > 0, np.mean(d2 * d2, axis=1) / (m2 * m2) - 3.0, 0.0)
        # Below sd ~ 1e-77, m2*m2 = sd**4 (and soon m2*sd and the odd and
        # fourth moments) leave the normal range, so the quotients above
        # lose their digits or become 0/0; such rows take the moments of
        # the contour scaled by sd, which are the same numbers.
        tiny = (m2 > 0) & (m2 * m2 < np.finfo(np.float64).tiny)
        if tiny.any():
            z = d[tiny] / sd[tiny, None]
            z2 = z * z
            skew[tiny] = np.mean(z2 * z, axis=1)
            kurt[tiny] = np.mean(z2 * z2, axis=1) - 3.0
        vmin, vmax = np.min(x, axis=1), np.max(x, axis=1)
        pos_min = np.argmin(x, axis=1) / (n - 1)
        pos_max = np.argmax(x, axis=1) / (n - 1)
        slope = np.sum((t - t_mean) * d, axis=1) / np.sum((t - t_mean) ** 2)
        offset = mean - slope * t_mean
        residual = x - (offset[:, None] + slope[:, None] * t)
        mse = np.mean(residual ** 2, axis=1)

    out = np.stack([mean, sd, skew, kurt, vmin, vmax, vmax - vmin,
                    pos_min, pos_max, offset, slope, mse], axis=1)
    level = np.array([1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0], dtype=bool)
    out[constant] = np.where(level, x[constant, :1], 0.0)
    return out


def extract_features(clip: AudioClip) -> np.ndarray:
    """Full 384-dimensional emotion feature vector for one clip.

    Layout: for each of the 32 contours (the 16 descriptors followed by
    their 16 deltas), the 12 functionals in declared order.
    """
    lld = extract_lld(clip)
    out = functionals(np.hstack([lld, delta(lld)])).ravel()
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite value in extracted features")
    return out
