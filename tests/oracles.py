"""Independent straight-line reference implementations used as test
oracles. These deliberately favor explicit formulas and per-element
loops over the vectorized pipelines they are checked against."""

from __future__ import annotations

import base64
import json

import numpy as np


def oracle_hann(length: int) -> np.ndarray:
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (length - 1))


def oracle_mel_energies(frame: np.ndarray, sample_rate: int,
                        n_filters: int = 26) -> np.ndarray:
    """Windowed FFT -> triangular mel filterbank energies, filter by filter."""
    length = len(frame)
    spectrum = np.fft.rfft(frame * oracle_hann(length), n=length)
    power = (spectrum.real ** 2 + spectrum.imag ** 2)

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    top_mel = hz_to_mel(sample_rate / 2.0)
    edges = [mel_to_hz(top_mel * i / (n_filters + 1)) for i in range(n_filters + 2)]
    energies = np.zeros(n_filters)
    for m in range(n_filters):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        total = 0.0
        for k in range(len(power)):
            f = k * sample_rate / length
            if lo < f < hi:
                if f <= center:
                    weight = (f - lo) / (center - lo)
                else:
                    weight = (hi - f) / (hi - center)
                total += weight * power[k]
        energies[m] = total
    return energies


def oracle_mfcc_frame(frame: np.ndarray, sample_rate: int,
                      n_filters: int = 26, n_coeffs: int = 12,
                      log_floor: float = 1e-10) -> np.ndarray:
    """Full MFCC chain with an explicit per-coefficient DCT-II sum."""
    log_mel = np.log(np.maximum(oracle_mel_energies(frame, sample_rate,
                                                    n_filters), log_floor))
    out = np.zeros(n_coeffs)
    for k in range(1, n_coeffs + 1):
        acc = 0.0
        for n in range(n_filters):
            acc += log_mel[n] * np.cos(np.pi * k * (n + 0.5) / n_filters)
        out[k - 1] = acc
    return out


def oracle_autocorrelation_pow2(frames: np.ndarray) -> np.ndarray:
    """Linear autocorrelation of each mean-removed frame at lags
    0..frame_len-1, from an FFT pair of the smallest power of two that is
    at least 2 * frame_len (1024 for 400-sample frames)."""
    frame_len = frames.shape[1]
    centered = frames - frames.mean(axis=1, keepdims=True)
    n_fft = 1
    while n_fft < 2 * frame_len:
        n_fft *= 2
    spectrum = np.fft.rfft(centered, n=n_fft)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=n_fft)[:, :frame_len]


def oracle_f0_hnr(acf: np.ndarray, rms: np.ndarray, sr: int, frame_len: int,
                  f0_min: float = 60.0, f0_max: float = 500.0,
                  peak_threshold: float = 0.3, rms_floor: float = 1e-4,
                  hnr_clamp: float = 100.0) -> tuple[np.ndarray, np.ndarray]:
    """F0 and HNR frame by frame from the lag-domain autocorrelation rows
    (frames, frame_len) and the frame RMS: normalized peak search over
    [f0_min, f0_max] Hz, parabolic refinement, voicing tests."""
    n_frames = len(acf)
    lag_min = int(np.floor(sr / f0_max))
    lag_max = min(int(np.ceil(sr / f0_min)), frame_len - 1)
    f0 = np.zeros(n_frames)
    hnr = np.zeros(n_frames)
    acf0 = acf[:, 0]
    for i in range(n_frames):
        if acf0[i] <= 0.0 or rms[i] < rms_floor:
            continue
        window = acf[i, lag_min:lag_max + 1] / acf0[i]
        k = int(np.argmax(window))
        r = window[k]
        if r < peak_threshold:
            continue
        lag = float(lag_min + k)
        if 0 < k < len(window) - 1:
            y_prev, y_peak, y_next = window[k - 1], window[k], window[k + 1]
            denom = y_prev - 2.0 * y_peak + y_next
            if denom != 0.0:
                lag += 0.5 * (y_prev - y_next) / denom
        f0[i] = sr / lag
        if r >= 1.0:
            hnr[i] = hnr_clamp
        else:
            hnr[i] = float(np.clip(10.0 * np.log10(r / (1.0 - r)),
                                   -hnr_clamp, hnr_clamp))
    return f0, hnr


def oracle_functionals(contour: np.ndarray) -> np.ndarray:
    """Two-pass moments plus closed-form least squares, element by element."""
    x = [float(v) for v in contour]
    n = len(x)
    mean = sum(x) / n
    if all(v == x[0] for v in x):
        c = x[0]
        return np.array([c, 0.0, 0.0, 0.0, c, c, 0.0, 0.0, 0.0, c, 0.0, 0.0])
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    sd = m2 ** 0.5
    skew = m3 / (sd ** 3) if m2 > 0 else 0.0
    kurt = m4 / (m2 ** 2) - 3.0 if m2 > 0 else 0.0
    vmin, vmax = min(x), max(x)
    pos_min = x.index(vmin) / (n - 1)
    pos_max = x.index(vmax) / (n - 1)
    t_mean = (n - 1) / 2.0
    s_tt = sum((t - t_mean) ** 2 for t in range(n))
    s_tx = sum((t - t_mean) * (x[t] - mean) for t in range(n))
    slope = s_tx / s_tt
    offset = mean - slope * t_mean
    mse = sum((x[t] - offset - slope * t) ** 2 for t in range(n)) / n
    return np.array([mean, sd, skew, kurt, vmin, vmax, vmax - vmin,
                     pos_min, pos_max, offset, slope, mse])


def oracle_delta_column(column: np.ndarray) -> np.ndarray:
    """Regression delta with explicit edge replication, frame by frame."""
    x = list(map(float, column))
    n = len(x)

    def get(i):
        return x[min(max(i, 0), n - 1)]

    out = []
    for t in range(n):
        num = 1.0 * (get(t + 1) - get(t - 1)) + 2.0 * (get(t + 2) - get(t - 2))
        out.append(num / 10.0)
    return np.array(out)


def oracle_heads(params, x: np.ndarray):
    """Per-unit loop evaluation of both predictor heads on one embedding.

    Returns (probs, raw strength).
    """
    logits = []
    for k in range(len(params.bc)):
        acc = params.bc[k]
        for j in range(len(x)):
            acc += params.Wc[k, j] * x[j]
        logits.append(acc)
    shift = np.array(logits) - max(logits)
    exp = np.exp(shift)
    raw = params.bs[0]
    for j in range(len(x)):
        raw += params.ws[j] * x[j]
    return exp / exp.sum(), raw


def oracle_pair_hinge(w: np.ndarray, Zs: np.ndarray, Zw: np.ndarray,
                      c: float):
    """Squared-hinge RankSVM objective over every (strong, weak) pair, pair
    by pair.

    Returns (objective, gradient, Hessian, pair_accuracy); a pair with
    margin exactly 0 is inactive and a pair with score difference exactly
    0 is not counted as correct.
    """
    loss = 0.0
    gradient = np.array(w, dtype=float)
    hessian = np.eye(len(w))
    correct = 0
    for i in range(len(Zs)):
        for j in range(len(Zw)):
            diff = Zs[i] - Zw[j]
            score = sum(w[k] * diff[k] for k in range(len(w)))
            margin = 1.0 - score
            if margin > 0.0:
                loss += margin * margin
                gradient -= 2.0 * c * margin * diff
                hessian += 2.0 * c * np.outer(diff, diff)
            if score > 0.0:
                correct += 1
    objective = 0.5 * sum(v * v for v in w) + c * loss
    return objective, gradient, hessian, correct / (len(Zs) * len(Zw))


def _oracle_splitmix64(z: int) -> int:
    """splitmix64's finalizer on a Python int, masked to 64 bits."""
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def oracle_embed_local(texts: list[str], seed: int = 0) -> np.ndarray:
    """Hashed 1..3-gram embeddings, one splitmix64 call per n-gram
    occurrence, L2 normalized; the empty string maps to zero.

    An n-gram's code is its length n times 2**24 plus its bytes read
    big-endian; the key is splitmix64's first output for the seed."""
    dim = 768
    key = _oracle_splitmix64((seed + 0x9E3779B97F4A7C15) % 2 ** 64)
    out = np.zeros((len(texts), dim))
    for row, text in enumerate(texts):
        data = text.encode("utf-8")
        if not data:
            continue
        vec = out[row]
        for n in (1, 2, 3):
            for start in range(max(0, len(data) - n + 1)):
                code = (n << 24) | int.from_bytes(data[start:start + n], "big")
                value = _oracle_splitmix64(code ^ key)
                sign = 1.0 if value & 1 else -1.0
                vec[(value >> 1) % dim] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def oracle_fit(X, class_idx, strengths, lam):
    """The predictor's two objectives minimized by scipy's L-BFGS-B from
    zero, each on the full weights over the bias-augmented rows [x, 1]:
    mean cross-entropy of the softmax plus lam / 2 times the squared norm
    of the 4 x 769 class weights, and mean squared error plus lam times
    the squared norm of the 769 strength weights.

    Returns (Wc, bc, ws, bs, joint objective, class gradient norm).
    """
    from scipy.optimize import minimize

    n = len(X)
    A = np.hstack([X, np.ones((n, 1))])
    Y = np.eye(4)[class_idx]

    def class_head(v):
        V = v.reshape(4, -1)
        Z = A @ V.T
        Z -= Z.max(axis=1, keepdims=True)
        log_p = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
        grad = (np.exp(log_p) - Y).T @ A / n + lam * V
        return -np.sum(Y * log_p) / n + lam / 2 * v @ v, grad.ravel()

    def strength_head(u):
        r = A @ u - strengths
        return r @ r / n + lam * u @ u, 2.0 * (A.T @ r / n + lam * u)

    options = {"ftol": 0.0, "gtol": 1e-12, "maxiter": 20000}
    cls = minimize(class_head, np.zeros(4 * A.shape[1]), jac=True,
                   method="L-BFGS-B", options=options)
    strength = minimize(strength_head, np.zeros(A.shape[1]), jac=True,
                        method="L-BFGS-B", options=options)
    V = cls.x.reshape(4, -1)
    return (V[:, :-1], V[:, -1], strength.x[:-1], strength.x[-1:],
            cls.fun + strength.fun, float(np.linalg.norm(cls.jac)))


def relative_error(actual: float, expected: float, floor: float = 1e-6) -> float:
    return abs(actual - expected) / max(abs(actual), abs(expected), floor)


def oracle_save_model_v1(artifact, path) -> None:
    """The version 1 artifact writer: one JSON document (indent 1, sorted
    keys) whose "tensors" map each name to the base64 of its
    little-endian float64 bytes, next to its shape under "shapes"."""
    artifact.validate()
    doc = {
        "format_version": 1,
        "kind": artifact.kind,
        "shapes": {},
        "tensors": {},
        "metadata": dict(artifact.metadata),
    }
    for name in sorted(artifact.tensors):
        arr = np.ascontiguousarray(artifact.tensors[name], dtype="<f8")
        doc["shapes"][name] = list(arr.shape)
        doc["tensors"][name] = base64.b64encode(arr.tobytes()).decode("ascii")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def oracle_is_finite_number(value) -> bool:
    """The per-entry rule for numbers read from JSON: an int or a float,
    not a bool, within float64 range (which also refuses NaN and the
    infinities)."""
    big = float(np.finfo(np.float64).max)
    return type(value) in (int, float) and -big <= value <= big
