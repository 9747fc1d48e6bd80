"""Independent straight-line reference implementations used as test
oracles. These deliberately favor explicit formulas and per-element
loops over the vectorized pipelines they are checked against."""

from __future__ import annotations

import hashlib

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


def oracle_forward(params, x: np.ndarray):
    """Per-unit loop evaluation of both predictor heads.

    Returns (probs, strength_raw).
    """
    def affine(W, b, v):
        out = np.zeros(W.shape[0])
        for i in range(W.shape[0]):
            acc = b[i]
            for j in range(W.shape[1]):
                acc += W[i, j] * v[j]
            out[i] = acc
        return out

    hidden_c = affine(params.W1c, params.b1c, x)
    hidden_c = np.array([max(v, 0.0) for v in hidden_c])
    logits = affine(params.W2c, params.b2c, hidden_c)
    shift = logits - max(logits)
    exp = np.exp(shift)
    probs = exp / exp.sum()
    hidden_s = affine(params.W1s, params.b1s, x)
    hidden_s = np.array([max(v, 0.0) for v in hidden_s])
    raw = affine(params.w2s, params.b2s, hidden_s)[0]
    return probs, raw


def oracle_pair_hinge(w: np.ndarray, Zs: np.ndarray, Zw: np.ndarray,
                      c: float):
    """RankSVM objective over every (strong, weak) pair, pair by pair.

    Returns (objective, subgradient, pair_accuracy); a pair with margin
    exactly 0 is inactive and a pair with score difference exactly 0 is
    not counted as correct.
    """
    hinge = 0.0
    active = np.zeros(len(w))
    correct = 0
    for i in range(len(Zs)):
        for j in range(len(Zw)):
            diff = Zs[i] - Zw[j]
            score = sum(w[k] * diff[k] for k in range(len(w)))
            margin = 1.0 - score
            if margin > 0.0:
                hinge += margin
                active += diff
            if score > 0.0:
                correct += 1
    objective = 0.5 * sum(v * v for v in w) + c * hinge
    return objective, w - c * active, correct / (len(Zs) * len(Zw))


def oracle_embed_local(texts: list[str], seed: int = 0,
                       dim: int = 768) -> np.ndarray:
    """Hashed 1..3-gram embeddings, one keyed blake2b call per n-gram
    occurrence, L2 normalized; the empty string maps to zero."""
    key = int(seed).to_bytes(8, "little", signed=True)
    out = np.zeros((len(texts), dim))
    for row, text in enumerate(texts):
        data = text.encode("utf-8")
        if not data:
            continue
        vec = out[row]
        for n in (1, 2, 3):
            for start in range(max(0, len(data) - n + 1)):
                digest = hashlib.blake2b(
                    data[start:start + n], key=key, digest_size=8
                ).digest()
                value = int.from_bytes(digest, "little")
                sign = 1.0 if value & 1 else -1.0
                vec[(value >> 1) % dim] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
    return out


def oracle_train(records, provider, config=None):
    """predictor.train as a per-tensor loop: the public gradients() and
    batch_loss() on the full 768-dim first layers, and a momentum update
    that allocates new arrays for each of the eight tensors every step.

    Returns (parameters of the best epoch, best-so-far loss trace).
    """
    from emopred.corpusio import EMOTIONS
    from emopred.predictor import (EMBED_DIM, TrainConfig, batch_loss,
                                   gradients, init_params)

    config = config or TrainConfig()
    config.validate()
    if not records:
        raise ValueError("empty corpus")
    texts = [r.text for r in records]
    X = np.asarray(provider.embed(texts), dtype=np.float64)
    if X.shape != (len(records), EMBED_DIM):
        raise ValueError(f"provider returned shape {X.shape}")
    class_idx = np.array([EMOTIONS.index(r.emotion) for r in records])
    strengths = np.array([r.strength for r in records])

    params = init_params(config.seed, config.init_scale)
    velocity = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    shuffle_rng = np.random.default_rng([config.seed, 1])
    n = len(records)
    lr = config.learning_rate
    best = batch_loss(params, X, class_idx, strengths, config.lambda_cls)
    best_params = params.copy()
    trace: list[float] = [best]
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            grads = gradients(params, X[idx], class_idx[idx], strengths[idx],
                              config.lambda_cls)
            for name, g in grads.as_dict().items():
                velocity[name] = config.momentum * velocity[name] - lr * g
                setattr(params, name, getattr(params, name) + velocity[name])
        lr *= config.lr_decay
        epoch_loss = batch_loss(params, X, class_idx, strengths,
                                config.lambda_cls)
        if epoch_loss < best:
            best = epoch_loss
            best_params = params.copy()
        trace.append(best)
    best_params.validate()
    return best_params, trace


def relative_error(actual: float, expected: float, floor: float = 1e-6) -> float:
    return abs(actual - expected) / max(abs(actual), abs(expected), floor)
