"""Deterministic random-matrix generators for the verification harness.

Each sample is produced by a generator seeded from
``(config seed, suite name, dimension, sample index)``, so any sample can be
regenerated in isolation: partitioning the stream across workers cannot
change it, which is what makes the concurrency of the harness safe.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import ConfigError

__all__ = [
    "make_rng",
    "ginibre",
    "hermitian",
    "psd",
    "state",
    "unitary",
    "partial_isometry",
    "ucptp_mixture",
    "apply_mixture",
    "gen_random",
]


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise ConfigError(f"stream key parts must be int or str, got {part!r}")


def make_rng(*key) -> np.random.Generator:
    """Generator keyed by a mixed int/str tuple, stable across platforms."""
    return np.random.default_rng(np.random.SeedSequence([_key_part(k) for k in key]))


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """iid standard complex Gaussian entries (variance 1 per entry).

    One draw of ``2 n^2`` normals: the real parts, then the imaginary parts,
    in the order (and with the bits) of two ``(n, n)`` draws.
    """
    d = rng.standard_normal((2, n, n))
    z = np.empty((n, n), dtype=np.complex128)
    z.real = d[0]
    z.imag = d[1]
    z /= np.sqrt(2.0)
    return z


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = ginibre(rng, n)
    return 0.5 * (g + g.conj().T)


def psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Wishart matrix ``G G† / n``; almost surely full rank."""
    g = ginibre(rng, n)
    w = g @ g.conj().T / n
    return 0.5 * (w + w.conj().T)


def state(rng: np.random.Generator, n: int) -> np.ndarray:
    w = psd(rng, n)
    return w / float(np.trace(w).real)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR."""
    q, r = np.linalg.qr(ginibre(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def partial_isometry(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random partial isometry of uniformly drawn rank in ``1..n``."""
    rank = int(rng.integers(1, n + 1))
    u = unitary(rng, n)
    v = unitary(rng, n)
    return u[:, :rank] @ v[:rank, :]


def ucptp_mixture(rng: np.random.Generator, n: int):
    """Random mixture of three unitary conjugations ``z -> sum_i lam_i U_i z U_i†``.

    Unital, completely positive, and trace preserving; contracts every
    unitarily invariant norm.  Returns ``(weights, unitaries)``.
    """
    lam = rng.exponential(size=3)
    lam = lam / lam.sum()
    us = [unitary(rng, n) for _ in range(lam.size)]
    return lam, us


def apply_mixture(mix, z: np.ndarray) -> np.ndarray:
    lam, us = mix
    out = np.zeros_like(z)
    for w, u in zip(lam, us):
        out = out + w * (u @ z @ u.conj().T)
    return out


_KINDS = {
    "ginibre": ginibre,
    "hermitian": hermitian,
    "psd": psd,
    "state": state,
    "unitary": unitary,
    "partial_isometry": partial_isometry,
    "ucptp_mixture": ucptp_mixture,
}


def gen_random(cfg, kind: str):
    """Yield ``(dim, index, sample)`` over the config's dims and sample count.

    The stream for a given config and kind is deterministic and order-stable.
    """
    try:
        fn = _KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown sample kind {kind!r}; choose from {sorted(_KINDS)}") from None
    for dim in cfg.dims:
        for index in range(cfg.samples_per_case):
            rng = make_rng(cfg.seed, kind, dim, index)
            yield dim, index, fn(rng, dim)
