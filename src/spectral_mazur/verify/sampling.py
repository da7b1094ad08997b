"""Deterministic random-matrix generators for the verification harness.

Each sample is produced by a generator seeded from
``(config seed, suite name, dimension, sample index)``, so any sample can be
regenerated in isolation: partitioning the stream across workers cannot
change it, which is what makes the concurrency of the harness safe.

Every sampler takes a list of generators, one per sample, and returns one
stacked array (or, for ``ucptp_mixture``, a pair of them) whose k-th entry
is the k-th generator's sample.  The call-order contract: each generator
receives the same calls, in the same order, as when it is the only entry of
the list, and the arithmetic after the draws runs once per stack with the
same bits per entry.  So a sample depends neither on the other generators
of its stack nor on the stack's size, and a caller with one sample passes a
one-element list.  A sampler that draws several matrices per generator
draws them generator by generator: all of the first generator's, then all
of the second's.
Hermitian parts (``w += w†``, ``w *= 0.5``), normalisations and sums are
formed in place, by the ufuncs and order of the allocating expressions.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..errors import ConfigError
from ..matnorm import _adj

__all__ = [
    "make_rng",
    "ginibre",
    "hermitian",
    "psd",
    "state",
    "unitary",
    "ucptp_mixture",
    "apply_mixture",
]


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise ConfigError(f"stream key parts must be int or str, got {part!r}")


def make_rng(*key) -> np.random.Generator:
    """Generator keyed by a mixed int/str tuple, stable across platforms.

    Each key part is one 32-bit word, so seeding ``SeedSequence`` from a
    ``uint32`` array gives the state a list of the same ints gives, without
    converting the ints one by one.
    """
    words = np.array([_key_part(k) for k in key], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


def ginibre(rngs, n: int) -> np.ndarray:
    """iid standard complex Gaussian entries (variance 1 per entry), ``(k, n, n)``.

    One draw of ``2 n^2`` normals per generator: the real parts, then the
    imaginary parts, in the order (and with the bits) of two ``(n, n)``
    draws.
    """
    d = np.empty((len(rngs), 2, n, n))
    for rng, out in zip(rngs, d):
        rng.standard_normal(out=out)
    z = np.empty((len(rngs), n, n), dtype=np.complex128)
    z.real = d[:, 0]
    z.imag = d[:, 1]
    z /= np.sqrt(2.0)
    return z


def hermitian(rngs, n: int) -> np.ndarray:
    g = ginibre(rngs, n)
    g += _adj(g)
    g *= 0.5
    return g


def psd(rngs, n: int) -> np.ndarray:
    """Wishart matrices ``G G† / n``; almost surely full rank."""
    g = ginibre(rngs, n)
    w = g @ _adj(g)
    del g
    w /= n
    w += _adj(w)
    w *= 0.5
    return w


def state(rngs, n: int) -> np.ndarray:
    w = psd(rngs, n)
    w /= np.trace(w, axis1=-2, axis2=-1).real[:, None, None]
    return w


def unitary(rngs, n: int) -> np.ndarray:
    """Haar-distributed unitaries via phase-corrected QR."""
    return _haar(ginibre(rngs, n))


def _haar(z: np.ndarray) -> np.ndarray:
    """The phase-corrected QR factors ``q`` of a stack of Ginibre matrices."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, None, :]
    return q


def ucptp_mixture(rngs, n: int):
    """Random mixtures of three unitary conjugations ``z -> sum_i lam_i U_i z U_i†``.

    Unital, completely positive, and trace preserving; contracts every
    unitarily invariant norm.  Returns ``(weights, unitaries)`` of shapes
    ``(k, 3)`` and ``(k, 3, n, n)``.  The matrices are drawn generator by
    generator; each component's ``k`` matrices are then factored together
    and written over their draws, so the QR never holds all ``3k`` at once.
    """
    lam = np.array([rng.exponential(size=3) for rng in rngs])
    lam = lam / lam.sum(axis=1, keepdims=True)
    us = ginibre([rng for rng in rngs for _ in range(3)], n).reshape(len(rngs), 3, n, n)
    for j in range(3):
        us[:, j] = _haar(us[:, j])
    return lam, us


def apply_mixture(mix, z: np.ndarray) -> np.ndarray:
    lam, us = mix
    out = np.zeros_like(z)
    for j in range(lam.shape[1]):
        u = us[:, j]
        out += lam[:, j, None, None] * (u @ z @ _adj(u))
    return out
