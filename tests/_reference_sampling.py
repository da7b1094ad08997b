"""The per-sample samplers of ``verify.sampling``, frozen before they were stacked.

Each function takes one generator and returns one sample, exactly as the
harness drew them one sample at a time; ``make_rng`` seeds ``SeedSequence``
from a list of ints.  The stacked samplers must give the same bits and leave
every generator in the same state (``tests/test_verify.py``), and the
per-sample suite references draw through these copies, so that they stay
independent of the code they check.
"""

import zlib

import numpy as np


def _key_part(part):
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(part.encode("utf-8"))


def make_rng(*key):
    return np.random.default_rng(np.random.SeedSequence([_key_part(k) for k in key]))


def ginibre(rng, n):
    d = rng.standard_normal((2, n, n))
    z = np.empty((n, n), dtype=np.complex128)
    z.real = d[0]
    z.imag = d[1]
    z /= np.sqrt(2.0)
    return z


def hermitian(rng, n):
    g = ginibre(rng, n)
    return 0.5 * (g + g.conj().T)


def psd(rng, n):
    g = ginibre(rng, n)
    w = g @ g.conj().T / n
    return 0.5 * (w + w.conj().T)


def state(rng, n):
    w = psd(rng, n)
    return w / float(np.trace(w).real)


def unitary(rng, n):
    q, r = np.linalg.qr(ginibre(rng, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def ucptp_mixture(rng, n):
    lam = rng.exponential(size=3)
    lam = lam / lam.sum()
    us = [unitary(rng, n) for _ in range(lam.size)]
    return lam, us


def apply_mixture(mix, z):
    lam, us = mix
    out = np.zeros_like(z)
    for w, u in zip(lam, us):
        out = out + w * (u @ z @ u.conj().T)
    return out
