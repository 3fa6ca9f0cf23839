"""Random field generators and stream determinism."""

import numpy as np
import pytest

from fracheatlab.spectral import GridSpec, SpectralField, inverse, project
from fracheatlab.rng import make_generator, stream_key
from fracheatlab.ensembles import (
    hermitian_symmetrize,
    single_mode,
    random_band_limited,
    random_analytic_decay,
    make_ensemble,
)


def test_stream_keys_are_stable_and_distinct():
    # keys derive from a hash of the label, not from python's randomized
    # string hashing, so they are the same in every process
    assert stream_key("ensemble") == stream_key("ensemble")
    assert stream_key("ensemble") != stream_key("fourier_decay")
    a = make_generator(7, "x", 0).standard_normal(4)
    b = make_generator(7, "x", 0).standard_normal(4)
    c = make_generator(7, "x", 1).standard_normal(4)
    d = make_generator(8, "x", 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_single_mode_field():
    g = GridSpec(2, 16, 2 * np.pi)
    f = single_mode(g, (2, -3), amplitude=1.5j)
    assert f.coeffs[2, -3] == 1.5j
    assert np.sum(np.abs(f.coeffs) > 0) == 1


def test_hermitian_symmetrize_gives_real_fields():
    for dim, n in ((1, 32), (2, 16)):
        g = GridSpec(dim, n, 2 * np.pi)
        rng = make_generator(11, "herm", dim)
        raw = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        sym = hermitian_symmetrize(g, raw)
        samples = inverse(SpectralField(g, sym))
        assert np.max(np.abs(samples.imag)) < 1e-12 * max(1.0, np.max(np.abs(samples)))
        # idempotent
        assert np.allclose(hermitian_symmetrize(g, sym), sym, atol=1e-15)


def test_band_limited_fields_are_band_limited_and_real():
    g = GridSpec(1, 64, 2 * np.pi)
    for i in range(5):
        f = random_band_limited(g, make_generator(12, "band", i), band=9.0)
        hi = project(f, 9.0, side="high")
        assert np.max(np.abs(hi.coeffs)) == 0.0
        assert np.max(np.abs(inverse(f).imag)) < 1e-12
        assert np.linalg.norm(f.coeffs) > 0


def test_analytic_decay_fields_decay():
    g = GridSpec(1, 128, 2 * np.pi)
    f = random_analytic_decay(g, make_generator(13, "decay"), radius=0.6)
    mags = np.abs(f.coeffs)
    k = g.k_mag
    # the envelope is exact up to the random phases' symmetrization
    sel = (k > 1) & (k < 20)
    ratio = mags[sel] / np.exp(-0.6 * k[sel])
    assert np.all(ratio < 1.0 + 1e-12)
    assert np.max(ratio) > 0.1
    assert np.max(np.abs(inverse(f).imag)) < 1e-12


def test_make_ensemble_kinds_and_determinism():
    g = GridSpec(1, 64, 2 * np.pi)
    ens = make_ensemble(g, 6, seed=99, kind="mixed", band=8.0, decay_radius=0.5)
    assert ens.coeffs.shape == (6, 64)
    again = make_ensemble(g, 6, seed=99, kind="mixed", band=8.0, decay_radius=0.5)
    assert np.array_equal(ens.coeffs, again.coeffs)
    # member i is the draw of stream ("ensemble", i), alternating kinds
    for i, member in enumerate(ens.coeffs):
        rng = make_generator(99, stream="ensemble", member=i)
        if i % 2 == 0:
            draw = random_band_limited(g, rng, 8.0)
        else:
            draw = random_analytic_decay(g, rng, 0.5)
        assert np.array_equal(member, draw.coeffs)
    # members differ from each other
    assert not np.array_equal(ens.coeffs[0], ens.coeffs[1])
    only_band = make_ensemble(g, 3, seed=99, kind="band_limited", band=8.0)
    assert np.max(np.abs(project(only_band, 8.0, side="high").coeffs)) == 0.0
    with pytest.raises(ValueError):
        make_ensemble(g, 3, seed=99, kind="gaussian_bumps")
