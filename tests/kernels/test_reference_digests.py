"""The array-form references are pinned to their scalar-loop outputs.

``binomial_options``, ``fft`` and ``eigenvalue`` once computed their
references in Python loops over ``np.float32`` scalars.  The digests
below were recorded from those loops (3 seeds x {default size, one
small size}); the array forms must reproduce them byte for byte.
``eigenvalue`` is also compared with a copy of its scalar loop at
probes straddling each eigenvalue, where its counts turn on float32
rounding.
"""

import hashlib

import numpy as np
import pytest

from repro.kernels import KERNELS


class _HostOnly:
    """Just enough of a device for ``prepare``: the references read only
    the host-side arrays of the context."""

    def upload(self, name, array):
        return name

    def alloc(self, name, nbytes, dtype=None):
        return name


DTYPES = {"binomial_options": np.float32, "fft": np.float32,
          "eigenvalue": np.uint32}

#: (kernel, size parameters, seed, output, SHA-256 of the output bytes).
DIGESTS = [
    ("binomial_options", {}, 1, "out",
     "64dd7eec2690b2afeefa28c7360c6ece4719d624c927d7c06f336cb7f9ffb344"),
    ("binomial_options", {}, 2, "out",
     "e872d20a16ba808c977a1925d2aaea3f605a9973815c857cee0c9b57360f334c"),
    ("binomial_options", {}, 3, "out",
     "6ccb83d7ec4d1f89be6a3bb23e2c7e040d5e9c0f58f193aa95f8ca31e0463211"),
    ("binomial_options", {"steps": 3, "options": 16}, 1, "out",
     "cf1261d13e803a68ae336fe5fd86241794c42cb39011a3f512039c252dd60585"),
    ("binomial_options", {"steps": 3, "options": 16}, 2, "out",
     "130a70239006ea2c3d2f830e4251782c1953327755b2ddcd4ad67c368bc6f8a4"),
    ("binomial_options", {"steps": 3, "options": 16}, 3, "out",
     "5317dff48b1ebe5c52825792cfa9f0d996dd2c9b10b83233e0f6ba67a3cf45e2"),
    ("fft", {}, 1, "data",
     "65080ab047210cbabab73111d1f6f63b082ce6486500d7e1ded7ba483c67bf4e"),
    ("fft", {}, 2, "data",
     "e3e2313d35d2da25d3f07a8620ad4fec8dce1fad97a07b8555513c5da11c7a29"),
    ("fft", {}, 3, "data",
     "38a0cd6dfefa360ceea7ea2fce7cb5fa14f28097183d99d8758f0447797755d3"),
    ("fft", {"n": 8}, 1, "data",
     "b436cdcf3ea0529654c54b28ec415749b2b160c4498e684888df6c0a7a897bdf"),
    ("fft", {"n": 8}, 2, "data",
     "0bd31a98e4b52bf610cc446e9029fb52d560f8b11ceb27f84775378e54cf8416"),
    ("fft", {"n": 8}, 3, "data",
     "14effa7f33837050bccfdd6978d0cb2019d796bc51d64954b7473b3e6db71d41"),
    ("eigenvalue", {}, 1, "counts",
     "72a336317ad68a8dd41bc8e2ce03d572cb321af28ba26dbde98c7dd070b10226"),
    ("eigenvalue", {}, 2, "counts",
     "6ceda6dbb817e480c64534467001b71e9d3da6a645650b0115e053ff56707c8e"),
    ("eigenvalue", {}, 3, "counts",
     "765040fa17b2a67656aa6e06a1752576c60a88ce574f4ecfefcb1d3477a89751"),
    ("eigenvalue", {"m": 2}, 1, "counts",
     "39126f5fec72d5ddce4f9b649651a6898cdd86c8d6e9d61b3f314582fcb9bddc"),
    ("eigenvalue", {"m": 2}, 2, "counts",
     "eca0c5fd07df7ab87f12e76e32e47a621d492b66c1660510283a38cde47b7d46"),
    ("eigenvalue", {"m": 2}, 3, "counts",
     "04b2e63d7356df5cc83bf606655ce5d08753c665e0210424f84f996ad112625b"),
]


def _case_id(row):
    name, size, seed = row[:3]
    size_id = "-".join("{}{}".format(k, v) for k, v in sorted(size.items()))
    return "{}-{}-seed{}".format(name, size_id or "default", seed)


@pytest.mark.parametrize("name,size,seed,output,digest", DIGESTS,
                         ids=[_case_id(row) for row in DIGESTS])
def test_reference_is_byte_identical(name, size, seed, output, digest):
    bench = KERNELS[name](seed=seed, **size)
    expected = bench.reference(bench.prepare(_HostOnly()))
    assert list(expected) == [output]
    array = expected[output]
    assert array.dtype == DTYPES[name]
    assert hashlib.sha256(
        np.ascontiguousarray(array).tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Eigenvalue at its sign changes.  The digests above see only the sign
# counts at probes far from every eigenvalue, so float32 rounding in
# the Sturm sequence never shows in them; probes a few float32 ulps
# either side of each eigenvalue make the counts turn on it.
# ---------------------------------------------------------------------------

#: Float32 steps either side of each eigenvalue.
ULPS = 4


def _scalar_sturm_counts(d, e2, probes, m):
    """The scalar Sturm loop the array reference replaced: one probe at
    a time, rounding to float32 after every operation, the reciprocal
    taken in float64."""
    counts = []
    for x in probes:
        q = np.float32(d[0] - x)
        count = int(q < 0)
        for i in range(1, m):
            rcp = np.float32(1.0 / np.float64(q))
            q = np.float32(np.float32(d[i] - x) - np.float32(e2[i - 1] * rcp))
            count += int(q < 0)
        counts.append(count)
    return np.asarray(counts, dtype=np.uint32)


def _probes_around_eigenvalues(d, e2, m):
    """Each eigenvalue of the tridiagonal matrix (in float64, rounded to
    float32) with ``ULPS`` float32 neighbours on either side."""
    off = np.sqrt(e2[:m - 1].astype(np.float64))
    matrix = (np.diag(d.astype(np.float64)) + np.diag(off, 1)
              + np.diag(off, -1))
    probes = []
    for value in np.linalg.eigvalsh(matrix).astype(np.float32):
        below = above = value
        lower, upper = [], []
        for _ in range(ULPS):
            below = np.nextafter(below, np.float32(-np.inf))
            above = np.nextafter(above, np.float32(np.inf))
            lower.append(below)
            upper.append(above)
        probes += lower[::-1] + [value] + upper
    return np.asarray(probes, dtype=np.float32)


@pytest.mark.parametrize("size", [{}, {"m": 2}], ids=["default", "m2"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eigenvalue_matches_scalar_loop_at_sign_changes(seed, size):
    bench = KERNELS["eigenvalue"](seed=seed, **size)
    ctx = bench.prepare(_HostOnly())
    d, e2 = ctx["diag_v"], ctx["e2_v"]
    ctx["probes_v"] = _probes_around_eigenvalues(d, e2, bench.m)
    counts = bench.reference(ctx)["counts"]
    want = _scalar_sturm_counts(d, e2, ctx["probes_v"], bench.m)
    assert counts.dtype == np.uint32
    assert counts.tobytes() == want.tobytes()
    # Every eigenvalue's probes straddle a count change, so a rounding
    # difference anywhere in the sequence moves some count.
    per_eigenvalue = want.reshape(bench.m, 2 * ULPS + 1)
    assert all(len(set(row)) > 1 for row in per_eigenvalue)
