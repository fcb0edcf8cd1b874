"""Pinned sha256 digests of what bures writes and reads back: byte-reproducibility as a standing gate.

The set: ``bures sample`` files of four spectra (N=3 with 2,000 records, the
N=10 3-fold zero block with 200, N=100 with 3, and (0.4, 0.4, 0.2) with 500),
both methods, CSV and JSONL, seed 2^64 - 1; one ``compare`` QQ sidecar; the
matrix, spectrum and basis bits ``read_records`` returns for each file; and
``_floattext.texts`` of a fixed set of doubles in both spellings.

The pins hold for one build: numpy version, BLAS name and version, machine,
and the BLAS core and thread count numpy runs (the N=100 bits differ between
1 and 2 OpenBLAS threads, so both are pinned). On any other build every
digest is taken twice and the two runs must agree; only the pinned
comparison is skipped. A change that moves output bits on
purpose bumps OUTPUT_VERSION and replaces the pins in the same change.
"""

import ctypes
import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from bures import _floattext
from bures.cli import main, read_records

#: Version of the output bits the pins below describe.
OUTPUT_VERSION = 2

SEED = 2**64 - 1


def _spectrum_text(values) -> str:
    values = np.asarray(values, dtype=float)
    return ",".join(map(repr, (values / values.sum()).tolist()))


#: name: (spectrum text, record count)
SETS = {
    "n3": ("0.5,0.375,0.125", 2000),
    "n10_zero_block": (_spectrum_text(np.append(np.linspace(3, 1, 7), [0, 0, 0])), 200),
    "n100": (_spectrum_text(np.linspace(2, 1, 100)), 3),
    "n3_repeated": ("0.4,0.4,0.2", 500),
}


def _openblas_runtime() -> tuple:
    """(core, threads) that numpy's bundled OpenBLAS runs with, or (None, None) on a build without one."""
    try:
        path = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
        lib = ctypes.CDLL(str(path))  # the library numpy has loaded already
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        return lib.scipy_openblas_get_corename64_().decode(), lib.scipy_openblas_get_num_threads64_()
    except (StopIteration, OSError, AttributeError):
        return None, None


def build_fingerprint() -> tuple:
    """(numpy version, BLAS name, BLAS version, machine, BLAS core, BLAS threads)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = {}
    return (np.__version__, blas.get("name"), blas.get("version"), platform.machine(), *_openblas_runtime())


def _float_values() -> np.ndarray:
    """Doubles from 2^-37 to 2^2 with scrambled mantissas, then the edge cases of both spellings."""
    i = np.arange(4096, dtype=np.uint64)
    mantissas = (i * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(12)
    exponents = np.uint64(1023 - 37) + i % np.uint64(40)
    scrambled = ((exponents << np.uint64(52)) | mantissas).view(np.float64)
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e-10, np.nextafter(1e-10, 0), 1e-5, 1e-4, 0.1, 0.5,
             0.25, 2.0**-30, np.nextafter(1.0, 0), 1.0, 0.3, 1 / 3, 2 / 3, 123456.789, 1e16, 1e300]
    return np.concatenate((scrambled, edges))


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _digests(directory) -> dict:
    """Every digest of the set, by name."""
    found = {}
    for name, (spectrum, count) in SETS.items():
        for method in ("coset", "haar"):
            for fmt in ("csv", "jsonl"):
                path = directory / f"{name}_{method}.{fmt}"
                argv = ["sample", "--spectrum", spectrum, "--method", method, "--count", str(count),
                        "--seed", str(SEED), "-o", str(path), "--format", fmt]
                assert main(argv) == 0
                found[f"sample/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                records = read_records(path)
                found[f"read_records/{path.name}"] = _sha(
                    *[array for r in records for array in (r.rho.matrix, r.rho.spectrum.values, r.rho.basis)]
                )
    pairs = directory / "pairs.csv"
    argv = ["compare", str(directory / "n3_coset.csv"), str(directory / "n3_haar.csv"), "--pairs-out", str(pairs)]
    assert main(argv) in (0, 1)
    found["sidecar/n3_coset_vs_haar_pairs.csv"] = hashlib.sha256(pairs.read_bytes()).hexdigest()
    values = _float_values()
    for shortest, spelling in ((True, "repr"), (False, "%.17g")):
        found[f"floattext/{spelling}"] = _sha(_floattext.text_bytes(_floattext.texts(values, shortest)))
    return found


#: The build the pins were taken on: its numpy, BLAS and machine, and the BLAS core numpy runs.
PINNED_BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0", "x86_64", "SkylakeX")

#: Digests of every file but the N=100 ones, the same at 1 and 2 BLAS threads.
SHARED_PINS = {
    "sample/n3_coset.csv": "f64b7baf79f4fb7c8353927a34af2f1fdc1ca78beab8e097570bda7acbf73cdc",
    "read_records/n3_coset.csv": "156434e9d3a54b2f44d603253aedc1cc1424a03d155067242b22db933a5d273e",
    "sample/n3_coset.jsonl": "8b2b11df45ec8f827adff093d76790d72ff81005b832c261eb9590eff812f933",
    "read_records/n3_coset.jsonl": "156434e9d3a54b2f44d603253aedc1cc1424a03d155067242b22db933a5d273e",
    "sample/n3_haar.csv": "091fc75017378797ec86386774c2f0df1507eee622415a78f9345182293edb4b",
    "read_records/n3_haar.csv": "c803009bb065737a596aa674c114b186fa812db8e206219d89dac6b70a8e7c2a",
    "sample/n3_haar.jsonl": "e14b76c57cbf7f0a34a91241a52731f54319322b5fa4fdc1e7a86d18e902b175",
    "read_records/n3_haar.jsonl": "c803009bb065737a596aa674c114b186fa812db8e206219d89dac6b70a8e7c2a",
    "sample/n10_zero_block_coset.csv": "58e3f081f39140954c81be7ffa27002853b4cfcde4415d8b6803dedc198473d1",
    "read_records/n10_zero_block_coset.csv": "9c66e8557edc6b1d903da075274c363ded29535a453be250daadd1d8dacdb8c5",
    "sample/n10_zero_block_coset.jsonl": "67e067793dea44a8e80949b589280ee036a65c0ae73338c0f4e33c555da5ef74",
    "read_records/n10_zero_block_coset.jsonl": "9c66e8557edc6b1d903da075274c363ded29535a453be250daadd1d8dacdb8c5",
    "sample/n10_zero_block_haar.csv": "3dce0c0bf4ab065aaf12e7ae86f9eeef27e66de7312723b2550eddc3e274edb0",
    "read_records/n10_zero_block_haar.csv": "dd32d3e75529a5728805615d39edfbb03609d279069e7a49e0707b26f8240a05",
    "sample/n10_zero_block_haar.jsonl": "0a3d2269f3131963248675ec6e1df009d4ecac9f49d13ef564726b3f36dfc373",
    "read_records/n10_zero_block_haar.jsonl": "dd32d3e75529a5728805615d39edfbb03609d279069e7a49e0707b26f8240a05",
    "sample/n3_repeated_coset.csv": "7eb20b4b106ac95b4be369eb985b08baa9222d796a6eb67bb7f1666818295d7c",
    "read_records/n3_repeated_coset.csv": "e9fdb414fe6975cca5a57003f5ef66718056b762b68908e861de7ea48a77ad9e",
    "sample/n3_repeated_coset.jsonl": "cb38ac7bbb9ab1ddea4c2624f7777aeec40da652848cc0d81bf277cf018406c3",
    "read_records/n3_repeated_coset.jsonl": "e9fdb414fe6975cca5a57003f5ef66718056b762b68908e861de7ea48a77ad9e",
    "sample/n3_repeated_haar.csv": "f2dbb95c6863321876e6805b67f34d32a8f2fdfe0987984826408b68d6810231",
    "read_records/n3_repeated_haar.csv": "271b64bc354039474b9a3ebe33652bc91def958392d337ee7dfdfab4f07d6931",
    "sample/n3_repeated_haar.jsonl": "f6dfd01ec05e3f925a1ebe29a237f1e3f233a00e26d2dbd33d82283754d86ecc",
    "read_records/n3_repeated_haar.jsonl": "271b64bc354039474b9a3ebe33652bc91def958392d337ee7dfdfab4f07d6931",
    "sidecar/n3_coset_vs_haar_pairs.csv": "3cea1f6464775538dcc5fda26138e9e9e0cd324d7506e037f928ae36e7fd849a",
    "floattext/repr": "8e7b8326a6840eaa35e2f315c09ef2933054701f3fea38ab744b6fcc8cc8f854",
    "floattext/%.17g": "1a5c1eb42556ae52a2978dfa6329ac894e01d9f11c40be2fb4e10ff62219ae2c",
}

#: BLAS threads: the N=100 digests. Their bits differ between 1 and 2 threads.
N100_PINS = {
    1: {
        "sample/n100_coset.csv": "bba76367466a3f4d95b00bf907a26384603f8d3faf71304af1426a39e03869cb",
        "read_records/n100_coset.csv": "6408a628ec5b017b129e839d99ea74ba386e55b7ac67f46a1f99986e9f4ec5c7",
        "sample/n100_coset.jsonl": "641113584642800e5392189a071ec49932c7b0618c780be11231dd455aa5d93d",
        "read_records/n100_coset.jsonl": "6408a628ec5b017b129e839d99ea74ba386e55b7ac67f46a1f99986e9f4ec5c7",
        "sample/n100_haar.csv": "4465907f6cb2c9c5c3840efbd9f495740d26e022574315cab2764261afdf9759",
        "read_records/n100_haar.csv": "daf400ef2c9ca4405b47b316c732afc8e525dce7b0f0085172cb903deaa51e1a",
        "sample/n100_haar.jsonl": "ad2f480e668da8fe318c512934a1434ea5badbc99af9cb7182e473e5813aedcc",
        "read_records/n100_haar.jsonl": "daf400ef2c9ca4405b47b316c732afc8e525dce7b0f0085172cb903deaa51e1a",
    },
    2: {
        "sample/n100_coset.csv": "bba76367466a3f4d95b00bf907a26384603f8d3faf71304af1426a39e03869cb",
        "read_records/n100_coset.csv": "12c9a59a504497098d9b9317cfc1b5fc26d84f533341fd68286f433f24443fbc",
        "sample/n100_coset.jsonl": "641113584642800e5392189a071ec49932c7b0618c780be11231dd455aa5d93d",
        "read_records/n100_coset.jsonl": "12c9a59a504497098d9b9317cfc1b5fc26d84f533341fd68286f433f24443fbc",
        "sample/n100_haar.csv": "af52c9ccb1747df3eb3a90d21d16755104a7a154f2f29bafabd695b07004454f",
        "read_records/n100_haar.csv": "4beac33bacf57440964ab38077f47bf3c93ed7a68469299ff93974843272cc5e",
        "sample/n100_haar.jsonl": "3e5f877699f2f7d2af294bbbad2e42d46d525a99151ee9072394aeb498e41248",
        "read_records/n100_haar.jsonl": "4beac33bacf57440964ab38077f47bf3c93ed7a68469299ff93974843272cc5e",
    },
}


def _pins():
    """The pins that hold on this build, or None."""
    *build, threads = build_fingerprint()
    if tuple(build) != PINNED_BUILD or threads not in N100_PINS:
        return None
    return {**SHARED_PINS, **N100_PINS[threads]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(digests, pins), with pins None where they do not apply and the digests of two runs agree."""
    first = _digests(tmp_path_factory.mktemp("first"))
    pins = _pins()
    if pins is None:
        assert _digests(tmp_path_factory.mktemp("second")) == first
    return first, pins


@pytest.mark.parametrize("kind", ["sample", "sidecar", "read_records", "floattext"])
def test_output_digests_hold(runs, kind):
    found, pins = runs
    got = {name: digest for name, digest in found.items() if name.startswith(kind + "/")}
    assert got
    if pins is None:
        pytest.skip(f"pins are for build {PINNED_BUILD} at 1 or 2 BLAS threads; this build is {build_fingerprint()}")
    assert got == {name: pins.get(name) for name in got}
