import ctypes
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hoacodec import scenes, sideinfo

# per package, the core-name query of its bundled OpenBLAS
_OPENBLAS_QUERIES = {"numpy": "scipy_openblas_get_corename64_", "scipy": "scipy_openblas_get_corename"}


def openblas_kernels() -> dict:
    """The kernel each bundled OpenBLAS runs (its core name, which
    ``OPENBLAS_CORETYPE`` overrides), or "unknown" where the package bundles
    none or its library has no query."""
    kernels = {}
    for package, query in _OPENBLAS_QUERIES.items():
        kernels[package] = "unknown"
        libs = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            corename = getattr(ctypes.CDLL(str(lib)), query, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                kernels[package] = corename().decode()
    return kernels


# the OpenBLAS kernel the pinned stream, decode and training hashes were
# recorded under (numpy's and scipy's alike)
PINNED_KERNEL = "SkylakeX"


def pinned_kernel_note() -> str:
    """The message of a failed pinned-hash assert: the kernel the pins were
    recorded under and the kernels this run uses."""
    return f"pinned under OpenBLAS {PINNED_KERNEL}; this run uses {_kernel_names()}"


def _kernel_names() -> str:
    return ", ".join(f"{package} {name}" for package, name in openblas_kernels().items())


def pytest_report_header(config):
    """Name the numpy and scipy builds and their BLAS kernel: the pinned
    stream and decode hashes hold for one of each."""
    import scipy

    return [
        f"numpy {np.__version__}, scipy {scipy.__version__}",
        "BLAS kernel: " + _kernel_names(),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def small_scene():
    """0.4 s third-order scene used by fast integration tests (L=256)."""
    return scenes.render_scene(scenes.corpus_specs(duration=0.4)[0])


@pytest.fixture(scope="session")
def small_quantizers():
    """Tiny codebooks for M=16 streams at L=256; fast to train."""
    sigs = [scenes.render_scene(s) for s in scenes.corpus_specs(duration=0.4)[:2]]
    config = sideinfo.TrainingConfig(
        half_length=256, rank=4,
        coeff_size=16, residual_size=64, intra_size=64,
        max_iter=20, seed=7,
    )
    return sideinfo.train_quantizers(sigs, config)


@pytest.fixture(scope="session")
def full_quantizers():
    """Default-geometry codebooks (L=1024, 16/256/256) for acceptance runs."""
    sigs = [scenes.render_scene(s) for s in scenes.corpus_specs(duration=1.0)[:3]]
    config = sideinfo.TrainingConfig(
        half_length=1024, rank=4,
        coeff_size=16, residual_size=256, intra_size=256,
        max_iter=30, seed=7,
    )
    return sideinfo.train_quantizers(sigs, config)
