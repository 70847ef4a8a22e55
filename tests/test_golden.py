"""Golden trace digests: RunTrace.digest() pinned for fixed configs.

A run is a pure function of (config, seed), so a refactor that claims the same
behaviour must leave these digests alone. Float results can also move with the
numpy build, the BLAS kernel set it dispatches to, or whether FMA is used, so
the environment the digests were captured in is stored next to them and every
mismatch message names both environments.
"""

import ctypes
import glob
import os

import numpy as np
import pytest

from banditpd.cli import parse_config, simulate

CAPTURED_ENV = {"numpy": "2.4.6", "openblas_core": "SkylakeX", "fma3": True}

# case id (see CASES) -> trace_digest of the seed-101 run, RunTrace.digest()
GOLDEN = {
    "desk-convex-c05-paper": "e87d48d2c2feae1de75bd408edd921669a92ec4a4ef655faea4fa6c4d4ec6478",
    "desk-convex-c05-clipped-primal":
        "f36ad03232919b4691a3ffb7653b69816908d0c362b12d588922314ba7e2eac6",
    "desk-strongly-convex-t4-paper":
        "c94bf226be40d9e41555d43b9f19b84c9b8e6a629b71824f36f2f8adb7165fad",
    "desk-strongly-convex-t4-clipped-primal":
        "e2471a10bcf8a49280f00bcdfaf604ff3467a3c678cb948494a0b94205189a22",
    "desk-slater-margin-sweep-paper":
        "0df1ce6bf35f2c738057e49af97f9efee4bf1346a635764991d8dcb592f28785",
    "desk-slater-margin-sweep-clipped-primal":
        "e08d21571dfdd1fcaf7988cd20f9d770cdc8d2af37004452b21cba6207eada7a",
    "desk-strongly-convex-t4-mu2-uniform":
        "da24819dc17d4f3badef17bd119b5cc19975267a0cb332ac56b9364f54f217a8",
    "paper-sec4-T100": "d864749bf98a302eb2700fe544c5934aa231eced16d2ae5681e3c61b65998a20",
}


def _openblas_core() -> str | None:
    """Kernel set OpenBLAS picked at load time, if numpy bundles scipy-openblas."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def current_env() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__

    return {"numpy": np.__version__, "openblas_core": _openblas_core(),
            "fma3": bool(__cpu_features__.get("FMA3"))}


def run_digest(preset: str, horizon: int, overrides: dict, seed: int = 101) -> str:
    # the digest does not depend on the comparator, so regret is left off
    cfg = parse_config(preset=preset, overrides={**overrides, "run": {
        **overrides.get("run", {}), "horizon": horizon, "seeds": [seed], "regret": False}})
    return simulate(cfg, seed)["trace_digest"]


# id -> (preset, horizon, config overrides). Every preset has xi_1 = 1, which
# shrinks the initial set to the origin, so the uniform-init case sets mu = 2
# (xi_1 = 1/2) to make the uniform draw reach the trajectory.
CASES = {
    **{f"{preset}-{variant}": (preset, 300, {"run": {"variant": variant}})
       for preset in ("desk-convex-c05", "desk-strongly-convex-t4", "desk-slater-margin-sweep")
       for variant in ("paper", "clipped-primal")},
    "desk-strongly-convex-t4-mu2-uniform":
        ("desk-strongly-convex-t4", 300, {"schedule": {"mu": 2.0},
                                          "run": {"init_rule": "uniform"}}),
    "paper-sec4-T100": ("paper-sec4", 100, {}),
}


@pytest.mark.parametrize("case", CASES)
def test_trace_digest_is_pinned(case):
    got = run_digest(*CASES[case])
    assert got == GOLDEN[case], (
        f"{case}: digest {got} != pinned {GOLDEN[case]}; pinned in "
        f"{CAPTURED_ENV}, running in {current_env()}")


def test_paper_sec4_digest_matches_the_benchmark_record():
    # the digest perfbench records for `--preset paper-sec4 --horizon 100 --seed-list 101`
    assert GOLDEN["paper-sec4-T100"].startswith("d864749b")
