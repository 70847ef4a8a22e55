"""Golden trace digests and output bytes pinned for fixed configs.

A run is a pure function of (config, seed), so a refactor that claims the same
behaviour must leave these digests alone. RunTrace.digest() pins the
trajectory; the sha256 of the files a run writes also pins the metrics pass,
the comparator and the output format. Float results can also move with the
numpy build, the BLAS kernel set it dispatches to, or whether FMA is used, so
the environment the digests were captured in is stored next to them and every
mismatch message names both environments.
"""

import ctypes
import glob
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from banditpd.cli import EXIT_OK, parse_config, run_experiment, simulate

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


# case id -> sha256 of (seed-101.csv, seed-averaged.csv, report.json) from a
# run of the case with seeds 101 and 102 and regret on
GOLDEN_OUTPUTS = {
    "desk-convex-c05-paper": (
        "78f109b6bf2d85027d54b82545b3469b21796b8757ddadb9afbffc7b7563789e",
        "5d28cea6f687137423f9d4b69add6bd687ad4a17de543a61ed798c2a334920c9",
        "f03218edaaae6d8cd9b8aef54fa16e557b088cfbf0816ed566ae11928099e690",
    ),
    "desk-convex-c05-clipped-primal": (
        "e6ea4493faf4b55500400885043121aadd80d42e9eb18368316e9b42dc7b6f5f",
        "edf9ecc375244e493cf59c482819b0dc5d9dd4cc2bf82c28c40b8a3af54b667c",
        "133183b280f4276a744996139b7fcbb6bd7d359e01621e2558fdb0419465c186",
    ),
    "desk-strongly-convex-t4-paper": (
        "7eae99fd0930a81406688de9fe6198c496b821882d7fb32ba0bcbfaefbec3dcd",
        "f8391c3472e8cd8300733aa5df5bac233603464896035298dffe1e4e810fd21a",
        "4aad5fbffa7687589c5b13989a9ead62f408a45b8863544ba9da0ab64e348710",
    ),
    "desk-strongly-convex-t4-clipped-primal": (
        "bac6769d75d1eea217e97abee704c4f6e0e4845ebea367ba9ba256ac85e6de66",
        "8abf590ed165734b63299dfe3900ab94e95773b6a9f257467bfb293f43d33f29",
        "8c0264e76f98adb477d78ad72cfa4e08d1ec5d5c0f6012d5f229056510af3b4c",
    ),
    "desk-slater-margin-sweep-paper": (
        "35451d7b75009f75ca65f2283ea5fcac2a844647bd2c3ab1a3dd3ba81af17257",
        "7f981adee3ec863fe25cc3f39787285ed29f03dc8eae44574b1dc16eb398f7dc",
        "9f0ca5dbb877976c1e50093ee515601effc8f114cb94249361ad961ff8d49b1b",
    ),
    "desk-slater-margin-sweep-clipped-primal": (
        "ff73dee271dfc57f2d462df5771ea25bdc9285d5685e0b8fcea1f6024bf77915",
        "579db9f6f731351264a5fe909571189fa6af3b454bf4782360a074d61263b5f9",
        "a54663c4d0fce4ca1f7bf838944be5b58f32593f0cfafb0338aba40894148507",
    ),
    "desk-strongly-convex-t4-mu2-uniform": (
        "e3564114710bbe683743c4a0e39b70126876b11821c3204623036c1e9e87d138",
        "b37f53a280d59baf688d4ab237a51d2c5a439633c3b56860cf63ffceaf51754c",
        "7ad1ce47e5034ff7762894df05ae18c594b41c8ffeb070a32a7f535da4a557f2",
    ),
    "paper-sec4-T100": (
        "1527197a5fed485e0617248dc64c59145399c74f82a33f27930f31a30e78fd58",
        "48aca761cdf2c4a7cf69863e4498c1502d19d9a0182047c5cb410cb911b2d3a8",
        "aa8115ce639375e992fdf5e0aa56f55fd812135c0541e3dfc5671716980c8bb8",
    ),
}

OUTPUT_FILES = ("seed-101.csv", "seed-averaged.csv", "report.json")


def output_hashes(preset: str, horizon: int, overrides: dict) -> tuple[str, ...]:
    """sha256 of each OUTPUT_FILES entry of a run with seeds 101, 102 and regret
    on. The run writes to the relative directory out, so report.json's run.out
    reads the same on every machine; the caller sets the working directory."""
    cfg = parse_config(preset=preset, overrides={**overrides, "run": {
        **overrides.get("run", {}), "horizon": horizon, "seeds": [101, 102], "regret": True,
        "out": "out"}})
    assert run_experiment(cfg) == EXIT_OK
    return tuple(hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
                 for name in OUTPUT_FILES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = output_hashes(*CASES[case])
    assert got == GOLDEN_OUTPUTS[case], (
        f"{case}: sha256 of {OUTPUT_FILES} {got} != pinned {GOLDEN_OUTPUTS[case]}; pinned in "
        f"{CAPTURED_ENV}, running in {current_env()}")
