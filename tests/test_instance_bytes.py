"""Instance files pinned byte for byte.

The round-trip tests compare a file with its own re-save, so they cannot see
a writer that drifts.  These hashes were recorded from the writer before the
per-family table replaced the hand-written branches; any change to the file
format (including the ``library_version`` the sidecar embeds) must update
them on purpose.
"""

import hashlib

import pytest

from hude.cli import main
from hude.instances import (
    gen_gapss,
    gen_hude,
    gen_urde,
    reduce_gapss_to_urde,
    required_w_q,
    save_instance,
)

PINNED = {
    "hude": (
        "36e94dbcbc1b29f57adeb9c88a1be4e2eae81b75a9a63c038db1fabc8f844b87",
        "2ae7e38606f1e40789f31e5e79bb773b79500f883f8cb4b7452c0eccadfd5407",
    ),
    "urde": (
        "16ae282546f5360accc621a25f70c2f5310e36a32df129b68737175a5a913b24",
        "9e61b56394fb14bb54b191026d955fd748b0a213c5d4f902caf5607627ce31d0",
    ),
    "gapss": (
        "fe177df841042509c91e8d43d2bbb8e951804ca6a9c12afc447b25c67a5c465f",
        "085b0241063a78084928869bab676e6279ad32872b773a344686425c1ebd0845",
    ),
    "reduced": (
        "6be115d0e17193fe063812a0fbace7737a457685fe98764b040192955be7dfbf",
        "0a5a09c6e60ef2a138d5569a5fd58b636765d027e8a3f185e6a50e43a9990853",
    ),
}

PINNED_GEN = {
    "hude": (
        ["--s", "5", "--eps", "0.5"],
        "bc4d5f5636d759c497f4e3564135dada090c7e06ad993e34783f1eee6b0bd1b4",
        "f45d6ceb3f8bdc0c7a060ff0b1f6c08e7fa4332ce6b9760ab7a9689c5c11d37c",
    ),
    "urde": (
        ["--s", "5", "--w-u", "0.5"],
        "72997785140956c6198183d0c3f521ae3016d718a357d95eea302e4d9f44c403",
        "54d73c54bf913ba1445e17690d4e41a532410659a76780dccde6b6161d0c8a34",
    ),
    "gapss": (
        ["--w-u", "0.5", "--w-q", "0.05"],
        "cd8437e21325136a3d416372465998fdd76de2cd6661a9670964ca21f529618f",
        "4f6edbaf28fa78a0bd7baa5e7def7a3ddeedad171f05acdb9b089525adaa45a7",
    ),
}


def _digests(outdir):
    return tuple(
        hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in ("dataset.txt", "instance.json")
    )


def _make(case):
    if case == "hude":
        return gen_hude(100, 20, 0.5, 5.0, seed=17)
    if case == "urde":
        return gen_urde(100, 20, 0.5, 5.0, seed=17)
    if case == "gapss":
        return gen_gapss(100, 20, 0.5, 0.05, seed=17)
    g = gen_gapss(200, 10, 0.5, required_w_q(0.5, 10.0), seed=11)
    return reduce_gapss_to_urde(g, 10.0, seed=12)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_save_instance_bytes_pinned(tmp_path, case):
    save_instance(_make(case), tmp_path)
    assert _digests(tmp_path) == PINNED[case]


@pytest.mark.parametrize("problem", sorted(PINNED_GEN))
def test_cli_gen_bytes_pinned(tmp_path, problem):
    flags, dataset_sha, sidecar_sha = PINNED_GEN[problem]
    rc = main(["gen", "--problem", problem, "--n", "100", "--k", "20", "--seed", "3",
               "--out", str(tmp_path), *flags])
    assert rc == 0
    assert _digests(tmp_path) == (dataset_sha, sidecar_sha)
