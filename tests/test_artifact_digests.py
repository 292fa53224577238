"""Pinned digests of the compiled corpus artifacts.

Performance work on the compiler must leave its output byte-identical.
This test compiles every shipped corpus graph with the default options,
plus `deconv` with `deconv_mode="upsample"`, writes the artifacts the way
`dpuc compile` does (`cli.save_artifacts`, default `MachineConfig`) and
compares the sha256 of `program.asm` and of `memmap.json` (which holds
the `fm_allocs` liveness records) with the digests below.

The digests were produced by running exactly this procedure on the source
tree before the interval-map rewrite of liveness and dependency
derivation.  A change that is meant to alter the compiled programs
updates them in the same commit and says why.
"""

import hashlib

import pytest

from dpuc import cli, corpus
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.machine import MachineConfig

DIGESTS = {
    ("conv_pool", "series"): (
        "0a4b203ca8382f2f83647c254a5c9554aa34188a9abe1a4fc5181d859fa097f7",
        "29f4216761f201b8110b299b40124402c62cb56797859d88772e5c657bc7b5df"),
    ("deconv", "series"): (
        "56f484504bfccad335134010d60981e2ac3097faf2d22954fc68f94604aded35",
        "41896ca77f5661a541f10944aa29416edea600c8a6a152f8447d92a9e8f6916a"),
    ("inception_cell", "series"): (
        "dc2589dccf264e93f97dd897b84ea5f1fecb4d1f6a55bb0132124e10b639c5fe",
        "c046aae07faa612f5180fe1e6fea7e1513af1545e6a7c0a7d3da7e293dc0e962"),
    ("resnet_cell", "series"): (
        "d2ffbdfee517806b653e222fd93215ebc95a63d8087cd57ec7e1309856f41ae2",
        "ba8b22190797377e65096d801bbdc9fe55b6d9ed9a2aad11d859c98a00bdde4e"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "2ab61286f3fcdec271c08daf092b2e2159a2e083220590a23e6df78a1a5990a8"),
    ("vgg_prefix", "series"): (
        "3610fa328595b6e0853263e6b25e66c26da0b3f81ee580140f84cea256c01217",
        "396f59c9521679e1c145d930e5d016d8afefc62a38361d716781917fe78c671b"),
    # re-pinned when the next slab's weight prefetch moved behind the
    # band's activation loads: same instructions, new order, makespan
    # still 29,468
    ("weight_tiled", "series"): (
        "8501826bbbf0ef520bcddb7a9c5a0c8630acb98eb302b96519355a67c1315674",
        "517c9197e8b8e5b273efe400634baedb570e22bb54d8ce34b93a8de8816061e7"),
    ("deconv", "upsample"): (
        "ebc1911f332bf6841e53cc87f7737e0ec7e0b488d6720a93da60be900b15e5b6",
        "79b6047f5e25d9e55dc69a6c4f1225819db75338e6cc8bfd23a5bd0496236843"),
}


def test_every_corpus_graph_is_pinned():
    assert {name for name, _mode in DIGESTS} == set(corpus.corpus_names())


@pytest.mark.parametrize("name,mode", sorted(DIGESTS))
def test_artifact_digests(name, mode, tmp_path):
    cfg = MachineConfig()
    art = compile_graph(corpus.corpus_graph(name), cfg,
                        CompileOptions(deconv_mode=mode))
    cli.save_artifacts(art, cfg, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("program.asm", "memmap.json"))
    assert got == DIGESTS[(name, mode)]
