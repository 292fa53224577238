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

Every `memmap.json` digest was re-pinned when the always-false `"wrap"`
key left its window and `fm_allocs` records (FM addressing is linear, so
no window wraps); the files are otherwise unchanged, and no
`program.asm` digest moved.
"""

import hashlib

import pytest

from dpuc import cli, corpus
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.machine import MachineConfig

DIGESTS = {
    ("conv_pool", "series"): (
        "0a4b203ca8382f2f83647c254a5c9554aa34188a9abe1a4fc5181d859fa097f7",
        "4216701b64821934a3882a5fdeb774ec686502e4359877dfa9b6e5b8b4def64f"),
    ("deconv", "series"): (
        "56f484504bfccad335134010d60981e2ac3097faf2d22954fc68f94604aded35",
        "80a64325d9eab87f8c56bc61bcf43d4c6704f77dfaeaa4c93af122fb54829e02"),
    ("inception_cell", "series"): (
        "dc2589dccf264e93f97dd897b84ea5f1fecb4d1f6a55bb0132124e10b639c5fe",
        "8b1ad25811749a6512bdd867baa60d5be09e352cf4957cb99ed835c6e1d50ec3"),
    ("resnet_cell", "series"): (
        "d2ffbdfee517806b653e222fd93215ebc95a63d8087cd57ec7e1309856f41ae2",
        "55efeb4e32902f5d7a057bef99455b347161ee8dd5c07fdbc95fb5b6c38bef14"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "fa8add112032ebb25c1f35a400695360eea11c49cf0df7dbc7c2c3a56e5dca5f"),
    ("vgg_prefix", "series"): (
        "3610fa328595b6e0853263e6b25e66c26da0b3f81ee580140f84cea256c01217",
        "a6f5c926dcb8781f9c9e066a145e1f102da69534828ed9e73d2054219a78da9f"),
    # re-pinned when the next slab's weight prefetch moved behind the
    # band's activation loads: same instructions, new order, makespan
    # still 29,468
    ("weight_tiled", "series"): (
        "8501826bbbf0ef520bcddb7a9c5a0c8630acb98eb302b96519355a67c1315674",
        "3f90e0ec1b4ac854992c45774432d2c68121bc4a77a53147839bc95d84936c29"),
    ("deconv", "upsample"): (
        "ebc1911f332bf6841e53cc87f7737e0ec7e0b488d6720a93da60be900b15e5b6",
        "48cb9601882743c19c87bcc1cc23570d7b66281a2a90f19bf368b70056e579cb"),
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
