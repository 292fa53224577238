"""Pinned digests of the compiled corpus artifacts.

Performance work on the compiler must leave its output byte-identical.
This test compiles every shipped corpus graph with the default options,
plus `deconv` with `deconv_mode="upsample"`, writes the artifacts the way
`dpuc compile` does (`cli.save_artifacts`, default `MachineConfig`) and
compares the sha256 of `program.asm`, `memmap.json` (which holds the
`fm_allocs` liveness records), `params.bin` and `report.json` with the
digests below, in that order.

The digests were produced by running exactly this procedure on the source
tree before the interval-map rewrite of liveness and dependency
derivation.  A change that is meant to alter the compiled programs
updates them in the same commit and says why.

Every `memmap.json` digest was re-pinned when the always-false `"wrap"`
key left its window and `fm_allocs` records (FM addressing is linear, so
no window wraps); the files are otherwise unchanged, and no
`program.asm` digest moved.  The `params.bin` and `report.json` digests
were added later, computed on the tree before lowering built ISA
instructions directly.

`SMALL_DIGESTS` pins the same corpus on `SMALL` (eight-row FM banks and
a 16 KB PM) with the same procedure; the window planner places the
tighter windows and weight slabs there.  Those digests were computed on
the tree before window sizes and FM memories were derived from the
instructions' window operands.  Only `weight_tiled` differs from its
default-config digests, as the other graphs fit either machine alike.
"""

import hashlib

import pytest

from dpuc import cli, corpus
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.machine import MachineConfig

FILES = ("program.asm", "memmap.json", "params.bin", "report.json")

DIGESTS = {
    ("conv_pool", "series"): (
        "0a4b203ca8382f2f83647c254a5c9554aa34188a9abe1a4fc5181d859fa097f7",
        "4216701b64821934a3882a5fdeb774ec686502e4359877dfa9b6e5b8b4def64f",
        "3ea9f50323cd004968c6509170af12053c2d10eeb847d2bb57fbb90816d38fc1",
        "009b58180dc92515f098539836203ad33ced8e8c999b60f66957a204c8f7260b"),
    ("deconv", "series"): (
        "56f484504bfccad335134010d60981e2ac3097faf2d22954fc68f94604aded35",
        "80a64325d9eab87f8c56bc61bcf43d4c6704f77dfaeaa4c93af122fb54829e02",
        "15450a48f1cf9e43743b65d7285c98057bfd01b727e862b4ceb5d57509ae7bd1",
        "39390d73105ea12c0e32607648da15179f20266c291dd30b31cf1a9a9d19732b"),
    ("inception_cell", "series"): (
        "dc2589dccf264e93f97dd897b84ea5f1fecb4d1f6a55bb0132124e10b639c5fe",
        "8b1ad25811749a6512bdd867baa60d5be09e352cf4957cb99ed835c6e1d50ec3",
        "6cc1da936af82e7859716936a7e2f348779c5a0ea7af3bcfa1264f899b679c1c",
        "7a596c10a8abf4fd66f1c12c39d4426a99592224057f5c910f4905bbe3046f78"),
    ("resnet_cell", "series"): (
        "d2ffbdfee517806b653e222fd93215ebc95a63d8087cd57ec7e1309856f41ae2",
        "55efeb4e32902f5d7a057bef99455b347161ee8dd5c07fdbc95fb5b6c38bef14",
        "8b2f67c3efeebe6a2df9265c1ae6d7464a0840c2782ec3663475525706aae4de",
        "78e274d5a2bded66bb03df14eb710998ab6638526ef0dac65d3cf5bf3bb3aa4f"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "fa8add112032ebb25c1f35a400695360eea11c49cf0df7dbc7c2c3a56e5dca5f",
        "cca903d92edfa1958cf5d1d4835316b58e8783611bbc8e07c2968732b1e40cac",
        "013f1c7e2ec75dce4cef224e261c5db7bba11d40bcda01244f080d9f57165b7f"),
    ("vgg_prefix", "series"): (
        "3610fa328595b6e0853263e6b25e66c26da0b3f81ee580140f84cea256c01217",
        "a6f5c926dcb8781f9c9e066a145e1f102da69534828ed9e73d2054219a78da9f",
        "ab9251f7975f50d630cbba4ac462ae30b483429218d10ea21b912831a77f2608",
        "b191ff76655b208e893bb410565733db8736e6f881f8a10c924361c023a5ed18"),
    # re-pinned when the next slab's weight prefetch moved behind the
    # band's activation loads: same instructions, new order, makespan
    # still 29,468
    ("weight_tiled", "series"): (
        "8501826bbbf0ef520bcddb7a9c5a0c8630acb98eb302b96519355a67c1315674",
        "3f90e0ec1b4ac854992c45774432d2c68121bc4a77a53147839bc95d84936c29",
        "a3af02383fdf576ad1ff92bd2bf307ff7d13c761012c6046fdbc44d3a94e8563",
        "8322bed82523b37526540979ecf97db8a2a673acf0fc1c1270cb5e9d638e42e2"),
    ("deconv", "upsample"): (
        "ebc1911f332bf6841e53cc87f7737e0ec7e0b488d6720a93da60be900b15e5b6",
        "48cb9601882743c19c87bcc1cc23570d7b66281a2a90f19bf368b70056e579cb",
        "a8f7b15c3dca52d76ea09aa58b6bcbfde395b9dd575ca3baf7217a456069c53d",
        "aad67de88c2074e3ac05ac381f82b0059a3d0bc8aa6c546a700c169521de0516"),
}


SMALL = MachineConfig(fm_bank_rows=8, pm_bytes=16384)

SMALL_DIGESTS = {
    ("conv_pool", "series"): (
        "0a4b203ca8382f2f83647c254a5c9554aa34188a9abe1a4fc5181d859fa097f7",
        "4216701b64821934a3882a5fdeb774ec686502e4359877dfa9b6e5b8b4def64f",
        "3ea9f50323cd004968c6509170af12053c2d10eeb847d2bb57fbb90816d38fc1",
        "009b58180dc92515f098539836203ad33ced8e8c999b60f66957a204c8f7260b"),
    ("deconv", "series"): (
        "56f484504bfccad335134010d60981e2ac3097faf2d22954fc68f94604aded35",
        "80a64325d9eab87f8c56bc61bcf43d4c6704f77dfaeaa4c93af122fb54829e02",
        "15450a48f1cf9e43743b65d7285c98057bfd01b727e862b4ceb5d57509ae7bd1",
        "39390d73105ea12c0e32607648da15179f20266c291dd30b31cf1a9a9d19732b"),
    ("deconv", "upsample"): (
        "ebc1911f332bf6841e53cc87f7737e0ec7e0b488d6720a93da60be900b15e5b6",
        "48cb9601882743c19c87bcc1cc23570d7b66281a2a90f19bf368b70056e579cb",
        "a8f7b15c3dca52d76ea09aa58b6bcbfde395b9dd575ca3baf7217a456069c53d",
        "aad67de88c2074e3ac05ac381f82b0059a3d0bc8aa6c546a700c169521de0516"),
    ("inception_cell", "series"): (
        "dc2589dccf264e93f97dd897b84ea5f1fecb4d1f6a55bb0132124e10b639c5fe",
        "8b1ad25811749a6512bdd867baa60d5be09e352cf4957cb99ed835c6e1d50ec3",
        "6cc1da936af82e7859716936a7e2f348779c5a0ea7af3bcfa1264f899b679c1c",
        "7a596c10a8abf4fd66f1c12c39d4426a99592224057f5c910f4905bbe3046f78"),
    ("resnet_cell", "series"): (
        "d2ffbdfee517806b653e222fd93215ebc95a63d8087cd57ec7e1309856f41ae2",
        "55efeb4e32902f5d7a057bef99455b347161ee8dd5c07fdbc95fb5b6c38bef14",
        "8b2f67c3efeebe6a2df9265c1ae6d7464a0840c2782ec3663475525706aae4de",
        "78e274d5a2bded66bb03df14eb710998ab6638526ef0dac65d3cf5bf3bb3aa4f"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "fa8add112032ebb25c1f35a400695360eea11c49cf0df7dbc7c2c3a56e5dca5f",
        "cca903d92edfa1958cf5d1d4835316b58e8783611bbc8e07c2968732b1e40cac",
        "013f1c7e2ec75dce4cef224e261c5db7bba11d40bcda01244f080d9f57165b7f"),
    ("vgg_prefix", "series"): (
        "3610fa328595b6e0853263e6b25e66c26da0b3f81ee580140f84cea256c01217",
        "a6f5c926dcb8781f9c9e066a145e1f102da69534828ed9e73d2054219a78da9f",
        "ab9251f7975f50d630cbba4ac462ae30b483429218d10ea21b912831a77f2608",
        "b191ff76655b208e893bb410565733db8736e6f881f8a10c924361c023a5ed18"),
    ("weight_tiled", "series"): (
        "344b415af4bada92c952f95393f131f52162aca19758a276f8381224ff6b3b76",
        "a630f6ee582fa1ad610b602e1cbbc7bc10fe09b4df84c02bd47ba6f8cc1283c4",
        "042c32e6e5becfe1d9a3f43084902d733fbe822483a6595d97ce9ea42205fee5",
        "27e145173f30b5d95c577bb93a7bdfac6dff8df9dd9879b8f1288f07effaafb8"),
}


def test_every_corpus_graph_is_pinned():
    for pinned in (DIGESTS, SMALL_DIGESTS):
        assert {name for name, _mode in pinned} == set(corpus.corpus_names())


def _check(cfg, name, mode, want, tmp_path):
    art = compile_graph(corpus.corpus_graph(name), cfg,
                        CompileOptions(deconv_mode=mode))
    cli.save_artifacts(art, cfg, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, want))


@pytest.mark.parametrize("name,mode", sorted(DIGESTS))
def test_artifact_digests(name, mode, tmp_path):
    _check(MachineConfig(), name, mode, DIGESTS[(name, mode)], tmp_path)


@pytest.mark.parametrize("name,mode", sorted(SMALL_DIGESTS))
def test_artifact_digests_small_fm_pm(name, mode, tmp_path):
    _check(SMALL, name, mode, SMALL_DIGESTS[(name, mode)], tmp_path)
