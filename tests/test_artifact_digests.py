"""Pinned digests of the compiled corpus artifacts.

Performance work on the compiler must leave its output byte-identical.
This test compiles every shipped corpus graph with the default options,
plus `deconv` with `deconv_mode="upsample"`, writes the artifacts the way
`dpuc compile` does (`cli.save_artifacts`, default `MachineConfig`) and
compares the sha256 of `program.asm`, `memmap.json` (which holds the
`fm_allocs` window records), `params.bin` and `report.json` with the
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

`FINE_DIGESTS` pins every corpus graph, and the test-local graphs below,
on `FINE`: the same 1 MiB of FM cut into 16-byte bank rows, so every
window is its exact byte size rounded to 16 bytes instead of a 2 KB row.
`LOCAL_DIGESTS` pins three graphs that reach the identity copy, the 2x
upsample and concat's copy fallback, which no corpus graph lowers; they
stay out of `corpus.py` because the benchmark iterates its names.  Both
tables were computed on the tree before tiles carried their coordinates.

Two changes re-pinned digests on purpose, with every other digest of all
four tables passing unchanged.  When conv input windows began to stay in
FM across weight slabs in every height band, not only in single-band
convs, the `program.asm` and `memmap.json` digests of `weight_tiled`
moved on all three machines: its two-band, three-slab conv now loads each
band's input rows once instead of once per slab.  When nodes with weights
gained `act_load_bytes`, `weight_load_bytes` and `min_load_bytes` in
`report.json`, every `report.json` digest of a graph with such a node
moved; each of those reports, with the three keys removed, still gave its
old digest (`weight_tiled`'s apart, whose program had changed).

Every `memmap.json` digest of all four tables was re-pinned once more when
the planned windows became the only FM allocation record: `fm_allocs` now
holds one `{key, mem, start, length, first, last}` record per planned
window, which the separate `fm_windows` key used to list, instead of the
byte pieces of the deleted byte-piece liveness, and `fm_windows` is gone.
Each new file equals the old one with `fm_windows` removed and
`fm_allocs` replaced by the old `fm_windows`; no `program.asm`,
`params.bin` or `report.json` digest moved.

The `program.asm` and `memmap.json` digests of `conv_pool` and
`vgg_prefix` (series) in `DIGESTS`, `SMALL_DIGESTS` and `FINE_DIGESTS`
were re-pinned when the swap segment began to hold only the tensors some
instruction addresses.  Each graph keeps a fused conv + pool
intermediate in FM (conv_pool's `t`, vgg_prefix's `c2`) that used to get
swap bytes nothing read or wrote: its `# tensor` line and `memmap.json`
entry are gone and the swap segment shrinks (12,288 -> 0 B and 32,768 ->
16,384 B).  Every instruction line, `params.bin` and `report.json` is
unchanged, and no other digest moved.

`TRACE_DIGESTS` pins the `trace.json` text, `emit_timeline(run_timing(
program), "json")`, of every compile in `DIGESTS`.
"""

import base64
import hashlib
import json

import numpy as np
import pytest

from dpuc import cli, corpus
from dpuc import graph as G
from dpuc import simulator as S
from dpuc.compiler import CompileOptions, compile_graph
from dpuc.machine import MachineConfig
from dpuc.timeline import emit_timeline

FILES = ("program.asm", "memmap.json", "params.bin", "report.json")

DIGESTS = {
    ("conv_pool", "series"): (
        "63b1b140cf7ee9774cb48e4247f2ecbe01ae431c0581b7ace791328ef6658573",
        "5036b8a1d685e2c7df496d6c863f6744cde17feb93b8871ddf3d84bed0a4f66e",
        "3ea9f50323cd004968c6509170af12053c2d10eeb847d2bb57fbb90816d38fc1",
        "1a6d3f1a44f782d615e643bf513c65d875b79a4152cd4494991089966eadd451"),
    ("deconv", "series"): (
        "56f484504bfccad335134010d60981e2ac3097faf2d22954fc68f94604aded35",
        "1e18017d8511fd8129fde6bb074c093e4336934715597d44318ba4b8ed07fe4b",
        "15450a48f1cf9e43743b65d7285c98057bfd01b727e862b4ceb5d57509ae7bd1",
        "d41bf985aa038143b91ad5bf8dc69b63d6262dd35af268064e07e90101593b4b"),
    ("inception_cell", "series"): (
        "dc2589dccf264e93f97dd897b84ea5f1fecb4d1f6a55bb0132124e10b639c5fe",
        "a7f1ec69a8f7ea81ffaddb8aac67216919040b90cb53350a47ea205c8e607e65",
        "6cc1da936af82e7859716936a7e2f348779c5a0ea7af3bcfa1264f899b679c1c",
        "b39cfc66fd486aee8713fdbb34f39e4328a1bfa7b6465ad9de2aaabb32a57567"),
    ("resnet_cell", "series"): (
        "d2ffbdfee517806b653e222fd93215ebc95a63d8087cd57ec7e1309856f41ae2",
        "44c455f6a95fa88e1e7a1f6d93772173feea25623201631adbf0a84cca616eda",
        "8b2f67c3efeebe6a2df9265c1ae6d7464a0840c2782ec3663475525706aae4de",
        "78fc22283b521ef84ec3b8cdb74e035ca84de892ef892f034aa946417cda06ed"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "b782a0b2e075f0b3c2a04f0c12d43d7c1fc88335c2f47729d155af164d6b0c38",
        "cca903d92edfa1958cf5d1d4835316b58e8783611bbc8e07c2968732b1e40cac",
        "7cead384e8b2f0969921364d527c8ac9790a7d4c586378e2618fa681cab30aa3"),
    ("vgg_prefix", "series"): (
        "2a3d16f5be291bff1dae55774064f1d1948b02b9dfd5d62b84c95c0ffb267309",
        "818c83ef51191659b1b79d8002c6756044f12aa35afc0a9b67e66b4c5dc5ead8",
        "ab9251f7975f50d630cbba4ac462ae30b483429218d10ea21b912831a77f2608",
        "ab8a9964310a9bccc0b82bfad39f2da34c6dffe5f6419e24b86f31f979762065"),
    # re-pinned when the next slab's weight prefetch moved behind the
    # band's activation loads: same instructions, new order, makespan
    # still 29,468
    ("weight_tiled", "series"): (
        "5f86ddbaa7c22713e9744fc7653bd9adf8570fd1c1bd5e62b36ac05bcb65adc3",
        "cf95420d543bea2ae1a4089d5bda9e21eb686a8173af31ccf21a189362c6c7ab",
        "a3af02383fdf576ad1ff92bd2bf307ff7d13c761012c6046fdbc44d3a94e8563",
        "d21f5b33b01daefcf810911a384cd96438cf6cfc368d57364332676de7e7a01b"),
    ("deconv", "upsample"): (
        "ebc1911f332bf6841e53cc87f7737e0ec7e0b488d6720a93da60be900b15e5b6",
        "1e2ae1dbdf5ced9abc56e9382f88c36bc878a8205ef55741d85f9366d860de0c",
        "a8f7b15c3dca52d76ea09aa58b6bcbfde395b9dd575ca3baf7217a456069c53d",
        "0cd467e13225a8784f67b866f5b3eec6da33df08b1a15fc367d81ad61202d22a"),
}


SMALL = MachineConfig(fm_bank_rows=8, pm_bytes=16384)

SMALL_DIGESTS = {
    ("conv_pool", "series"): (
        "63b1b140cf7ee9774cb48e4247f2ecbe01ae431c0581b7ace791328ef6658573",
        "5036b8a1d685e2c7df496d6c863f6744cde17feb93b8871ddf3d84bed0a4f66e",
        "3ea9f50323cd004968c6509170af12053c2d10eeb847d2bb57fbb90816d38fc1",
        "1a6d3f1a44f782d615e643bf513c65d875b79a4152cd4494991089966eadd451"),
    ("deconv", "series"): (
        "56f484504bfccad335134010d60981e2ac3097faf2d22954fc68f94604aded35",
        "1e18017d8511fd8129fde6bb074c093e4336934715597d44318ba4b8ed07fe4b",
        "15450a48f1cf9e43743b65d7285c98057bfd01b727e862b4ceb5d57509ae7bd1",
        "d41bf985aa038143b91ad5bf8dc69b63d6262dd35af268064e07e90101593b4b"),
    ("deconv", "upsample"): (
        "ebc1911f332bf6841e53cc87f7737e0ec7e0b488d6720a93da60be900b15e5b6",
        "1e2ae1dbdf5ced9abc56e9382f88c36bc878a8205ef55741d85f9366d860de0c",
        "a8f7b15c3dca52d76ea09aa58b6bcbfde395b9dd575ca3baf7217a456069c53d",
        "0cd467e13225a8784f67b866f5b3eec6da33df08b1a15fc367d81ad61202d22a"),
    ("inception_cell", "series"): (
        "dc2589dccf264e93f97dd897b84ea5f1fecb4d1f6a55bb0132124e10b639c5fe",
        "a7f1ec69a8f7ea81ffaddb8aac67216919040b90cb53350a47ea205c8e607e65",
        "6cc1da936af82e7859716936a7e2f348779c5a0ea7af3bcfa1264f899b679c1c",
        "b39cfc66fd486aee8713fdbb34f39e4328a1bfa7b6465ad9de2aaabb32a57567"),
    ("resnet_cell", "series"): (
        "d2ffbdfee517806b653e222fd93215ebc95a63d8087cd57ec7e1309856f41ae2",
        "44c455f6a95fa88e1e7a1f6d93772173feea25623201631adbf0a84cca616eda",
        "8b2f67c3efeebe6a2df9265c1ae6d7464a0840c2782ec3663475525706aae4de",
        "78fc22283b521ef84ec3b8cdb74e035ca84de892ef892f034aa946417cda06ed"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "b782a0b2e075f0b3c2a04f0c12d43d7c1fc88335c2f47729d155af164d6b0c38",
        "cca903d92edfa1958cf5d1d4835316b58e8783611bbc8e07c2968732b1e40cac",
        "7cead384e8b2f0969921364d527c8ac9790a7d4c586378e2618fa681cab30aa3"),
    ("vgg_prefix", "series"): (
        "2a3d16f5be291bff1dae55774064f1d1948b02b9dfd5d62b84c95c0ffb267309",
        "818c83ef51191659b1b79d8002c6756044f12aa35afc0a9b67e66b4c5dc5ead8",
        "ab9251f7975f50d630cbba4ac462ae30b483429218d10ea21b912831a77f2608",
        "ab8a9964310a9bccc0b82bfad39f2da34c6dffe5f6419e24b86f31f979762065"),
    ("weight_tiled", "series"): (
        "20c052f1e5e0b2d7318e5568388a674cda1682c7a75d548b549760b60415b67c",
        "a3b9edbf04327949c5011a2405e4eca663ee5e71304851b5d90311e3e78baf9c",
        "042c32e6e5becfe1d9a3f43084902d733fbe822483a6595d97ce9ea42205fee5",
        "ef59c40b0098e9f6e23458cfdbe369cebc00a76af35ea787344f9a5700003792"),
}


def _q(exp):
    step = 2.0 ** exp
    return {"lo": -128 * step, "hi": 127 * step, "step": step}


def _b64(arr):
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()


def identity_doc(h=20, w=12, c=8):
    return {
        "tensors": [{"name": "x", "shape": [h, w, c], "quant": _q(-2)},
                    {"name": "y", "shape": [h, w, c], "quant": _q(-2)}],
        "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"},
                  {"id": "copy", "op": "identity", "inputs": ["x"],
                   "output": "y"}],
        "inputs": ["x"], "outputs": ["y"],
    }


def upsample_doc():
    """2x zero-insertion upsample: (h - 1) * 2 + 1 output rows."""
    return {
        "tensors": [{"name": "x", "shape": [10, 8, 8], "quant": _q(-2)},
                    {"name": "y", "shape": [19, 15, 8], "quant": _q(-2)}],
        "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"},
                  {"id": "up", "op": "upsample", "inputs": ["x"],
                   "output": "y", "attrs": {"factor": 2}}],
        "inputs": ["x"], "outputs": ["y"],
    }


def concat_copy_doc(h=12, w=8, c=8):
    """concat(x, b): x is a graph input that the conv reads too and b is
    a graph output, so neither can be aliased into the concatenation and
    the concat copies both parts."""
    rng = np.random.default_rng(55)
    wgt = rng.integers(-24, 24, (c, 1, 1, c)).astype(np.int8)
    bias = rng.integers(-1000, 1000, c).astype(np.int32)
    return {
        "tensors": [{"name": "x", "shape": [h, w, c], "quant": _q(-2)},
                    {"name": "b", "shape": [h, w, c], "quant": _q(-2)},
                    {"name": "y", "shape": [h, w, 2 * c], "quant": _q(-2)}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "branch", "op": "conv", "inputs": ["x"], "output": "b",
             "attrs": {"kernel": [1, 1], "c_out": c},
             "params": {"weights": _b64(wgt), "bias": _b64(bias),
                        "shape": [c, 1, 1, c], "quant": _q(-6)}},
            {"id": "join", "op": "concat", "inputs": ["x", "b"],
             "output": "y"}],
        "inputs": ["x"], "outputs": ["b", "y"],
    }


# graphs that reach the copy and upsample lowerings, kept out of the
# shipped corpus (the benchmark iterates `corpus.corpus_names()`)
LOCAL = {"identity": identity_doc, "upsample": upsample_doc,
         "concat_copy": concat_copy_doc}

LOCAL_DIGESTS = {
    ("concat_copy", "series"): (
        "431ef2c7ec13d9db0f2f60ec4469a1a0b623701a260c7bdf24e7c2f76d9cde67",
        "1b6c8ca2d792495133fc41204dc09cb86a8be6e82c1da637f0ce8054278d25f2",
        "58c7ac3940db0522dcf11fa4be5eb4f740e28e6ac47152e6277a0ae9631049f1",
        "a8a012d45db616a3fd1de612041b4cbaf80b83b1228a931df34d435a3a0dcad2"),
    ("identity", "series"): (
        "51504598ea0dfcd0f49254e7afe9418b2f59bb7b565960b046b04d779364589b",
        "67c557c8c6c0f09e064426a3dfb9d93c05a68f94ae0645ea59bdc579e755ddbc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "618ef87085f230754dd72fa0e2bc7afa672c364d2faccb97a30994d34cc5a700"),
    ("upsample", "series"): (
        "0e27accfbc445f353e7d22988503caf310c110b95d9a5231bc9035871a79b127",
        "f623b7c857a3452115722df926986917133b4d5e3d8d41911fa3d31d2947983b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "95caf4e461a72f53e3902ba9747f3aee366317505de85ddd1e4d8add7f637057"),
}

FINE = MachineConfig(fm_row_bytes=16, fm_bank_rows=8192)

FINE_DIGESTS = {
    ("concat_copy", "series"): (
        "a484c1f34cfe9afe4d489c1a7d1f4ba405dad11db568048c7f5d78b9b3563daf",
        "25bcf78fadb4c8261b3ddc6721003791d18f300fd58167e85ea61514e0620c06",
        "58c7ac3940db0522dcf11fa4be5eb4f740e28e6ac47152e6277a0ae9631049f1",
        "a8a012d45db616a3fd1de612041b4cbaf80b83b1228a931df34d435a3a0dcad2"),
    ("conv_pool", "series"): (
        "9b0073f69a9e006674965cf3c5d85863269e47f883ad06ebe8d8b31db38b28cf",
        "8709ad255cc6221229a7f7101e2c642d11ded0d486d43fb401a0fc835dc3a030",
        "3ea9f50323cd004968c6509170af12053c2d10eeb847d2bb57fbb90816d38fc1",
        "1a6d3f1a44f782d615e643bf513c65d875b79a4152cd4494991089966eadd451"),
    ("deconv", "series"): (
        "10d72443e2041bebae70b014ce29e68534c11ade1ae0751cbeced698355a63a9",
        "26ad8813323748637d52d3ef10f661a470a0776fc7bfcdddd1564ff639fda6c8",
        "15450a48f1cf9e43743b65d7285c98057bfd01b727e862b4ceb5d57509ae7bd1",
        "d41bf985aa038143b91ad5bf8dc69b63d6262dd35af268064e07e90101593b4b"),
    ("deconv", "upsample"): (
        "b0c8382f093ace943f5e825b92bdd512f4dbee5aa75104cbf7d4a65f8fcc265d",
        "b45d472d03d99b7acd0db4db009418fbaac7674906ab6cb81f4133e176b413fc",
        "a8f7b15c3dca52d76ea09aa58b6bcbfde395b9dd575ca3baf7217a456069c53d",
        "0cd467e13225a8784f67b866f5b3eec6da33df08b1a15fc367d81ad61202d22a"),
    ("identity", "series"): (
        "6d8108802ec36e0180b337d9199e21fe53a1fd503c2acee984ef1ca942a79424",
        "5dfab8336ede7131e45a13846d1746b9d2e71003b7cf32817c9a9664ad63bae0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "618ef87085f230754dd72fa0e2bc7afa672c364d2faccb97a30994d34cc5a700"),
    ("inception_cell", "series"): (
        "8f365c4b5ada09ae979fe116c0f9fc5094458e60821bd804c48591631c329144",
        "aa53dce04cad78134349bf7b40529af179fd15a3735108eb6e7d1ae60c2f7cf5",
        "6cc1da936af82e7859716936a7e2f348779c5a0ea7af3bcfa1264f899b679c1c",
        "b39cfc66fd486aee8713fdbb34f39e4328a1bfa7b6465ad9de2aaabb32a57567"),
    ("resnet_cell", "series"): (
        "743a4a0d797b6225aa916481d5ee13579c7548c99b87176a3219d6e67b999664",
        "ce9392ad73f3545a34d89fe60a563808d19ea5ba8ac27685b2537811c35e59ff",
        "8b2f67c3efeebe6a2df9265c1ae6d7464a0840c2782ec3663475525706aae4de",
        "78fc22283b521ef84ec3b8cdb74e035ca84de892ef892f034aa946417cda06ed"),
    ("toy_conv", "series"): (
        "159b47e9907c1263e2090d14925e88b44fdce46392588697e7fb39eb409f30fc",
        "6d9a5c7ab9eb50f767d36c03be9b8b579e81003b086038beccfa65417542f18d",
        "cca903d92edfa1958cf5d1d4835316b58e8783611bbc8e07c2968732b1e40cac",
        "7cead384e8b2f0969921364d527c8ac9790a7d4c586378e2618fa681cab30aa3"),
    ("upsample", "series"): (
        "8b04c70b229b237626e048017ece5fae2ba5d06df6c7af7825d261ebff5fa5b0",
        "51811539da503063f35830588bc578f7ebfd00ae56abf5a6764c18ff3fcff4d4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "95caf4e461a72f53e3902ba9747f3aee366317505de85ddd1e4d8add7f637057"),
    ("vgg_prefix", "series"): (
        "01ccf162f0b464a672835b1bf8a98700fcaf26a44eca4306e129e2c94cbffd57",
        "8938e4567fd5b3cd37aaf5e8aef259c4ea1b4268966677f42263761a656eec9d",
        "ab9251f7975f50d630cbba4ac462ae30b483429218d10ea21b912831a77f2608",
        "ab8a9964310a9bccc0b82bfad39f2da34c6dffe5f6419e24b86f31f979762065"),
    ("weight_tiled", "series"): (
        "ee97cd737dc81b1b3b9ffb45cb1f9bb46dde74ec9c5a66de9b7e5897b4909f87",
        "5cd684ac12d76aaabb94365e732f30701a16d3a789936b31b40fb3d161e06a2f",
        "a3af02383fdf576ad1ff92bd2bf307ff7d13c761012c6046fdbc44d3a94e8563",
        "d21f5b33b01daefcf810911a384cd96438cf6cfc368d57364332676de7e7a01b"),
}


# computed on the tree whose trace events were frozen dataclasses, before
# they became named tuples
TRACE_DIGESTS = {
    ("conv_pool", "series"):
        "76b9a7531b113f546d5f7c08e1fba9706156febe6add95fc1945a3857cb49fb3",
    ("deconv", "series"):
        "363f90d25c11343842218466b784d84637e871a162b75f42a41126da0d485d56",
    ("deconv", "upsample"):
        "93512655ab290f4c6fd631494a226ccc1d7a9f025d679707fb175f296d891a8d",
    ("inception_cell", "series"):
        "2bb20e250a59a0777d0049d1fccb1685df8f56fc489b12d309f24452067526f4",
    ("resnet_cell", "series"):
        "ab91078563787055a2ac9489c8a253a41bb91b5aecdf479f9239011498437afa",
    ("toy_conv", "series"):
        "b1b72b5799ee9b785295528cba629b4f955b643d89e1b4b27986aa918e89ffa5",
    ("vgg_prefix", "series"):
        "2612b6bb2334edaaeff6a8ba0bbce6c4d01cbeef2bde099a441187327b24f431",
    ("weight_tiled", "series"):
        "822246773296b0136b3ea3914fe0b25b35f4f1131c848c64d3db1829ebc140fb",
}


def _graph(name):
    if name in LOCAL:
        return G.parse_graph(json.dumps(LOCAL[name]()))
    return corpus.corpus_graph(name)


def test_every_corpus_graph_is_pinned():
    assert set(TRACE_DIGESTS) == set(DIGESTS)
    for pinned in (DIGESTS, SMALL_DIGESTS, FINE_DIGESTS):
        names = {name for name, _mode in pinned} - set(LOCAL)
        assert names == set(corpus.corpus_names())
    assert {name for name, _mode in LOCAL_DIGESTS} == set(LOCAL)
    assert {name for name, _mode in FINE_DIGESTS} >= set(LOCAL)


def digests(cfg, name, mode, outdir):
    art = compile_graph(_graph(name), cfg, CompileOptions(deconv_mode=mode))
    cli.save_artifacts(art, cfg, outdir)
    return tuple(hashlib.sha256((outdir / f).read_bytes()).hexdigest()
                 for f in FILES)


def _check(cfg, name, mode, want, tmp_path):
    got = digests(cfg, name, mode, tmp_path)
    assert dict(zip(FILES, got)) == dict(zip(FILES, want))


@pytest.mark.parametrize("name,mode", sorted(DIGESTS))
def test_artifact_digests(name, mode, tmp_path):
    _check(MachineConfig(), name, mode, DIGESTS[(name, mode)], tmp_path)


@pytest.mark.parametrize("name,mode", sorted(TRACE_DIGESTS))
def test_trace_json_digests(name, mode):
    cfg = MachineConfig()
    art = compile_graph(_graph(name), cfg, CompileOptions(deconv_mode=mode))
    text = emit_timeline(S.run_timing(art.program, cfg), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TRACE_DIGESTS[(name, mode)]


@pytest.mark.parametrize("name,mode", sorted(SMALL_DIGESTS))
def test_artifact_digests_small_fm_pm(name, mode, tmp_path):
    _check(SMALL, name, mode, SMALL_DIGESTS[(name, mode)], tmp_path)


@pytest.mark.parametrize("name,mode", sorted(LOCAL_DIGESTS))
def test_artifact_digests_copy_and_upsample(name, mode, tmp_path):
    _check(MachineConfig(), name, mode, LOCAL_DIGESTS[(name, mode)],
           tmp_path)


@pytest.mark.parametrize("name,mode", sorted(FINE_DIGESTS))
def test_artifact_digests_narrow_bank_rows(name, mode, tmp_path):
    _check(FINE, name, mode, FINE_DIGESTS[(name, mode)], tmp_path)


def _bit_exact_hazard_free(g, cfg, options):
    art = compile_graph(g, cfg, options)
    folded = G.fold_constants_and_quantizers(g)
    rng = np.random.default_rng(7)
    inputs = {n: rng.integers(-128, 128, folded.tensors[n].shape)
              .astype(np.int8) for n in folded.inputs}
    got = S.run_program(art.program, cfg, inputs)
    ref = S.reference_execute(folded, inputs)
    assert set(ref) == set(g.outputs)
    for out in ref:
        assert np.array_equal(got[out], ref[out]), out
    trace = S.run_timing(art.program, cfg)
    assert S.check_hazards(art.program, trace,
                           allocs=art.memmap["fm_allocs"], cfg=cfg) == []
    return art


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
@pytest.mark.parametrize("name", sorted(LOCAL))
def test_copy_and_upsample_graphs_bit_exact(name, pipelined):
    _bit_exact_hazard_free(_graph(name), MachineConfig(),
                           CompileOptions(pipeline=pipelined))


@pytest.mark.parametrize("doc,node", [(identity_doc, "copy"),
                                      (concat_copy_doc, "join")],
                         ids=["identity", "concat"])
def test_copy_rows_wider_than_gamma_split_into_strips(doc, node):
    # 600 x 16 B = 9,600 B rows against an 8,192 B gamma: the copy tiles
    # take two width strips, as a 1x1 max pool of the same tensor does
    cfg = MachineConfig()
    g = G.parse_graph(json.dumps(doc(4, 600, 16)))
    art = _bit_exact_hazard_free(g, cfg, CompileOptions())
    tiles = art.tiles[node]
    strips = sorted({t.cols for t in tiles})
    assert strips == [(0, 300), (300, 600)]
    assert all((hi - lo) * 16 <= cfg.gamma for lo, hi in strips)


def aliased_concat_doc(h=4, w=600, c_in=8, c=16):
    """y = concat(a, b) of two 1x1 convs of x; a and b are read by the
    concat only, so both convs save straight into their channel slices
    of y."""
    rng = np.random.default_rng(56)
    nodes = [{"id": "in", "op": "input", "inputs": [], "output": "x"}]
    for nid, out in (("ca", "a"), ("cb", "b")):
        wgt = rng.integers(-24, 24, (c, 1, 1, c_in)).astype(np.int8)
        bias = rng.integers(-1000, 1000, c).astype(np.int32)
        nodes.append({"id": nid, "op": "conv", "inputs": ["x"],
                      "output": out, "attrs": {"kernel": [1, 1], "c_out": c},
                      "params": {"weights": _b64(wgt), "bias": _b64(bias),
                                 "shape": [c, 1, 1, c_in],
                                 "quant": _q(-6)}})
    nodes.append({"id": "join", "op": "concat", "inputs": ["a", "b"],
                  "output": "y"})
    return {
        "tensors": [{"name": "x", "shape": [h, w, c_in], "quant": _q(-2)},
                    {"name": "a", "shape": [h, w, c], "quant": _q(-2)},
                    {"name": "b", "shape": [h, w, c], "quant": _q(-2)},
                    {"name": "y", "shape": [h, w, 2 * c], "quant": _q(-2)}],
        "nodes": nodes, "inputs": ["x"], "outputs": ["y"],
    }


@pytest.mark.parametrize("pipelined", [True, False],
                         ids=["pipeline", "sequential"])
def test_aliased_concat_saves_across_width_strips(pipelined, operand_blocks):
    # a's and b's 600 x 16 B = 9,600 B rows exceed the 8,192 B gamma, so
    # each conv saves two width strips into its channel slice of y
    cfg = MachineConfig()
    g = G.parse_graph(json.dumps(aliased_concat_doc()))
    art = _bit_exact_hazard_free(g, cfg, CompileOptions(pipeline=pipelined))
    assert art.memmap["aliases"] == {"a": ["y", 0], "b": ["y", 16]}
    for nid in ("ca", "cb"):
        assert sorted({t.cols for t in art.tiles[nid]}) == [(0, 300),
                                                             (300, 600)]
    seg, off = art.memmap["tensors"]["y"]
    base = art.memmap["segments"][seg][0] + off
    saves = [ins for ins, mark in zip(art.program.instructions, art.marks)
             if mark[0] == "cb" and ins.op == "SAVE"]
    assert saves
    for ins in saves:
        for space, _mem, lo, hi in operand_blocks(ins, "dst"):
            ch = (lo - base) % 32
            assert space == "ddr" and 0 <= lo - base < 4 * 600 * 32
            assert 16 <= ch and ch + (hi - lo) <= 32, (lo, hi)


def _docs():
    """Every corpus graph document and every test-local one."""
    docs = {name: corpus.corpus_doc(name) for name in corpus.corpus_names()}
    docs.update((name, doc()) for name, doc in LOCAL.items())
    docs["aliased_concat"] = aliased_concat_doc()
    return docs


def test_parse_resolves_every_default_attr():
    for name, doc in _docs().items():
        for n in G.parse_graph(json.dumps(doc)).nodes.values():
            for key, (form, _default) in G.OPS[n.op][1].items():
                v = n.attrs[key]
                if form is not float:   # a real may be written as an int
                    assert type(v) is form, (name, n.id, key, v)
                if form is tuple:
                    assert len(v) == 2 and all(type(x) is int for x in v)


@pytest.mark.parametrize("name", sorted(corpus.corpus_names()))
def test_omitted_default_attrs_compile_like_spelled_out(name):
    doc = corpus.corpus_doc(name)
    spelled, omitted = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    for sp, om in zip(spelled["nodes"], omitted["nodes"]):
        for key, (_form, default) in G.OPS[sp["op"]][1].items():
            if default is None:
                continue
            want = list(default) if isinstance(default, tuple) else default
            if sp["attrs"].setdefault(key, want) == want:
                om["attrs"].pop(key, None)
    assert spelled != omitted
    arts = [compile_graph(G.parse_graph(json.dumps(d)), MachineConfig())
            for d in (spelled, omitted)]
    assert arts[0].assembly == arts[1].assembly
