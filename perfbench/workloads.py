"""Benchmark workloads: graph documents and inputs drawn from a seed.

Each workload is a list of `Case`s.  A case carries the graph as JSON text
(what `dpuc compile` reads from disk), its compile options and a stable
name.  Weights of the synthetic graphs and every input tensor come from
the workload seed; the shipped corpus keeps its own fixed weights so its
makespans stay comparable with the published baseline.
"""

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from dpuc import corpus as dpuc_corpus
from dpuc.compiler import CompileOptions

WHY = {
    "corpus": "the 7 shipped graphs plus deconv via upsample: fusion, "
              "concat, eltwise, both deconv paths, slabs, folding; hazard "
              "check and liveness dominate host time; several LOAD-bound",
    "scaled": "3x3 conv, conv, 2x2 pool, conv at C=32, H 56/112/224: large "
              "maps make the functional simulator and reference dominate "
              "verify; CONV-bound with one PM slab",
    "deep": "conv3x3 pairs at 14x14 (128-256-256) and 7x7 (256-512-512): "
            "weights stream through 5-37 PM slabs, liveness dominates "
            "compile; guards the weight-slab path",
}
NAMES = tuple(WHY)


@dataclass
class Case:
    name: str
    text: str
    options: CompileOptions = field(default_factory=CompileOptions)


def _b64(arr):
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()


def _q(exp):
    step = 2.0 ** exp
    return {"lo": -128.0 * step, "hi": 127.0 * step, "step": step}


def _conv_node(rng, nid, src, dst, c_in, c_out, wexp):
    w = rng.integers(-24, 24, (c_out, 3, 3, c_in)).astype(np.int8)
    b = rng.integers(-1000, 1000, c_out).astype(np.int32)
    return {"id": nid, "op": "conv", "inputs": [src], "output": dst,
            "attrs": {"kernel": [3, 3], "padding": [1, 1], "c_out": c_out},
            "params": {"weights": _b64(w), "bias": _b64(b),
                       "shape": [c_out, 3, 3, c_in], "quant": _q(wexp)}}


def _chain_doc(shapes, layers):
    """A single-input chain.  shapes: tensor name -> (h, w, c, exp);
    layers: graph nodes after the input, in order."""
    return {
        "tensors": [{"name": n, "shape": [h, w, c], "quant": _q(e)}
                    for n, (h, w, c, e) in shapes.items()],
        "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"}]
                 + layers,
        "inputs": ["x"], "outputs": [layers[-1]["output"]],
    }


def scaled_doc(rng, h, c=32):
    """3x3 conv -> 3x3 conv -> 2x2/s2 max pool -> 3x3 conv at H=W=h.

    The second convolution and the pool fuse into one super-layer."""
    shapes = {"x": (h, h, c, -2), "a": (h, h, c, 4), "b": (h, h, c, 5),
              "p": (h // 2, h // 2, c, 5), "y": (h // 2, h // 2, c, 6)}
    layers = [
        _conv_node(rng, "conv1", "x", "a", c, c, -4),
        _conv_node(rng, "conv2", "a", "b", c, c, -7),
        {"id": "pool", "op": "maxpool", "inputs": ["b"], "output": "p",
         "attrs": {"kernel": [2, 2], "stride": [2, 2]}},
        _conv_node(rng, "conv3", "p", "y", c, c, -7),
    ]
    return _chain_doc(shapes, layers)


def deep_doc(rng, h, c_in, c):
    """Two weight-streaming 3x3 convolutions: c_in -> c -> c at H=W=h."""
    shapes = {"x": (h, h, c_in, -2), "a": (h, h, c, 6), "y": (h, h, c, 8)}
    layers = [_conv_node(rng, "conv1", "x", "a", c_in, c, -5),
              _conv_node(rng, "conv2", "a", "y", c, c, -7)]
    return _chain_doc(shapes, layers)


def cases(workload, seed):
    """The graphs of one workload.  Synthetic weights depend on the seed;
    nothing a compiler decision depends on (shapes, scales) does."""
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    if workload == "corpus":
        out = [Case(n, json.dumps(dpuc_corpus.corpus_doc(n)))
               for n in dpuc_corpus.corpus_names()]
        out.append(Case("deconv_upsample",
                        json.dumps(dpuc_corpus.corpus_doc("deconv")),
                        CompileOptions(deconv_mode="upsample")))
        return out
    if workload == "scaled":
        return [Case(f"scaled_h{h}", json.dumps(scaled_doc(rng, h)))
                for h in (56, 112, 224)]
    if workload == "deep":
        return [Case("deep_14x14_c256", json.dumps(deep_doc(rng, 14, 128, 256))),
                Case("deep_7x7_c512", json.dumps(deep_doc(rng, 7, 256, 512)))]
    raise ValueError(f"unknown workload {workload!r}")


def random_inputs(rng, folded, count):
    """`count` input dicts for a folded graph, as `dpuc verify` draws them."""
    return [{n: rng.integers(-128, 128, folded.tensors[n].shape)
             .astype(np.int8) for n in folded.inputs}
            for _ in range(count)]
