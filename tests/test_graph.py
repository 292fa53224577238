import base64
import json

import numpy as np
import pytest

from dpuc import cli, corpus
from dpuc import graph as G
from dpuc.compiler import compile_graph
from dpuc.errors import FoldError, ParseError, ShapeError
from dpuc.machine import MachineConfig
from dpuc.simulator import reference_execute, run_program


def parse(doc):
    return G.parse_graph(json.dumps(doc))


def q(exp=0):
    step = 2.0 ** exp
    return {"lo": -128 * step, "hi": 127 * step, "step": step}


def minimal_conv_doc():
    return corpus.toy_conv()


def test_parse_single_conv():
    g = parse(minimal_conv_doc())
    assert len(g.nodes) == 2
    ops = sorted(n.op for n in g.nodes.values())
    assert ops == ["conv", "input"]
    assert g.inputs == ["x"] and g.outputs == ["y"]


def test_parse_rejects_cycle():
    doc = {
        "tensors": [{"name": "x", "shape": [2, 2, 1], "quant": q()},
                    {"name": "a", "shape": [2, 2, 1], "quant": q()},
                    {"name": "b", "shape": [2, 2, 1], "quant": q()}],
        "nodes": [
            {"id": "in", "op": "input", "inputs": [], "output": "x"},
            {"id": "n1", "op": "eltwise-add", "inputs": ["x", "b"],
             "output": "a"},
            {"id": "n2", "op": "identity", "inputs": ["a"], "output": "b"},
        ],
        "inputs": ["x"], "outputs": ["b"],
    }
    with pytest.raises(ParseError):
        parse(doc)


def test_parse_rejects_shape_mismatch():
    doc = minimal_conv_doc()
    doc["tensors"][1]["shape"] = [4, 4, 8]
    with pytest.raises(ShapeError):
        parse(doc)


def test_parse_rejects_disconnected_node():
    doc = minimal_conv_doc()
    doc["tensors"].append({"name": "dangling", "shape": [8, 8, 4],
                           "quant": q()})
    doc["nodes"].append({"id": "orphan", "op": "identity", "inputs": ["x"],
                         "output": "dangling"})
    with pytest.raises(ParseError):
        parse(doc)


def _conv_doc(mutate):
    """Builder of the toy conv graph with one malformation applied."""
    def build():
        doc = minimal_conv_doc()
        mutate(doc["nodes"][1], doc)
        return doc
    return build


def _upsample_doc(factor):
    return {
        "tensors": [{"name": "x", "shape": [4, 4, 2], "quant": q()},
                    {"name": "y", "shape": [7, 7, 2], "quant": q()}],
        "nodes": [{"id": "in", "op": "input", "inputs": [], "output": "x"},
                  {"id": "up", "op": "upsample", "inputs": ["x"],
                   "output": "y", "attrs": {"factor": factor}}],
        "inputs": ["x"], "outputs": ["y"],
    }


def _deconv_zero_upsample():
    doc = corpus.deconv()
    doc["nodes"][1]["attrs"]["upsample"] = 0
    return doc


def _deconv_scalar_kernel():
    doc = corpus.deconv()
    doc["nodes"][1]["attrs"]["kernel"] = 4
    return doc


def _maxpool_scalar_kernel():
    doc = corpus.conv_pool()
    doc["nodes"][2]["attrs"]["kernel"] = 2
    return doc


def _b64(arr):
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()


def _set_weights(shape):
    def mutate(conv, doc):
        conv["params"].update(weights=_b64(np.ones(shape, np.int8)),
                              shape=list(shape))
    return mutate


def _first_op(doc_fn, op, mutate):
    def build():
        doc = doc_fn()
        mutate(next(n for n in doc["nodes"] if n["op"] == op))
        return doc
    return build


def _params_on(doc_fn, op):
    """Builder of doc_fn's graph with its first inline conv params copied
    onto its first `op` node."""
    def build():
        doc = doc_fn()
        params = next(n["params"] for n in doc["nodes"] if "params" in n)
        next(n for n in doc["nodes"] if n["op"] == op)["params"] = params
        return doc
    return build


def _maxpool_padding_2():
    # 2x2/s2 pool over 64x12 with padding 2: the output shape is consistent
    doc = corpus.conv_pool()
    doc["nodes"][2]["attrs"]["padding"] = [2, 2]
    doc["tensors"][2]["shape"] = [34, 8, 16]
    return doc


def _negative_padding(conv, doc):
    # the declared output matches, so only the padding is wrong
    conv["attrs"]["padding"] = [-1, -1]
    doc["tensors"][1]["shape"] = [4, 4, 8]


def _add_fix_with_step(step):
    def mutate(conv, doc):
        doc["tensors"].append({"name": "z", "shape": [8, 8, 8], "quant": q()})
        doc["nodes"].append({"id": "f", "op": "fix", "inputs": ["y"],
                             "output": "z",
                             "attrs": {"lo": -1.0, "hi": 1.0, "step": step}})
        doc["outputs"] = ["z"]
    return mutate


def _add_fix_without_lo(conv, doc):
    doc["tensors"].append({"name": "z", "shape": [8, 8, 8], "quant": q()})
    doc["nodes"].append({"id": "f", "op": "fix", "inputs": ["y"],
                         "output": "z", "attrs": {"hi": 1.0, "step": 1.0}})
    doc["outputs"] = ["z"]


MALFORMED = {
    "conv_without_c_out": _conv_doc(lambda n, d: n["attrs"].pop("c_out")),
    "conv_without_kernel": _conv_doc(lambda n, d: n["attrs"].pop("kernel")),
    "node_without_output": _conv_doc(lambda n, d: n.pop("output")),
    "node_without_op": _conv_doc(lambda n, d: n.pop("op")),
    "tensor_without_shape": _conv_doc(
        lambda n, d: d["tensors"][0].pop("shape")),
    "tensor_without_name": _conv_doc(lambda n, d: d["tensors"][1].pop("name")),
    "quant_without_step": _conv_doc(
        lambda n, d: d["tensors"][0]["quant"].pop("step")),
    "params_without_quant": _conv_doc(lambda n, d: n["params"].pop("quant")),
    "weights_short_of_shape": _conv_doc(
        lambda n, d: n["params"].update(shape=[8, 3, 3, 5])),
    "zero_stride": _conv_doc(lambda n, d: n["attrs"].update(stride=[0, 1])),
    "zero_kernel": _conv_doc(lambda n, d: n["attrs"].update(kernel=[3, 0])),
    "zero_c_out": _conv_doc(lambda n, d: n["attrs"].update(c_out=0)),
    "fix_without_lo": _conv_doc(_add_fix_without_lo),
    "zero_upsample": _deconv_zero_upsample,
    "zero_factor": lambda: _upsample_doc(0),
    "scalar_kernel": _conv_doc(lambda n, d: n["attrs"].update(kernel=3)),
    "scalar_stride": _conv_doc(lambda n, d: n["attrs"].update(stride=1)),
    "scalar_padding": _conv_doc(lambda n, d: n["attrs"].update(padding=1)),
    "three_element_padding": _conv_doc(
        lambda n, d: n["attrs"].update(padding=[1, 1, 1])),
    "maxpool_scalar_kernel": _maxpool_scalar_kernel,
    "deconv_scalar_kernel": _deconv_scalar_kernel,
    # inline parameters that do not match their node (c_out 8, 3x3, c_in 4)
    "weights_5x5_under_3x3": _conv_doc(_set_weights((8, 5, 5, 4))),
    "weights_c_out_c_in_swapped": _conv_doc(_set_weights((4, 3, 3, 8))),
    "weights_3d": _conv_doc(_set_weights((8, 9, 4))),
    "four_biases_for_c_out_8": _conv_doc(lambda n, d: n["params"].update(
        bias=_b64(np.ones(4, np.int32)))),
    "bias_bytes_not_int32": _conv_doc(lambda n, d: n["params"].update(
        bias=base64.b64encode(bytes(6)).decode())),
    "eltwise_one_input": _first_op(
        corpus.resnet_cell, "eltwise-add",
        lambda n: n.update(inputs=n["inputs"][:1])),
    "concat_no_inputs": _first_op(corpus.inception_cell, "concat",
                                  lambda n: n.update(inputs=[])),
    "deconv_pair_upsample": _first_op(
        corpus.deconv, "deconv", lambda n: n["attrs"].update(upsample=[2, 2])),
    "deconv_pair_padding": _first_op(
        corpus.deconv, "deconv", lambda n: n["attrs"].update(padding=[1, 1])),
    "tensor_string_dim": _conv_doc(
        lambda n, d: d["tensors"][0].update(shape=["8", 8, 4])),
    "attrs_not_an_object": _conv_doc(lambda n, d: n.update(attrs=[1])),
    "negative_padding": _conv_doc(_negative_padding),
    "deconv_negative_padding": _first_op(
        corpus.deconv, "deconv", lambda n: n["attrs"].update(padding=-1)),
    "deconv_non_square_kernel": _first_op(
        corpus.deconv, "deconv", lambda n: n["attrs"].update(kernel=[4, 3])),
    "maxpool_padding_not_below_kernel": _maxpool_padding_2,
    "node_inputs_not_a_list": _conv_doc(lambda n, d: n.update(inputs=5)),
    "graph_inputs_not_a_list": _conv_doc(lambda n, d: d.update(inputs=5)),
    "fix_step_not_a_number": _conv_doc(_add_fix_with_step("abc")),
    "quant_step_not_power_of_two": _conv_doc(
        lambda n, d: d["tensors"][1]["quant"].update(step=3.0, lo=-300.0,
                                                     hi=300.0)),
}
# keys and attrs no declaration names, and bools where ints are declared,
# each with the words of its error; most of these compiled to a different
# network than the one written, or ended in an internal error
UNDECLARED = {
    "conv_dilation": (_conv_doc(lambda n, d: n["attrs"].update(
        dilation=[2, 2])), "node conv (conv) attrs: undeclared key "
                           "'dilation'"),
    "conv_group": (_conv_doc(lambda n, d: n["attrs"].update(group=4)),
                   "undeclared key 'group'"),
    "conv_strides": (_conv_doc(lambda n, d: n["attrs"].update(
        strides=[2, 2])), "undeclared key 'strides'"),
    "conv_relu": (_conv_doc(lambda n, d: n["attrs"].update(relu=True)),
                  "undeclared key 'relu'"),
    "eltwise_relu": (_first_op(corpus.resnet_cell, "eltwise-add",
                               lambda n: n.update(attrs={"relu": True})),
                     "(eltwise-add) attrs: undeclared key 'relu'"),
    "bool_stride": (_conv_doc(lambda n, d: n["attrs"].update(
        stride=[True, True])), "stride must be a list of two integers >= 1, "
                               "got [True, True]"),
    "bool_c_out": (_conv_doc(lambda n, d: n["attrs"].update(c_out=True)),
                   "c_out must be an integer >= 1, got True"),
    "bool_shape_dim": (_conv_doc(
        lambda n, d: d["tensors"][0].update(shape=[8, 8, True])),
        "tensor x: shape must be a list of 3 positive integers, got "
        "[8, 8, True]"),
    "maxpool_params": (_params_on(corpus.conv_pool, "maxpool"),
                       "node pool params: maxpool takes none"),
    "eltwise_params": (_params_on(corpus.resnet_cell, "eltwise-add"),
                       "params: eltwise-add takes none"),
    "tensor_dtype": (_conv_doc(
        lambda n, d: d["tensors"][0].update(dtype="int16")),
        "tensors[0]: undeclared key 'dtype'"),
    "node_key_attr": (_conv_doc(lambda n, d: n.update(attr=n.pop("attrs"))),
                      "nodes[1]: undeclared key 'attr'"),
    "quant_extra_key": (_conv_doc(
        lambda n, d: d["tensors"][0]["quant"].update(zero_point=0)),
        "tensor x quant: undeclared key 'zero_point'"),
    "params_extra_key": (_conv_doc(lambda n, d: n["params"].update(
        scale=1.0)), "node conv params: undeclared key 'scale'"),
    "graph_extra_key": (_conv_doc(lambda n, d: d.update(name="toy")),
                        "graph: undeclared key 'name'"),
    "node_id_not_a_name": (_conv_doc(lambda n, d: n.update(id=["conv"])),
                           "nodes[1]: expected a list of names"),
    "const_dtype_not_a_name": (_first_op(
        corpus.vgg_prefix, "const",
        lambda n: n["params"].update(dtype=["int8"])), "bad dtype ['int8']"),
}
MALFORMED.update((case, build) for case, (build, _) in UNDECLARED.items())


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_malformed_graph_raises_parse_error(case):
    with pytest.raises(ParseError):
        parse(MALFORMED[case]())


@pytest.mark.parametrize("case", sorted(UNDECLARED))
def test_verify_undeclared_key_exit_three(case, tmp_path, capsys):
    build, words = UNDECLARED[case]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(build()))
    assert cli.main(["verify", str(path), "--seeds", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: "), out
    assert words in out.err and out.err.count("\n") == 1, out.err


def test_parse_malformed_graph_bases_are_well_formed():
    # each malformed case is one edit away from a graph that parses
    for doc in (minimal_conv_doc(), corpus.deconv(), corpus.conv_pool(),
                corpus.resnet_cell(), corpus.inception_cell(),
                corpus.vgg_prefix(), _upsample_doc(2)):
        parse(doc)


def test_parse_vgg_prefix_has_fifteen_nodes():
    g = parse(corpus.vgg_prefix())
    assert len(g.nodes) == 15


def test_fold_vgg_prefix_to_four_nodes():
    g = parse(corpus.vgg_prefix())
    folded = G.fold_constants_and_quantizers(g)
    assert len(folded.nodes) == 4
    ops = sorted(n.op for n in folded.nodes.values())
    assert ops == ["conv", "conv", "input", "maxpool"]
    for n in folded.nodes.values():
        if n.op == "conv":
            assert n.params is not None
            assert len(n.inputs) == 1
    # invariant: nodes after folding = compute nodes + graph inputs
    compute = sum(1 for n in g.nodes.values()
                  if n.op not in ("input", "fix", "const"))
    assert len(folded.nodes) == compute + len(g.inputs)


def test_fold_identity_on_already_folded_graph():
    g = parse(minimal_conv_doc())
    folded = G.fold_constants_and_quantizers(g)
    assert len(folded.nodes) == len(g.nodes)
    again = G.fold_constants_and_quantizers(folded)
    assert sorted(again.nodes) == sorted(folded.nodes)


def test_fold_preserves_reference_execution():
    g = parse(corpus.vgg_prefix())
    folded = G.fold_constants_and_quantizers(g)
    rng = np.random.default_rng(0)
    x = rng.integers(-128, 128, (32, 32, 8)).astype(np.int8)
    raw = reference_execute(g, {"x_raw": x})
    cooked = reference_execute(folded, {folded.inputs[0]: x})
    assert np.array_equal(raw["y"], cooked["y"])


def test_fold_conv_with_two_quantized_operands():
    # activation fix and weight fix both end up on the conv
    g = parse(corpus.vgg_prefix())
    folded = G.fold_constants_and_quantizers(g)
    conv1 = next(n for n in folded.nodes.values()
                 if n.op == "conv" and folded.tensors[n.inputs[0]].name
                 == folded.inputs[0])
    assert folded.tensors[conv1.inputs[0]].quant is not None
    assert conv1.params.wgt_quant is not None


def test_fold_rejects_shared_prefix_tensor():
    doc = corpus.vgg_prefix()
    # make the raw conv1 output feed a second consumer besides its fix
    doc["tensors"].append({"name": "t2", "shape": [32, 32, 16],
                           "quant": q()})
    doc["nodes"].append({"id": "extra", "op": "identity",
                         "inputs": ["c1_raw"], "output": "t2"})
    doc["outputs"].append("t2")
    g = parse(doc)
    with pytest.raises(FoldError):
        G.fold_constants_and_quantizers(g)


def _const(doc, nid, arr):
    node = next(n for n in doc["nodes"] if n["id"] == nid)
    node["params"].update(data=_b64(arr), shape=list(arr.shape),
                          dtype=str(arr.dtype))


CONST_MISMATCH = {
    # vgg_prefix conv1: c_out 16, 3x3, c_in 8, weights n02_w1, bias n04_b1
    "weights_c_in_5": ("n02_w1", np.ones((16, 3, 3, 5), np.int8)),
    "weights_3d": ("n02_w1", np.ones((16, 9, 8), np.int8)),
    "eight_biases": ("n04_b1", np.ones(8, np.int32)),
}


@pytest.mark.parametrize("case", sorted(CONST_MISMATCH))
def test_fold_rejects_const_params_that_do_not_match_the_node(case):
    doc = corpus.vgg_prefix()
    _const(doc, *CONST_MISMATCH[case])
    g = parse(doc)
    with pytest.raises(FoldError, match="n06_conv1"):
        G.fold_constants_and_quantizers(g)


# ---------------------------------------------------------------------------
# fusion selection
# ---------------------------------------------------------------------------

def test_fuse_conv_pool_single_consumer():
    g = G.fold_constants_and_quantizers(parse(corpus.conv_pool()))
    fused = G.fuse_superlayers(g, MachineConfig())
    convs = [n for n in fused.nodes.values() if n.op == "conv"]
    assert len(convs) == 1
    assert convs[0].fused is not None
    assert convs[0].fused.kind == "maxpool"
    assert convs[0].output == "y"
    assert "t" not in fused.tensors
    assert not any(n.op == "maxpool" for n in fused.nodes.values())


def test_fuse_skips_multi_consumer_intermediate():
    doc = corpus.conv_pool()
    doc["tensors"].append({"name": "t2", "shape": [64, 12, 16],
                           "quant": {"lo": -8192.0, "hi": 8128.0,
                                     "step": 64.0}})
    doc["nodes"].append({"id": "tap", "op": "identity", "inputs": ["t"],
                         "output": "t2"})
    doc["outputs"].append("t2")
    g = G.fold_constants_and_quantizers(parse(doc))
    fused = G.fuse_superlayers(g, MachineConfig())
    assert all(n.fused is None for n in fused.nodes.values())


def test_fused_program_matches_unfused_reference():
    # fusion stays outside the oracle: conv_pool's program runs conv and
    # pool as one fused node, and the reference runs them apart, on the
    # graph as written
    g = parse(corpus.conv_pool())
    cfg = MachineConfig()
    art = compile_graph(g, cfg)
    assert [n["fused"] for n in art.report["nodes"]] == [True]
    rng = np.random.default_rng(3)
    x = rng.integers(-128, 128, (68, 16, 16)).astype(np.int8)
    assert np.array_equal(run_program(art.program, cfg, {"x": x})["y"],
                          reference_execute(g, {"x": x})["y"])


def test_reference_rejects_fused_graph():
    # without the check, conv_pool's fused conv would hand back its
    # (64, 12, 16) conv output as the (32, 6, 16) pooled y
    g = G.fold_constants_and_quantizers(parse(corpus.conv_pool()))
    fused = G.fuse_superlayers(g, MachineConfig())
    x = np.zeros((68, 16, 16), np.int8)
    with pytest.raises(ShapeError, match="fused node"):
        reference_execute(fused, {"x": x})


def test_eltwise_pair_not_fused():
    g = G.fold_constants_and_quantizers(parse(corpus.resnet_cell()))
    fused = G.fuse_superlayers(g, MachineConfig())
    assert all(n.fused is None for n in fused.nodes.values())
    assert any(n.op == "eltwise-add" for n in fused.nodes.values())


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def chain_graph():
    doc = {
        "tensors": [{"name": n, "shape": [2, 2, 1], "quant": q()}
                    for n in ("t0", "t1", "t2", "t3")],
        "nodes": [
            {"id": "a", "op": "input", "inputs": [], "output": "t0"},
            {"id": "b", "op": "identity", "inputs": ["t0"], "output": "t1"},
            {"id": "c", "op": "identity", "inputs": ["t1"], "output": "t2"},
            {"id": "d", "op": "identity", "inputs": ["t2"], "output": "t3"},
        ],
        "inputs": ["t0"], "outputs": ["t3"],
    }
    return parse(doc)


def diamond_graph(b_ch=1, c_ch=1):
    doc = {
        "tensors": [
            {"name": "t0", "shape": [2, 2, 2], "quant": q()},
            {"name": "tb", "shape": [2, 2, b_ch], "quant": q()},
            {"name": "tc", "shape": [2, 2, c_ch], "quant": q()},
            {"name": "ty", "shape": [2, 2, b_ch + c_ch], "quant": q()},
        ],
        "nodes": [
            {"id": "a", "op": "input", "inputs": [], "output": "t0"},
            {"id": "b", "op": "conv", "inputs": ["t0"], "output": "tb",
             "attrs": {"kernel": [1, 1], "c_out": b_ch},
             "params": corpus._conv_params(np.random.default_rng(0), b_ch,
                                           1, 1, 2, 0)},
            {"id": "c", "op": "conv", "inputs": ["t0"], "output": "tc",
             "attrs": {"kernel": [1, 1], "c_out": c_ch},
             "params": corpus._conv_params(np.random.default_rng(1), c_ch,
                                           1, 1, 2, 0)},
            {"id": "d", "op": "concat", "inputs": ["tb", "tc"],
             "output": "ty"},
        ],
        "inputs": ["t0"], "outputs": ["ty"],
    }
    return parse(doc)


def all_topological_orders(g):
    """Exhaustive enumeration oracle."""
    orders = []
    nodes = set(g.nodes)

    def rec(order, placed):
        if len(order) == len(nodes):
            orders.append(tuple(order))
            return
        for nid in sorted(nodes - placed):
            if all(p in placed for p in g.predecessors(nid)):
                rec(order + [nid], placed | {nid})
    rec([], set())
    return orders


def test_schedule_linear_chain():
    g = chain_graph()
    assert list(G.topological_schedule(g)) == ["a", "b", "c", "d"]


def test_schedule_diamond_tie_break_by_id():
    g = diamond_graph()
    assert list(G.topological_schedule(g)) == ["a", "b", "c", "d"]


def test_schedule_member_of_enumeration_oracle():
    g = diamond_graph()
    oracle = all_topological_orders(g)
    assert tuple(G.topological_schedule(g).order) in set(oracle)
    assert G.topological_schedule(g) == G.topological_schedule(g)


def test_schedule_concat_block_concat_last():
    g = parse(corpus.inception_cell())
    g = G.fold_constants_and_quantizers(g)
    order = list(G.topological_schedule(g))
    assert order[-1] == "join"
    oracle = all_topological_orders(g)
    assert tuple(order) in set(oracle)


def test_explore_schedules_linear_chain_unique():
    g = chain_graph()
    out = G.explore_schedules(g, budget=10)
    assert len(out) == 1


def test_explore_schedules_budget_zero():
    assert G.explore_schedules(chain_graph(), 0) == []


def test_explore_schedules_ranked_by_liveness_oracle():
    # branch c's output is large: schedules freeing it sooner (adjacent to
    # its consumer) must rank first
    g = diamond_graph(b_ch=1, c_ch=32)
    out = G.explore_schedules(g, budget=8)
    assert len(out) == len(all_topological_orders(g))
    best_order, best_est = out[0]
    # independent liveness oracle over all orders
    def peak(order):
        return G._peak_footprint(g, order)
    expect = min(peak(o) for o in all_topological_orders(g))
    assert best_est == expect
    for (s1, e1), (s2, e2) in zip(out, out[1:]):
        assert e1 <= e2
    # c's branch is computed adjacent to the consumer in the best order
    assert best_order.order.index("d") - best_order.order.index("c") == 1
