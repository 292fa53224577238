"""Computation DAG: parsing, validation, quantizer/parameter folding,
super-layer fusion selection, and topological scheduling.

Tensors are (h, w, c) with the channel innermost in memory.  Quantizer
nodes ("fix") and parameter constants ("const") are explicit after parsing
and are assimilated into their consuming compute nodes by
fold_constants_and_quantizers, mirroring how a framework front end hands
the graph over.  Parsing checks every object against its declaration
(`OPS` for each op; an undeclared key is a ParseError), fills in optional
attrs and turns pairs into tuples, so no later pass spells a default.
"""

import base64
import heapq
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import quant
from .errors import CycleError, FoldError, ParseError, ShapeError

_WINDOW = {"kernel": (tuple, None), "stride": (tuple, (1, 1)),
           "padding": (tuple, (0, 0))}
# op -> ((fewest, most) activation inputs, {attr: (form, default)}); a form
# is a pair of ints (tuple), an int, or a real (float; an int is one too),
# and a default of None marks a required attr.  See _resolve for bounds.
OPS = {
    "input": ((0, 0), {}), "const": ((0, 0), {}),
    "fix": ((1, 1), dict.fromkeys(("lo", "hi", "step"), (float, None))),
    "conv": ((1, 1), {"c_out": (int, None), **_WINDOW}),
    "maxpool": ((1, 1), _WINDOW),
    "deconv": ((1, 1), {"c_out": (int, None), "kernel": (tuple, None),
                        "upsample": (int, 2), "padding": (int, 0)}),
    "upsample": ((1, 1), {"factor": (int, 2)}),
    "eltwise-add": ((2, 2), {}), "concat": ((1, None), {}),
    "identity": ((1, 1), {}),
}


@dataclass(frozen=True)
class QuantInfo:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ShapeError(f"quant range empty: ({self.lo}, {self.hi})")
        if self.step <= 0:
            raise ShapeError(f"quant step must be positive: {self.step}")
        try:
            quant.step_exponent(self.step)
        except ValueError as e:
            raise ShapeError(str(e)) from None
        if (self.hi - self.lo) / self.step > 256 + 1e-9:
            raise ShapeError(
                f"range ({self.lo},{self.hi}) needs more than 256 steps "
                f"of {self.step}")

    @property
    def exp(self):
        return quant.step_exponent(self.step)


@dataclass(frozen=True)
class TensorRef:
    name: str
    shape: tuple  # (h, w, c)
    quant: QuantInfo = None

    def __post_init__(self):
        if len(self.shape) != 3 or any(d < 1 for d in self.shape):
            raise ShapeError(f"tensor {self.name}: bad shape {self.shape}")

    @property
    def nbytes(self):
        h, w, c = self.shape
        return h * w * c


@dataclass(frozen=True)
class WeightSpec:
    """Folded parameters of a conv/deconv: weights (c_o, k_h, k_w, c_i) as
    int8, bias (c_o) as int32 at the accumulator scale."""
    weights: np.ndarray
    bias: np.ndarray
    wgt_quant: QuantInfo

    def __eq__(self, other):
        return (isinstance(other, WeightSpec)
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.bias, other.bias)
                and self.wgt_quant == other.wgt_quant)


@dataclass(frozen=True)
class Fused:
    """Consumer absorbed into a conv super-node."""
    kind: str  # consumer op; only maxpool is fused
    mid: TensorRef  # intermediate tensor, no longer a graph tensor
    kernel: tuple = (1, 1)
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)


@dataclass
class Node:
    id: str
    op: str
    inputs: list
    output: str
    attrs: dict = field(default_factory=dict)
    params: WeightSpec = None
    fused: Fused = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ParseError(f"node {self.id}: unknown op {self.op!r}")


@dataclass(frozen=True)
class Schedule:
    order: tuple

    def __iter__(self):
        return iter(self.order)


class Graph:
    def __init__(self, tensors, nodes, inputs, outputs, param_data=None):
        self.tensors = dict(tensors)   # name -> TensorRef
        self.nodes = {n.id: n for n in nodes}
        self.inputs = list(inputs)     # tensor names
        self.outputs = list(outputs)   # tensor names
        # parameter pseudo-tensor payloads: name -> np.ndarray
        self.param_data = dict(param_data or {})
        self._index()

    def _index(self):
        self.producer = {}
        self.consumers = {}
        for n in self.nodes.values():
            if n.output in self.producer:
                raise ParseError(f"tensor {n.output} written twice")
            self.producer[n.output] = n.id
            for t in n.inputs:
                self.consumers.setdefault(t, []).append(n.id)

    def fused_mids(self):
        """{name: TensorRef} of the intermediates fusion took out of the
        graph, in node-id order."""
        return {n.fused.mid.name: n.fused.mid
                for n in sorted(self.nodes.values(), key=lambda n: n.id)
                if n.fused is not None}

    def successors(self, node_id):
        out = self.nodes[node_id].output
        return sorted(self.consumers.get(out, []))

    def predecessors(self, node_id):
        preds = []
        for t in self.nodes[node_id].inputs:
            if t in self.producer:
                preds.append(self.producer[t])
        return preds


# ---------------------------------------------------------------------------
# Shape inference per op
# ---------------------------------------------------------------------------

def conv_out_shape(in_shape, c_out, kernel, stride, padding):
    h, w, _ = in_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel {kernel} larger than padded input {in_shape}")
    return (oh, ow, c_out)


def deconv_out_shape(in_shape, c_out, kernel, upsample, padding):
    # deconv = zero-insertion upsample (factor s) + pad p + conv k stride 1
    h, w, _ = in_shape
    k = kernel[0]
    s = upsample
    p = padding
    uh, uw = (h - 1) * s + 1, (w - 1) * s + 1
    return conv_out_shape((uh, uw, in_shape[2]), c_out, (k, k), (1, 1), (p, p))


def upsample_out_shape(in_shape, factor):
    h, w, c = in_shape
    return ((h - 1) * factor + 1, (w - 1) * factor + 1, c)


def infer_out_shape(node, in_shapes):
    op = node.op
    a = node.attrs
    if op in ("fix", "identity"):
        return in_shapes[0]
    if op == "conv":
        return conv_out_shape(in_shapes[0], a["c_out"], a["kernel"],
                              a["stride"], a["padding"])
    if op == "deconv":
        return deconv_out_shape(in_shapes[0], a["c_out"], a["kernel"],
                                a["upsample"], a["padding"])
    if op == "maxpool":
        return conv_out_shape(in_shapes[0], in_shapes[0][2], a["kernel"],
                              a["stride"], a["padding"])
    if op == "eltwise-add":
        if in_shapes[0] != in_shapes[1]:
            raise ShapeError(f"eltwise operands differ: {in_shapes}")
        return in_shapes[0]
    if op == "upsample":
        return upsample_out_shape(in_shapes[0], a["factor"])
    if op == "concat":
        h, w, _ = in_shapes[0]
        for s in in_shapes[1:]:
            if s[:2] != (h, w):
                raise ShapeError(f"concat spatial mismatch: {in_shapes}")
        return (h, w, sum(s[2] for s in in_shapes))
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# parse / validate
# ---------------------------------------------------------------------------

def _decode(b64, dtype, where):
    try:
        return np.frombuffer(base64.b64decode(b64), dtype=dtype).copy()
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where}: bad {np.dtype(dtype).name} data: {e}") \
            from None


_FORMS = {tuple: "a list of two integers >= {}", int: "an integer >= {}",
          float: "a number"}


def _obj(d, where, required, optional=()):
    """d, a JSON object with every key of `required` and no key outside
    `required` and `optional`."""
    if not isinstance(d, dict):
        raise ParseError(f"{where}: expected an object, got {d!r}")
    for key in required:
        if key not in d:
            raise ParseError(f"{where}: missing key {key!r}")
    for key in d:
        if key not in required and key not in optional:
            raise ParseError(f"{where}: undeclared key {key!r}")
    return d


def _resolve(d, where, decl):
    """The JSON object d checked against decl {key: (form, default)}, with
    defaults filled in and pairs as tuples.  Ints, never bools, are at
    least 1 unless their default is 0 or (0, 0)."""
    _obj(d, where, [k for k, (_, dft) in decl.items() if dft is None], decl)
    out = {}
    for key, (form, default) in decl.items():
        v = d.get(key, default)
        least = 0 if default in (0, (0, 0)) else 1
        ints = ([v] if form is int else
                v if isinstance(v, (list, tuple)) and len(v) == 2 else [None])
        if not (type(v) in (int, float) if form is float
                else all(type(x) is int and x >= least for x in ints)):
            raise ParseError(f"{where}: {key} must be "
                             f"{_FORMS[form].format(least)}, got {v!r}")
        out[key] = tuple(v) if form is tuple else v
    return out


def _dims(v, where, n=None):
    """v as a tuple of positive integers (exactly n of them when given)."""
    if not (isinstance(v, list) and v and (n is None or len(v) == n)
            and all(type(d) is int and d >= 1 for d in v)):
        raise ParseError(f"{where}: shape must be a list of "
                         f"{n or 'some'} positive integers, got {v!r}")
    return tuple(v)


def _names(v, where):
    if not (isinstance(v, list) and all(isinstance(x, str) for x in v)):
        raise ParseError(f"{where}: expected a list of names, got {v!r}")
    return list(v)


def _quant_of(d, where):
    try:
        return QuantInfo(*map(float, _resolve(d, where,
                                              OPS["fix"][1]).values()))
    except (OverflowError, ShapeError) as e:
        raise ParseError(f"{where}: bad quant: {e}") from None


def _check_attrs(node):
    where = f"node {node.id} ({node.op}) attrs"
    attrs = _resolve(node.attrs, where, OPS[node.op][1])
    kernel, pad = attrs.get("kernel"), attrs.get("padding")
    # deconv shapes and both lowering paths read kernel[0] for both axes
    if node.op == "deconv" and kernel[0] != kernel[1]:
        raise ParseError(f"{where}: deconv kernel must be square, got "
                         f"{list(kernel)}")
    # a pool window lying wholly in the padding has no value to take
    if node.op == "maxpool" and any(p >= k for p, k in zip(pad, kernel)):
        raise ParseError(f"{where}: padding {list(pad)} must be smaller than "
                         f"kernel {list(kernel)}")
    if node.op == "fix":
        _quant_of(attrs, where)
    return attrs


def _check_params(node, c_in, err):
    """A conv/deconv's weights must be (c_out, kh, kw, c_in) and its bias
    c_out int32 values."""
    want = (node.attrs["c_out"], *node.attrs["kernel"], c_in)
    w, b = node.params.weights, node.params.bias
    if w.shape != want:
        raise err(f"node {node.id}: weights {list(w.shape)} do not match "
                  f"(c_out, kh, kw, c_in) = {list(want)}")
    if b.shape != (want[0],) or b.dtype != np.int32:
        raise err(f"node {node.id}: bias must be {want[0]} int32 values, "
                  f"got {b.size} {b.dtype}")


def parse_graph(text):
    """Parse the JSON graph document into a validated Graph.

    Quantizer ("fix") and parameter ("const") nodes stay explicit; folding
    is a separate pass.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    for key, v in _obj(doc, "graph", ("tensors", "nodes", "inputs",
                                      "outputs")).items():
        if not isinstance(v, list):
            raise ParseError(f"graph: {key} must be a list")

    tensors = {}
    for i, td in enumerate(doc["tensors"]):
        _obj(td, f"tensors[{i}]", ("name", "shape"), ("quant",))
        name, = _names([td["name"]], f"tensors[{i}]")
        where = f"tensor {name}"
        q = _quant_of(td["quant"], f"{where} quant") if "quant" in td else None
        t = TensorRef(name, _dims(td["shape"], where, 3), quant=q)
        if t.name in tensors:
            raise ParseError(f"duplicate tensor {t.name}")
        tensors[t.name] = t

    nodes = []
    param_data = {}
    seen = set()
    for i, nd in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        _obj(nd, where, ("id", "op", "output"), ("inputs", "attrs", "params"))
        nid, op, out = _names([nd["id"], nd["op"], nd["output"]], where)
        if nid in seen:
            raise ParseError(f"duplicate node id {nid}")
        seen.add(nid)
        node = Node(nid, op, _names(nd.get("inputs", []), f"node {nid}"),
                    out, nd.get("attrs", {}))
        node.attrs = _check_attrs(node)
        where = f"node {nid} params"
        if node.op == "const":
            p = _obj(nd.get("params", {}), where, ("data", "dtype"),
                     ("shape",))
            if p["dtype"] not in ("int8", "int32"):
                raise ParseError(f"{where}: bad dtype {p['dtype']!r}")
            arr = _decode(p["data"], "<i1" if p["dtype"] == "int8" else "<i4",
                          where)
            if "shape" in p:
                shape = _dims(p["shape"], where)
                if arr.size != int(np.prod(shape)):
                    raise ParseError(f"{where}: {arr.size} values do not "
                                     f"fill shape {list(shape)}")
                arr = arr.reshape(shape)
            param_data[node.output] = arr
        elif "params" in nd:
            # pre-folded convenience form: weights/bias directly on the node
            if node.op not in ("conv", "deconv"):
                raise ParseError(f"{where}: {node.op} takes none")
            p = _obj(nd["params"], where, ("shape", "weights", "quant"),
                     ("bias",))
            shape = _dims(p["shape"], where)
            w = _decode(p["weights"], "<i1", where)
            if w.size != int(np.prod(shape)):
                raise ParseError(f"{where}: {w.size} weight bytes do not "
                                 f"fill shape {list(shape)}")
            w = w.reshape(shape)
            b = (_decode(p["bias"], "<i4", where) if "bias" in p
                 else np.zeros(shape[0], np.int32))
            node.params = WeightSpec(w, b, _quant_of(p["quant"],
                                                     f"{where} quant"))
        nodes.append(node)

    g = Graph(tensors, nodes, _names(doc["inputs"], "graph"),
              _names(doc["outputs"], "graph"), param_data)
    _validate(g)
    return g


def _validate(g):
    order = _topo_order(g, err=ParseError)

    for name in g.inputs + g.outputs:
        if name not in g.tensors:
            raise ParseError(f"interface tensor {name} not declared")
    for name in g.inputs:
        prod = g.producer.get(name)
        if prod is None or g.nodes[prod].op != "input":
            raise ParseError(f"graph input {name} must be produced by an "
                             f"input node")
        if g.nodes[prod].inputs:
            raise ParseError(f"input node {prod} must have no inputs")

    # shape consistency along the dataflow; parameter pseudo-tensors flow
    # through their quantizers untouched
    shapes = dict()
    params = set(g.param_data)
    for name, t in g.tensors.items():
        shapes[name] = t.shape
    for name, arr in g.param_data.items():
        shapes.setdefault(name, tuple(arr.shape))
    for nid in order:
        n = g.nodes[nid]
        for t in n.inputs:
            if t not in shapes:
                raise ParseError(f"node {n.id} reads undeclared tensor {t}")
        if n.op == "fix" and n.inputs and n.inputs[0] in params:
            shapes[n.output] = shapes[n.inputs[0]]
            params.add(n.output)
            continue
        act_shapes = [shapes[t] for t in n.inputs if t not in params]
        least, most = OPS[n.op][0]
        if (len(act_shapes) < least
                or most is not None and len(act_shapes) > most):
            raise ParseError(f"node {n.id} ({n.op}): {len(act_shapes)} "
                             f"activation inputs")
        if n.op in ("input", "const"):
            continue
        if n.params is not None:
            _check_params(n, act_shapes[0][2], ParseError)
        want = infer_out_shape(n, act_shapes)
        shapes.setdefault(n.output, want)
        if n.output in g.tensors:
            got = g.tensors[n.output].shape
            if got != want:
                raise ShapeError(
                    f"node {n.id}: declared output {got}, computed {want}")

    # every node connected to an input and an output
    fwd = _reachable(g, [g.producer.get(t) for t in g.inputs
                         if t in g.producer]
                     + [n.id for n in g.nodes.values() if n.op in
                        ("input", "const")],
                     g.successors)
    bwd = _reachable(g, [g.producer[t] for t in g.outputs
                         if t in g.producer], g.predecessors)
    for nid in g.nodes:
        if nid not in fwd or nid not in bwd:
            raise ParseError(f"node {nid} not on an input-to-output path")


def _reachable(g, seeds, step):
    seen = set()
    stack = [s for s in seeds if s is not None]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(step(nid))
    return seen


def _topo_order(g, err=CycleError):
    indeg = {nid: 0 for nid in g.nodes}
    for nid in g.nodes:
        for _ in g.predecessors(nid):
            indeg[nid] += 1
    ready = [nid for nid, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for s in g.successors(nid):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) != len(g.nodes):
        raise err("graph has a cycle")
    return order


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def fold_constants_and_quantizers(g):
    """Assimilate fix and const nodes into their consuming compute nodes.

    After this pass only input and compute nodes remain; conv/deconv nodes
    carry a WeightSpec and every activation tensor has quantization info.
    """
    tensors = dict(g.tensors)
    nodes = {nid: replace_node(n) for nid, n in g.nodes.items()}
    param_data = dict(g.param_data)
    param_quant = {}
    inputs = list(g.inputs)

    # fix on a parameter pseudo-tensor attaches quant to the payload;
    # fix on an activation retargets its producer's output tensor
    for n in list(nodes.values()):
        if n.op != "fix":
            continue
        src = n.inputs[0]
        q = QuantInfo(n.attrs["lo"], n.attrs["hi"], n.attrs["step"])
        if src in param_data:
            param_data[n.output] = param_data[src]
            param_quant[n.output] = q
            del nodes[n.id]
            continue
        if src not in g.producer:
            raise FoldError(f"fix {n.id} reads unproduced tensor {src}")
        others = [c for c in g.consumers.get(src, []) if c != n.id]
        if others:
            raise FoldError(
                f"fix {n.id}: tensor {src} also read by {others}; cannot "
                f"retarget its producer")
        declared = tensors[src].quant if src in tensors else None
        if declared is not None and declared != q:
            raise FoldError(
                f"fix {n.id}: tensor {src} already quantized differently")
        if n.output in tensors and tensors[n.output].quant is None:
            tensors[n.output] = replace(tensors[n.output], quant=q)
        prod = nodes[g.producer[src]]
        prod.output = n.output
        if src in inputs:
            inputs[inputs.index(src)] = n.output
        tensors.pop(src, None)
        del nodes[n.id]

    # rebuild consumer view after retargeting
    consumers = {}
    for n in nodes.values():
        for t in n.inputs:
            consumers.setdefault(t, []).append(n.id)

    for n in list(nodes.values()):
        if n.op == "const":
            for c in consumers.get(n.output, []):
                if nodes[c].op not in ("conv", "deconv"):
                    raise FoldError(
                        f"const {n.id} feeds non-conv node {c}")
            del nodes[n.id]

    for n in nodes.values():
        if n.op not in ("conv", "deconv") or n.params is not None:
            continue
        acts = [t for t in n.inputs if t not in param_data]
        prms = [t for t in n.inputs if t in param_data]
        if len(acts) != 1 or len(prms) not in (1, 2):
            raise FoldError(f"node {n.id}: cannot split inputs {n.inputs} "
                            f"into one activation and weights/bias")
        wname = next((t for t in prms if param_data[t].dtype == np.int8), None)
        if wname is None:
            raise FoldError(f"node {n.id}: no int8 weight operand")
        if wname not in param_quant:
            raise FoldError(f"node {n.id}: weights {wname} have no quantizer")
        w = param_data[wname]
        bname = next((t for t in prms if t != wname), None)
        b = (param_data[bname] if bname
             else np.zeros(n.attrs["c_out"], np.int32))
        n.params = WeightSpec(w, b, param_quant[wname])
        n.inputs = acts
        if acts[0] in tensors:
            _check_params(n, tensors[acts[0]].shape[2], FoldError)

    for n in nodes.values():
        for t in n.inputs:
            if t not in tensors:
                raise FoldError(f"node {n.id} still reads folded tensor {t}")
        if n.output in tensors and tensors[n.output].quant is None:
            raise FoldError(f"tensor {n.output} has no quantization info")

    return Graph(tensors, list(nodes.values()), inputs, g.outputs, {})


def replace_node(n):
    return Node(n.id, n.op, list(n.inputs), n.output, dict(n.attrs),
                n.params, n.fused)


# ---------------------------------------------------------------------------
# super-layer fusion selection
# ---------------------------------------------------------------------------

def fuse_superlayers(g, cfg):
    """Replace eligible conv -> maxpool pairs with fused super-nodes.

    Eligibility: the intermediate tensor has exactly one consumer and a
    valid production/consumption steady state exists on `cfg` (plan_fusion).
    conv -> eltwise pairs stay separate: streaming the residual operand
    while the convolution runs would need a second concurrent reader on one
    FM memory, which the port model forbids.
    """
    from .lowering import plan_fusion

    nodes = {nid: replace_node(n) for nid, n in g.nodes.items()}
    tensors = dict(g.tensors)

    for n in sorted(g.nodes.values(), key=lambda n: n.id):
        if n.op != "conv" or n.fused is not None:
            continue
        mid = n.output
        readers = g.consumers.get(mid, [])
        if len(readers) != 1 or mid in g.outputs:
            continue
        consumer = g.nodes[readers[0]]
        if consumer.op != "maxpool":
            continue
        geom = node_geometry(g, n)
        pool = node_geometry(g, consumer)
        plan = plan_fusion(geom, pool, cfg)
        if not plan.enabled:
            continue
        fused = nodes[n.id]
        fused.fused = Fused("maxpool", tensors[mid], pool.kernel,
                            pool.stride, pool.padding)
        fused.output = consumer.output
        del nodes[consumer.id]
        del tensors[mid]

    return Graph(tensors, list(nodes.values()), g.inputs, g.outputs,
                 g.param_data)


def node_geometry(g, n):
    """Geometry summary of a conv or max pool, handed to the lowering
    module."""
    from .lowering import OpGeometry
    in_shape = g.tensors[n.inputs[0]].shape if n.inputs else None
    out_shape = g.tensors[n.output].shape if n.output in g.tensors else None
    a = n.attrs
    return OpGeometry(n.op, in_shape, out_shape, a["kernel"], a["stride"],
                      a["padding"])


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------

def topological_schedule(g):
    """Deterministic schedule: ready nodes taken in ascending id order."""
    return Schedule(tuple(_topo_order(g)))


def _peak_footprint(g, order):
    """Worst-case sum of live activation tensor sizes along the order."""
    pos = {nid: i for i, nid in enumerate(order)}
    last_read = {}
    for nid in order:
        for t in g.nodes[nid].inputs:
            if t in g.tensors:
                last_read[t] = max(last_read.get(t, -1), pos[nid])
    peak = 0
    for i, nid in enumerate(order):
        live = 0
        for t, ref in g.tensors.items():
            start = pos.get(g.producer.get(t), -1 if t in g.inputs else None)
            if start is None:
                continue
            end = last_read.get(t, start if start >= 0 else -1)
            if start <= i <= max(end, start):
                live += ref.nbytes
        peak = max(peak, live)
    return peak


def explore_schedules(g, budget):
    """Enumerate up to `budget` schedules, cheapest peak footprint first."""
    if budget <= 0:
        return []
    found = []

    indeg = {nid: len(g.predecessors(nid)) for nid in g.nodes}

    def rec(order, indeg):
        if len(found) >= budget:
            return
        if len(order) == len(g.nodes):
            found.append(tuple(order))
            return
        ready = sorted(nid for nid, d in indeg.items()
                       if d == 0 and nid not in order_set)
        for nid in ready:
            order.append(nid)
            order_set.add(nid)
            for s in g.successors(nid):
                indeg[s] -= 1
            rec(order, indeg)
            for s in g.successors(nid):
                indeg[s] += 1
            order_set.discard(nid)
            order.pop()
            if len(found) >= budget:
                return

    order_set = set()
    rec([], indeg)
    ranked = [(Schedule(o), _peak_footprint(g, o)) for o in found]
    ranked.sort(key=lambda se: (se[1], se[0].order))
    return ranked
