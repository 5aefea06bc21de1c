"""NIR-style hardware-neutral graph interchange for deployed models.

The programming image (:mod:`repro.snc.export`) serializes *crossbar
contents* — it presumes the target is this repo's SNC.  Following the
Neuromorphic Intermediate Representation (NIR) deployment flow (see
PAPERS.md: SpiNNaker2 + NIR), this module serializes the *model graph*
itself in a documented, versioned, vocabulary-restricted format that any
backend can consume:

- **Nodes** carry a ``kind`` from the fixed vocabulary below plus plain
  scalar ``attrs``; weights/buffers live as named float64 arrays.
- **Containers** (``sequence``, ``residual``, ``graph``) reference their
  children by id; a flat **edge list** over computation nodes (with
  synthetic ``#sum`` junctions for residual joins) gives graph consumers
  the dataflow without understanding the hierarchy.
- Models built from custom classes (LeNet, AlexNet, ResNet blocks) are
  *lowered* to the vocabulary on export — the importer never needs the
  original classes, which is what makes the format hardware-neutral.
  The plan compiler (:func:`repro.runtime.plan.compile_plan`) lowers
  through the same :data:`LOWERERS` registry, so export and compilation
  share one lowering.

Round-trip guarantee: ``import_nir(export_nir(m))`` rebuilds a module
whose forward pass is the same op sequence over byte-identical float64
parameters, so logits agree **bit for bit** with the original (the
differential conformance suite locks this for every registered model).

The on-disk form is a single ``.npz``: arrays under ``<node_id>:<name>``
and the JSON header under ``__nir__`` (uint8 bytes), the same idiom as
the programming image.  See ``docs/streaming.md`` for the format table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.deployment import _PrependInput
from repro.core.modules import InputQuantizer, QuantizedActivation
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Residual,
    Sequential,
)

NIR_FORMAT = "repro-nir"
NIR_FORMAT_VERSION = 1

#: Every node kind the format may contain.  ``sum`` only appears in the
#: edge list (residual join junctions), never as a hierarchy node.
NODE_KINDS: Tuple[str, ...] = (
    "graph", "sequence", "residual", "sum",
    "conv2d", "affine", "batch_norm2d",
    "relu", "identity", "flatten", "dropout",
    "max_pool2d", "avg_pool2d", "global_avg_pool2d",
    "input_quantizer", "quantized_activation",
)


@dataclass
class NIRNode:
    """One node of the interchange graph."""

    id: str
    kind: str
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind, "attrs": dict(self.attrs),
                "children": list(self.children)}


@dataclass
class NIRGraph:
    """A complete interchange graph plus its parameter arrays."""

    root: str
    nodes: Dict[str, NIRNode]
    edges: List[Tuple[str, str]]
    arrays: Dict[str, np.ndarray]
    model: Optional[str] = None
    version: int = NIR_FORMAT_VERSION

    def node(self, node_id: str) -> NIRNode:
        return self.nodes[node_id]

    def meta(self) -> dict:
        """The JSON header (everything except the arrays)."""
        return {
            "format": NIR_FORMAT,
            "version": self.version,
            "model": self.model,
            "root": self.root,
            "nodes": [n.to_dict() for n in self.nodes.values()],
            "edges": [list(e) for e in self.edges],
        }

    def save(self, path: str) -> None:
        """Write the graph as one ``.npz`` archive."""
        payload = dict(self.arrays)
        payload["__nir__"] = np.frombuffer(
            json.dumps(self.meta()).encode(), dtype=np.uint8
        )
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(path, **payload)


# ---------------------------------------------------------------------------
# Lowering: custom model classes → the structural vocabulary
# ---------------------------------------------------------------------------

#: class name → lowering function ``fn(module, lower)`` producing a
#: vocabulary-only module that *shares* the original parameter tensors (no
#: copies; export reads data).  ``lower`` lowers a child with the caller's
#: settings — call it instead of :func:`lower_module` on children.
LOWERERS: Dict[str, Callable[[Module, Callable[[Module], Module]], Module]] = {}


def register_lowerer(class_name: str) -> Callable:
    """Decorator: register a lowering ``fn(module, lower)`` for a custom class."""
    def decorate(fn: Callable) -> Callable:
        LOWERERS[class_name] = fn
        return fn
    return decorate


def _chain(module: Module, lower: Callable[[Module], Module]) -> Sequential:
    """Lower a declaration-order linear-chain model to a ``Sequential``.

    Valid only for classes whose ``forward`` applies the registered
    children in declaration order (LeNet, AlexNetCifar are written that
    way on purpose).
    """
    return Sequential(*[lower(child) for child in module._modules.values()])


LOWERERS["LeNet"] = _chain
LOWERERS["AlexNetCifar"] = _chain


@register_lowerer("BasicBlock")
def _lower_basic_block(block: Module, lower: Callable[[Module], Module]) -> Module:
    # forward: relu2(bn2(conv2(relu1(bn1(conv1 x)))) + shortcut(x))
    body = Sequential(
        lower(block.conv1), lower(block.bn1), lower(block.relu1),
        lower(block.conv2), lower(block.bn2),
    )
    residual = Residual(body, lower(block.shortcut))
    residual.activation = lower(block.relu2)
    return residual


@register_lowerer("ResNetCifar")
def _lower_resnet(model: Module, lower: Callable[[Module], Module]) -> Module:
    return Sequential(
        lower(model.stem), lower(model.stem_bn), lower(model.stem_relu),
        *[lower(b) for b in model.stages],
        lower(model.pool), lower(model.fc),
    )


_VOCABULARY_CLASSES = (
    _PrependInput, Sequential, Residual, Conv2d, Linear, BatchNorm2d,
    ReLU, Identity, Flatten, Dropout, MaxPool2d, AvgPool2d,
    GlobalAvgPool2d, InputQuantizer, QuantizedActivation,
)


def lower_module(module: Module, leaves: Tuple[type, ...] = ()) -> Module:
    """Return a vocabulary-only equivalent of ``module`` (may be itself).

    ``leaves`` names extra classes kept as they are, unlowered, wherever
    they appear — the plan compiler (:func:`repro.runtime.plan.compile_plan`)
    lowers through this same function and passes its atomic layers
    (spiking crossbar layers included) so they stay leaves.
    """
    def lower(child: Module) -> Module:
        return lower_module(child, leaves)

    if leaves and isinstance(module, leaves):
        return module
    if type(module).__name__ in LOWERERS and not isinstance(module, _VOCABULARY_CLASSES):
        return LOWERERS[type(module).__name__](module, lower)
    if isinstance(module, _PrependInput):
        lowered = lower(module.network)
        return module if lowered is module.network \
            else _PrependInput(module.input_quantizer, lowered)
    if isinstance(module, Sequential):
        lowered = [lower(child) for child in module.layers]
        return module if all(a is b for a, b in zip(lowered, module.layers)) \
            else Sequential(*lowered)
    if isinstance(module, Residual):
        body = lower(module.body)
        shortcut = lower(module.shortcut)
        activation = lower(module.activation)
        if body is module.body and shortcut is module.shortcut \
                and activation is module.activation:
            return module
        rebuilt = Residual(body, shortcut)
        rebuilt.activation = activation
        return rebuilt
    if isinstance(module, QuantizedActivation):
        inner = lower(module.inner)
        return module if inner is module.inner else QuantizedActivation(
            inner, module.bits, gain=module.gain, enabled=module.enabled
        )
    if isinstance(module, _VOCABULARY_CLASSES):
        return module
    raise ValueError(
        f"{type(module).__name__} is not NIR-exportable: not in the vocabulary "
        f"and no lowerer is registered (register_lowerer)"
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _serialize(module: Module, node_id: str, nodes: Dict[str, NIRNode],
               arrays: Dict[str, np.ndarray]) -> None:
    if isinstance(module, _PrependInput):
        node = NIRNode(node_id, "graph",
                       children=[f"{node_id}/input", f"{node_id}/network"])
        nodes[node_id] = node
        _serialize(module.input_quantizer, f"{node_id}/input", nodes, arrays)
        _serialize(module.network, f"{node_id}/network", nodes, arrays)
    elif isinstance(module, Sequential):
        children = [f"{node_id}/{i}" for i in range(len(module.layers))]
        nodes[node_id] = NIRNode(node_id, "sequence", children=children)
        for child_id, child in zip(children, module.layers):
            _serialize(child, child_id, nodes, arrays)
    elif isinstance(module, Residual):
        children = [f"{node_id}/body", f"{node_id}/shortcut", f"{node_id}/activation"]
        nodes[node_id] = NIRNode(node_id, "residual", children=children)
        _serialize(module.body, children[0], nodes, arrays)
        _serialize(module.shortcut, children[1], nodes, arrays)
        _serialize(module.activation, children[2], nodes, arrays)
    elif isinstance(module, QuantizedActivation):
        nodes[node_id] = NIRNode(
            node_id, "quantized_activation",
            attrs={"bits": module.bits, "gain": module.gain,
                   "enabled": module.enabled},
            children=[f"{node_id}/inner"],
        )
        _serialize(module.inner, f"{node_id}/inner", nodes, arrays)
    elif isinstance(module, Conv2d):
        nodes[node_id] = NIRNode(node_id, "conv2d", attrs={
            "in_channels": module.in_channels,
            "out_channels": module.out_channels,
            "kernel_size": module.kernel_size,
            "stride": module.stride,
            "padding": module.padding,
            "bias": module.bias is not None,
        })
        arrays[f"{node_id}:weight"] = module.weight.data
        if module.bias is not None:
            arrays[f"{node_id}:bias"] = module.bias.data
    elif isinstance(module, Linear):
        nodes[node_id] = NIRNode(node_id, "affine", attrs={
            "in_features": module.in_features,
            "out_features": module.out_features,
            "bias": module.bias is not None,
        })
        arrays[f"{node_id}:weight"] = module.weight.data
        if module.bias is not None:
            arrays[f"{node_id}:bias"] = module.bias.data
    elif isinstance(module, BatchNorm2d):
        nodes[node_id] = NIRNode(node_id, "batch_norm2d", attrs={
            "num_features": module.num_features,
            "momentum": module.momentum,
            "eps": module.eps,
        })
        arrays[f"{node_id}:gamma"] = module.gamma.data
        arrays[f"{node_id}:beta"] = module.beta.data
        arrays[f"{node_id}:running_mean"] = module.running_mean
        arrays[f"{node_id}:running_var"] = module.running_var
    elif isinstance(module, InputQuantizer):
        nodes[node_id] = NIRNode(node_id, "input_quantizer", attrs={
            "bits": module.bits, "offset": module.offset, "gain": module.gain,
        })
    elif isinstance(module, MaxPool2d):
        nodes[node_id] = NIRNode(node_id, "max_pool2d", attrs={
            "kernel_size": module.kernel_size, "stride": module.stride,
        })
    elif isinstance(module, AvgPool2d):
        nodes[node_id] = NIRNode(node_id, "avg_pool2d", attrs={
            "kernel_size": module.kernel_size, "stride": module.stride,
        })
    elif isinstance(module, Dropout):
        nodes[node_id] = NIRNode(node_id, "dropout", attrs={"p": module.p})
    elif isinstance(module, ReLU):
        nodes[node_id] = NIRNode(node_id, "relu")
    elif isinstance(module, Flatten):
        nodes[node_id] = NIRNode(node_id, "flatten")
    elif isinstance(module, GlobalAvgPool2d):
        nodes[node_id] = NIRNode(node_id, "global_avg_pool2d")
    elif isinstance(module, Identity):
        nodes[node_id] = NIRNode(node_id, "identity")
    else:  # unreachable after lower_module, kept as a guard
        raise ValueError(f"cannot serialize {type(module).__name__}")


def _wire(node_id: str, nodes: Dict[str, NIRNode],
          edges: List[Tuple[str, str]]) -> Tuple[List[str], List[str]]:
    """Dataflow endpoints of a subtree: (entry ids, exit ids)."""
    node = nodes[node_id]
    if node.kind in ("graph", "sequence"):
        entries: List[str] = []
        exits: List[str] = []
        for child_id in node.children:
            child_in, child_out = _wire(child_id, nodes, edges)
            if not child_in:
                continue
            if not entries:
                entries = child_in
            else:
                edges.extend((src, dst) for src in exits for dst in child_in)
            exits = child_out
        return entries, exits
    if node.kind == "residual":
        body_id, shortcut_id, activation_id = node.children
        body_in, body_out = _wire(body_id, nodes, edges)
        short_in, short_out = _wire(shortcut_id, nodes, edges)
        act_in, act_out = _wire(activation_id, nodes, edges)
        junction = f"{node_id}#sum"
        edges.extend((src, junction) for src in body_out + short_out)
        edges.extend((junction, dst) for dst in act_in)
        return body_in + short_in, act_out
    # quantized_activation is a wiring leaf (one IFC+counter stage); its
    # inner activation is hierarchy detail, not a separate dataflow node.
    return [node_id], [node_id]


def to_nir(module: Module, model: Optional[str] = None) -> NIRGraph:
    """Lower ``module`` to the vocabulary and build its interchange graph."""
    lowered = lower_module(module)
    nodes: Dict[str, NIRNode] = {}
    arrays: Dict[str, np.ndarray] = {}
    _serialize(lowered, "model", nodes, arrays)
    edges: List[Tuple[str, str]] = []
    _wire("model", nodes, edges)
    return NIRGraph(root="model", nodes=nodes, edges=edges,
                    arrays=arrays, model=model)


def export_nir(module: Module, path: str, model: Optional[str] = None) -> NIRGraph:
    """Export a model to an ``.npz`` interchange archive; returns the graph."""
    graph = to_nir(module, model=model)
    graph.save(path)
    return graph


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------

def load_nir(path: str) -> NIRGraph:
    """Read an interchange archive back into an :class:`NIRGraph`.

    Raises ``ValueError`` on a wrong format tag or version — forward
    compatibility is explicit, never silent.
    """
    with np.load(path) as archive:
        if "__nir__" not in archive:
            raise ValueError(f"{path!r} is not a NIR archive (missing __nir__ header)")
        meta = json.loads(archive["__nir__"].tobytes().decode())
        if meta.get("format") != NIR_FORMAT:
            raise ValueError(
                f"unsupported NIR format tag {meta.get('format')!r} "
                f"(expected {NIR_FORMAT!r})"
            )
        if meta.get("version") != NIR_FORMAT_VERSION:
            raise ValueError(
                f"unsupported NIR format version {meta.get('version')!r} "
                f"(this importer reads version {NIR_FORMAT_VERSION})"
            )
        arrays = {key: archive[key] for key in archive.files if key != "__nir__"}
    nodes = {
        n["id"]: NIRNode(n["id"], n["kind"], dict(n["attrs"]), list(n["children"]))
        for n in meta["nodes"]
    }
    return NIRGraph(
        root=meta["root"], nodes=nodes,
        edges=[tuple(e) for e in meta["edges"]],
        arrays=arrays, model=meta.get("model"), version=meta["version"],
    )


def _array(graph: NIRGraph, node_id: str, name: str) -> np.ndarray:
    key = f"{node_id}:{name}"
    if key not in graph.arrays:
        raise ValueError(f"NIR archive missing array {key!r}")
    return graph.arrays[key]


def _build(graph: NIRGraph, node_id: str) -> Module:
    node = graph.node(node_id)
    kind, attrs = node.kind, node.attrs
    if kind == "graph":
        input_id, network_id = node.children
        return _PrependInput(_build(graph, input_id), _build(graph, network_id))
    if kind == "sequence":
        return Sequential(*[_build(graph, child) for child in node.children])
    if kind == "residual":
        body_id, shortcut_id, activation_id = node.children
        residual = Residual(_build(graph, body_id), _build(graph, shortcut_id))
        residual.activation = _build(graph, activation_id)
        return residual
    if kind == "quantized_activation":
        return QuantizedActivation(
            _build(graph, node.children[0]), int(attrs["bits"]),
            gain=float(attrs["gain"]), enabled=bool(attrs["enabled"]),
        )
    if kind == "conv2d":
        conv = Conv2d(
            int(attrs["in_channels"]), int(attrs["out_channels"]),
            int(attrs["kernel_size"]), stride=int(attrs["stride"]),
            padding=int(attrs["padding"]), bias=bool(attrs["bias"]),
            rng=np.random.default_rng(0),
        )
        conv.weight.data = np.array(_array(graph, node_id, "weight"))
        if conv.bias is not None:
            conv.bias.data = np.array(_array(graph, node_id, "bias"))
        return conv
    if kind == "affine":
        linear = Linear(
            int(attrs["in_features"]), int(attrs["out_features"]),
            bias=bool(attrs["bias"]), rng=np.random.default_rng(0),
        )
        linear.weight.data = np.array(_array(graph, node_id, "weight"))
        if linear.bias is not None:
            linear.bias.data = np.array(_array(graph, node_id, "bias"))
        return linear
    if kind == "batch_norm2d":
        bn = BatchNorm2d(int(attrs["num_features"]),
                         momentum=float(attrs["momentum"]), eps=float(attrs["eps"]))
        bn.gamma.data = np.array(_array(graph, node_id, "gamma"))
        bn.beta.data = np.array(_array(graph, node_id, "beta"))
        bn.running_mean[...] = _array(graph, node_id, "running_mean")
        bn.running_var[...] = _array(graph, node_id, "running_var")
        return bn
    if kind == "input_quantizer":
        return InputQuantizer(int(attrs["bits"]), offset=float(attrs["offset"]),
                              gain=float(attrs["gain"]))
    if kind == "max_pool2d":
        return MaxPool2d(int(attrs["kernel_size"]), stride=int(attrs["stride"]))
    if kind == "avg_pool2d":
        return AvgPool2d(int(attrs["kernel_size"]), stride=int(attrs["stride"]))
    if kind == "dropout":
        return Dropout(p=float(attrs["p"]), rng=np.random.default_rng(0))
    if kind == "relu":
        return ReLU()
    if kind == "flatten":
        return Flatten()
    if kind == "global_avg_pool2d":
        return GlobalAvgPool2d()
    if kind == "identity":
        return Identity()
    raise ValueError(f"unknown NIR node kind {kind!r} at {node_id!r}")


def from_nir(graph: NIRGraph) -> Module:
    """Rebuild an executable module tree from an interchange graph.

    The result is in eval mode (interchange carries deployed models).
    """
    module = _build(graph, graph.root)
    module.eval()
    return module


def import_nir(path: str) -> Module:
    """Load an archive and rebuild the model: ``from_nir(load_nir(path))``."""
    return from_nir(load_nir(path))


# ---------------------------------------------------------------------------
# Validation (QN8xx)
# ---------------------------------------------------------------------------

_EXPECTED_ARRAYS: Dict[str, Tuple[str, ...]] = {
    "conv2d": ("weight",),
    "affine": ("weight",),
    "batch_norm2d": ("gamma", "beta", "running_mean", "running_var"),
}


def validate_nir(graph: NIRGraph):
    """Static validation of an interchange graph → ``CheckReport``.

    Proves the properties the importer depends on (QN802–QN804) and the
    paper's uniformity property over quantized activations (QN805).
    QN801 (format/version) is enforced at :func:`load_nir` time; it is
    re-checked here for graphs built by other producers.
    """
    from repro.check.diagnostics import CheckReport

    report = CheckReport(f"nir:{graph.model or graph.root}")
    if graph.version != NIR_FORMAT_VERSION:
        report.add(
            "QN801", "error", "",
            f"format version {graph.version} unsupported "
            f"(importer reads {NIR_FORMAT_VERSION})",
            hint="re-export with this toolchain or migrate the archive",
        )
    if graph.root not in graph.nodes:
        report.add("QN804", "error", "",
                   f"root node {graph.root!r} missing from the node table",
                   hint="the exporter must emit the root node first")
        return report
    known_ids = set(graph.nodes)
    junctions = {f"{n.id}#sum" for n in graph.nodes.values() if n.kind == "residual"}
    for node in graph.nodes.values():
        if node.kind not in NODE_KINDS:
            report.add("QN802", "error", node.id,
                       f"node kind {node.kind!r} is not in the vocabulary",
                       hint=f"supported kinds: {', '.join(NODE_KINDS)}")
        for child in node.children:
            if child not in known_ids:
                report.add("QN804", "error", node.id,
                           f"child reference {child!r} is dangling",
                           hint="every child id must appear in the node table")
        for name in _EXPECTED_ARRAYS.get(node.kind, ()):
            if f"{node.id}:{name}" not in graph.arrays:
                report.add("QN803", "error", node.id,
                           f"required array {name!r} is missing",
                           hint="re-export; the archive is incomplete")
        if node.kind == "conv2d" and f"{node.id}:weight" in graph.arrays:
            expected = (int(node.attrs["out_channels"]), int(node.attrs["in_channels"]),
                        int(node.attrs["kernel_size"]), int(node.attrs["kernel_size"]))
            actual = tuple(graph.arrays[f"{node.id}:weight"].shape)
            if actual != expected:
                report.add("QN803", "error", node.id,
                           f"weight shape {actual} contradicts attrs {expected}",
                           hint="attrs and arrays must describe the same layer")
        if node.kind == "affine" and f"{node.id}:weight" in graph.arrays:
            expected = (int(node.attrs["out_features"]), int(node.attrs["in_features"]))
            actual = tuple(graph.arrays[f"{node.id}:weight"].shape)
            if actual != expected:
                report.add("QN803", "error", node.id,
                           f"weight shape {actual} contradicts attrs {expected}",
                           hint="attrs and arrays must describe the same layer")
    for src, dst in graph.edges:
        for endpoint in (src, dst):
            if endpoint not in known_ids and endpoint not in junctions:
                report.add("QN804", "error", "",
                           f"edge endpoint {endpoint!r} is dangling",
                           hint="edges may only reference nodes or #sum junctions")
    quantizers = [n for n in graph.nodes.values() if n.kind == "quantized_activation"]
    if quantizers:
        bits = {int(n.attrs["bits"]) for n in quantizers}
        gains = {float(n.attrs["gain"]) for n in quantizers}
        if len(bits) > 1 or len(gains) > 1:
            report.add(
                "QN805", "warning", "",
                f"quantized activations are not uniform: bits={sorted(bits)}, "
                f"gains={sorted(gains)}",
                hint="the paper's design uses one M and one gain network-wide",
            )
    return report


__all__ = [
    "NIR_FORMAT",
    "NIR_FORMAT_VERSION",
    "NODE_KINDS",
    "NIRGraph",
    "NIRNode",
    "export_nir",
    "from_nir",
    "import_nir",
    "load_nir",
    "lower_module",
    "register_lowerer",
    "to_nir",
    "validate_nir",
]
