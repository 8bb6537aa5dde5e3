"""Network container, the three compared architectures and model persistence.

The model file is a little-endian binary format:

    magic "FEMO" | version u32 | arch-json length u32 | arch json (utf-8)
    | tensor count u32 | per tensor: rank u32, dims u32*, float32 payload

The arch json records the layer stack, input shape and class count, so a
load rebuilds the exact network and restores bit-identical parameters.
"""

import json
import math
import os
import struct

import numpy as np

from . import blas
from . import layers as L
from .data import NUM_CLASSES
from .layers import LayerSpec, ShapeError, cross_entropy_loss
from .seeding import derive_seed

MAGIC = b"FEMO"
FORMAT_VERSION = 1
INPUT_SHAPE = (1, 48, 48)  # one image, channels first
_MAX_DIM = 1 << 31
_MAX_ELEMENTS = 1 << 31
SHARD_IMAGES = 16  # the most images one shard of a batched forward or training trunk holds


class ModelFileError(Exception):
    """Base class for persistence failures."""


class BadMagicError(ModelFileError):
    pass


class VersionMismatchError(ModelFileError):
    pass


class TruncatedFileError(ModelFileError):
    pass


class DimOverflowError(ModelFileError):
    pass


class Network:
    """Ordered layer stack, built and shape-checked by its constructor.

    Parameters are initialised from ``seed``; with ``seed`` None they are read-only
    stand-ins that allocate nothing. The final layer must be a softmax over
    ``num_classes`` outputs; any adjacent shape incompatibility raises at construction.
    Images arrive as NCHW batches, the layout of the datasets and of
    ``preprocess_face``; the layers run on the channels-last view, so the
    shape trace of a (C,H,W) ``input_shape`` starts at (H,W,C).
    """

    def __init__(self, specs: list[LayerSpec], input_shape=INPUT_SHAPE, num_classes=NUM_CLASSES,
                 seed: int | None = 0):
        self.specs = specs
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.layers: list[L.Layer] = []
        for i, spec in enumerate(specs):
            try:
                self.layers.append(spec.materialize())
            except (TypeError, ValueError) as exc:
                raise ValueError(f"layer {i} ({spec.kind}): {exc}") from exc
        rng = None if seed is None else np.random.default_rng(derive_seed(seed, "init"))
        shape = self.input_shape[1:] + self.input_shape[:1]
        self._trace = [shape]
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.build(shape, rng)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
            self._trace.append(shape)
        if not self.layers or self.layers[-1].kind != "softmax":
            raise ShapeError("network must end in a softmax layer")
        if shape != (num_classes,):
            raise ShapeError(f"final layer has shape {shape}, expected ({num_classes},)")
        # the trunk: the layers whose output is still an image
        self._trunk = next(i for i, out in enumerate(self._trace[1:]) if len(out) != 3)

    def shape_trace(self) -> list[tuple[int, ...]]:
        """Input shape followed by each layer's output shape."""
        return list(self._trace)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def _check_batch(self, x: np.ndarray):
        if x.shape[1:] != self.input_shape:
            raise ShapeError(f"expected input [N,{','.join(map(str, self.input_shape))}], "
                             f"got shape {x.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities [N,num_classes] for an [N,*input_shape] batch, in inference
        mode: no dropout, no caches. Training runs through ``loss_and_grad``. The batch
        runs as ``_each_shard``'s shards, with OpenBLAS at one thread: shard 0 on
        ``layers``, each other shard on replica layers of its own that share the
        parameters; a row depends on its shard, not on the host."""
        blas.single_thread()
        self._check_batch(x)
        out = _each_shard(x.shape[0],
                          lambda k, rows: _infer(self._replica() if k else self.layers, x[rows]))
        return out[0] if len(out) == 1 else np.concatenate(out)

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Class probabilities for one preprocessed [1,48,48] image."""
        if image.shape != self.input_shape:
            raise ShapeError(f"expected input shape {self.input_shape}, got {image.shape}")
        return self.forward(image[None])[0]

    def loss_and_grad(self, x: np.ndarray, target_onehot: np.ndarray, rng=None):
        """Mean cross-entropy over the batch plus each layer's penalty; sets every layer's grads.

        OpenBLAS runs at one thread. The trunk, every layer before ``Flatten``, runs
        forward and backward as ``_each_shard``'s shards: shard 0 on ``layers``, each
        other shard on replica layers of its own, which share the parameters and
        keep its caches until its backward. The head, the rest, runs once on the whole
        batch, its Dense products split by column on lanes of their own. Dropout masks
        are drawn from ``rng`` for the whole batch first, in layer order. Each trunk
        gradient is the shards' sum in shard order, so its bytes depend on the batch alone.

        Uses the fused softmax/cross-entropy adjoint: the gradient at the
        logits is (probs - target) / batch, injected below the softmax. The
        backward pass stops at the lowest layer with parameters, which
        computes no gradient for its input, since nothing reads it.
        """
        blas.single_thread()
        self._check_batch(x)
        if rng is None:
            rng = np.random.default_rng(0)
        n, t = x.shape[0], self._trunk
        keeps = [layer.keep_mask((n, *shape), rng) if layer.kind == "dropout" else None
                 for layer, shape in zip(self.layers, self._trace)]
        lowest = next(i for i, layer in enumerate(self.layers) if layer.params)
        x = np.moveaxis(x, 1, -1)  # NCHW -> NHWC, a view

        def trunk_forward(k, rows):
            stack = self._replica(t) if k else self.layers[:t]
            shard_keeps = [keep if keep is None else keep[rows] for keep in keeps[:t]]
            return stack, _train_forward(stack, x[rows], shard_keeps)

        out = x
        if t:  # without a trunk, no lane starts
            stacks, out = zip(*_each_shard(n, trunk_forward))
            out = out[0] if len(out) == 1 else np.concatenate(out)  # the shards' outputs go
        probs = _train_forward(self.layers[t:], out, keeps[t:])
        loss = cross_entropy_loss(probs, target_onehot)
        for layer in self.layers:
            loss += layer.penalty()
        grad = _backward(self.layers[t:-1], (probs - target_onehot) / n, lowest - t)
        if lowest < t:
            _each_shard(n, lambda k, rows: _backward(stacks[k], grad[rows], lowest))
            for replica in stacks[1:]:  # shard order
                for layer, copy in zip(self.layers, replica):
                    for g, g_copy in zip(layer.grads, copy.grads):
                        g += g_copy
        return loss, probs

    def _replica(self, stop: int | None = None) -> list[L.Layer]:
        """Fresh copies of ``layers[:stop]`` that share this network's parameter arrays."""
        replica = [spec.materialize() for spec in self.specs[:stop]]
        for copy, layer in zip(replica, self.layers):
            copy.params = layer.params
        return replica

    def describe(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "layers": [{"kind": spec.kind, "hyper": spec.hyper} for spec in self.specs],
        }


def _each_shard(n: int, work) -> list:
    """``work(k, rows)`` for each of the ceil(n/SHARD_IMAGES) contiguous shards of an
    n-image batch, in shard order: shard k holds ``rows`` n*k//count to n*(k+1)//count,
    lane j of ``blas.lane_count`` runs shards j, j+lanes, ...; one lane runs all here."""
    count = -(-n // SHARD_IMAGES) or 1
    rows = [slice(n * k // count, n * (k + 1) // count) for k in range(count)]
    lanes = blas.lane_count(count)
    out = blas.each_lane(lanes, lambda j: [work(k, rows[k]) for k in range(j, count, lanes)])
    return [out[k % lanes][k // lanes] for k in range(count)]


def _infer(layers, x):
    """An NCHW batch ``x`` through ``layers`` in inference mode."""
    out = np.moveaxis(x, 1, -1)  # NCHW -> NHWC, a view
    for layer in layers:
        out = layer.forward(out, False)
    return out


def _train_forward(layers, x, keeps):
    """``x`` through ``layers`` in training mode, ``keeps[i]`` the mask of dropout ``layers[i]``."""
    for layer, keep in zip(layers, keeps):
        x = layer.forward(x, True) if keep is None else layer.forward(x, True, keep=keep)
    return x


def _backward(layers, grad, lowest):
    """Backward from the top of ``layers`` to ``layers[lowest]``, which makes no input
    gradient, returning None; through every layer when ``lowest`` is below them,
    returning the gradient at their input."""
    for layer in reversed(layers[max(lowest + 1, 0):]):
        grad = layer.backward(grad)
    return layers[lowest].backward(grad, input_grad=False) if lowest >= 0 else grad


def _conv_block(filters):
    return [  # "padding": 0 is written out, as every saved model file's arch records it
        LayerSpec("conv2d", {"filters": filters, "kernel_size": 3, "padding": 0}),
        LayerSpec("relu"),
    ]


def feedforward_specs(hidden1: int = 1024, hidden2: int = 512) -> list[LayerSpec]:
    return [
        LayerSpec("flatten"),
        LayerSpec("dense", {"units": hidden1}),
        LayerSpec("relu"),
        LayerSpec("dropout", {"rate": 0.2}),
        LayerSpec("dense", {"units": hidden2}),
        LayerSpec("relu"),
        LayerSpec("dropout", {"rate": 0.2}),
        LayerSpec("dense", {"units": NUM_CLASSES, "init": "glorot"}),
        LayerSpec("softmax"),
    ]


def simple_cnn_specs() -> list[LayerSpec]:
    return (
        _conv_block(32)
        + _conv_block(64)
        + [
            LayerSpec("maxpool2d"),
            LayerSpec("dropout", {"rate": 0.25}),
            LayerSpec("flatten"),
            LayerSpec("dense", {"units": 128}),
            LayerSpec("relu"),
            LayerSpec("dropout", {"rate": 0.5}),
            LayerSpec("dense", {"units": NUM_CLASSES, "init": "glorot"}),
            LayerSpec("softmax"),
        ]
    )


def proposed_cnn_specs() -> list[LayerSpec]:
    return (
        _conv_block(64)
        + _conv_block(64)
        + [LayerSpec("maxpool2d"), LayerSpec("dropout", {"rate": 0.25})]
        + _conv_block(128)
        + _conv_block(128)
        + _conv_block(256)
        + _conv_block(256)
        + [
            LayerSpec("maxpool2d"),
            LayerSpec("dropout", {"rate": 0.25}),
            LayerSpec("flatten"),
            LayerSpec("dense", {"units": 512, "l2_penalty": 0.001}),
            LayerSpec("relu"),
            LayerSpec("dropout", {"rate": 0.5}),
            LayerSpec("dense", {"units": NUM_CLASSES, "init": "glorot"}),
            LayerSpec("softmax"),
        ]
    )


def build_feedforward(hidden1: int = 1024, hidden2: int = 512, seed: int = 0) -> Network:
    """Flatten -> two ReLU dense blocks with dropout 0.2 -> 7-way softmax."""
    return Network(feedforward_specs(hidden1, hidden2), seed=seed)


def build_simple_cnn(seed: int = 0) -> Network:
    """Two conv layers, one pool, then a single hidden dense layer."""
    return Network(simple_cnn_specs(), seed=seed)


def build_proposed_cnn(seed: int = 0) -> Network:
    """Six conv layers (64/64/128/128/256/256), two pools, L2-regularized dense head."""
    return Network(proposed_cnn_specs(), seed=seed)


# The one architecture registry: model name -> layer-spec function.
ARCHITECTURE_SPECS = {
    "ffnn": feedforward_specs,
    "simple_cnn": simple_cnn_specs,
    "proposed_cnn": proposed_cnn_specs,
}


def save_model(net: Network, path: str):
    arch = json.dumps(net.describe()).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(arch)))
        fh.write(arch)
        params = net.parameters()
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            fh.write(struct.pack("<I", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def _read_exact(fh, n: int, what: str, skip: bool = False) -> bytes:
    """Read n bytes, or with ``skip`` seek past them, checked against the bytes left
    first: ``read`` allocates n up front."""
    at = fh.tell()
    left = os.fstat(fh.fileno()).st_size - at
    if n > left:
        raise TruncatedFileError(
            f"file truncated: {what} at byte {at} needs {n} bytes, {left} left"
        )
    if skip:
        fh.seek(n, os.SEEK_CUR)
        return b""
    return fh.read(n)


def _network_from_arch(arch) -> Network:
    """The network an arch descriptor describes, with stand-in parameters; any defect is a
    ModelFileError."""
    if not (isinstance(arch, dict) and isinstance(arch.get("layers"), list)
            and isinstance(arch.get("input_shape"), list)
            and isinstance(arch.get("num_classes"), int)):
        raise ModelFileError("arch descriptor must be a JSON object with 'input_shape', "
                             "'num_classes' and a 'layers' list")
    specs = []
    for i, desc in enumerate(arch["layers"]):
        try:
            specs.append(LayerSpec(desc["kind"], dict(desc.get("hyper", {}))))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelFileError(f"arch layer {i}: bad descriptor {desc!r} ({exc!r})") from exc
    try:
        return Network(specs, tuple(arch["input_shape"]), arch["num_classes"], seed=None)
    except (TypeError, ValueError) as exc:  # Network names a failing layer by its index
        raise ModelFileError(f"arch {exc}") from exc


def _tensor_header(fh, i: int) -> tuple[tuple[int, ...], int]:
    """Tensor ``i``'s dims and element count, read from its header and checked."""
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"tensor {i} rank"))
    if rank == 0 or rank > 8:
        raise DimOverflowError(f"tensor {i} has implausible rank {rank}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"tensor {i} dims"))
    if any(d == 0 or d >= _MAX_DIM for d in dims):
        raise DimOverflowError(f"tensor {i} has out-of-range dims {dims}")
    if (n := math.prod(dims)) > _MAX_ELEMENTS:
        raise DimOverflowError(f"tensor {i} element count overflows: dims {dims}")
    return dims, n


def load_model(path: str) -> Network:
    """The network a model file holds; its tensor and float counts are checked first."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"format version {version}, expected {FORMAT_VERSION}")
        (arch_len,) = struct.unpack("<I", _read_exact(fh, 4, "arch length"))
        try:
            arch = json.loads(_read_exact(fh, arch_len, "arch descriptor"))
        except json.JSONDecodeError as exc:
            raise ModelFileError(f"unreadable arch descriptor: {exc}") from exc

        net = _network_from_arch(arch)

        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        start, floats = fh.tell(), 0
        for i in range(count):  # a walk over the headers, past the payloads
            floats += (n := _tensor_header(fh, i)[1])
            _read_exact(fh, 4 * n, f"tensor {i} payload", skip=True)
        params, need = net.parameters(), net.parameter_count()
        if (count, floats) != (len(params), need):
            raise ModelFileError(f"file has {count} tensors of {floats} floats, "
                                 f"arch needs {len(params)} tensors of {need} floats")
        if fh.read(1):
            raise ModelFileError(f"trailing bytes after last tensor at byte {fh.tell() - 1}")
        fh.seek(start)
        for layer in net.layers:
            layer.params = [np.empty(p.shape, np.float32) for p in layer.params]
        for i, target in enumerate(net.parameters()):
            dims, n = _tensor_header(fh, i)
            if dims != target.shape:
                raise ModelFileError(
                    f"tensor {i} shape {dims} does not match architecture {target.shape}"
                )
            payload = _read_exact(fh, 4 * n, f"tensor {i} payload")
            target[...] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return net
