"""Compiled execution plans for inference (the engine's compile step).

Walking the autograd ``Module`` graph for every request re-allocates
im2col workspaces, builds Tensor wrappers, and registers backward closures
that inference never uses.  This module lowers a module once — through the
same :func:`repro.snc.nir.lower_module` lowering NIR export uses — walks
the lowered graph, and compiles it into a flat list of fused steps:

- the walk visits ``_PrependInput`` (input quantizer, then network),
  ``Sequential`` (children in order) and ``Residual`` (body, shortcut,
  join, activation); the atomic layers are leaves, and any other module
  raises :class:`PlanError`;
- steps name the slots of a short value list they read and write, so a
  residual block's input stays live until its join;
- ``conv + bias + ReLU + quantize`` and ``linear + bias + quantize`` run as
  one step (the quantizer's ``clip(⌊gain·y + ½⌋, 0, 2^M−1)`` subsumes the
  ReLU, since negatives clip to zero either way);
- for quantized/deployed networks an **integer fast path** carries M-bit
  activations as small-int spike counts and N-bit weight codes in a BLAS
  carrier dtype chosen so every accumulation is exact (float32 while the
  worst-case partial sum fits 2^24, float64 otherwise), with a single
  affine rescale ``y = α·acc + β`` per layer — β folds the bias and any
  input-quantizer offset;
- a residual join whose activation is an M-bit quantizer is fused into the
  body's last integer conv: the shortcut enters its epilogue in output
  counts (an identity shortcut's counts, or a projection conv's un-floored
  affine sum), so the join never leaves the integer domain;
- the integer conv kernels compile their im2col lowering into cached
  ``(dst_view, src_view)`` copy programs feeding a tap-major workspace
  and one GEMM, and absorb a trailing max pool into the requantize
  epilogue (see :class:`IntConvStep`);
- every step's scratch workspaces are views of one arena per plan, and
  every step output is a view of one backing per output key, both sized
  for the largest batch seen (see :class:`BufferPool`), so any row count
  replays without allocating;
- with ``int_path="shift"`` (``engine_shift``) per-layer scales are snapped
  to the power-of-two grid beforehand (:func:`repro.core.pow2.
  snap_scales_pow2`) and requantization runs multiplier-free as
  :func:`shift_requantize`.

Modules the walk cannot lower (unknown classes, or layers left in training
mode) raise :class:`PlanError`; the engine then falls back to the graph
executor, so compilation is an optimization, never a correctness
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import quantizers as Q
from repro.core.deployment import DynamicQuantizedActivation, _PrependInput
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
from repro.nn.tensor import Tensor, no_grad
from repro.snc.mapping import SpikingConv2d, SpikingLinear
from repro.snc.nir import lower_module


class PlanError(RuntimeError):
    """The module cannot be compiled; callers fall back to the graph."""


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

class BufferPool:
    """A plan's working memory: one backing per owned key plus one shared
    scratch arena, both sized once for the largest batch seen.

    Steps ask for workspaces by key — ``(step index, tag[, block])`` — so a
    steady-state batch loop allocates nothing once the largest batch has
    run, whatever row counts follow.  A tag the step declares *scratch*
    (dead once the step returns, see :attr:`Step.scratch`) is served as a
    view of one arena that every step shares; any other tag (step outputs,
    values held for a residual join) is *owned*: it gets one flat backing
    allocation of its own, and every shape asked of it is a C-contiguous
    prefix view ``backing[:nbytes].view(dtype).reshape(shape)``, cached per
    ``(key, shape, dtype)``.  A key is claimed once per run, so the prefix
    views of one key never live at the same time; a shape larger than the
    backing regrows it and drops that key's cached views.

    Arena layout: the scratch of one step at one batch size (``rows``, set
    by :meth:`ExecutionPlan.run`) is laid out back to back from offset 0,
    so views live in the same step run never overlap, while different
    steps and batch sizes reuse the same bytes.  Views are cached per
    ``(rows, key, shape, dtype)``, keeping their identity stable across
    runs.  The arena is sized for the largest such group seen so far and
    grows only when a larger one arrives, once per run: the first claim
    that does not fit *retires* the arena (every cached view is dropped and
    the ``on_move`` callbacks let steps drop what they built on views), the
    rest of that run gets plain temporaries, and :meth:`settle` allocates
    the new arena when the run ends.  Two arenas are therefore never
    resident at once.
    """

    #: Alignment of every arena view (one cache line).
    ALIGN = 64

    def __init__(self, scratch: Optional[Dict[int, FrozenSet[str]]] = None,
                 on_move: Sequence = ()) -> None:
        self._buffers: dict = {}    # (key, shape, dtype) -> owned view
        self._backings: dict = {}   # owned key -> flat uint8 allocation
        self._scratch: Dict[int, FrozenSet[str]] = dict(scratch or {})
        self._on_move = list(on_move)
        self._views: dict = {}      # (rows, full key) -> arena view
        self._offsets: dict = {}    # (rows, full key) -> byte offset
        self._used: dict = {}       # (owner, rows) -> bytes laid out
        self.arena = np.empty(0, dtype=np.uint8)
        self.pending = 0            # arena size to allocate at settle()
        self.rows = 0

    def get(self, key, shape: Tuple[int, ...], dtype) -> np.ndarray:
        # Hot path: called dozens of times per batch.  The key keeps the
        # caller's dtype object verbatim (np.float32 vs np.dtype("f4") hash
        # apart, which only costs a duplicate entry if a step is
        # inconsistent with itself) to avoid per-call dtype normalization.
        full_key = (key, shape, dtype)
        buf = self._buffers.get(full_key)
        if buf is not None:
            return buf
        view = self._views.get((self.rows, full_key))
        if view is not None:
            return view
        return self._claim(full_key)

    def _claim(self, full_key) -> np.ndarray:
        key, shape, dtype = full_key
        owner, tag = _pool_key_owner(key)
        if owner is None or tag not in self._scratch.get(owner, ()):
            return self._own(full_key)
        vkey = (self.rows, full_key)
        start = self._offsets.get(vkey)
        if start is None:
            group = (owner, self.rows)
            start = self._used.get(group, 0)
            end = -(-(start + _nbytes(shape, dtype)) // self.ALIGN) * self.ALIGN
            self._used[group] = end
            self._offsets[vkey] = start
        if not self.pending and start + _nbytes(shape, dtype) <= self.arena.nbytes:
            view = self._views[vkey] = _carve(self.arena, start, shape, dtype)
            return view
        if not self.pending:
            # Retire the arena: views a step holds right now keep it alive
            # until that step returns, nothing after.
            self.arena = np.empty(0, dtype=np.uint8)
            self._views.clear()
            for callback in self._on_move:
                callback()
        self.pending = max(self._used.values())
        return np.empty(shape, dtype=dtype)

    def _own(self, full_key) -> np.ndarray:
        key, shape, dtype = full_key
        nbytes = _nbytes(shape, dtype)
        backing = self._backings.get(key)
        if backing is None or backing.nbytes < nbytes:
            backing = self._backings[key] = np.empty(nbytes, dtype=np.uint8)
            self._buffers = {k: v for k, v in self._buffers.items() if k[0] != key}
        buf = self._buffers[full_key] = _carve(backing, 0, shape, dtype)
        return buf

    def settle(self) -> None:
        """Allocate the arena a retiring run asked for (see the class doc)."""
        if self.pending:
            self.arena = np.empty(self.pending, dtype=np.uint8)
            self.pending = 0

    @property
    def nbytes(self) -> int:
        return self.arena.nbytes + sum(b.nbytes for b in self._backings.values())

    def records(self) -> List[tuple]:
        """Snapshot of ``(key, shape, dtype, array, scratch, rows)`` for
        every pooled array: the cached views of owned backings
        (``scratch=False``), then the current arena views with the batch
        size they were laid out for.

        The declared-IR surface over the pool: :meth:`ExecutionPlan.
        summarize` turns these into :class:`BufferIR` records so the static
        plan verifier can audit the working set.
        """
        owned = [
            (key, tuple(shape), np.dtype(dtype), buf, False, None)
            for (key, shape, dtype), buf in self._buffers.items()
        ]
        views = [
            (key, tuple(shape), np.dtype(dtype), view, True, rows)
            for (rows, (key, shape, dtype)), view in self._views.items()
        ]
        return owned + views

    def __len__(self) -> int:
        """Allocations held: the owned backings plus the arena (views are
        not allocations)."""
        return len(self._backings) + (1 if self.arena.nbytes else 0)


# ---------------------------------------------------------------------------
# Declared plan IR (what repro.check.plancheck verifies)
# ---------------------------------------------------------------------------
#
# Every step *declares* its contract — accepted/produced layouts, counts
# windows, GEMM geometry, workspace keys, copy-program views — as plain
# records.  The static verifier consumes only this IR, never private step
# state, so a step that lies in its summary is a bug the seeded-defect
# tests catch, and new step kinds extend the IR instead of the verifier.


@dataclass(frozen=True)
class ViewIR:
    """Byte extent of one ndarray view relative to its base allocation."""

    base: int               #: ``id()`` of the owning base array
    lo: int                 #: first byte the view can touch
    hi: int                 #: one past the last byte the view can touch
    shape: Tuple[int, ...]

    def overlaps(self, other: "ViewIR") -> bool:
        """Conservative aliasing test: same base, intersecting byte ranges.

        Byte-interval intersection over-approximates true element overlap
        for strided views — the sound direction for a safety check.
        """
        return self.base == other.base and self.lo < other.hi and other.lo < self.hi


@dataclass(frozen=True)
class BufferIR:
    """One pooled array, attributed to the step whose key claimed it."""

    owner: Optional[int]    #: step index from the pool key; None = foreign key
    tag: str                #: workspace tag from the pool key ("" = bare key)
    shape: Tuple[int, ...]
    dtype: str
    base: int               #: ``id()`` of the base array (aliasing identity)
    nbytes: int
    scratch: bool = False   #: laid out in the plan's scratch arena by the pool
    rows: Optional[int] = None  #: batch size the arena view was laid out for
    lo: int = 0             #: first byte of the base the array covers
    hi: int = 0             #: one past its last byte


@dataclass(frozen=True)
class JoinIR:
    """What a residual join step expects of its shortcut (second) input.

    ``kind`` is ``"identity"`` (the block input's counts), ``"projection"``
    (a projection conv's un-floored affine sum in output counts) or
    ``"float"`` (float values).  ``top``/``gain`` name the counts window
    the shortcut must be expressed in (``None`` for float values).
    """

    kind: str
    layouts: Tuple[str, ...]
    top: Optional[int] = None
    gain: Optional[float] = None


@dataclass
class StepIR:
    """One step's declared contract.

    ``None`` consistently means "no claim": a ``None`` layout list accepts
    any layout (elementwise step), a ``None`` ``layout_out`` leaves the
    layout unchanged, a ``None`` workspace dtype is input-dependent and
    exempt from the dtype audit.
    """

    index: int
    kind: str
    summary: str            #: the step's describe() line, for messages
    layouts_in: Optional[Tuple[str, ...]] = None
    layout_out: Optional[str] = None
    out_dtype: Optional[str] = None
    consumes_top: Optional[int] = None   #: counts window the step reads
    produces_top: Optional[int] = None   #: counts window the step emits
    produces_gain: Optional[float] = None  #: IFC gain of the emitted counts
    partial: bool = False                #: emits an un-floored affine sum
    rep_passthrough: bool = False        #: forwards the incoming rep unchanged
    inputs: Tuple[int, ...] = (0,)       #: value slots read (main, shortcut)
    output: int = 0                      #: value slot written
    join: Optional[JoinIR] = None        #: shortcut contract of a join step
    scratch: Tuple[str, ...] = ()        #: workspace tags dead once it returns
    carrier: Optional[str] = None        #: BLAS carrier of the int GEMM
    acc_dtype: Optional[str] = None      #: shift-mode integer accumulator
    reduction_k: Optional[int] = None    #: GEMM reduction length
    weight_bits: Optional[int] = None
    codes: Optional[np.ndarray] = None   #: (out, K) integer weight codes
    q_scale: Optional[float] = None
    shift: Optional[int] = None
    shift_offsets_absmax: Optional[float] = None
    fused_pool: Optional[Tuple[int, int]] = None
    workspaces: Dict[str, Optional[str]] = field(default_factory=dict)
    copy_views: Optional[List[Tuple[ViewIR, ViewIR]]] = None


@dataclass
class PlanIR:
    """The whole plan as declared records: step contracts + its pool."""

    steps: List[StepIR]
    buffers: List[BufferIR]
    dtype: str
    int_steps: int
    int_path: str
    arena: Optional[int] = None  #: ``id()`` of the scratch arena's base


def _nbytes(shape: Tuple[int, ...], dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _carve(raw: np.ndarray, start: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous ``shape``/``dtype`` view of the bytes of ``raw`` (a
    flat uint8 allocation) from offset ``start``."""
    return raw[start : start + _nbytes(shape, dtype)].view(dtype).reshape(shape)


def _base_array(arr: np.ndarray) -> np.ndarray:
    """Chase ``.base`` to the array that owns the memory."""
    base = arr
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


def _view_ir(arr: np.ndarray) -> ViewIR:
    """Describe ``arr`` as a byte extent over its base allocation.

    Computed from shape/strides directly (``np.byte_bounds`` is gone in
    numpy 2.x): negative strides extend the range downwards, positive
    upwards, plus one trailing itemsize.
    """
    base = _base_array(arr)
    origin = int(base.__array_interface__["data"][0])
    lo = hi = int(arr.__array_interface__["data"][0]) - origin
    if 0 in arr.shape:
        return ViewIR(base=id(base), lo=lo, hi=hi, shape=tuple(arr.shape))
    for n, stride in zip(arr.shape, arr.strides):
        extent = (n - 1) * stride
        if extent >= 0:
            hi += extent
        else:
            lo += extent
    return ViewIR(base=id(base), lo=lo, hi=hi + arr.itemsize, shape=tuple(arr.shape))


def _pool_key_owner(key: object) -> Tuple[Optional[int], str]:
    """``(owner step index, workspace tag)`` declared by a pool key.

    Pool keys are ``index``, ``(index, tag)`` or ``(index, tag, block)``;
    anything else is foreign to the plan and reported as ``(None, repr)``.
    """
    if isinstance(key, (int, np.integer)):
        return int(key), ""
    if (
        isinstance(key, tuple)
        and key
        and isinstance(key[0], (int, np.integer))
        and (len(key) == 1 or isinstance(key[1], str))
    ):
        return int(key[0]), (key[1] if len(key) > 1 else "")
    return None, repr(key)


def _block6(cols: np.ndarray, b: int, oh: int, ow: int, c: int, kh: int, kw: int) -> np.ndarray:
    """View the first ``c·kh·kw`` columns of ``cols`` as (B, oh, ow, C, kh, kw).

    ``cols`` may be wider than ``c·kh·kw`` (trailing constant bias-driver
    columns for the crossbar path), in which case a plain reshape of the
    slice would copy; the strided view writes in place.
    """
    s = cols.strides[1]
    row = cols.shape[1] * s
    return np.lib.stride_tricks.as_strided(
        cols,
        shape=(b, oh, ow, c, kh, kw),
        strides=(oh * ow * row, ow * row, row, kh * kw * s, kw * s, s),
    )


def _im2col_into(
    pool: BufferPool,
    key,
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    dtype,
    extra_cols: int = 0,
) -> Tuple[np.ndarray, int, int]:
    """im2col into a pooled buffer; trailing ``extra_cols`` are set to 1."""
    b, c, h, w = x.shape
    kh = kw = kernel
    if padding:
        padded = pool.get((key, "pad"), (b, c, h + 2 * padding, w + 2 * padding), x.dtype)
        padded.fill(0)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    k_data = c * kh * kw
    cols = pool.get((key, "cols"), (b * oh * ow, k_data + extra_cols), dtype)
    if extra_cols:
        cols[:, k_data:] = 1.0
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    np.copyto(_block6(cols, b, oh, ow, c, kh, kw), windows.transpose(0, 2, 3, 1, 4, 5))
    return cols, oh, ow


def _to_nchw(pool: BufferPool, key, mat: np.ndarray, b: int, oh: int, ow: int,
             oc: int, dtype) -> np.ndarray:
    """Copy a (B·oh·ow, oc) matmul result into a pooled NCHW buffer."""
    out = pool.get((key, "nchw"), (b, oc, oh, ow), dtype)
    np.copyto(out, mat.reshape(b, oh, ow, oc).transpose(0, 3, 1, 2), casting="unsafe")
    return out


def _counts_dtype(top: int):
    if top <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if top <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def shift_requantize(acc: np.ndarray, shift, offsets, top: int,
                     out: np.ndarray) -> np.ndarray:
    """Multiplier-less requantize: ``counts = clip((acc + offsets) >> shift, 0, top)``.

    For integer ``acc`` and ``offsets = ⌊q_offset · 2^shift⌋`` this equals
    the multiply epilogue ``clip(⌊2^-shift·acc + q_offset⌋, 0, top)``
    exactly: with ``n`` integer and ``f`` real, ``⌊n + f⌋ = n + ⌊f⌋`` and
    ``⌊x / 2^s⌋ = ⌊⌊x⌋ / 2^s⌋``, and numpy's ``right_shift`` on signed
    integers is an arithmetic shift, i.e. floor division by ``2^s``.

    ``shift`` and ``offsets`` may be scalars or per-channel arrays
    broadcastable against ``acc``.  ``acc`` is clobbered in place; the
    counts land in ``out`` via a truncating cast.  This is the entire
    per-element cost of requantization in ``engine_shift`` mode — no
    multiplier anywhere (see :mod:`repro.snc.cost` for the energy delta).
    """
    np.add(acc, offsets, out=acc)
    np.right_shift(acc, shift, out=acc)
    np.clip(acc, 0, top, out=acc)
    np.copyto(out, acc, casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# Activation specs (what gets fused onto a weight layer)
# ---------------------------------------------------------------------------

@dataclass
class ActSpec:
    """Fused activation tail: optional ReLU, then one kind of quantizer."""

    relu: bool = False
    bits: Optional[int] = None      # M-bit signal quantizer (QuantizedActivation)
    gain: float = 1.0
    dyn_fmt: Optional[object] = None  # DynamicFixedPointFormat

    @property
    def top(self) -> float:
        return float(2 ** self.bits - 1) if self.bits is not None else 0.0

    def apply_float(self, mat: np.ndarray) -> None:
        """In place, mirroring the graph ops bit for bit (f64 inputs)."""
        if self.relu:
            np.maximum(mat, 0.0, out=mat)
        if self.bits is not None:
            # ste_quantize_signals: clip(floor(x·gain + ½), 0, top) / gain
            if self.gain != 1.0:
                mat *= self.gain
            mat += 0.5
            np.floor(mat, out=mat)
            np.clip(mat, 0.0, self.top, out=mat)
            if self.gain != 1.0:
                np.divide(mat, self.gain, out=mat)
        elif self.dyn_fmt is not None:
            np.copyto(mat, Q.quantize_dynamic_fixed_point(mat, self.dyn_fmt))

    def apply_counts(self, mat: np.ndarray) -> None:
        """Quantize float pre-activations to integer counts, in place.

        ``clip(⌊gain·y + ½⌋, 0, top)`` — the clip-at-zero subsumes the ReLU
        (``⌊gain·y + ½⌋ ≤ 0`` for every y ≤ 0), so counts match the graph's
        relu-then-quantize exactly.
        """
        if self.gain != 1.0:
            mat *= self.gain
        mat += 0.5
        np.floor(mat, out=mat)
        np.clip(mat, 0.0, self.top, out=mat)

    def describe(self) -> str:
        parts = []
        if self.relu:
            parts.append("relu")
        if self.bits is not None:
            parts.append(f"quant[M={self.bits}, gain={self.gain:.4g}]")
        if self.dyn_fmt is not None:
            parts.append("dynq")
        return "+".join(parts) if parts else "none"


def _act_spec(module: Module) -> ActSpec:
    if isinstance(module, QuantizedActivation):
        if not isinstance(module.inner, ReLU):
            raise PlanError(f"unsupported quantized inner activation {module.inner!r}")
        if not module.enabled:
            return ActSpec(relu=True)
        return ActSpec(relu=True, bits=module.bits, gain=float(module.gain))
    if isinstance(module, DynamicQuantizedActivation):
        if not isinstance(module.inner, ReLU):
            raise PlanError(f"unsupported quantized inner activation {module.inner!r}")
        return ActSpec(relu=True, dyn_fmt=module.fmt)
    if isinstance(module, ReLU):
        return ActSpec(relu=True)
    raise PlanError(f"not an activation module: {module!r}")


# ---------------------------------------------------------------------------
# Value representation between steps
# ---------------------------------------------------------------------------

@dataclass
class CountsRep:
    """Activations carried as integer spike counts.

    ``style="act"``: value = counts / gain (QuantizedActivation output).
    ``style="input"``: value = counts · (1/gain) + offset (InputQuantizer).
    Both mirror the exact float ops of the graph executor, so a dequantize
    step reconstructs bit-identical values.
    """

    gain: float
    offset: float
    top: int
    style: str  # "act" | "input"

    @property
    def value_scale(self) -> float:
        return 1.0 / self.gain


FLOAT_REP = None  # rep is either None (plain float values) or a CountsRep


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

class Step:
    """One fused kernel of the plan.  ``run`` maps ndarray → ndarray.

    The compiler wires each step to the plan's value list: ``inputs`` are
    the slots it reads (a join step reads a second, shortcut slot, passed
    to ``run`` as ``skip``) and ``output`` the slot it writes.
    """

    kind = "step"
    #: Workspace tags that are dead once ``run`` returns; the pool serves
    #: them as views of the plan's shared scratch arena.  Every other tag
    #: (the step's output) keeps its own allocation.
    scratch: FrozenSet[str] = frozenset()

    def __init__(self, index: int) -> None:
        self.index = index
        self.inputs: Tuple[int, ...] = (0,)
        self.output = 0

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def forget_views(self) -> None:
        """Drop anything cached on pool views; called when the scratch
        arena moves, so the replaced arena can be freed."""

    def summarize(self) -> StepIR:
        """This step's declared IR record (see :class:`StepIR`)."""
        return StepIR(self.index, self.kind, self.describe(), workspaces={"": None})


class InputQuantFloatStep(Step):
    kind = "input-quant"

    def __init__(self, index: int, module: InputQuantizer, dtype) -> None:
        super().__init__(index)
        self.bits = module.bits
        self.offset = float(module.offset)
        self.gain = float(module.gain)
        self.top = float(2 ** module.bits - 1)
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        buf = pool.get(self.index, x.shape, self.dtype)
        np.subtract(x, self.offset, out=buf, casting="unsafe")
        buf *= self.gain
        buf += 0.5
        np.floor(buf, out=buf)
        np.clip(buf, 0.0, self.top, out=buf)
        buf *= 1.0 / self.gain
        buf += self.offset
        return buf

    def describe(self) -> str:
        return f"input-quant[M={self.bits}] :: {self.dtype.name}"

    def summarize(self) -> StepIR:
        """Declared IR: elementwise, float values out."""
        return StepIR(self.index, self.kind, self.describe(),
                      out_dtype=self.dtype.name, workspaces={"": self.dtype.name})


class InputQuantCountsStep(Step):
    kind = "input-quant-int"
    scratch = frozenset({"f"})

    def __init__(self, index: int, module: InputQuantizer) -> None:
        super().__init__(index)
        self.bits = module.bits
        self.offset = float(module.offset)
        self.gain = float(module.gain)
        self.top = float(2 ** module.bits - 1)
        self.rep = CountsRep(self.gain, self.offset, 2 ** module.bits - 1, "input")
        self.out_dtype = _counts_dtype(self.rep.top)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        buf = pool.get((self.index, "f"), x.shape, np.float64)
        if self.offset != 0.0:
            np.subtract(x, self.offset, out=buf, casting="unsafe")
            buf *= self.gain
        else:
            np.multiply(x, self.gain, out=buf, casting="unsafe")
        buf += 0.5
        counts = pool.get((self.index, "c"), x.shape, self.out_dtype)
        # No explicit floor: the clip bounds are integers, so clipping first
        # and letting the truncating cast floor afterwards yields exactly
        # clip(⌊v⌋, 0, top) — negatives clip to 0 before the cast.
        np.clip(buf, 0.0, self.top, out=counts, casting="unsafe")
        return counts

    def describe(self) -> str:
        return f"input-quant[M={self.bits}] :: {self.out_dtype.name}-counts"

    def summarize(self) -> StepIR:
        """Declared IR: elementwise, opens the input counts window."""
        return StepIR(self.index, self.kind, self.describe(),
                      out_dtype=self.out_dtype.name,
                      produces_top=int(self.rep.top), produces_gain=self.gain,
                      workspaces={"f": "float64", "c": self.out_dtype.name})


class DequantStep(Step):
    """Counts → float values, mirroring the graph's exact reconstruction."""

    kind = "dequant"

    def __init__(self, index: int, rep: CountsRep, dtype) -> None:
        super().__init__(index)
        self.rep = rep
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        buf = pool.get(self.index, x.shape, self.dtype)
        if self.rep.style == "act":
            np.divide(x, self.rep.gain, out=buf, casting="unsafe")
        else:
            np.multiply(x, 1.0 / self.rep.gain, out=buf, casting="unsafe")
            buf += self.rep.offset
        return buf

    def describe(self) -> str:
        return f"dequant[{self.rep.style}] :: {self.dtype.name}"

    def summarize(self) -> StepIR:
        """Declared IR: closes the counts window, emits float values."""
        return StepIR(self.index, self.kind, self.describe(),
                      out_dtype=self.dtype.name, consumes_top=int(self.rep.top),
                      workspaces={"": self.dtype.name})


class ActStep(Step):
    """Standalone activation (not fused onto a weight layer)."""

    kind = "act"

    def __init__(self, index: int, act: ActSpec, dtype) -> None:
        super().__init__(index)
        self.act = act
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        buf = pool.get(self.index, x.shape, self.dtype)
        np.copyto(buf, x, casting="unsafe")
        self.act.apply_float(buf)
        return buf

    def describe(self) -> str:
        return f"{self.act.describe()} :: {self.dtype.name}"

    def summarize(self) -> StepIR:
        """Declared IR: elementwise float activation."""
        return StepIR(self.index, self.kind, self.describe(),
                      out_dtype=self.dtype.name, workspaces={"": self.dtype.name})


class FloatConvStep(Step):
    """conv + bias + fused activation, optionally emitting integer counts."""

    kind = "conv2d"
    scratch = frozenset({"pad", "cols", "mat"})

    def __init__(self, index: int, conv: Conv2d, act: Optional[ActSpec], dtype,
                 counts_rep: Optional[CountsRep] = None) -> None:
        super().__init__(index)
        self.conv = conv
        self.act = act
        self.dtype = np.dtype(dtype)
        self.counts_rep = counts_rep
        self.out_dtype = (
            _counts_dtype(counts_rep.top) if counts_rep is not None else self.dtype
        )
        w = conv.weight.data.reshape(conv.out_channels, -1)
        # float64 keeps a view so the matmul is the graph's, bit for bit;
        # other dtypes take a contiguous cast copy.
        self.w_mat = w if self.dtype == np.float64 else np.ascontiguousarray(w, dtype=self.dtype)
        self.bias = None if conv.bias is None else conv.bias.data.astype(self.dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        b = x.shape[0]
        oc = self.conv.out_channels
        cols, oh, ow = _im2col_into(
            pool, self.index, x, self.conv.kernel_size, self.conv.stride,
            self.conv.padding, self.dtype,
        )
        out = pool.get((self.index, "mat"), (cols.shape[0], oc), self.dtype)
        np.matmul(cols, self.w_mat.T, out=out)
        if self.bias is not None:
            out += self.bias
        if self.counts_rep is not None:
            self.act.apply_counts(out)
        elif self.act is not None:
            self.act.apply_float(out)
        return _to_nchw(pool, self.index, out, b, oh, ow, oc, self.out_dtype)

    def describe(self) -> str:
        c = self.conv
        tail = "none" if self.act is None else self.act.describe()
        rep = f"{self.out_dtype.name}-counts" if self.counts_rep is not None else self.dtype.name
        return (f"conv2d({c.in_channels}→{c.out_channels}, k={c.kernel_size}) "
                f"+ {tail} :: {rep}")

    def summarize(self) -> StepIR:
        """Declared IR: batch-major float conv, optionally emitting counts."""
        return StepIR(
            self.index, self.kind, self.describe(),
            layouts_in=("batch",), layout_out="batch",
            out_dtype=self.out_dtype.name,
            produces_top=(int(self.counts_rep.top) if self.counts_rep is not None else None),
            produces_gain=(self.counts_rep.gain if self.counts_rep is not None else None),
            workspaces={"pad": None, "cols": self.dtype.name,
                        "mat": self.dtype.name, "nchw": self.out_dtype.name},
        )


class FloatLinearStep(Step):
    kind = "linear"

    def __init__(self, index: int, lin: Linear, act: Optional[ActSpec], dtype,
                 counts_rep: Optional[CountsRep] = None) -> None:
        super().__init__(index)
        self.lin = lin
        self.act = act
        self.dtype = np.dtype(dtype)
        self.counts_rep = counts_rep
        self.out_dtype = (
            _counts_dtype(counts_rep.top) if counts_rep is not None else self.dtype
        )
        w = lin.weight.data
        self.w_mat = w if self.dtype == np.float64 else np.ascontiguousarray(w, dtype=self.dtype)
        self.bias = None if lin.bias is None else lin.bias.data.astype(self.dtype)
        # "mat" is the output unless the step goes on to emit counts.
        self.scratch = frozenset({"in", "mat"} if counts_rep is not None else {"in"})

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        xin = x
        if xin.dtype != self.dtype:
            cast = pool.get((self.index, "in"), x.shape, self.dtype)
            np.copyto(cast, x, casting="unsafe")
            xin = cast
        out = pool.get((self.index, "mat"), (x.shape[0], self.lin.out_features), self.dtype)
        # Row-invariant stacked (1, K) @ (K, N) products, as F.linear.
        np.matmul(xin[:, None, :], self.w_mat.T, out=out[:, None, :])
        if self.bias is not None:
            out += self.bias
        if self.counts_rep is not None:
            self.act.apply_counts(out)
            counts = pool.get((self.index, "c"), out.shape, self.out_dtype)
            np.copyto(counts, out, casting="unsafe")
            return counts
        if self.act is not None:
            self.act.apply_float(out)
        return out

    def describe(self) -> str:
        m = self.lin
        tail = "none" if self.act is None else self.act.describe()
        rep = f"{self.out_dtype.name}-counts" if self.counts_rep is not None else self.dtype.name
        return f"linear({m.in_features}→{m.out_features}) + {tail} :: {rep}"

    def summarize(self) -> StepIR:
        """Declared IR: flat float linear, optionally emitting counts."""
        return StepIR(
            self.index, self.kind, self.describe(),
            layouts_in=("flat",), layout_out="flat",
            out_dtype=self.out_dtype.name,
            produces_top=(int(self.counts_rep.top) if self.counts_rep is not None else None),
            produces_gain=(self.counts_rep.gain if self.counts_rep is not None else None),
            workspaces={"in": self.dtype.name, "mat": self.dtype.name,
                        "c": self.out_dtype.name},
        )


def _grid_codes(module: Module) -> Optional[Tuple[np.ndarray, float, int]]:
    """Integer weight codes if the layer's weights sit on a clustering grid."""
    scale = getattr(module, "_grid_scale", None)
    bits = getattr(module, "_grid_bits", None)
    if scale is None or bits is None or scale <= 0:
        return None
    codes = module.weight.data * (2 ** bits) / scale
    rounded = np.rint(codes)
    if not np.allclose(codes, rounded, atol=1e-6):
        return None
    if np.abs(rounded).max(initial=0) > 2 ** (bits - 1):
        return None
    return rounded, float(scale), int(bits)


class _IntGemmMixin:
    """Shared integer-GEMM machinery for conv/linear fast-path steps."""

    def _init_int(self, module: Module, codes: np.ndarray, scale: float, bits: int,
                  rep_in: CountsRep, act: Optional[ActSpec], config) -> None:
        oc = codes.shape[0]
        k = codes.shape[1]
        # Exact-carrier choice: every partial sum must be representable.
        bound = k * rep_in.top * (2 ** (bits - 1))
        self.carrier = np.dtype(np.float32) if bound < 2 ** 24 else np.dtype(np.float64)
        self.codes_t = np.ascontiguousarray(codes.T, dtype=self.carrier)  # (K, oc)
        self.alpha = rep_in.value_scale * scale / float(2 ** bits)
        w_rowsum = module.weight.data.reshape(oc, -1).sum(axis=1)
        bias = 0.0 if module.bias is None else module.bias.data
        self.beta = bias + rep_in.offset * w_rowsum  # (oc,) float64
        self.act = act
        # Declared-IR metadata for the static plan verifier (PL601 reproves
        # the carrier/accumulator bounds from these, independently).
        self.in_top = int(rep_in.top)
        self.weight_bits = int(bits)
        # Honest describe() metadata: what actually flows through the GEMM.
        self.in_dtype = _counts_dtype(rep_in.top)
        self.code_dtype = np.dtype(np.int8) if bits <= 8 else np.dtype(np.int16)
        self.counts_rep = (
            CountsRep(act.gain, 0.0, int(act.top), "act")
            if act is not None and act.bits is not None else None
        )
        self.out_dtype = (
            _counts_dtype(self.counts_rep.top) if self.counts_rep is not None
            else np.dtype(np.float64)
        )
        self.shift: Optional[int] = None
        if self.counts_rep is not None:
            # Fold rescale and quantize into one affine pass:
            #   counts = clip(⌊gain·(α·acc + β) + ½⌋, 0, top)
            #          = clip(⌊(α·gain)·acc + (β·gain + ½)⌋, 0, top)
            self.q_scale = self.alpha * act.gain
            self.q_offset = self.beta * act.gain + 0.5
            if getattr(config, "int_path", "auto") == "shift":
                self._init_shift(bound)

    def _init_shift(self, bound: float) -> None:
        """Derive the pure-shift requantize parameters (engine_shift mode).

        Requires ``q_scale`` to sit exactly on the power-of-two grid —
        :func:`repro.core.pow2.snap_scales_pow2` arranges that at
        plan-build time.  ``shift_requantize`` then replaces the per-
        element multiply with an arithmetic right shift; the rounding
        term ``+½`` and the folded bias/offset live in the pre-shift
        integer offset ``⌊q_offset · 2^shift⌋``.
        """
        exact = float(-np.log2(self.q_scale)) if self.q_scale > 0 else float("nan")
        shift = int(np.rint(exact)) if np.isfinite(exact) else -1
        if not np.isfinite(exact) or abs(exact - shift) > 1e-9 or not 0 <= shift <= 62:
            raise PlanError(
                f"requantize scale {self.q_scale!r} is not on the power-of-two "
                "grid; snap the layer scales (repro.core.pow2.snap_scales_pow2) "
                "before requesting int_path='shift'"
            )
        offsets = np.floor(np.asarray(self.q_offset, dtype=np.float64) * (2.0 ** shift))
        worst = bound + float(np.max(np.abs(offsets)))
        self.acc_int_dtype = (
            np.dtype(np.int32) if worst < 2 ** 31 else np.dtype(np.int64)
        )
        self.shift = shift
        self.shift_offsets = offsets.astype(self.acc_int_dtype)

    def _int_ir(self, layouts_in: Tuple[str, ...], layout_out: str,
                workspaces: Dict[str, Optional[str]]) -> StepIR:
        """Declared-IR fields common to every integer GEMM step."""
        return StepIR(
            self.index, self.kind, self.describe(),
            layouts_in=layouts_in, layout_out=layout_out,
            out_dtype=self.out_dtype.name,
            consumes_top=self.in_top,
            produces_top=(
                int(self.counts_rep.top) if self.counts_rep is not None else None
            ),
            produces_gain=(self.counts_rep.gain if self.counts_rep is not None else None),
            carrier=self.carrier.name,
            acc_dtype=(self.acc_int_dtype.name if self.shift is not None else None),
            reduction_k=int(self.codes_t.shape[0]),
            weight_bits=self.weight_bits,
            codes=self.codes_t.T,
            q_scale=(float(self.q_scale) if self.counts_rep is not None else None),
            shift=self.shift,
            shift_offsets_absmax=(
                float(np.max(np.abs(self.shift_offsets)))
                if self.shift is not None else None
            ),
            workspaces=workspaces,
        )

    def _int_workspaces(self, *tags: str) -> Dict[str, Optional[str]]:
        """Carrier workspaces for ``tags`` plus the shared epilogue buffers."""
        ws: Dict[str, Optional[str]] = {tag: self.carrier.name for tag in tags}
        ws["y"] = "float64"
        if self.shift is not None:
            ws["acci"] = self.acc_int_dtype.name
        return ws

    def _gemm_label(self) -> str:
        """Honest dtype summary: logical operands @ the real BLAS carrier."""
        label = f"{self.in_dtype.name}·{self.code_dtype.name} @ {self.carrier.name}"
        if self.shift is not None:
            label += f", acc={self.acc_int_dtype.name} >>{self.shift}"
        return label


def _blast_view(x: np.ndarray, layout: str) -> np.ndarray:
    """One ``(C, H, W, B)`` view of a ``"blast"`` or ``"batch"`` activation."""
    if layout == "blast":
        return x
    return x.transpose(1, 2, 3, 0)


class IntConvStep(Step, _IntGemmMixin):
    """Fused integer conv: cached im2col program → one int GEMM → one epilogue.

    The plan's one integer conv kernel, built on three choices:

    - **Cached lowering.** The im2col copy is compiled once per buffer
      pairing into a list of ``(dst_view, src_view)`` slice pairs; each
      replay is pure ``np.copyto`` over precomputed views (no padded
      intermediate is ever materialized — padded convs pre-zero the
      workspace and copy only the in-image tap ranges).
    - **Batch-last lowering, one GEMM.** Activations flow batch-LAST: the
      input is staged once per run into ``(c, h, w, b)`` with a single
      contiguous cast (counts → carrier), and the tap-major workspace is
      ``(c·k·k, oh·ow, tile)``.  Because ``b`` is the trailing axis, every
      window-tap copy runs contiguous over the whole tile — inner memcpy
      runs of ``tile`` elements instead of ``ow``, which measures ~3×
      faster than batch-major im2col (the copy is iteration-overhead-bound,
      not bandwidth-bound).  The GEMM is ``codes (oc, K) @ cols (K,
      oh·ow·tile)`` into one ``(oc, oh·ow·tile)`` accumulator, issued in
      ``_GEMM_COLS``-column slices — already in the batch-last output
      layout ``(oc, oh, ow, tile)``, so
      the epilogue writes its tile of ``out`` with no transpose and the
      *next* conv's staging is again a contiguous cast.  The batch is
      processed in tiles of ``_BLOCK`` images to bound the workspace.
    - **Pool-then-requantize.** A following max pool is absorbed and runs
      on the raw accumulator (max commutes with the monotone epilogue), so
      the per-element requantize touches k²× fewer elements and no
      full-resolution activation exists.

    The epilogue is either the fused multiply ``clip(⌊q_scale·acc +
    q_offset⌋, 0, top)`` or, in ``int_path="shift"`` mode, the
    multiplier-less :func:`shift_requantize`.  Both are bit-exact
    reorderings of the graph's relu→quantize on exact-integer accumulators.

    Two roles serve residual blocks (multiply epilogue only):

    - ``join="identity"`` / ``"projection"``: the body's last conv also
      reads the block's shortcut (``skip``) and adds it, already expressed
      in the output's counts, before the floor:
      ``clip(⌊q_scale·acc + q_offset + s⌋, 0, top)``.  An identity ``s`` is
      the block input's counts (exact when input and output share one IFC
      gain); a projection ``s`` is the output of a ``partial`` step.
    - ``partial`` (the join's counts window, gain ``g``): a projection
      shortcut conv emits its un-floored
      affine sum in the join's counts, ``α·g·acc + β·g`` (float64, no
      ``+½`` — the join's own ``q_offset`` adds it once).
    """

    kind = "conv2d-int"
    scratch = frozenset({"src", "cols", "acc", "pmid", "pacc", "y", "acci"})

    #: Batch tile.  Tiling exists to bound the im2col workspace for very
    #: large batches (measured: smaller cache-sized tiles are *not* faster
    #: here — BLAS prefers the long batch of panels), so the tile is
    #: deliberately generous.
    _BLOCK = 128
    #: Columns per GEMM call.  One GEMM over the whole ``(K, oh·ow·tile)``
    #: workspace is fastest up to a few thousand columns; beyond that a
    #: narrow-``oc`` product turns bandwidth-bound (LeNet's conv1 at 128
    #: rows: 1.7 ms as one call vs 0.67 ms in 4096-column slices, on a
    #: 2-vCPU Haswell VM with OpenBLAS 0.3.31).
    _GEMM_COLS = 4096

    def __init__(self, index: int, conv: Conv2d, codes: np.ndarray, scale: float,
                 bits: int, rep_in: CountsRep, act: Optional[ActSpec], config,
                 layout_in: str = "batch", join: Optional[str] = None,
                 skip_layout: str = "blast",
                 partial: Optional[CountsRep] = None) -> None:
        Step.__init__(self, index)
        self.conv = conv
        self.layout_in = layout_in
        self._init_int(conv, codes.reshape(conv.out_channels, -1), scale, bits,
                       rep_in, act, config)
        self.partial = partial
        if partial is not None:
            # Projection shortcut: the affine sum in the join's counts.
            self.q_scale = self.alpha * partial.gain
            self.q_offset = self.beta * partial.gain
            self.out_dtype = np.dtype(np.float64)
        elif self.counts_rep is None:
            raise PlanError("integer conv requires a fused M-bit quantizer")
        if join is not None and (self.shift is not None or partial is not None):
            raise PlanError("residual joins need the multiply epilogue")
        self.join = join
        self.skip_layout = skip_layout
        self.codes_mat = np.ascontiguousarray(self.codes_t.T)  # (oc, K)
        self.layout_out = "blast"
        # Per-channel vectors broadcast over the accumulator (oc, ph, pw, tile).
        ax = (-1, 1, 1, 1)
        self.q_off_b = (
            self.q_offset.reshape(ax)
            if isinstance(self.q_offset, np.ndarray) else self.q_offset
        )
        if self.shift is not None:
            ofs = self.shift_offsets
            self.shift_off_b = ofs.reshape(ax) if ofs.ndim else ofs
        self.pool_k: Optional[int] = None
        self.pool_s: Optional[int] = None
        self._programs: Dict[int, tuple] = {}  # copy program per batch size

    def fuse_maxpool(self, mp: MaxPool2d) -> None:
        """Absorb a following max pool: pooling the raw accumulator commutes
        with the per-channel affine + quantize (both monotone in acc), so the
        requantize touches k²× fewer elements and stays bit-exact."""
        self.pool_k = mp.kernel_size
        self.pool_s = mp.stride

    def run(self, x: np.ndarray, pool: BufferPool,
            skip: Optional[np.ndarray] = None) -> np.ndarray:
        m = self.conv
        c, h, w, b = _blast_view(x, self.layout_in).shape
        k, s, p = m.kernel_size, m.stride, m.padding
        oc = m.out_channels
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        if self.pool_k is not None:
            ph = (oh - self.pool_k) // self.pool_s + 1
            pw = (ow - self.pool_k) // self.pool_s + 1
        else:
            ph, pw = oh, ow
        nb = min(b, self._BLOCK)
        tb = b % nb
        # Stage the counts into the carrier dtype with ONE cast (contiguous
        # when the producer is another fused conv); the per-tap window
        # copies below then run dtype-preserving with batch-contiguous
        # inner runs — plain memcpy loops.  Staging also anchors the
        # compiled program on pool-stable buffers only, so it survives
        # callers that alternate input arrays of the same shape.
        sbuf = pool.get((self.index, "src"), (c, h, w, b), self.carrier)
        cols = pool.get((self.index, "cols", nb), (c * k * k, oh * ow, nb),
                        self.carrier)
        tcols = (
            pool.get((self.index, "cols", tb), (c * k * k, oh * ow, tb),
                     self.carrier)
            if tb else None
        )
        prog = self._programs.get(b)
        if (prog is None or prog[0] is not sbuf or prog[1] is not cols
                or prog[2] is not tcols):
            prog = self._build_program(sbuf, cols, tcols, b, c, h, w, oh, ow)
            if not pool.pending:  # a retiring run's temporaries are one-off
                self._programs[b] = prog
        np.copyto(sbuf, _blast_view(x, self.layout_in), casting="unsafe")
        out = pool.get((self.index, "out"), (oc, ph, pw, b), self.out_dtype)
        skipv = None if skip is None else _blast_view(skip, self.skip_layout)
        for s0, s1, cbuf, pairs in prog[3]:
            if p:
                cbuf.fill(0)  # padding injects exact zeros (offset-free rep)
            for dst, src in pairs:
                np.copyto(dst, src, casting="unsafe")
            blen = s1 - s0
            n = oh * ow * blen
            acc = pool.get((self.index, "acc", blen), (oc, n), self.carrier)
            panel = cbuf.reshape(cbuf.shape[0], n)
            step = self._GEMM_COLS
            for j in range(0, n, step):
                np.matmul(self.codes_mat, panel[:, j : j + step],
                          out=acc[:, j : j + step])
            accv = acc.reshape(oc, oh, ow, blen)
            if self.pool_k is not None:
                accv = self._fused_pool(accv, pool, blen)
            self._epilogue(accv, pool, out[..., s0:s1], blen,
                           None if skipv is None else skipv[..., s0:s1])
        return out

    def forget_views(self) -> None:
        self._programs.clear()

    def _build_program(self, sbuf: np.ndarray, cols: np.ndarray,
                       tcols: Optional[np.ndarray], b: int, c: int, h: int,
                       w: int, oh: int, ow: int) -> tuple:
        """Compile the batch-tiled im2col into cached ``(dst, src)`` pairs.

        Runs outside the replay hot path — once per batch size (and again
        after the arena moves); validity is checked by array identity in
        :meth:`run`.  Each tile lowers into the tap-major workspace
        ``(c·k·k, oh·ow, tile)``: an unpadded conv needs exactly one pair
        per tile (a transposed sliding-window view over the staged input),
        and because dst and src both trail with the batch axis, every inner
        copy run is ``tile`` elements long and padded-conv tap pairs need
        no transpose at all.
        """
        m = self.conv
        k, s, p = m.kernel_size, m.stride, m.padding
        win = None
        if p == 0:
            win = np.lib.stride_tricks.sliding_window_view(sbuf, (k, k),
                                                           axis=(1, 2))
            # (c, oh, ow, b, k, k) → (c, k, k, oh, ow, b), tap-major.
            win = win[:, ::s, ::s].transpose(0, 4, 5, 1, 2, 3)
        blocks = []
        nb = cols.shape[2]
        for s0 in range(0, b, nb):
            s1 = min(b, s0 + nb)
            blen = s1 - s0
            cbuf = cols if blen == nb else tcols
            cols_v = cbuf.reshape(c, k, k, oh, ow, blen)
            if p == 0:
                blocks.append((s0, s1, cbuf, [(cols_v, win[..., s0:s1])]))
                continue
            srcb = sbuf[..., s0:s1]
            pairs = []
            for ki in range(k):
                o0h = max(0, -((ki - p) // s))
                o1h = min(oh, (h - 1 - ki + p) // s + 1)
                i0h = ki + o0h * s - p
                for kj in range(k):
                    o0w = max(0, -((kj - p) // s))
                    o1w = min(ow, (w - 1 - kj + p) // s + 1)
                    i0w = kj + o0w * s - p
                    if o1h <= o0h or o1w <= o0w:
                        continue  # tap never lands in-image; stays zero
                    sv = srcb[:, i0h : i0h + (o1h - o0h - 1) * s + 1 : s,
                              i0w : i0w + (o1w - o0w - 1) * s + 1 : s]
                    pairs.append((cols_v[:, ki, kj, o0h:o1h, o0w:o1w], sv))
            blocks.append((s0, s1, cbuf, pairs))
        return (sbuf, cols, tcols, blocks)

    @staticmethod
    def _sep_max(wins: list, out: np.ndarray) -> np.ndarray:
        if len(wins) == 1:
            np.copyto(out, wins[0])
        else:
            np.maximum(wins[0], wins[1], out=out)
            for extra in wins[2:]:
                np.maximum(out, extra, out=out)
        return out

    def _fused_pool(self, accv: np.ndarray, pool: BufferPool,
                    blk: Optional[int]) -> np.ndarray:
        """Max pool the raw accumulator, separably: height first, then width.

        ``2k`` strided maxima instead of ``k²`` — the second stage reads the
        already height-reduced buffer, so the total traffic drops from
        ``k²·|out|`` to ``k·(|mid| + |out|)``.  Max is associative, so the
        staged maxima equal the windowed maxima exactly.  The accumulator
        is ``(oc, oh, ow, tile)``, so pooling slices axes 1 and 2; height
        goes first because its slices keep ``ow·tile``-long contiguous
        runs, leaving the short ``tile``-long runs to the smaller stage.
        """
        pk, ps = self.pool_k, self.pool_s
        oc, oh, ow, blen = accv.shape
        ph = (oh - pk) // ps + 1
        pw = (ow - pk) // ps + 1
        mid = pool.get((self.index, "pmid", blk), (oc, ph, ow, blen), self.carrier)
        self._sep_max(
            [accv[:, pi : pi + (ph - 1) * ps + 1 : ps] for pi in range(pk)],
            mid)
        pacc = pool.get((self.index, "pacc", blk), (oc, ph, pw, blen), self.carrier)
        return self._sep_max(
            [mid[:, :, pj : pj + (pw - 1) * ps + 1 : ps] for pj in range(pk)],
            pacc)

    def _epilogue(self, accv: np.ndarray, pool: BufferPool, out: np.ndarray,
                  blk: Optional[int], skip: Optional[np.ndarray]) -> np.ndarray:
        if self.shift is not None:
            acci = pool.get((self.index, "acci", blk), accv.shape,
                            self.acc_int_dtype)
            # Exact: the carrier holds integers, so the truncating cast is
            # the identity on values.
            np.copyto(acci, accv, casting="unsafe")
            return shift_requantize(acci, self.shift, self.shift_off_b,
                                    self.counts_rep.top, out)
        if self.partial is not None:
            np.multiply(accv, self.q_scale, out=out, casting="unsafe")
            np.add(out, self.q_off_b, out=out)
            return out
        y = pool.get((self.index, "y", blk), accv.shape, np.float64)
        # Fused affine + quantize (see _init_int).  No explicit floor: after
        # the clip y is non-negative, so the truncating cast into ``out`` IS
        # the floor.
        np.multiply(accv, self.q_scale, out=y, casting="unsafe")
        np.add(y, self.q_off_b, out=y)
        if skip is not None:
            np.add(y, skip, out=y)  # the shortcut, in output counts
        np.clip(y, 0.0, self.act.top, out=out, casting="unsafe")
        return out

    def describe(self) -> str:
        c = self.conv
        if self.partial is not None:
            tail = f"affine[gain={self.partial.gain:.4g}]"
        else:
            tail = "none" if self.act is None else self.act.describe()
        if self.pool_k is not None:
            tail += f" + maxpool(k={self.pool_k}, s={self.pool_s})"
        if self.join is not None:
            tail = f"join[{self.join}] + {tail}"
        return (f"conv2d({c.in_channels}→{c.out_channels}, k={c.kernel_size}) "
                f"+ {tail} :: int-gemm[{self._gemm_label()}] → {self.out_dtype.name}"
                f" [batch-last im2col ×{self._BLOCK}]")

    def summarize(self) -> StepIR:
        """Declared IR: fused batch-last conv, including its copy programs.

        The cached im2col ``(dst, src)`` view pairs are exposed as
        :class:`ViewIR` byte extents so the verifier can prove the replay
        copies alias-free (PL602) without re-deriving the tap geometry.
        """
        ws = self._int_workspaces("src", "cols", "acc", "pmid", "pacc")
        ws["out"] = self.out_dtype.name
        ir = self._int_ir((self.layout_in,), self.layout_out, ws)
        if self.partial is not None:
            ir.produces_top = int(self.partial.top)
            ir.produces_gain = self.partial.gain
            ir.partial = True
        if self.join is not None:
            ir.join = JoinIR(self.join, (self.skip_layout,),
                             top=int(self.counts_rep.top), gain=self.counts_rep.gain)
        if self.pool_k is not None:
            ir.fused_pool = (self.pool_k, self.pool_s)
        if self._programs:
            ir.copy_views = [
                (_view_ir(dst), _view_ir(src))
                for prog in self._programs.values()
                for _, _, _, pairs in prog[3]
                for dst, src in pairs
            ]
        return ir


class IntLinearStep(Step, _IntGemmMixin):
    """Integer fast-path linear with the fused (multiply or shift) epilogue."""

    kind = "linear-int"
    scratch = frozenset({"in", "acc", "y", "acci"})

    def __init__(self, index: int, lin: Linear, codes: np.ndarray, scale: float,
                 bits: int, rep_in: CountsRep, act: Optional[ActSpec], config) -> None:
        Step.__init__(self, index)
        self.lin = lin
        self._init_int(lin, codes, scale, bits, rep_in, act, config)
        if self.counts_rep is None:
            raise PlanError("integer linear requires a fused M-bit quantizer")

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        cols = pool.get((self.index, "in"), x.shape, self.carrier)
        np.copyto(cols, x, casting="unsafe")
        acc = pool.get((self.index, "acc"), (cols.shape[0], self.codes_t.shape[1]),
                       self.carrier)
        np.matmul(cols, self.codes_t, out=acc)
        out = pool.get((self.index, "c"), acc.shape, self.out_dtype)
        if self.shift is not None:
            acci = pool.get((self.index, "acci"), acc.shape, self.acc_int_dtype)
            np.copyto(acci, acc, casting="unsafe")
            return shift_requantize(acci, self.shift, self.shift_offsets,
                                    self.counts_rep.top, out)
        y = pool.get((self.index, "y"), acc.shape, np.float64)
        np.multiply(acc, self.q_scale, out=y, casting="unsafe")
        np.add(y, self.q_offset, out=y)
        np.clip(y, 0.0, self.act.top, out=out, casting="unsafe")
        return out

    def describe(self) -> str:
        m = self.lin
        tail = "none" if self.act is None else self.act.describe()
        return (f"linear({m.in_features}→{m.out_features}) + {tail} "
                f":: int-gemm[{self._gemm_label()}] → {self.out_dtype.name}")

    def summarize(self) -> StepIR:
        """Declared IR: flat integer linear with multiply/shift epilogue."""
        ws = self._int_workspaces("in", "acc")
        ws["c"] = self.out_dtype.name
        return self._int_ir(("flat",), "flat", ws)


class SpikingConvStep(Step):
    """Analog-crossbar conv; reads the live ``CrossbarArray`` every run so
    fault injection and remediation reprogramming take effect immediately."""

    kind = "spiking-conv2d"
    scratch = frozenset({"pad", "cols"})

    def __init__(self, index: int, module: SpikingConv2d, act: Optional[ActSpec]) -> None:
        super().__init__(index)
        self.module = module
        self.act = act

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        m = self.module
        b = x.shape[0]
        cols, oh, ow = _im2col_into(
            pool, self.index, x, m.kernel_size, m.stride, m.padding,
            np.float64, extra_cols=m._n_bias_rows,
        )
        values = m.array.multiply_analog(cols)
        values *= m.scale / float(2 ** m.bits)
        if self.act is not None:
            self.act.apply_float(values)
        return _to_nchw(pool, self.index, values, b, oh, ow, m.out_channels, np.float64)

    def describe(self) -> str:
        m = self.module
        tail = "none" if self.act is None else self.act.describe()
        return (f"spiking-conv2d({m.in_channels}→{m.out_channels}, k={m.kernel_size}) "
                f"+ {tail} :: analog/f64")

    def summarize(self) -> StepIR:
        """Declared IR: batch-major analog conv on float64 values."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=("batch",), layout_out="batch",
                      out_dtype="float64",
                      workspaces={"pad": None, "cols": "float64", "nchw": "float64"})


class SpikingLinearStep(Step):
    kind = "spiking-linear"
    scratch = frozenset({""})  # the bias-augmented input copy

    def __init__(self, index: int, module: SpikingLinear, act: Optional[ActSpec]) -> None:
        super().__init__(index)
        self.module = module
        self.act = act

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        m = self.module
        data = x
        if m._n_bias_rows:
            buf = pool.get(self.index, (x.shape[0], m.in_features + m._n_bias_rows),
                           np.float64)
            buf[:, : m.in_features] = x
            buf[:, m.in_features :] = 1.0
            data = buf
        values = m.array.multiply_analog(data)
        values *= m.scale / float(2 ** m.bits)
        if self.act is not None:
            self.act.apply_float(values)
        return values

    def describe(self) -> str:
        m = self.module
        tail = "none" if self.act is None else self.act.describe()
        return (f"spiking-linear({m.in_features}→{m.out_features}) "
                f"+ {tail} :: analog/f64")

    def summarize(self) -> StepIR:
        """Declared IR: flat analog linear on float64 values."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=("flat",), layout_out="flat",
                      out_dtype="float64", workspaces={"": "float64"})


class MaxPoolStep(Step):
    """Max pool over the two trailing axes (so any leading layout works).

    One strided ``np.maximum`` per kernel offset — k² passes over the
    output instead of a reduction over a 6-D window view, which is an
    order of magnitude faster and takes the same maxima exactly.
    """

    kind = "maxpool"

    def __init__(self, index: int, module: MaxPool2d) -> None:
        super().__init__(index)
        self.kernel = module.kernel_size
        self.stride = module.stride

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        *lead, h, w = x.shape
        k, s = self.kernel, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        out = pool.get(self.index, (*lead, oh, ow), x.dtype)
        np.copyto(out, x[..., : (oh - 1) * s + 1 : s, : (ow - 1) * s + 1 : s])
        for i in range(k):
            for j in range(k):
                if i == 0 and j == 0:
                    continue
                region = x[..., i : i + (oh - 1) * s + 1 : s, j : j + (ow - 1) * s + 1 : s]
                np.maximum(out, region, out=out)
        return out

    def describe(self) -> str:
        return f"maxpool(k={self.kernel}, s={self.stride})"

    def summarize(self) -> StepIR:
        """Declared IR: pools trailing axes of batch-major activations."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=("batch",), rep_passthrough=True,
                      workspaces={"": None})


class AvgPoolStep(Step):
    kind = "avgpool"

    def __init__(self, index: int, module: AvgPool2d, dtype) -> None:
        super().__init__(index)
        self.kernel = module.kernel_size
        self.stride = module.stride
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        b, c, h, w = x.shape
        k, s = self.kernel, self.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        windows = windows[:, :, ::s, ::s, :, :]
        out = pool.get(self.index, (b, c, oh, ow), self.dtype)
        np.mean(windows, axis=(-2, -1), out=out)
        return out

    def describe(self) -> str:
        return f"avgpool(k={self.kernel}, s={self.stride})"

    def summarize(self) -> StepIR:
        """Declared IR: batch-major average pooling on float values."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=("batch",), layout_out="batch",
                      out_dtype=self.dtype.name, workspaces={"": self.dtype.name})


class GlobalAvgPoolStep(Step):
    kind = "gap"

    def __init__(self, index: int, dtype) -> None:
        super().__init__(index)
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        b, c, h, w = x.shape
        out = pool.get(self.index, (b, c), self.dtype)
        # The same C-contiguous reduction as F.global_avg_pool2d, so the
        # sums do not depend on the producer's memory layout.
        np.sum(np.ascontiguousarray(x).reshape(b, c, h * w), axis=2, out=out)
        out *= 1.0 / (h * w)
        return out

    def summarize(self) -> StepIR:
        """Declared IR: batch-major in, flat (B, C) out."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=("batch",), layout_out="flat",
                      out_dtype=self.dtype.name, workspaces={"": self.dtype.name})


class BatchNormEvalStep(Step):
    """Inference-mode batchnorm (rarely survives deployment — BN is folded)."""

    kind = "batchnorm"

    def __init__(self, index: int, module: BatchNorm2d, dtype) -> None:
        super().__init__(index)
        self.module = module
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        m = self.module
        shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
        inv_std = 1.0 / np.sqrt(m.running_var + m.eps)
        buf = pool.get(self.index, x.shape, self.dtype)
        np.subtract(x, m.running_mean.reshape(shape), out=buf, casting="unsafe")
        buf *= inv_std.reshape(shape)
        buf *= m.gamma.data.reshape(shape)
        buf += m.beta.data.reshape(shape)
        return buf

    def summarize(self) -> StepIR:
        """Declared IR: per-channel affine, layout preserved."""
        return StepIR(self.index, self.kind, self.describe(),
                      out_dtype=self.dtype.name, workspaces={"": self.dtype.name})


class JoinStep(Step):
    """Residual join on float values: ``act(body + shortcut)``, in the
    graph's order.

    The fallback for joins the integer epilogue cannot absorb (a float or
    spiking branch, unequal gains, ``int_path="off"``).  Both inputs arrive
    as batch-major float values; with ``counts_rep`` the fused quantizer
    emits integer counts, otherwise the activation runs on float values.
    """

    kind = "join"

    def __init__(self, index: int, act: Optional[ActSpec], dtype,
                 counts_rep: Optional[CountsRep] = None) -> None:
        super().__init__(index)
        self.act = act
        self.dtype = np.dtype(dtype)
        self.counts_rep = counts_rep
        self.out_dtype = (
            _counts_dtype(counts_rep.top) if counts_rep is not None else self.dtype
        )
        self.scratch = frozenset({"sum"} if counts_rep is not None else ())

    def run(self, x: np.ndarray, pool: BufferPool,
            skip: Optional[np.ndarray] = None) -> np.ndarray:
        buf = pool.get((self.index, "sum"), x.shape, self.dtype)
        np.add(x, skip, out=buf, casting="unsafe")
        if self.counts_rep is None:
            if self.act is not None:
                self.act.apply_float(buf)
            return buf
        self.act.apply_counts(buf)
        counts = pool.get((self.index, "c"), x.shape, self.out_dtype)
        np.copyto(counts, buf, casting="unsafe")
        return counts

    def describe(self) -> str:
        tail = "none" if self.act is None else self.act.describe()
        rep = f"{self.out_dtype.name}-counts" if self.counts_rep is not None else self.dtype.name
        return f"join[float] + {tail} :: {rep}"

    def summarize(self) -> StepIR:
        """Declared IR: batch-major float join, optionally emitting counts."""
        return StepIR(
            self.index, self.kind, self.describe(),
            layouts_in=("batch",), layout_out="batch",
            out_dtype=self.out_dtype.name,
            produces_top=(int(self.counts_rep.top) if self.counts_rep is not None else None),
            produces_gain=(self.counts_rep.gain if self.counts_rep is not None else None),
            join=JoinIR("float", ("batch",)),
            workspaces={"sum": self.dtype.name, "c": self.out_dtype.name},
        )


class BatchLastToBatchStep(Step):
    """Restore batch-last ``(C, H, W, B)`` int conv activations to
    batch-major ``(B, C, H, W)``."""

    kind = "to-nchw"

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        c, h, w, b = x.shape
        out = pool.get(self.index, (b, c, h, w), x.dtype)
        np.copyto(out, x.transpose(3, 0, 1, 2))
        return out

    def summarize(self) -> StepIR:
        """Declared IR: batch-last in, batch-major out."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=("blast",), layout_out="batch",
                      rep_passthrough=True, workspaces={"": None})


class FlattenStep(Step):
    kind = "flatten"

    def __init__(self, index: int, layout: str = "batch") -> None:
        super().__init__(index)
        self.layout = layout

    def run(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        if self.layout == "blast":
            b = x.shape[-1]
            out = pool.get(self.index, (b, x.size // b), x.dtype)
            np.copyto(out, x.reshape(-1, b).T)
            return out
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def summarize(self) -> StepIR:
        """Declared IR: flattens the declared source layout to (B, features)."""
        return StepIR(self.index, self.kind, self.describe(),
                      layouts_in=(self.layout,), layout_out="flat",
                      rep_passthrough=True, workspaces={"": None})


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

_ATOMIC = (
    Conv2d, Linear, BatchNorm2d, ReLU, MaxPool2d, AvgPool2d, GlobalAvgPool2d,
    Flatten, Dropout, Identity, QuantizedActivation, DynamicQuantizedActivation,
    InputQuantizer, SpikingConv2d, SpikingLinear,
)


@dataclass
class _Join:
    """A residual block as the walk sees it: three walked sub-sequences."""

    body: list
    shortcut: list
    activation: list


def _walk(module: Module) -> Tuple[list, List[Module]]:
    """Lower ``module`` and walk it into compile items plus its leaves.

    Items are atomic modules in dataflow order, with one :class:`_Join`
    per residual block; no-op leaves (``Identity``, eval-mode ``Dropout``)
    are dropped from the items but kept in the leaves, which the plan
    snapshots for staleness.  Lowering goes through
    :func:`repro.snc.nir.lower_module` — the one NIR export uses — with
    the atomic classes kept as leaves.  A declaration-order lowerer that
    disagrees with its class's ``forward`` is caught by the compiled
    plan's trace-time check against the graph.
    """
    try:
        lowered = lower_module(module, leaves=_ATOMIC)
    except ValueError as exc:
        raise PlanError(str(exc)) from None
    leaves: List[Module] = []

    def visit(m: Module) -> list:
        if isinstance(m, _ATOMIC):
            if isinstance(m, (BatchNorm2d, Dropout)) and m.training:
                raise PlanError(
                    f"{type(m).__name__} is in training mode; plans are inference-only")
            leaves.append(m)
            return [] if isinstance(m, (Identity, Dropout)) else [m]
        if isinstance(m, _PrependInput):
            return visit(m.input_quantizer) + visit(m.network)
        if isinstance(m, Sequential):
            return [item for child in m.layers for item in visit(child)]
        if isinstance(m, Residual):
            return [_Join(visit(m.body), visit(m.shortcut), visit(m.activation))]
        raise PlanError(f"no step compilation for {type(m).__name__}")

    items = visit(lowered)
    if not leaves:
        raise PlanError("module has no traceable layers")
    return items, leaves


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

_WEIGHT_TYPES = (Conv2d, Linear, SpikingConv2d, SpikingLinear)
_ACT_TYPES = (ReLU, QuantizedActivation, DynamicQuantizedActivation)


class _Compiler:
    """Emits steps for walked items, tracking the current value's slot,
    representation (float values or a :class:`CountsRep`) and layout."""

    def __init__(self, config, int_mode: bool, dtype) -> None:
        self.config = config
        self.int_mode = int_mode
        self.dtype = dtype
        self.steps: List[Step] = []
        self.int_steps = 0
        self.slot = 0
        self.held: set = set()  # slots whose value a later join still reads
        self.rep: Optional[CountsRep] = FLOAT_REP
        # Int convs emit activations batch-last, "blast" (C,H,W,B); a step
        # that cannot read it gets a BatchLastToBatchStep first.
        self.layout = "batch"

    @property
    def index(self) -> int:
        return len(self.steps)

    def add(self, step: Step, skip: Optional[int] = None) -> Step:
        """Append ``step`` reading the current value (and ``skip``); its
        output overwrites the current slot unless a join still holds it."""
        src = self.slot
        dst = src
        if src in self.held:
            dst = next(i for i in range(len(self.held) + 1) if i not in self.held)
        step.inputs = (src,) if skip is None else (src, skip)
        step.output = dst
        self.slot = dst
        self.steps.append(step)
        return step

    def restore_batch_major(self) -> None:
        if self.layout != "batch":
            self.add(BatchLastToBatchStep(self.index))
            self.layout = "batch"

    def dequant_if_counts(self) -> None:
        self.restore_batch_major()
        if self.rep is not None:
            self.add(DequantStep(self.index, self.rep, self.dtype))
            self.rep = FLOAT_REP

    def int_ready(self, m: Module, act: Optional[ActSpec]) -> bool:
        """Can weight layer ``m`` run as an integer GEMM here?"""
        if not self.int_mode or _grid_codes(m) is None:
            return False
        # The integer rescale y = α·acc + β rounds differently from the
        # graph's float GEMM; inside the chain the next quantizer absorbs
        # that (counts agree exactly), but a layer with no quantized
        # activation after it — the classifier tail — would leak the
        # difference into the logits.  Such layers run through the float
        # path on dequantized values instead, so int plans reproduce the
        # graph's output bit for bit.
        if self.rep is None or act is None or act.bits is None:
            return False
        # β folds the representation offset as offset·Σ_k w_k, which
        # assumes every GEMM column carries it — zero-padding injects true
        # zeros instead, so a padded conv on an offset-carrying rep (the
        # input quantizer's) must dequantize and run float.
        return not (isinstance(m, Conv2d) and m.padding > 0 and self.rep.offset != 0.0)

    def int_conv(self, m: Conv2d, act: Optional[ActSpec], **kwargs) -> Step:
        codes, scale, bits = _grid_codes(m)
        step = IntConvStep(self.index, m, codes, scale, bits, self.rep, act,
                           self.config, layout_in=self.layout, **kwargs)
        self.int_steps += 1
        return step

    def chain(self, items: list) -> None:
        i = 0
        while i < len(items):
            m = items[i]
            if isinstance(m, _Join):
                self.residual(m)
                i += 1
                continue
            nxt = items[i + 1] if i + 1 < len(items) else None
            fused_act: Optional[ActSpec] = None
            if isinstance(m, _WEIGHT_TYPES) and isinstance(nxt, _ACT_TYPES):
                fused_act = _act_spec(nxt)

            if isinstance(m, InputQuantizer):
                if self.int_mode:
                    step = self.add(InputQuantCountsStep(self.index, m))
                    self.rep = step.rep
                else:
                    self.add(InputQuantFloatStep(self.index, m, self.dtype))

            elif isinstance(m, (SpikingConv2d, SpikingLinear)):
                self.dequant_if_counts()
                cls = SpikingConvStep if isinstance(m, SpikingConv2d) else SpikingLinearStep
                self.add(cls(self.index, m, fused_act))

            elif isinstance(m, (Conv2d, Linear)):
                if self.int_ready(m, fused_act):
                    if isinstance(m, Conv2d):
                        step = self.int_conv(m, fused_act)
                        # conv → quant → maxpool: absorb the pool into the
                        # conv step so the rescale runs on the pooled
                        # accumulator.
                        if i + 2 < len(items) and isinstance(items[i + 2], MaxPool2d):
                            step.fuse_maxpool(items[i + 2])
                            i += 1  # the max pool was fused
                        self.layout = step.layout_out
                    else:
                        codes, scale, bits = _grid_codes(m)
                        step = IntLinearStep(self.index, m, codes, scale, bits,
                                             self.rep, fused_act, self.config)
                        self.int_steps += 1
                    self.add(step)
                    self.rep = step.counts_rep
                else:
                    self.dequant_if_counts()
                    counts_rep = None
                    if self.int_mode and fused_act is not None and fused_act.bits is not None:
                        counts_rep = CountsRep(fused_act.gain, 0.0, int(fused_act.top), "act")
                    cls = FloatConvStep if isinstance(m, Conv2d) else FloatLinearStep
                    self.add(cls(self.index, m, fused_act, self.dtype, counts_rep))
                    self.rep = counts_rep

            elif isinstance(m, _ACT_TYPES):
                self.dequant_if_counts()
                self.add(ActStep(self.index, _act_spec(m), self.dtype))

            elif isinstance(m, MaxPool2d):
                # MaxPoolStep pools the trailing axes; batch-last keeps
                # space in the middle, so restore batch-major first.
                self.restore_batch_major()
                self.add(MaxPoolStep(self.index, m))  # monotone: counts pass through

            elif isinstance(m, AvgPool2d):
                self.dequant_if_counts()
                self.add(AvgPoolStep(self.index, m, self.dtype))

            elif isinstance(m, GlobalAvgPool2d):
                self.dequant_if_counts()
                self.add(GlobalAvgPoolStep(self.index, self.dtype))

            elif isinstance(m, BatchNorm2d):
                self.dequant_if_counts()
                self.add(BatchNormEvalStep(self.index, m, self.dtype))

            elif isinstance(m, Flatten):
                self.add(FlattenStep(self.index, layout=self.layout))
                self.layout = "batch"

            else:  # pragma: no cover - _ATOMIC and branches must stay in sync
                raise PlanError(f"no step compilation for {type(m).__name__}")

            if fused_act is not None:
                i += 1  # the activation was fused
            i += 1

    def residual(self, join: _Join) -> None:
        """Compile one residual block: body, shortcut, join, activation.

        The join fuses into the body's last integer conv when the block's
        activation is an enabled M-bit quantizer and the shortcut can be
        expressed in its output counts; otherwise both branches are
        dequantized and added in float64 by a :class:`JoinStep`.
        """
        x_slot, x_rep, x_layout = self.slot, self.rep, self.layout
        self.held.add(x_slot)
        act = None
        if len(join.activation) == 1 and isinstance(join.activation[0], _ACT_TYPES):
            act = _act_spec(join.activation[0])
        body = join.body
        last = body[-1] if body else None
        fusable = (
            self.int_mode and self.config.int_path != "shift"
            and act is not None and act.bits is not None
            and isinstance(last, Conv2d)
        )
        self.chain(body[:-1] if fusable else body)
        if fusable:
            mode = self._int_join_mode(join.shortcut, x_rep, act)
            if mode is not None and self.int_ready(last, act):
                self._int_join(last, act, mode, join.shortcut, x_slot, x_rep, x_layout)
                return
            self.chain(body[-1:])
        self._float_join(join, act, x_slot, x_rep, x_layout)

    @staticmethod
    def _int_join_mode(shortcut: list, x_rep: Optional[CountsRep],
                       act: ActSpec) -> Optional[str]:
        """``"identity"``/``"projection"`` if the shortcut can enter the
        body's epilogue in output counts, else None."""
        if x_rep is None:
            return None
        if not shortcut:
            # counts/gain_in · gain_out = counts exactly iff the gains agree.
            same = (x_rep.style == "act" and x_rep.offset == 0.0
                    and x_rep.gain == act.gain and x_rep.top == int(act.top))
            return "identity" if same else None
        conv = shortcut[0]
        if (len(shortcut) == 1 and isinstance(conv, Conv2d)
                and _grid_codes(conv) is not None
                and not (conv.padding > 0 and x_rep.offset != 0.0)):
            return "projection"
        return None

    def _int_join(self, conv: Conv2d, act: ActSpec, mode: str, shortcut: list,
                  x_slot: int, x_rep: CountsRep, x_layout: str) -> None:
        b_slot, b_rep, b_layout = self.slot, self.rep, self.layout
        skip, skip_layout = x_slot, x_layout
        if mode == "projection":
            self.held.add(b_slot)
            self.slot, self.rep, self.layout = x_slot, x_rep, x_layout
            partial = CountsRep(act.gain, 0.0, int(act.top), "act")
            self.add(self.int_conv(shortcut[0], None, partial=partial))
            skip, skip_layout = self.slot, "blast"
            self.held.discard(b_slot)
        self.held.discard(x_slot)
        self.slot, self.rep, self.layout = b_slot, b_rep, b_layout
        step = self.int_conv(conv, act, join=mode, skip_layout=skip_layout)
        self.add(step, skip=skip)
        self.rep, self.layout = step.counts_rep, step.layout_out

    def _float_join(self, join: _Join, act: Optional[ActSpec], x_slot: int,
                    x_rep: Optional[CountsRep], x_layout: str) -> None:
        self.dequant_if_counts()
        b_slot = self.slot
        self.held.add(b_slot)
        self.slot, self.rep, self.layout = x_slot, x_rep, x_layout
        self.chain(join.shortcut)
        self.dequant_if_counts()
        skip = self.slot
        self.held.difference_update((x_slot, b_slot))
        self.slot = b_slot
        counts_rep = None
        if self.int_mode and act is not None and act.bits is not None:
            counts_rep = CountsRep(act.gain, 0.0, int(act.top), "act")
        self.add(JoinStep(self.index, act, self.dtype, counts_rep), skip=skip)
        self.rep, self.layout = counts_rep, "batch"
        if act is None:
            self.chain(join.activation)


class ExecutionPlan:
    """A compiled flat program: ordered steps wired through a value list,
    plus their buffer pool."""

    def __init__(self, steps: Sequence[Step], leaves: Sequence[Module], dtype,
                 int_steps: int, int_path: str = "auto") -> None:
        self.steps = list(steps)
        self.pool = BufferPool({step.index: step.scratch for step in self.steps},
                               on_move=[step.forget_views for step in self.steps])
        self.dtype = np.dtype(dtype)
        self.int_steps = int_steps
        self.int_path = int_path
        # (step, main slot, shortcut slot or None, output slot) per step.
        self._wiring = [
            (step, step.inputs[0], step.inputs[1] if len(step.inputs) > 1 else None,
             step.output)
            for step in self.steps
        ]
        self._slots = 1 + max((max(*s.inputs, s.output) for s in self.steps), default=0)
        self._out = self.steps[-1].output if self.steps else 0
        self._leaves = list(leaves)
        self._structure_sig = _structure_signature(self._leaves)
        # Byte snapshots: staleness is checked on every engine run, and a
        # memcmp over the raw bytes is several times cheaper than an
        # elementwise array compare.
        self._weight_snaps = [
            (m, m.weight.data.shape, m.weight.data.tobytes(),
             None if getattr(m, "bias", None) is None else m.bias.data.tobytes())
            for m in self._leaves if isinstance(m, (Conv2d, Linear))
        ]

    @property
    def uses_int_path(self) -> bool:
        return self.int_steps > 0

    def run(self, x: np.ndarray) -> np.ndarray:
        pool = self.pool
        pool.rows = len(x)
        values = [x] * self._slots
        for step, src, skip, dst in self._wiring:
            if skip is None:
                values[dst] = step.run(values[src], pool)
            else:
                values[dst] = step.run(values[src], pool, values[skip])
        if pool.pending:
            pool.settle()
        return values[self._out]

    def run_timed(self, x: np.ndarray, telemetry, model: str = "") -> np.ndarray:
        """Replay the plan recording a span and an op-class timing per step.

        Semantically identical to :meth:`run` — the same steps execute on
        the same pool; only clock reads (through the telemetry's injected
        clock) and metric writes are added.  Step histograms are keyed by
        ``kind`` (the op class: ``conv2d``, ``linear-int``, ...), and each
        step emits a ``plan.<kind>`` span parented under whatever span the
        caller holds open.  Instruments are resolved once per (plan,
        telemetry) pairing and cached, so the per-step overhead is two
        clock reads plus two lock-protected appends.
        """
        instruments = self._step_instruments(telemetry, model)
        clock = telemetry.clock
        tracer = telemetry.tracer
        pool = self.pool
        pool.rows = len(x)
        values = [x] * self._slots
        for (step, src, skip, dst), (hist, span_name, index) in zip(
                self._wiring, instruments):
            t0 = clock()
            if skip is None:
                values[dst] = step.run(values[src], pool)
            else:
                values[dst] = step.run(values[src], pool, values[skip])
            t1 = clock()
            hist.observe(t1 - t0)
            tracer.record(span_name, t0, t1, index=index)
        if pool.pending:
            pool.settle()
        return values[self._out]

    def _step_instruments(self, telemetry, model: str) -> list:
        cache = getattr(self, "_obs_cache", None)
        if cache is None or cache[0] is not telemetry:
            instruments = [
                (
                    telemetry.registry.histogram(
                        "plan_step_seconds", help="Wall time of one plan step",
                        kind=step.kind, model=model,
                    ),
                    f"plan.{step.kind}",
                    step.index,
                )
                for step in self.steps
            ]
            self._obs_cache = (telemetry, instruments)
            return instruments
        return cache[1]

    def is_stale(self) -> bool:
        """True when the traced structure or any traced weight changed.

        Spiking layers read their crossbars live, so hardware reprogramming
        never stales a plan; software Conv2d/Linear weights are snapshotted
        at compile time (remediation or re-quantization mutates them in
        place, which must trigger a re-trace).
        """
        if _structure_signature(self._leaves) != self._structure_sig:
            return True
        for module, w_shape, w_bytes, b_bytes in self._weight_snaps:
            w = module.weight.data
            if w.shape != w_shape or w.tobytes() != w_bytes:
                return True
            if b_bytes is not None and module.bias.data.tobytes() != b_bytes:
                return True
        return False

    def summarize(self) -> PlanIR:
        """The plan's declared IR: per-step contracts plus its pool.

        This is the surface :mod:`repro.check.plancheck` verifies.  Steps
        declare layouts, counts windows, GEMM geometry, value slots,
        workspace and scratch tags, and copy-program views; the pool
        reports what replay actually allocated and which arrays it laid
        out in the scratch arena — so the verifier can cross-examine
        declaration against reality without reaching into private step
        state.
        """
        buffers = []
        for key, shape, dtype, buf, scratch, rows in self.pool.records():
            owner, tag = _pool_key_owner(key)
            extent = _view_ir(buf)
            buffers.append(BufferIR(owner=owner, tag=tag, shape=shape,
                                    dtype=dtype.name, base=extent.base,
                                    nbytes=buf.nbytes, scratch=scratch, rows=rows,
                                    lo=extent.lo, hi=extent.hi))
        steps = []
        for step in self.steps:
            ir = step.summarize()
            ir.inputs, ir.output = tuple(step.inputs), step.output
            ir.scratch = tuple(sorted(step.scratch))
            steps.append(ir)
        return PlanIR(steps=steps, buffers=buffers, dtype=self.dtype.name,
                      int_steps=self.int_steps, int_path=self.int_path,
                      arena=id(self.pool.arena))

    def describe(self) -> str:
        lines = [
            f"ExecutionPlan: {len(self.steps)} steps, dtype={self.dtype.name}, "
            f"int fast-path steps={self.int_steps}, pooled buffers={len(self.pool)}"
        ]
        for i, step in enumerate(self.steps):
            lines.append(f"  [{i}] {step.describe()}")
        return "\n".join(lines)


def _structure_signature(leaves: Sequence[Module]) -> Tuple:
    sig = []
    for m in leaves:
        entry: Tuple = (id(m), type(m).__name__, m.training)
        if isinstance(m, QuantizedActivation):
            entry += (m.bits, float(m.gain), m.enabled)
        if isinstance(m, InputQuantizer):
            entry += (m.bits, float(m.gain), float(m.offset))
        sig.append(entry)
    return tuple(sig)


def compile_plan(module: Module, sample: np.ndarray, config) -> ExecutionPlan:
    """Lower, walk and compile ``module`` into an :class:`ExecutionPlan`.

    ``config`` is an ``EngineConfig`` (duck-typed: dtype, int_path,
    verify_on_trace).  With ``verify_on_trace`` the
    plan is checked against one graph forward on ``sample``.  Raises
    :class:`PlanError` when the module cannot be compiled or the compiled
    plan fails that check.
    """
    items, leaves = _walk(module)
    # Is the integer fast path worth attempting?  Only for networks with at
    # least one software weight layer on a clustering grid.
    int_mode = config.int_path != "off" and any(
        isinstance(m, (Conv2d, Linear)) and _grid_codes(m) is not None for m in leaves
    )
    # Any float arithmetic inside an int plan runs in float64 so the fast
    # path stays comparable to the graph executor at tie-breaking precision.
    dtype = np.dtype(np.float64) if int_mode else np.dtype(config.dtype)

    compiler = _Compiler(config, int_mode, dtype)
    compiler.chain(items)
    compiler.restore_batch_major()
    if compiler.rep is not None:
        compiler.add(DequantStep(compiler.index, compiler.rep, dtype))
    plan = ExecutionPlan(compiler.steps, leaves, dtype, compiler.int_steps,
                         int_path=("off" if not int_mode else config.int_path))

    if config.verify_on_trace:
        batch = np.asarray(sample, dtype=np.float64)
        with no_grad():
            ref_out = module(Tensor(batch)).data
        # The first run sizes the scratch arena (its scratch is temporary);
        # the second replays from the arena, so the plan verifier sees the
        # laid-out views and copy programs.  Both must agree.
        first = plan.run(batch).copy()
        got = plan.run(batch)
        if not np.array_equal(first, got):
            raise PlanError("compiled plan replays differ between runs")
        scale = max(1.0, float(np.abs(ref_out).max()))
        if plan.uses_int_path or plan.dtype != np.float64:
            ok = np.allclose(got, ref_out, rtol=1e-3, atol=1e-3 * scale)
        else:
            ok = np.allclose(got, ref_out, rtol=1e-10, atol=1e-10 * scale)
        if not ok:
            raise PlanError("compiled plan output deviates from the graph executor")
    return plan
