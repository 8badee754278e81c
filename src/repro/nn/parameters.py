"""Named parameter collections with functional *and* in-place arithmetic.

``Parameters`` is the unit of state the whole system moves around: the
global model in a checkpoint, a client's weighted update ``Δ``, and the
aggregated sums of Secure Aggregation are all ``Parameters`` (or their
flattened-vector image).

Two APIs coexist:

* the **functional API** (``+``, ``-``, :meth:`Parameters.scale`,
  :meth:`Parameters.axpy`, :func:`weighted_mean`) returns new objects and
  never mutates its inputs — safe for concurrent actors sharing a global
  model, and byte-for-byte identical to the original implementation;
* the **in-place API** (:meth:`Parameters.copy_from_`,
  :meth:`Parameters.zero_`, :meth:`Parameters.add_`, and everything on
  :class:`StackedParameters` and :class:`ParameterAccumulator`) mutates
  ``self`` with zero allocation, for the cohort kernels and the
  aggregation fold.  Every in-place op performs the *same elementwise
  float operations in the same order* as its functional twin, so the two
  produce byte-identical results (guarded by
  ``tests/nn/test_inplace_equivalence.py``).

Flattening goes through a cached :class:`ParameterLayout` so repeated
``to_vector``/``from_vector`` round trips never recompute offsets, and a
:class:`ParameterAccumulator` owns one pre-allocated buffer per structure
for streaming ``Σ w_k · x_k`` aggregation — the paper's "process updates
online as they are received without a need to store them" (Sec. 10).

Buffer-ownership invariants (see ROADMAP.md "Performance"):

* a flat-backed ``Parameters`` (one produced by
  :meth:`ParameterLayout.unflatten` or :meth:`Parameters.from_vector`)
  *aliases* its backing vector; mutating one mutates the other;
* :attr:`ParameterAccumulator.sum_vector` is the accumulator's live
  buffer, not a copy — callers may read it, or take ownership only when
  the accumulator is discarded afterwards (the per-round aggregators do
  exactly that at flush time);
* everything else (``to_vector()`` with no ``out``, the functional ops,
  :meth:`ParameterAccumulator.mean`) returns freshly-owned storage.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from itertools import accumulate
from typing import Callable

import numpy as np


class ParameterLayout:
    """Immutable flattening recipe for one parameter structure.

    Records, once, the name/shape/offset of every array in flattening
    order so that ``to_vector``/``from_vector`` and the streaming
    accumulator never recompute them.  Layouts compare (and hash) by
    structure, so one layout can serve every ``Parameters`` instance of
    the same model.
    """

    __slots__ = ("names", "shapes", "sizes", "offsets", "total_size", "_key")

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        self.names: tuple[str, ...] = tuple(shapes)
        self.shapes: tuple[tuple[int, ...], ...] = tuple(
            tuple(s) for s in shapes.values()
        )
        self.sizes: tuple[int, ...] = tuple(int(math.prod(s)) for s in self.shapes)
        *offsets, self.total_size = accumulate(self.sizes, initial=0)
        self.offsets: tuple[int, ...] = tuple(offsets)
        self._key = tuple(zip(self.names, self.shapes))

    @classmethod
    def of(cls, params: "Parameters") -> "ParameterLayout":
        return cls(params.shapes())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ParameterLayout) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ParameterLayout({self.total_size} params, {len(self.names)} arrays)"

    # -- buffer construction -------------------------------------------------
    def empty(self) -> np.ndarray:
        """A new uninitialised flat buffer of this layout's total size."""
        return np.empty(self.total_size, dtype=np.float64)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.total_size, dtype=np.float64)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Per-array reshaped views into ``vector`` (no copies)."""
        if vector.size != self.total_size:
            raise ValueError(
                f"vector has {vector.size} entries, layout needs {self.total_size}"
            )
        return {
            name: vector[off : off + size].reshape(shape)
            for name, off, size, shape in zip(
                self.names, self.offsets, self.sizes, self.shapes
            )
        }

    def unflatten(self, vector: np.ndarray) -> "Parameters":
        """Wrap a flat vector as flat-backed ``Parameters`` (views, no copy)."""
        vector = np.asarray(vector, dtype=np.float64)
        params = Parameters.__new__(Parameters)
        params._arrays = self.views(vector)
        params._flat = vector
        params._layout = self
        return params

    def stacked(self, rows: int) -> "StackedParameters":
        """``rows`` zero-initialised parameter sets stacked along a
        leading cohort axis (see :class:`StackedParameters`)."""
        return StackedParameters(self, rows)


class Parameters(Mapping[str, np.ndarray]):
    """Ordered mapping ``name -> float64 array``.

    Functional arithmetic returns new ``Parameters`` (safe to share across
    actors); the underscore-suffixed methods mutate in place for the hot
    path.  A ``Parameters`` may be *flat-backed*: its arrays are views of
    one contiguous vector (see :meth:`ParameterLayout.unflatten`), which
    lets whole-model ops run as a single vector op.
    """

    __slots__ = ("_arrays", "_flat", "_layout")

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        self._arrays: dict[str, np.ndarray] = {
            name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()
        }
        self._flat: np.ndarray | None = None
        self._layout: ParameterLayout | None = None

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def __repr__(self) -> str:
        shapes = ", ".join(f"{k}:{v.shape}" for k, v in self._arrays.items())
        return f"Parameters({shapes})"

    def __reduce__(self):
        # A naive pickle of a flat-backed instance would copy the backing
        # vector and each view separately, silently severing the aliasing
        # the in-place op set relies on.  Rebuild through the layout so
        # restored instances are flat-backed again — and instances that
        # shared one backing vector still share it (pickle memoizes the
        # vector object).
        if self._flat is not None:
            return (_restore_flat_parameters, (self.layout, self._flat))
        return (Parameters, (self._arrays,))

    # -- structure ----------------------------------------------------------
    @property
    def layout(self) -> ParameterLayout:
        """This structure's flattening layout (computed once, then cached)."""
        if self._layout is None:
            self._layout = ParameterLayout.of(self)
        return self._layout

    @property
    def flat_base(self) -> np.ndarray | None:
        """The backing vector when flat-backed, else ``None``.

        The returned vector *aliases* this object's arrays.
        """
        return self._flat

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count across all arrays."""
        return sum(a.size for a in self._arrays.values())

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {k: v.shape for k, v in self._arrays.items()}

    def same_structure(self, other: "Parameters") -> bool:
        return self.shapes() == other.shapes()

    def _require_same_structure(self, other: "Parameters") -> None:
        if not self.same_structure(other):
            raise ValueError(
                f"parameter structure mismatch: {self.shapes()} vs {other.shapes()}"
            )

    def _check_structure_fast(self, other: "Parameters") -> None:
        """Hot-path structure check: compare cached layouts (tuple
        equality at C speed) and only fall back to the dict comparison —
        which tolerates re-ordered but equal structures — on mismatch."""
        a = self.layout
        b = other.layout
        if a is b or a == b:
            return
        self._require_same_structure(other)

    def _flat_pair(self, other: "Parameters") -> bool:
        """True when both operands are flat-backed with matching layout, so
        a whole-model op can run as one vector op.  (Flat-backed params
        always carry a layout; the identity check makes the common case —
        views of buffers built from one shared layout — attribute-cheap.)"""
        if self._flat is None or other._flat is None:
            return False
        a, b = self._layout, other._layout
        return a is b or a == b

    # -- construction -------------------------------------------------------
    def copy(self) -> "Parameters":
        if self._flat is not None:
            return self.layout.unflatten(self._flat.copy())
        return Parameters({k: v.copy() for k, v in self._arrays.items()})

    def zeros_like(self) -> "Parameters":
        return self.layout.unflatten(self.layout.zeros())

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Parameters":
        return Parameters({k: fn(v) for k, v in self._arrays.items()})

    # -- functional arithmetic ----------------------------------------------
    def __add__(self, other: "Parameters") -> "Parameters":
        self._require_same_structure(other)
        if self._flat_pair(other):
            return self.layout.unflatten(self._flat + other._flat)
        return Parameters({k: v + other[k] for k, v in self._arrays.items()})

    def __sub__(self, other: "Parameters") -> "Parameters":
        self._require_same_structure(other)
        if self._flat_pair(other):
            return self.layout.unflatten(self._flat - other._flat)
        return Parameters({k: v - other[k] for k, v in self._arrays.items()})

    def scale(self, factor: float) -> "Parameters":
        if self._flat is not None:
            return self.layout.unflatten(self._flat * factor)
        return Parameters({k: v * factor for k, v in self._arrays.items()})

    def axpy(self, alpha: float, other: "Parameters") -> "Parameters":
        """Return ``self + alpha * other``."""
        self._require_same_structure(other)
        if self._flat_pair(other):
            return self.layout.unflatten(self._flat + alpha * other._flat)
        return Parameters(
            {k: v + alpha * other[k] for k, v in self._arrays.items()}
        )

    def l2_norm(self) -> float:
        total = 0.0
        for a in self._arrays.values():
            total += float(np.sum(a * a))
        return float(np.sqrt(total))

    def allclose(self, other: "Parameters", atol: float = 1e-9) -> bool:
        if not self.same_structure(other):
            return False
        return all(
            np.allclose(v, other[k], atol=atol) for k, v in self._arrays.items()
        )

    # -- in-place arithmetic (zero allocation; byte-identical to functional) -
    def copy_from_(self, other: "Parameters") -> "Parameters":
        """``self[:] = other``."""
        if self._flat_pair(other):
            np.copyto(self._flat, other._flat)
            return self
        self._check_structure_fast(other)
        for k, v in self._arrays.items():
            np.copyto(v, other[k])
        return self

    def zero_(self) -> "Parameters":
        if self._flat is not None:
            self._flat.fill(0.0)
            return self
        for v in self._arrays.values():
            v.fill(0.0)
        return self

    def add_(self, other: "Parameters") -> "Parameters":
        """``self += other``."""
        if self._flat_pair(other):
            np.add(self._flat, other._flat, out=self._flat)
            return self
        self._check_structure_fast(other)
        for k, v in self._arrays.items():
            np.add(v, other[k], out=v)
        return self

    # -- flattening (Secure Aggregation operates on vectors) ----------------
    def to_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """Concatenate all arrays into a single 1-D float64 vector.

        With ``out`` provided the copy is written there (no allocation);
        the result is always independent storage, never a view of self.
        """
        if out is not None:
            if out.size != self.num_parameters:
                raise ValueError(
                    f"out has {out.size} entries, structure needs "
                    f"{self.num_parameters}"
                )
            if self._flat is not None:
                np.copyto(out, self._flat)
            else:
                layout = self.layout
                for name, off, size in zip(
                    layout.names, layout.offsets, layout.sizes
                ):
                    out[off : off + size] = self._arrays[name].ravel()
            return out
        if not self._arrays:
            return np.zeros(0, dtype=np.float64)
        if self._flat is not None:
            return self._flat.copy()
        return np.concatenate([a.ravel() for a in self._arrays.values()])

    def from_vector(self, vector: np.ndarray) -> "Parameters":
        """Reshape a flat vector back into this collection's structure.

        The result is flat-backed: its arrays are *views* of ``vector``.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self.num_parameters:
            raise ValueError(
                f"vector has {vector.size} entries, structure needs "
                f"{self.num_parameters}"
            )
        return self.layout.unflatten(vector)


def _restore_flat_parameters(
    layout: ParameterLayout, vector: np.ndarray
) -> Parameters:
    """Unpickle hook for flat-backed :class:`Parameters` (see
    ``Parameters.__reduce__``)."""
    return layout.unflatten(vector)


class StackedParameters:
    """``K`` parameter sets stacked along a leading cohort axis.

    One contiguous ``(K, *shape)`` array per parameter array, all sharing
    one :class:`ParameterLayout` — the in-memory form the cohort execution
    plane trains a whole round's clients in.  Ownership rules:

    * the stack owns its arrays; :meth:`head` returns a *view* stack over
      the first ``k`` rows (no copy — the owner's buffers are reused
      across cohorts of different sizes);
    * :meth:`row` returns a ``Parameters`` whose arrays are views of row
      ``i`` — valid only while the stack is not rewritten;
    * :meth:`write_rows` copies the rows out into a caller-owned
      ``(K, dim)`` matrix in layout order — the only way stacked state
      escapes the buffers (the cohort plane does this once per block,
      into the one matrix of the round's immutable report vectors).
    """

    __slots__ = ("layout", "rows", "_arrays")

    def __init__(
        self,
        layout: ParameterLayout,
        rows: int,
        _arrays: dict[str, np.ndarray] | None = None,
    ):
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        self.layout = layout
        self.rows = rows
        if _arrays is not None:
            self._arrays = _arrays
        else:
            # Zero-initialised (not np.empty): padding rows of gather
            # buffers and never-written rows must stay finite so masked
            # kernels can multiply them by zero safely.
            self._arrays = {
                name: np.zeros((rows, *shape), dtype=np.float64)
                for name, shape in zip(layout.names, layout.shapes)
            }

    # -- Mapping-ish access ---------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def items(self):
        return self._arrays.items()

    def __repr__(self) -> str:
        return f"StackedParameters({self.rows} rows, {self.layout!r})"

    # -- views ----------------------------------------------------------------
    def head(self, k: int) -> "StackedParameters":
        """A view stack over the first ``k`` rows (no copy)."""
        if k == self.rows:
            return self
        if not 0 < k <= self.rows:
            raise ValueError(f"head of {k} rows from a {self.rows}-row stack")
        return StackedParameters(
            self.layout, k, _arrays={n: a[:k] for n, a in self._arrays.items()}
        )

    def row(self, i: int) -> Parameters:
        """Row ``i`` as structured ``Parameters`` (views, no copy)."""
        return Parameters({name: a[i] for name, a in self._arrays.items()})

    # -- whole-stack ops ------------------------------------------------------
    def broadcast_(self, params: Parameters) -> "StackedParameters":
        """Copy one parameter set into every row."""
        for name, a in self._arrays.items():
            a[...] = params[name]
        return self

    def sub_broadcast_(self, params: Parameters) -> "StackedParameters":
        """``row_i -= params`` for every row."""
        for name, a in self._arrays.items():
            np.subtract(a, params[name], out=a)
        return self

    def scale_rows_(self, factors: np.ndarray) -> "StackedParameters":
        """``row_i *= factors[i]`` (masked row-wise weighting)."""
        for name, a in self._arrays.items():
            shaped = factors.reshape((self.rows,) + (1,) * (a.ndim - 1))
            np.multiply(a, shaped, out=a)
        return self

    def zero_(self) -> "StackedParameters":
        for a in self._arrays.values():
            a.fill(0.0)
        return self

    def write_rows(self, out: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """Copy every row into ``out`` in layout order: row ``i`` to
        ``out[i]`` (``out`` is ``(rows, dim)``), or to ``out[index[i]]``
        (``out`` is ``(n, dim)`` for any ``n`` the ``rows`` destinations
        fit in — one block's rows land in its whole cohort's matrix)."""
        layout = self.layout
        targets = out.shape[0] if index is None else len(index)
        if out.ndim != 2 or out.shape[1] != layout.total_size or targets != self.rows:
            raise ValueError(
                f"cannot write {self.rows} rows of {layout.total_size} into "
                f"shape {out.shape} at {targets} destinations"
            )
        rows = slice(None) if index is None else index
        for name, off, size in zip(layout.names, layout.offsets, layout.sizes):
            out[rows, off : off + size] = self._arrays[name].reshape(self.rows, size)
        return out


class ParameterAccumulator:
    """Streaming ``(Σ w_k · x_k, Σ w_k)`` accumulator owning its buffers.

    One accumulator owns one flat sum buffer (plus one scratch buffer for
    weighted adds) per parameter structure; folding an update in performs
    zero allocations.  The fold order is exactly the functional chain
    ``acc = x_0 * w_0; acc = acc + w_k * x_k``, so results are
    byte-identical to :func:`weighted_mean` / the old ``delta_sum +
    vector`` aggregation loop.
    """

    __slots__ = (
        "_layout",
        "_dim",
        "_sum",
        "_scratch",
        "_weight_sum",
        "_count",
        "_sum_views",
        "_scratch_views",
    )

    def __init__(self, dim: int | None = None, layout: ParameterLayout | None = None):
        if dim is None and layout is None:
            raise ValueError("need dim or layout")
        self._layout = layout
        self._dim = int(layout.total_size if dim is None else dim)
        if layout is not None and dim is not None and dim != layout.total_size:
            raise ValueError(f"dim {dim} != layout size {layout.total_size}")
        self._sum = np.zeros(self._dim, dtype=np.float64)
        self._scratch: np.ndarray | None = None  # allocated on first weighted add
        #: Prebuilt per-array reshaped views into the sum (and scratch)
        #: buffers, so the structured fold never re-slices per call.
        self._sum_views: list[tuple[str, np.ndarray]] | None = None
        self._scratch_views: list[np.ndarray] | None = None
        self._weight_sum = 0.0
        self._count = 0

    @classmethod
    def like(cls, params: Parameters) -> "ParameterAccumulator":
        return cls(layout=params.layout)

    def __getstate__(self):
        # Scratch and the prebuilt views alias the owned buffers; a naive
        # pickle would sever that aliasing.  Persist only the owned state
        # (mid-fold sums included) and rebuild views/scratch lazily.
        return {
            "layout": self._layout,
            "dim": self._dim,
            "sum": self._sum,
            "weight_sum": self._weight_sum,
            "count": self._count,
        }

    def __setstate__(self, state) -> None:
        self._layout = state["layout"]
        self._dim = state["dim"]
        self._sum = state["sum"]
        self._scratch = None
        self._sum_views = None
        self._scratch_views = None
        self._weight_sum = state["weight_sum"]
        self._count = state["count"]

    # -- state ---------------------------------------------------------------
    @property
    def count(self) -> int:
        """Updates folded in since the last reset."""
        return self._count

    @property
    def weight_sum(self) -> float:
        return self._weight_sum

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def sum_vector(self) -> np.ndarray:
        """The live ``Σ w_k · x_k`` buffer (not a copy — see module doc)."""
        return self._sum

    def reset(self) -> None:
        self._sum.fill(0.0)
        self._weight_sum = 0.0
        self._count = 0

    # -- folding -------------------------------------------------------------
    def _scratch_buffer(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty(self._dim, dtype=np.float64)
        return self._scratch

    def _views(self) -> list[tuple[str, np.ndarray]]:
        if self._sum_views is None:
            assert self._layout is not None
            self._sum_views = list(self._layout.views(self._sum).items())
        return self._sum_views

    def _scr_views(self) -> list[np.ndarray]:
        if self._scratch_views is None:
            assert self._layout is not None
            self._scratch_views = list(
                self._layout.views(self._scratch_buffer()).values()
            )
        return self._scratch_views

    def add_vector(self, vector: np.ndarray, weight: float = 1.0) -> None:
        """Fold one flattened update in; ``vector`` is only read."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self._dim:
            raise ValueError(f"vector has {vector.size} entries, need {self._dim}")
        if self._count == 0:
            if weight == 1.0:
                np.copyto(self._sum, vector)
            else:
                np.multiply(vector, weight, out=self._sum)
        elif weight == 1.0:
            np.add(self._sum, vector, out=self._sum)
        else:
            scratch = self._scratch_buffer()
            np.multiply(vector, weight, out=scratch)
            np.add(self._sum, scratch, out=self._sum)
        self._weight_sum += weight
        self._count += 1

    def add(self, params: Parameters, weight: float = 1.0) -> None:
        """Fold one structured update in; ``params`` is only read."""
        flat = params.flat_base
        if flat is not None and (self._layout is None or params.layout == self._layout):
            self.add_vector(flat, weight)
            return
        if self._layout is None:
            raise ValueError(
                "accumulator built without a layout can only fold flat vectors"
            )
        layout = params._layout
        if layout is not self._layout and params.layout != self._layout:
            raise ValueError("parameter structure does not match accumulator layout")
        first = self._count == 0
        arrays = params._arrays
        if first:
            if weight == 1.0:
                for name, dst in self._views():
                    np.copyto(dst, arrays[name])
            else:
                for name, dst in self._views():
                    np.multiply(arrays[name], weight, out=dst)
        elif weight == 1.0:
            for name, dst in self._views():
                np.add(dst, arrays[name], out=dst)
        else:
            for (name, dst), scr in zip(self._views(), self._scr_views()):
                np.multiply(arrays[name], weight, out=scr)
                np.add(dst, scr, out=dst)
        self._weight_sum += weight
        self._count += 1

    # -- results -------------------------------------------------------------
    def mean_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """``Σ w_k x_k / Σ w_k`` as a flat vector (freshly owned unless
        ``out`` is given; ``out`` may alias :attr:`sum_vector`)."""
        if self._count == 0:
            raise ValueError("cannot average an empty accumulator")
        if self._weight_sum <= 0:
            raise ValueError(
                f"total weight must be positive, got {self._weight_sum}"
            )
        if out is None:
            out = np.empty(self._dim, dtype=np.float64)
        np.multiply(self._sum, 1.0 / self._weight_sum, out=out)
        return out

    def mean(self) -> Parameters:
        """The weighted mean as freshly-allocated structured ``Parameters``."""
        if self._layout is None:
            raise ValueError("accumulator has no layout; use mean_vector()")
        return self._layout.unflatten(self.mean_vector())

    def scaled_sum(self, factor: float, out: np.ndarray | None = None) -> np.ndarray:
        """``factor * Σ w_k x_k`` — for callers that track their own divisor
        (FedAvg folds pre-weighted deltas with fold-weight 1 and divides by
        the separately-summed example counts)."""
        if out is None:
            out = np.empty(self._dim, dtype=np.float64)
        np.multiply(self._sum, factor, out=out)
        return out


def weighted_mean(
    updates: list[tuple[Parameters, float]]
) -> Parameters:
    """``sum_k w_k * p_k / sum_k w_k`` — the FedAvg combination rule.

    One streaming pass through a fresh :class:`ParameterAccumulator` —
    byte-identical to the functional chain ``acc = p_0.scale(w_0); acc =
    acc.axpy(w, p)``.
    """
    if not updates:
        raise ValueError("cannot average an empty update list")
    total_weight = sum(w for _, w in updates)
    if total_weight <= 0:
        raise ValueError(f"total weight must be positive, got {total_weight}")
    acc = ParameterAccumulator.like(updates[0][0])
    for params, w in updates:
        acc.add(params, w)
    return acc.mean()
