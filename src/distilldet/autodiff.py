"""Reverse-mode automatic differentiation on dense float32 or float64 tensors.

The detector computes in ``COMPUTE_DTYPE`` (float32): its parameters, scene
images and loaded checkpoints are made in it, and every op allocates in its
operands' dtype, so every array of more than one element in a training step
is float32. One scalar is not: ``distill.total_distill_loss`` seeds its sum
with the float64 ``Tensor(0.0)``, and ``add`` promotes, so the loss total of
a step that matches against a teacher is a 0-d float64. Float64 tensors work
the same way and stay float64; the finite-difference checks in
``tests/test_gradients.py`` and the reference code in ``tests/oracles.py``
run in float64.

Shapes: a tensor keeps the shape of the data it is made from, so a Python
number is a 0-d tensor. Elementwise ops between two tensors take equal
shapes and never broadcast; a Python number as the second operand of
``add`` or ``mul`` applies to every element. Each loss op takes its target
as an array of its prediction's shape, never as a tensor, so a target has
no gradient and is no parent of the loss: ``softmax_cross_entropy`` integer
labels, ``bce_with_logits``, ``smooth_l1`` and ``sq_error_sum`` arrays cast
to the prediction's dtype. The losses pick their sampled rows with
``take``, the one indexing op: rows of a tensor, or elements of a 1-D one.

A ``Tensor`` holds ``data``, ``grad`` and ``requires_grad`` and offers
``shape``, ``item()``, ``detach()``, ``t * other`` (``mul``) and
``reshape(shape)`` with one shape tuple; every other op is a function of
this module or of ``imageops``.

Every differentiable operation hands its output data, parent tensors and
gradient rule to ``Tensor._from_op``, which records the parents and the rule
on the output only when some parent requires a gradient; ``backward``
replays the rules in reverse topological order.
A rule maps the output's gradient ``g`` to one gradient per parent, in
parent order: an array, or ``None`` for a parent that needs none. It may
return ``g`` or views of it, never an array it keeps (a saved buffer), as
``backward`` may keep a returned array as the parent's ``grad`` and write
into it. No rule touches ``grad``, nor writes into ``g``: ``backward`` alone
adds or keeps.

Kept views: a parent that is itself an op output keeps a pass-through
gradient, a C-contiguous view of its consumer's ``grad`` such as ``add``,
``reshape`` and ``concat`` along the first axis return, as its own ``grad``
with no copy, and is marked as holding a view. A later gradient for such a
parent is added into a new array, never through the view, so the
consumer's ``grad`` and every other holder of that memory keep their
values. Leaves always own their ``grad``, since ``SGD.step`` writes into it.
The recorded graph is single-use: differentiating through an already-consumed
operation raises ``TapeError``, so each optimization step must rebuild its
forward graph. ``backward`` releases each operation's rule, the buffers its
rule saved and its parent links as soon as the rule has run, so a graph's
memory is freed during the pass, not when the caller drops the loss; a
tensor the caller still holds keeps its ``grad``.

The graph holds each op's parents until its rule has run, so what a rule
adds to a graph's memory is what it saves beyond its parents' data:
``relu`` its output, from which it rebuilds the mask ``out > 0`` (a forward
that records nothing computes no mask); ``softmax_cross_entropy`` the
per-row log-sum-exp and the labels; ``bce_with_logits`` the targets;
``smooth_l1`` the difference ``pred - target`` and the mask of its
quadratic part; ``sq_error_sum`` that difference alone, not its square;
``take`` its indices; every other rule in this module nothing but shapes
and scalars. The ``imageops`` docstring lists its ops.

Finite-value policy: constructing a leaf tensor from non-finite data raises
immediately. Outputs of recorded operations and loss targets are not
scanned (the fused softmax/BCE ops guard their own exponentials), so a NaN
target gives a NaN loss; training code checks its loss values and aborts on
divergence before backward.
"""

from __future__ import annotations

import numpy as np

# The one dtype the detector trains and detects in.
COMPUTE_DTYPE = np.float32

# Values per block of a new tensor's non-finite check, so that its
# one-byte-per-value mask stays small for a large tensor.
BLOCK = 1 << 16


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Backward invoked on a graph that was already differentiated."""


class Tensor:
    """Dense float32 or float64 array plus the bookkeeping needed for backprop.

    Float32 and float64 data keep their dtype; any other input (Python
    numbers, integer or boolean arrays) becomes float64. The data keeps its
    shape (a Python number is 0-d) and is copied only when it is not
    C-contiguous. ``grad`` is
    ``None`` until a backward pass reaches this tensor, then an array of the
    data's dtype. Tensors created by operations carry ``_parents`` and a
    ``_backward`` closure; leaf tensors carry neither and survive across
    optimization steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed", "_grad_is_view")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.size == 0:
            raise ShapeError("tensors must have positive dimension sizes")
        if not _all_finite(arr):
            raise ValueError("tensor initialized with non-finite values")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._consumed = False
        self._grad_is_view = False

    @classmethod
    def _from_op(cls, data, parents, rule):
        """Output of an operation on ``parents``; ``rule(g)`` returns, given
        the output's gradient ``g``, one gradient per parent in ``parents``
        order: an array (``g``, a view of it or a new array, never one the
        rule keeps) or ``None`` for a parent that needs none.

        Every op hands its rule here and this alone decides whether to
        record it: only when some parent requires a gradient does the
        output keep its parents and the rule; otherwise it is a constant
        with neither, and the rule is dropped unrun.
        """
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._consumed = False
        out._grad_is_view = False
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = rule
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Same values, no gradient tracking, no graph edges."""
        return Tensor._from_op(self.data, (), None)

    def __mul__(self, other):
        return mul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or infinity in the C-contiguous ``arr``, checked one ``BLOCK``
    at a time so the one-byte-per-value mask stays one block."""
    flat = arr.reshape(-1)
    return all(np.isfinite(flat[i : i + BLOCK]).all() for i in range(0, flat.size, BLOCK))


def _toposort(root: Tensor) -> list:
    """Operations reaching ``root``, parents strictly before consumers."""
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._consumed:
            raise TapeError("graph already differentiated; rebuild the forward pass")
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return topo


class Tape:
    """Ordered view of the operation record reaching one root tensor.

    The record lives on the tensors themselves (parent links plus a gradient
    rule per operation); this class materializes it in execution-compatible
    topological order, mostly for inspection and tests. ``backward`` releases
    every rule and parent link, so a ``Tape(loss)`` taken before it lists no
    operations afterwards (its nodes keep their data and gradients), and one
    taken after it raises ``TapeError``.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.nodes = _toposort(root)

    @property
    def operations(self) -> list:
        return [n for n in self.nodes if n._backward is not None]

    def __len__(self) -> int:
        return len(self.operations)


def backward(loss: Tensor):
    """Populate ``grad`` on every requires-grad tensor reachable from ``loss``.

    ``loss`` must be a scalar produced by a not-yet-consumed graph. The pass
    takes the operations off the topological order one by one; once an
    operation's rule has run, the node is marked consumed, so a graph
    differentiates exactly once, and its rule, the buffers that rule saved
    and its parent links are released. What only the graph held is freed as
    the pass runs; a tensor the caller still holds keeps its ``grad``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise ValueError("backward on a non-finite loss")
    if loss._backward is None and not loss.requires_grad:
        raise TapeError("loss is not attached to a differentiable graph")

    topo = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            _hand_off(node, node._backward(node.grad))
            node._consumed = True
            node._backward = None
            node._parents = ()


def _hand_off(node: Tensor, grads):
    """Give each parent of ``node`` its gradient from ``grads``, what
    ``node``'s rule returned. Its own function, so no gradient outlives it.

    A parent that has a gradient adds into it: in place when it owns that
    array, into a new array when it holds a kept view. Otherwise the array
    is kept when it is an ``ndarray`` (not a numpy scalar) of the parent's
    dtype and shape, both C-contiguous, and either
    - a view of ``node.grad`` and the parent an op output, not a leaf: it is
      kept as is and marked as a view. ``node.grad`` holds no -0.0, so the
      view needs no clearing; or
    - an array that shares no memory with ``node.grad`` or with an array
      kept before from this rule: an in-place ``+= 0.0`` turns its -0.0
      into +0.0, as ``zeros + g`` does, so it has the copying path's bits.
    Anything else is added into a zeroed buffer.
    """
    kept = []
    for p, g in zip(node._parents, grads, strict=True):
        if g is None or not p.requires_grad:
            continue
        if p.grad is not None:
            if p._grad_is_view:
                p.grad = np.add(p.grad, g, out=np.empty_like(p.grad))
                p._grad_is_view = False
            else:
                p.grad += g
            continue
        fits = (isinstance(g, np.ndarray) and g.dtype == p.data.dtype and g.shape == p.data.shape
                and g.flags.c_contiguous and p.data.flags.c_contiguous)
        if fits and p._parents and np.may_share_memory(g, node.grad):
            p.grad = g
            p._grad_is_view = True
        elif fits and not any(np.may_share_memory(g, o) for o in (node.grad, *kept)):
            g += 0.0
            p.grad = g
            kept.append(g)
        else:
            p.grad = np.zeros_like(p.data)
            p.grad += g


def _check_pair(a: Tensor, b: Tensor):
    """Reject two Tensor operands of an elementwise op whose shapes differ."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"elementwise op on shapes {a.shape} vs {b.shape}")


# ---- elementwise ops ------------------------------------------------------


def add(a: Tensor, b):
    if isinstance(b, Tensor):
        _check_pair(a, b)
        return Tensor._from_op(a.data + b.data, (a, b), lambda g: (g, g))
    c = float(b)
    return Tensor._from_op(a.data + c, (a,), lambda g: (g,))


def mul(a: Tensor, b):
    if isinstance(b, Tensor):
        _check_pair(a, b)

        return Tensor._from_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
    c = float(b)
    return Tensor._from_op(a.data * c, (a,), lambda g: (g * c,))


def relu(a: Tensor):
    """max(x, 0). A NaN input passes through as NaN; the training loop's
    finite-loss check then stops the step."""
    out = np.maximum(a.data, 0.0)
    return Tensor._from_op(out, (a,), lambda g: (g * (out > 0.0),))


# ---- reductions and reshapes ---------------------------------------------


def tsum(a: Tensor):
    return Tensor._from_op(np.asarray(a.data.sum()), (a,),
                           lambda g: (np.full_like(a.data, float(g)),))


def reshape(a: Tensor, shape):
    shape = tuple(int(s) for s in shape)
    return Tensor._from_op(a.data.reshape(shape), (a,),
                           lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes):
    axes = tuple(int(x) for x in axes)
    return Tensor._from_op(a.data.transpose(axes), (a,),
                           lambda g: (g.transpose(tuple(np.argsort(axes))),))


def concat(tensors, axis: int = 0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")

    def bk(g):
        return np.split(g, np.cumsum([t.data.shape[axis] for t in tensors])[:-1], axis=axis)

    return Tensor._from_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bk)


def take(a: Tensor, indices):
    """Rows ``indices`` of ``a`` (elements, for a 1-D tensor); the gradient
    scatter-adds back, so a repeated index adds into one row. The gradient
    buffer has the layout of ``a.data``."""
    idx = np.asarray(indices, dtype=np.intp)

    def bk(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor._from_op(a.data[idx], (a,), bk)


# ---- linear algebra -------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor):
    """Affine map [N,D] @ [D,M] + [M]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError("linear expects x[N,D], w[D,M], b[M]")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"linear shape mismatch: x{x.shape} w{w.shape} b{b.shape}"
        )

    def bk(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor._from_op(x.data @ w.data + b.data, (x, w, b), bk)


# ---- losses and probability ops ------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels):
    """Mean cross-entropy over rows of [N,K] logits; fused for stability."""
    lab = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects [N,K] logits")
    n, k = logits.data.shape
    if lab.shape != (n,):
        raise ShapeError("labels must be a length-N integer vector")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    losses = lse - z[np.arange(n), lab]

    def bk(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), lab] -= 1.0
        return (float(g) * p / n,)

    return Tensor._from_op(np.asarray(losses.mean()), (logits,), bk)


def bce_with_logits(logits: Tensor, targets):
    """Mean binary cross-entropy on raw logits; fused for stability."""
    z = logits.data
    t = _target_of(logits, targets, "bce")
    losses = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    n = z.size

    def bk(g):
        # stable sigmoid: exp of a non-positive argument only
        e = np.exp(-np.abs(z))
        sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return (float(g) * (sig - t) / n,)

    return Tensor._from_op(np.asarray(losses.mean()), (logits,), bk)


def sq_error_sum(pred: Tensor, target):
    """Sum of squared differences between ``pred`` and the array ``target``."""
    d = pred.data - _target_of(pred, target, "sq_error_sum")
    return Tensor._from_op(np.asarray((d * d).sum()), (pred,), lambda g: (d * (2.0 * float(g)),))


def smooth_l1(pred: Tensor, target):
    """Elementwise smooth-L1 of ``pred`` against the array ``target``:
    0.5 d^2 for |d| < 1, |d| - 0.5 otherwise."""
    d = pred.data - _target_of(pred, target, "smooth_l1")
    a = np.abs(d)
    inside = a < 1.0
    vals = np.where(inside, 0.5 * d * d, a - 0.5)
    return Tensor._from_op(vals, (pred,), lambda g: (np.where(inside, d, np.sign(d)) * g,))


def _target_of(pred: Tensor, target, op: str) -> np.ndarray:
    """``target`` as an array of ``pred``'s dtype and shape."""
    t = np.asarray(target, dtype=pred.data.dtype)
    if t.shape != pred.data.shape:
        raise ShapeError(f"{op} shapes {pred.shape} vs {t.shape}")
    return t
