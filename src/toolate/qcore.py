"""Dense complex linear algebra for small fixed-dimension quantum states.

State vectors are plain complex128 ndarrays over a computational basis;
operators are square complex128 matrices.  Basis ordering is row-major
over tensor factors (first factor outermost).  This module is agnostic
about what the factors mean; composite-state modules own the layout and
pass it in as a tuple of factor dimensions.  A d x d operator on a
larger state acts on one factor of it, never lifted to the state's
dimension: ``factor=0`` is the leading d dimensions, ``factor=1`` the
trailing d (``_apply``).

Dimensions in this package never exceed 36, so plain dense arithmetic
at double precision is exact to well below the stated tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .rng import TrialRng

ATOL = 1e-10
ZERO_PROB = 1e-12


class ZeroProbability(Exception):
    """Raised when a projection has (numerically) zero Born weight."""


class InvalidPartition(Exception):
    """Raised when a measurement partition is not complete and orthogonal."""


def as_state(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=complex).reshape(-1)
    # the ufunc that ndarray.all reaches through a Python-level wrapper
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError("state vector has non-finite amplitudes")
    return arr


def normalize(state) -> np.ndarray:
    arr = as_state(state)
    n = np.linalg.norm(arr)
    if n <= ZERO_PROB:
        raise ZeroProbability("cannot normalize a zero vector")
    return arr / n


def require_normalized(state) -> np.ndarray:
    """The state as ``as_state`` gives it, or ValueError if its norm is
    more than ATOL from 1.  The norm is ``sqrt`` of one ``np.vdot``: it
    feeds only this test, so it need not round as ``np.linalg.norm``
    does, which ``normalize`` keeps for the bits it returns."""
    arr = as_state(state)
    if abs(math.sqrt(np.vdot(arr, arr).real) - 1.0) > ATOL:
        raise ValueError("state vector is not normalized")
    return arr


def dagger(op) -> np.ndarray:
    return np.asarray(op, dtype=complex).conj().T


def within_atol(a, b) -> bool:
    """Whether every entry of a - b is at most ATOL in magnitude.

    The same test as ``np.allclose(a, b, atol=ATOL, rtol=0)`` on finite
    input, without its broadcasting and relative-tolerance work.  A NaN
    or infinite entry never passes: inf - inf is NaN, and NaN compares
    false, so that subtraction is not warned about."""
    with np.errstate(invalid="ignore"):
        return bool((np.abs(a - b) <= ATOL).all())


def is_projector(op) -> bool:
    """Whether ``op`` is a square matrix that is Hermitian and idempotent,
    each to ATOL.  Every operator is checked in full, a family member
    too: on a 6 x 6 member the check is two small products."""
    p = np.asarray(op, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        return False
    return within_atol(p, dagger(p)) and within_atol(p @ p, p)


def _born_weights(arr: np.ndarray, rows) -> np.ndarray:
    """Re <state|row> for each projected row of one state, or of each
    state of a (s, n) stack, one ``np.vdot`` per (state, row): a batched
    product (``rows @ arr.conj()``, ``einsum``) rounds differently.  One
    clip then removes rounding dust outside [0, 1]: the array method,
    the same ufunc as ``np.clip`` without its wrappers, so a weight of
    -0.0 stays -0.0."""
    if arr.ndim == 1:
        return np.array([np.vdot(arr, row).real for row in rows]).clip(0.0, 1.0)
    weights = [np.vdot(state, row).real for state, block in zip(arr, rows) for row in block]
    return np.array(weights).reshape(rows.shape[:-1]).clip(0.0, 1.0)


def _apply(stack: np.ndarray, arr: np.ndarray, factor: int) -> np.ndarray:
    """Each d x d operator of a (k, d, d) stack applied to one factor of
    ``arr``, a state (n,) or a stack (s, n), as C-contiguous rows of shape
    ``arr.shape[:-1] + (k, n)``, in one broadcast product whose slice for
    a state is what a one-state call gives.  Factor 0 is the leading d
    dimensions: the k * d operator rows times the state as a (d, n / d)
    matrix, bit for bit ``stack @ arr`` on a d-dim state.  Factor 1 is
    the trailing d: one matrix-vector product per operator and leading
    index.  On the pair these give the Born weights of kron(P, I) and
    kron(I, P) bit for bit; B's one-product form, ``M @ P.T``, does not."""
    k, d, _ = stack.shape
    lead, n = arr.shape[:-1], arr.shape[-1]
    if factor == 0:
        rows = stack.reshape(-1, d) @ arr.reshape(lead + (d, n // d))
    elif factor == 1:
        rows = stack[:, None] @ arr.reshape(lead + (1, n // d, d, 1))
    else:
        raise ValueError("factor must be 0 (leading) or 1 (trailing)")
    return rows.reshape(lead + (k, n))


def projection_probability(proj, state, factor: int = 0) -> float:
    arr = as_state(state)
    return float(_projections(np.asarray(proj, dtype=complex)[None], arr, factor)[0][0])


def projections(stack, state, factor: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Born weight and projected vector of every projector in ``stack``,
    acting on ``factor`` of the state (``_apply``).

    ``stack`` is a (k, d, d) array, such as a family's ``stack`` or a
    slice of it.  A state (n,) gives (k,) weights and (k, n) rows; a
    stack of states (s, n), (0, n) too, gives (s, k) and (s, k, n), each
    state's slice bit for bit its one-state call.  One product gives all
    projected vectors as rows; weight i equals ``projection_probability``
    of member i bit for bit.  Every amplitude is checked by one
    ``as_state``, not per member; ``sample``, which has checked its
    state already, calls ``_projections`` directly.
    """
    arr = np.asarray(state, dtype=complex)
    states = as_state(arr).reshape(arr.shape if arr.ndim == 2 else -1)
    return _projections(np.asarray(stack, dtype=complex), states, factor)


def _projections(stack: np.ndarray, arr: np.ndarray, factor: int) -> tuple[np.ndarray, np.ndarray]:
    # for a complex stack and states that as_state has checked
    rows = _apply(stack, arr, factor)
    return _born_weights(arr, rows), rows


def project(proj, state, factor: int = 0) -> tuple[float, np.ndarray]:
    """Born probability and collapsed state for a projector on
    ``factor`` of the state (``_apply``).

    Raises ZeroProbability when the weight is at or below 1e-12; zeros
    in this package are analytic zeros, so the threshold only guards
    rounding.
    """
    if not is_projector(proj):
        raise ValueError("operator is not a projector")
    probs, rows = _projections(np.asarray(proj, dtype=complex)[None], as_state(state), factor)
    prob = float(probs[0])
    if prob <= ZERO_PROB:
        raise ZeroProbability(f"projection weight {prob:.3e} at or below {ZERO_PROB:.0e}")
    return prob, rows[0] / np.sqrt(prob)


def validate_partition(partition, dim: int) -> np.ndarray:
    """A complete orthogonal projector family as a new (k, dim, dim) stack,
    or InvalidPartition.  One pass checks the whole stack to ATOL: Hermitian,
    idempotent, summing to the identity, and every Q_i Q_j, i < j, zero."""
    ops = [np.asarray(p, dtype=complex) for p in partition]
    if not ops:
        raise InvalidPartition("empty partition")
    if any(p.shape != (dim, dim) for p in ops):
        raise InvalidPartition("partition element has wrong shape")
    stack = np.array(ops)
    if not (within_atol(stack, stack.conj().swapaxes(1, 2)) and within_atol(stack @ stack, stack)):
        raise InvalidPartition("partition element is not a projector")
    if not within_atol(stack.sum(axis=0), np.eye(dim)):
        raise InvalidPartition("partition does not sum to the identity")
    # every pair i < j; np.triu_indices takes five times as long
    i, j = np.nonzero(np.tri(len(stack), k=-1, dtype=bool).T)
    if (np.abs(stack[i] @ stack[j]) > ATOL).any():
        raise InvalidPartition("partition elements are not orthogonal")
    return stack


class ProjectorFamily(tuple):
    """A complete orthogonal projector family, checked once when built
    by ``validate_partition``, which raises InvalidPartition.  The stack
    it returns is kept as ``stack``, read-only, and each member is a
    plain read-only view of its slice, so the members stay what was
    checked and ``sample`` draws from them with no further check;
    ``project`` checks a member as it checks any operator.
    ``projections`` takes ``stack``, or a slice of it, to weigh every
    member at once, on a state of its own dimension or on one factor of
    a larger one.
    """

    stack: np.ndarray

    def __new__(cls, partition):
        ops = list(partition)
        shape = np.shape(ops[0]) if ops else ()
        stack = validate_partition(ops, shape[0] if shape else 0)
        stack.flags.writeable = False
        family = super().__new__(cls, stack)
        family.stack = stack
        return family

    @property
    def dim(self) -> int:
        return self[0].shape[0]


def snap(weights) -> np.ndarray:
    """Born weights made drawable: entries at or below 1e-12 are set to
    0, as analytic zeros whose rounding dust must never be drawn, and
    each row along the last axis is divided by its sum."""
    out = np.array(weights, dtype=float)
    out[out <= ZERO_PROB] = 0.0
    return out / out.sum(axis=-1, keepdims=True)


def sample(
    state, family: ProjectorFamily, rng: TrialRng, factor: int = 0
) -> tuple[int, np.ndarray]:
    """Draw one outcome from a ``ProjectorFamily`` acting on ``factor``
    of the state (``_apply``), checked when it was built and not again
    here; anything else, or a family whose dimension does not divide the
    state's, raises InvalidPartition.  One uniform is consumed per call:
    outcome = first index whose cumulative weight exceeds the draw.  The
    weights are made drawable by ``snap``, and ``_kernels.cumulative``
    pins every entry from the last positive weight on to 1, as in the
    batch sampler, so analytically impossible outcomes are never
    produced.
    The drawn row of one ``projections`` product over the family's stack
    is divided by the square root of its weight, not projected again.
    The state is checked once per draw, by ``require_normalized``; the
    product then takes the checked array as it is.
    """
    arr = require_normalized(state)
    if not isinstance(family, ProjectorFamily) or arr.size % family.dim:
        raise InvalidPartition(f"sample needs a ProjectorFamily on a factor of dim {arr.size}")
    probs, rows = _projections(family.stack, arr, factor)
    total = probs.sum()
    if abs(total - 1.0) > ATOL:
        raise InvalidPartition(f"probabilities sum to {total}, expected 1")
    cum = _kernels.cumulative(snap(probs))
    u = rng.uniform()
    index = int(cum.searchsorted(u, side="right"))
    post = rows[index] / np.sqrt(probs[index])
    return index, post


def reduced_density(state, dims, keep) -> np.ndarray:
    """Partial trace of a pure state down to the ``keep`` factors.

    ``keep`` is a set of factor indices into ``dims``; the kept factors
    stay in their original relative order.  Leading axes of ``state``
    stack states, checked by one ``as_state``, and their density matrices.
    """
    arr = np.asarray(state, dtype=complex)
    flat = as_state(arr)
    lead, n = arr.shape[:-1], (arr.shape[-1] if arr.ndim else 1)
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != n:
        raise ValueError(f"layout {dims} does not match state of dim {n}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep indices outside layout")
    drop = [i for i in range(len(dims)) if i not in keep]
    t = flat.reshape(lead + dims)
    perm = list(range(len(lead))) + [len(lead) + i for i in keep + drop]
    t = np.transpose(t, perm)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    m = t.reshape(lead + (dk, n // dk))
    return m @ m.conj().swapaxes(-1, -2)


def entanglement_entropy(rho) -> float:
    """Von Neumann entropy in bits; eigenvalues at or below 1e-12 contribute 0."""
    mat = np.asarray(rho, dtype=complex)
    if not within_atol(mat, dagger(mat)):
        raise ValueError("density matrix is not Hermitian")
    evals = np.linalg.eigvalsh(mat)
    ent = 0.0
    for lam in evals:
        if lam > ZERO_PROB:
            ent -= float(lam) * float(np.log2(lam))
    return ent


def fidelity(a, b) -> float:
    """Squared overlap of two normalized pure states."""
    va = require_normalized(a)
    vb = require_normalized(b)
    if va.size != vb.size:
        raise ValueError(f"dimension mismatch: {va.size} vs {vb.size}")
    val = float(abs(np.vdot(va, vb)) ** 2)
    return min(val, 1.0)
