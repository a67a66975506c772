"""Dense complex linear algebra for small fixed-dimension quantum states.

State vectors are plain complex128 ndarrays over a computational basis;
operators are square complex128 matrices.  Basis ordering is row-major
over tensor factors (first factor outermost).  This module is agnostic
about what the factors mean; composite-state modules own the layout and
pass it in as a tuple of factor dimensions.

Dimensions in this package never exceed 36, so plain dense arithmetic
at double precision is exact to well below the stated tolerances.
"""

from __future__ import annotations

import numpy as np

from .rng import TrialRng

ATOL = 1e-10
ZERO_PROB = 1e-12


class ZeroProbability(Exception):
    """Raised when a projection has (numerically) zero Born weight."""


class InvalidPartition(Exception):
    """Raised when a measurement partition is not complete and orthogonal."""


def as_state(vec) -> np.ndarray:
    arr = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("state vector has non-finite amplitudes")
    return arr


def normalize(state) -> np.ndarray:
    arr = as_state(state)
    n = np.linalg.norm(arr)
    if n <= ZERO_PROB:
        raise ZeroProbability("cannot normalize a zero vector")
    return arr / n


def require_normalized(state) -> np.ndarray:
    arr = as_state(state)
    if abs(np.linalg.norm(arr) - 1.0) > ATOL:
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
        return bool(np.all(np.abs(a - b) <= ATOL))


def is_projector(op) -> bool:
    """Whether ``op`` is Hermitian and idempotent.  A member of a
    ``ProjectorFamily`` was checked when its family was built and is
    trusted at once; any other array is checked in full."""
    if isinstance(op, _Member) and op.checked and not op.flags.writeable:
        return True
    p = np.asarray(op, dtype=complex)
    if p.shape[0] != p.shape[1]:
        return False
    return within_atol(p, dagger(p)) and within_atol(p @ p, p)


def projection_probability(proj, state) -> float:
    p = np.asarray(proj, dtype=complex)
    arr = as_state(state)
    val = float(np.real(np.vdot(arr, p @ arr)))
    # clip rounding dust outside [0, 1]
    return min(max(val, 0.0), 1.0)


def project(proj, state) -> tuple[float, np.ndarray]:
    """Born probability and collapsed state for a projector.

    Raises ZeroProbability when the weight is at or below 1e-12; zeros
    in this package are analytic zeros, so the threshold only guards
    rounding.
    """
    if not is_projector(proj):
        raise ValueError("operator is not a projector")
    p = np.asarray(proj, dtype=complex)
    arr = as_state(state)
    prob = projection_probability(p, arr)
    if prob <= ZERO_PROB:
        raise ZeroProbability(f"projection weight {prob:.3e} at or below {ZERO_PROB:.0e}")
    return prob, (p @ arr) / np.sqrt(prob)


def validate_partition(partition, dim: int) -> list[np.ndarray]:
    """The members of a complete orthogonal projector family on ``dim``
    dimensions, or InvalidPartition.  A ``ProjectorFamily`` was checked
    when it was built, so only its dimension is checked here."""
    if isinstance(partition, ProjectorFamily):
        if partition.dim != dim:
            raise InvalidPartition(f"family of dim {partition.dim} used on dim {dim}")
        return list(partition)
    ops = [np.asarray(p, dtype=complex) for p in partition]
    if not ops:
        raise InvalidPartition("empty partition")
    total = np.zeros((dim, dim), dtype=complex)
    for p in ops:
        if p.shape != (dim, dim):
            raise InvalidPartition("partition element has wrong shape")
        if not is_projector(p):
            raise InvalidPartition("partition element is not a projector")
        total += p
    if not within_atol(total, np.eye(dim)):
        raise InvalidPartition("partition does not sum to the identity")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if np.max(np.abs(ops[i] @ ops[j])) > ATOL:
                raise InvalidPartition("partition elements are not orthogonal")
    return ops


class _Member(np.ndarray):
    """A read-only ``ProjectorFamily`` member.  ``checked`` is set only
    on the arrays a family built; their views and copies lack it, and
    arithmetic on members gives plain arrays."""

    checked = False

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        return arr[()] if return_scalar else arr  # not viewed as a member


class ProjectorFamily(tuple):
    """A complete orthogonal projector family, checked once when built.

    Building one runs every ``validate_partition`` check on the given
    operators and raises InvalidPartition as that does.  The members are
    read-only copies, so they stay what was checked: ``is_projector``
    trusts them, and ``validate_partition`` checks only the dimension.
    """

    def __new__(cls, partition):
        ops = list(partition)
        shape = np.shape(ops[0]) if ops else ()
        members = []
        for op in validate_partition(ops, shape[0] if shape else 0):
            member = op.copy().view(_Member)
            member.flags.writeable = False
            member.checked = True
            members.append(member)
        return super().__new__(cls, members)

    @property
    def dim(self) -> int:
        return self[0].shape[0]


def sample(state, partition, rng: TrialRng) -> tuple[int, np.ndarray]:
    """Draw one outcome from a complete orthogonal projector family.

    One uniform is consumed per call: outcome = first index whose
    cumulative Born weight exceeds the draw.  Weights at or below 1e-12
    are snapped to zero first, so analytically impossible outcomes are
    never produced.
    """
    arr = require_normalized(state)
    ops = validate_partition(partition, arr.size)
    probs = np.array([projection_probability(p, arr) for p in ops])
    probs[probs <= ZERO_PROB] = 0.0
    total = probs.sum()
    if abs(total - 1.0) > ATOL:
        raise InvalidPartition(f"probabilities sum to {total}, expected 1")
    cum = np.cumsum(probs / total)
    cum[-1] = 1.0
    u = rng.uniform()
    index = int(np.searchsorted(cum, u, side="right"))
    post = (ops[index] @ arr) / np.sqrt(probs[index])
    return index, post


def reduced_density(state, dims, keep) -> np.ndarray:
    """Partial trace of a pure state down to the ``keep`` factors.

    ``keep`` is a set of factor indices into ``dims``; the kept factors
    stay in their original relative order.
    """
    arr = as_state(state)
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != arr.size:
        raise ValueError(f"layout {dims} does not match state of dim {arr.size}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep indices outside layout")
    drop = [i for i in range(len(dims)) if i not in keep]
    t = arr.reshape(dims)
    perm = keep + drop
    t = np.transpose(t, perm)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    dd = arr.size // dk
    m = t.reshape(dk, dd)
    return m @ m.conj().T


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
