"""Independent oracle routes used by the tests.

Nothing here reuses the package's numerics for the quantity it checks.
Eigenvalues come from a hand-rolled Jacobi sweep instead of LAPACK;
correlations come from full projector matrices instead of the package's
amplitude contraction; the outcome records are serialized with one
``json.dumps`` per trial and seeds from the scalar ``rng`` route, or
formatted whole with every trial number a ``%d``; the batch samplers
are the earlier out-of-place stream with whole-row gather-and-compare
and ``searchsorted`` picks; the exit bases and the
splitter are written entry by entry; a projector family is checked
member by member; the exact stage walks project one branch state per
``qcore.projections`` call, depth first, where the package stacks
every branch of a stage into one call.
Expected values frozen into the tests were computed with these routines.
"""

from __future__ import annotations

import json
import math

import numpy as np

from toolate import qcore
from toolate.protocol import degrees_of, exit_labels
from toolate.qcore import InvalidPartition
from toolate.rng import GOLDEN, mix64, trial_seed


def jacobi_eigvalsh_real(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("need a real symmetric matrix")
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol / (n * n):
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    else:
        raise RuntimeError("jacobi sweep did not converge")
    return np.sort(np.diag(a))


def jacobi_eigvalsh(matrix: np.ndarray, tol: float = 1e-12):
    """Eigenvalues of a complex Hermitian matrix via the real embedding.

    H -> [[Re H, -Im H], [Im H, Re H]] has every eigenvalue of H twice,
    so the sorted embedded spectrum taken in pairs recovers it.
    """
    h = np.asarray(matrix, dtype=complex)
    if not np.allclose(h, h.conj().T, atol=1e-10):
        raise ValueError("need a Hermitian matrix")
    re, im = h.real, h.imag
    embedded = np.block([[re, -im], [im, re]])
    doubled = jacobi_eigvalsh_real(embedded, tol=tol)
    return doubled[::2]


def entropy_bits(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits from the Jacobi spectrum."""
    total = 0.0
    for lam in jacobi_eigvalsh(rho):
        if lam > 1e-12:
            total -= lam * math.log2(lam)
    return total


# --- independent spin/pair constructions ---------------------------------------


def eig_up(theta: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=complex)


def eig_down(theta: float) -> np.ndarray:
    return np.array([-math.sin(theta / 2.0), math.cos(theta / 2.0)], dtype=complex)


SINGLET4 = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def correlation_matrix_route(a: float, b: float) -> float:
    """Singlet correlation via explicit 4x4 projector matrices."""
    total = 0.0
    for vec_a, sign_a in ((eig_up(a), 1), (eig_down(a), -1)):
        for vec_b, sign_b in ((eig_up(b), 1), (eig_down(b), -1)):
            joint = np.kron(vec_a, vec_b)
            proj = np.outer(joint, joint.conj())
            prob = float(np.real(SINGLET4.conj() @ proj @ SINGLET4))
            total += sign_a * sign_b * prob
    return total


def independent_pair_state(angles_by_port) -> np.ndarray:
    """36-dim prepared pair built with explicit loops and krons only."""
    amp = 1.0 / math.sqrt(3.0)
    unit = [np.zeros(3, dtype=complex) for _ in range(3)]
    for port in range(3):
        unit[port][port] = 1.0
    e2 = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    psi = np.zeros(36, dtype=complex)
    pair = SINGLET4.reshape(2, 2)
    for pa in range(3):
        for pb in range(3):
            for sa in range(2):
                for sb in range(2):
                    coeff = amp * amp * pair[sa, sb]
                    if coeff == 0:
                        continue
                    psi += coeff * np.kron(
                        np.kron(unit[pa], e2[sa]), np.kron(unit[pb], e2[sb])
                    )
    return psi


def independent_exit_table(angles_by_port) -> np.ndarray:
    """Exact joint exit distribution of the prepared pair, loops only.

    Rows/columns are indexed 2*rank + value with orientations sorted
    ascending, matching the package's canonical exit order.
    """
    psi = independent_pair_state(angles_by_port)
    ordered = sorted(angles_by_port)
    table = np.zeros((6, 6))
    for ia, ta in enumerate(ordered):
        for va, vec_a in enumerate((eig_up(ta), eig_down(ta))):
            port_a = list(angles_by_port).index(ta)
            unit_a = np.zeros(3, dtype=complex)
            unit_a[port_a] = 1.0
            exit_a = np.kron(unit_a, vec_a)
            for ib, tb in enumerate(ordered):
                for vb, vec_b in enumerate((eig_up(tb), eig_down(tb))):
                    port_b = list(angles_by_port).index(tb)
                    unit_b = np.zeros(3, dtype=complex)
                    unit_b[port_b] = 1.0
                    exit_b = np.kron(unit_b, vec_b)
                    amp = np.vdot(np.kron(exit_a, exit_b), psi)
                    table[2 * ia + va, 2 * ib + vb] = abs(amp) ** 2
    return table


def independent_exit_basis(angles_by_port) -> np.ndarray:
    """6x6 exit basis, column 2*rank + value, each spin eigenstate
    written into its port's rows with loops only."""
    basis = np.zeros((6, 6), dtype=complex)
    for rank, theta in enumerate(sorted(angles_by_port)):
        port = list(angles_by_port).index(theta)
        for value, spin in enumerate((eig_up(theta), eig_down(theta))):
            basis[2 * port : 2 * port + 2, 2 * rank + value] = spin
    return basis


def independent_joint_exit_basis(angles_by_port) -> np.ndarray:
    """36x36 joint exit basis, column 6*eA + eB the kron of two exit states."""
    basis = independent_exit_basis(angles_by_port)
    joint = np.zeros((36, 36), dtype=complex)
    for a in range(6):
        for b in range(6):
            joint[:, 6 * a + b] = np.kron(basis[:, a], basis[:, b])
    return joint


def independent_splitter() -> np.ndarray:
    """Three-port DFT splitter, entry by entry: w**(j*k)/sqrt 3."""
    w = np.exp(2j * math.pi / 3)
    return np.array([[w ** (j * k) / math.sqrt(3) for k in range(3)] for j in range(3)])


# --- the projector family check ---------------------------------------------------


def validate_partition_reference(partition, dim: int) -> list[np.ndarray]:
    """The member-by-member family check: each member's shape, then its
    Hermitian and idempotent residuals, summed as it goes; then the sum
    against the identity and each pair's product, at the same 1e-10."""
    atol = 1e-10

    def close(a, b) -> bool:
        with np.errstate(invalid="ignore"):
            return bool(np.all(np.abs(a - b) <= atol))

    ops = [np.asarray(p, dtype=complex) for p in partition]
    if not ops:
        raise InvalidPartition("empty partition")
    total = np.zeros((dim, dim), dtype=complex)
    for p in ops:
        if p.shape != (dim, dim):
            raise InvalidPartition("partition element has wrong shape")
        if not (close(p, p.conj().T) and close(p @ p, p)):
            raise InvalidPartition("partition element is not a projector")
        total += p
    if not close(total, np.eye(dim)):
        raise InvalidPartition("partition does not sum to the identity")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if np.max(np.abs(ops[i] @ ops[j])) > atol:
                raise InvalidPartition("partition elements are not orthogonal")
    return ops


# --- the projection walks, one state at a time -------------------------------------


def composed_distribution_by_branch(state, order) -> np.ndarray:
    """``protocol.composed_distribution`` as a depth-first walk: one
    ``qcore.projections`` call per branch state, and each child branch
    collapsed on its own.  Each (exit_A, exit_B) leaf is reached by
    exactly one branch, so the visiting order is immaterial."""
    labels = exit_labels(state.trine)
    values, exits = state.trine.families
    table = np.zeros((6, 6))
    pending = [(0, state.vec, 1.0, {})]
    while pending:
        stage, vec, weight, outcome = pending.pop()
        tag = order[stage]
        family = exits if tag[0] == "o" else values
        probs, rows = qcore.projections(family.stack, vec, "AB".index(tag[1]))
        for name, prob in enumerate(probs):
            if prob <= qcore.ZERO_PROB:
                continue
            if tag[0] == "o" and labels[name].value != outcome["v" + tag[1]]:
                raise AssertionError("nonzero weight on a value-inconsistent exit")
            reached = {**outcome, tag: name}
            if stage + 1 == len(order):
                table[reached["oA"], reached["oB"]] += weight * prob
            else:
                pending.append((stage + 1, rows[name] / np.sqrt(prob), weight * prob, reached))
    return table


def stage_conditionals_by_branch(trine):
    """``protocol.stage_conditionals`` with one ``qcore.projections``
    call per orientation-stage state: A's for each value pair, B's for
    each of A's exit collapses."""
    values, exits = trine.families
    p_value_a = np.zeros(2)
    p_value_b = np.zeros((2, 2))
    p_orient_a = np.zeros((2, 2, 3))
    p_orient_b = np.zeros((2, 2, 3, 3))
    for va in range(2):
        prob_a, state_a = qcore.project(values[va], trine.pair, 0)
        p_value_a[va] = prob_a
        for vb in range(2):
            try:
                prob_b, state_b = qcore.project(values[vb], state_a, 1)
            except qcore.ZeroProbability:
                continue
            if prob_a * prob_b <= qcore.ZERO_PROB:
                continue
            p_value_b[va, vb] = prob_b
            probs_a, rows_a = qcore.projections(exits.stack[va::2], state_b, 0)
            p_orient_a[va, vb] = qcore.snap(probs_a)
            for ra in range(3):
                if p_orient_a[va, vb, ra] > 0.0:
                    state_ra = rows_a[ra] / np.sqrt(probs_a[ra])
                    probs_b, _ = qcore.projections(exits.stack[vb::2], state_ra, 1)
                    p_orient_b[va, vb, ra] = qcore.snap(probs_b)
        p_value_b[va] = qcore.snap(p_value_b[va])
    return qcore.snap(p_value_a), p_value_b, p_orient_a, p_orient_b


# --- the outcome stream ---------------------------------------------------------


def records_text_reference(orientations, outcomes, meta) -> str:
    """The records file for a (trials x 4) outcome array, built whole:
    the metadata line, then one ``json.dumps`` per trial."""
    degs = [degrees_of(t) for t in orientations]
    values = ("up", "down")
    lines = [json.dumps({"meta": meta}, sort_keys=True, separators=(",", ":"))]
    for i, (va, vb, ea, eb) in enumerate(outcomes.tolist()):
        lines.append(
            json.dumps(
                {
                    "trial": i,
                    "seed": trial_seed(meta["master_seed"], i),
                    "value_A": values[va],
                    "value_B": values[vb],
                    "orient_A": degs[ea // 2],
                    "orient_B": degs[eb // 2],
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n"


def records_text_one_format(tails, start, seeds, cells) -> bytes:
    """The records of trials start, start + 1, ... as one bytes
    %-format over the whole range, every trial formatted with %d: the
    form that wrote one format per chunk."""
    lines = zip(range(start, start + len(seeds)), seeds.tolist(), [tails[c] for c in cells.tolist()])
    return (b'{"trial":%d,"seed":%d,%s' * len(seeds)) % tuple(x for line in lines for x in line)


# --- the batch samplers -----------------------------------------------------------

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
# batches independently of _kernels.CHUNK on purpose: the reference must
# not share the batch size of the code it checks
_CHUNK = 1 << 16


def _mix_reference(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _trial_seeds_reference(master: int, trials: int, start: int) -> np.ndarray:
    ids = np.arange(start, start + trials, dtype=np.uint64)
    return _mix_reference(_U64(master & _MASK64) + (ids + _U64(1)) * _U64(GOLDEN))


def _uniform_reference(seeds: np.ndarray, draw: int) -> np.ndarray:
    z = _mix_reference(seeds + _U64(((draw + 1) * GOLDEN) & _MASK64))
    return (z >> _U64(11)) * (1.0 / 9007199254740992.0)


def categorical_counts_reference(cum_rows, master_seed: int, trials: int) -> np.ndarray:
    """``_kernels.categorical_counts`` with one ``searchsorted`` per row."""
    cum = np.asarray(cum_rows, dtype=np.float64)
    counts = np.zeros(cum.shape, dtype=np.int64)
    for r in range(cum.shape[0]):
        row_seed = mix64(int(master_seed) & _MASK64, r)
        for start in range(0, trials, _CHUNK):
            seeds = _trial_seeds_reference(row_seed, min(_CHUNK, trials - start), start)
            picks = np.searchsorted(cum[r], _uniform_reference(seeds, 0), side="right")
            counts[r] += np.bincount(picks, minlength=cum.shape[1])
    return counts


def protocol_outcomes_reference(cum_va, cum_vb, cum_ra, cum_rb, master_seed: int, trials: int):
    """``experiments.sample_protocol`` from the four stages' cumulative
    tables, gathering each trial's whole cumulative row and counting the
    entries at or below its uniform.  The orientation tables are
    rank-indexed; each rank r is returned as the exit 2*r + value."""
    out = np.empty((trials, 4), dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        seeds = _trial_seeds_reference(int(master_seed), min(_CHUNK, trials - start), start)
        va = np.searchsorted(cum_va, _uniform_reference(seeds, 0), side="right")
        vb = np.sum(cum_vb[va] <= _uniform_reference(seeds, 1)[:, None], axis=1)
        ra = np.sum(cum_ra[va, vb] <= _uniform_reference(seeds, 2)[:, None], axis=1)
        rb = np.sum(cum_rb[va, vb, ra] <= _uniform_reference(seeds, 3)[:, None], axis=1)
        out[start : start + _CHUNK] = np.column_stack([va, vb, 2 * ra + va, 2 * rb + vb])
    return out
