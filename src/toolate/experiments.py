"""Experiment drivers: exact tables, seeded Monte Carlo, and reports.

Every run is a pure function of its configuration: outputs carry a JSON
metadata preamble (artifact version, effective config, master seed) and
no timestamps, so reruns are byte-identical.  ``trials = 0`` selects
exact-only mode.  Monte Carlo uses the counter-based kernels; per-trial
seeds are mix64(master_seed, trial_id), so how trials are batched
cannot change results.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, BinaryIO

import numpy as np

from . import _kernels, qcore
from ._version import __version__
from .audit import (
    literal_value_state,
    oracle_conditional_state,
    verify_states,
)
from .interference import (
    DEFAULT_TV_THRESHOLD,
    definite_path_contrast,
    erase_paths,
    interference_discriminator,
    recombine,
    swap_report,
)
from .lhv import ConspiracyModel, conspiracy_predictions, enumerate_chsh_max
from .protocol import (
    PARTICLE_DIM,
    STAGE_ORDERS,
    JointState,
    StageConditionals,
    Trine,
    composed_distribution,
    degree_text,
    degrees_of,
    joint_distribution,
    stage_conditionals,
)
from .spinlab import (
    SpinValue,
    chsh_value,
    correlation_exact,
    correlations,
    joint_value_probabilities,
)

PROTOCOLS = ("epr_standard", "toolate", "interference", "erasure", "lhv_compare", "verify")
_CHSH_DEFAULT_DEG = (0.0, 90.0, 45.0, 135.0)
_TRINE_DEFAULT_DEG = (0.0, 120.0, 240.0)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's inputs.  Angles are degrees at this boundary
    (they arrive from people); everything internal works in radians.

    The field names are the config-file keys.  Values are type-checked
    here, whether they come from a file, a flag or a caller."""

    protocol: str
    angles: tuple[float, ...] = ()
    trials: int = 0
    master_seed: int = 0
    port_binding: tuple[int, int, int] = (0, 1, 2)
    output_path: str | None = None
    threshold: float = DEFAULT_TV_THRESHOLD

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}")
        if not (_is_int(self.trials) and self.trials >= 0):
            raise ValueError("trials must be an integer >= 0")
        if not _is_int(self.master_seed):
            raise ValueError("master_seed must be an integer")
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ValueError("output_path must be a string or null")
        if self.output_path == "":
            raise ValueError("output_path must not be empty")
        if not (_is_finite(self.threshold) and 0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must be a finite number in [0, 1]")
        if not (
            isinstance(self.port_binding, (list, tuple))
            and all(_is_int(p) for p in self.port_binding)
            and sorted(self.port_binding) == [0, 1, 2]
        ):
            raise ValueError("port_binding must be a permutation of (0, 1, 2)")
        if not (
            isinstance(self.angles, (list, tuple))
            and all(_is_finite(a) for a in self.angles)
        ):
            raise ValueError("angles must be a list of finite numbers (degrees)")
        chsh = self.protocol in ("epr_standard", "lhv_compare")
        angles = tuple(float(a) for a in self.angles)
        if not angles:
            angles = _CHSH_DEFAULT_DEG if chsh else _TRINE_DEFAULT_DEG
        if chsh and len(angles) != 4:
            raise ValueError("this protocol needs exactly four angles (a, a', b, b')")
        if not chsh and len(angles) != 3:
            raise ValueError("this protocol needs exactly three angles")
        if len(set(angles)) != len(angles):
            raise ValueError("angles must be distinct")
        # Trine raises if two orientations coincide modulo 360; labels and
        # records name each by degrees_of, so two must not share one either
        if not chsh and len(set(map(degrees_of, Trine.from_degrees(angles).angles_by_port))) < 3:
            raise ValueError("orientations must differ in degrees rounded to 9 decimals")
        # epr labels each correlation by its two settings' degree_text
        if self.protocol == "epr_standard":
            a, a2, b, b2 = (degree_text(math.radians(x)) for x in angles)
            if a == a2 or b == b2:
                raise ValueError("settings on one side must differ in degrees rounded to 9 decimals")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "port_binding", tuple(self.port_binding))
        object.__setattr__(self, "threshold", float(self.threshold))

    def trine(self) -> Trine:
        ordered = Trine.from_degrees(self.angles)
        return ordered.permuted(self.port_binding)

    def chsh_angles(self) -> tuple[float, float, float, float]:
        return tuple(math.radians(a) for a in self.angles)  # type: ignore[return-value]

    def to_dict(self) -> dict[str, Any]:
        """The config as file keys and JSON values, as echoed in metadata."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


def metadata(config: ExperimentConfig) -> dict[str, Any]:
    return {
        "artifact": "toolate",
        "version": __version__,
        "master_seed": int(config.master_seed),
        "config": config.to_dict(),
    }


@dataclass(frozen=True)
class EstimateRow:
    label: str
    exact: float | None
    estimate: float | None
    stderr: float | None
    n: int


@dataclass
class EstimateTable:
    rows: list[EstimateRow] = field(default_factory=list)

    def add(self, label, exact=None, estimate=None, stderr=None, n=0) -> None:
        self.rows.append(
            EstimateRow(
                label,
                None if exact is None else float(exact),
                None if estimate is None else float(estimate),
                None if stderr is None else float(stderr),
                int(n),
            )
        )

    def to_csv_text(self, meta: dict[str, Any]) -> str:
        def cell(x):
            return "" if x is None else repr(float(x))

        lines = ["# meta: " + json.dumps(meta, sort_keys=True)]
        lines.append("label,exact,estimate,stderr,n")
        for r in self.rows:
            lines.append(
                f"{r.label},{cell(r.exact)},{cell(r.estimate)},{cell(r.stderr)},{r.n}"
            )
        return "\n".join(lines) + "\n"


def json_report_text(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- standard Bell runs --------------------------------------------------------


def run_epr(config: ExperimentConfig) -> EstimateTable:
    """Exact singlet correlations and CHSH at four settings, plus Monte
    Carlo estimates when trials > 0.

    stderr for a correlation uses the plug-in form sqrt((1 - E^2)/n).
    """
    if config.protocol != "epr_standard":
        raise ValueError("run_epr needs protocol epr_standard")
    a, a2, b, b2 = config.chsh_angles()
    pairs = [
        (f"E({degree_text(a)},{degree_text(b)})", a, b),
        (f"E({degree_text(a)},{degree_text(b2)})", a, b2),
        (f"E({degree_text(a2)},{degree_text(b)})", a2, b),
        (f"E({degree_text(a2)},{degree_text(b2)})", a2, b2),
    ]
    table = EstimateTable()
    exact = [correlation_exact(x, y) for _, x, y in pairs]
    s_exact = chsh_value(a, a2, b, b2)

    estimates = [None] * 4
    errors = [None] * 4
    s_est = s_err = None
    n = config.trials
    if n > 0:
        # rounding dust on an impossible pair (equal settings give ~1e-32
        # on uu and dd) is snapped to 0, so it is never drawn
        probs = qcore.snap([joint_value_probabilities(x, y) for _, x, y in pairs])
        cum = _kernels.cumulative(probs)
        counts = _kernels.categorical_counts(cum, config.master_seed, n)
        signs = np.array([1.0, -1.0, -1.0, 1.0])  # uu, ud, du, dd
        estimates = [float(counts[i] @ signs) / n for i in range(4)]
        errors = [math.sqrt(max(0.0, 1.0 - e * e) / n) for e in estimates]
        s_est = estimates[0] - estimates[1] + estimates[2] + estimates[3]
        s_err = math.sqrt(sum(se * se for se in errors))

    for (label, _, _), e, est, err in zip(pairs, exact, estimates, errors):
        table.add(label, exact=e, estimate=est, stderr=err, n=n)
    table.add("chsh_S", exact=s_exact, estimate=s_est, stderr=s_err, n=n)
    table.add(
        "chsh_abs_S",
        exact=abs(s_exact),
        estimate=None if s_est is None else abs(s_est),
        stderr=s_err,
        n=n,
    )
    return table


# --- value-first protocol runs -------------------------------------------------


def _exact_protocol_tables(tree: StageConditionals):
    p_values = tree.p_value_a[:, None] * tree.p_value_b  # (2, 2)
    cond = tree.p_orient_a[..., None] * tree.p_orient_b  # [vA, vB, rA, rB]
    marg_a = (p_values[:, :, None] * cond.sum(axis=3)).reshape(4, 3).sum(axis=0)
    marg_b = (p_values[:, :, None] * cond.sum(axis=2)).reshape(4, 3).sum(axis=0)
    return p_values, cond, marg_a, marg_b


def _outcome_chunks(tree: StageConditionals, trials: int, master_seed: int):
    stages = (tree.p_value_a, tree.p_value_b, tree.p_orient_a, tree.p_orient_b)
    return _kernels.protocol_chunks([_kernels.cumulative(p) for p in stages], master_seed, trials)


def sample_protocol(trine: Trine, trials: int, master_seed: int) -> np.ndarray:
    """Stage outcomes (value_A, value_B, exit_A, exit_B) for each trial.

    Stage conditionals are projected out of the prepared state once;
    each trial then consumes one uniform per stage in recorded order,
    which reproduces sequential collapse draw for draw (tested against
    the explicit slow path).  The cells ``run_toolate`` tabulates, each
    chunk copied and all decoded into one (trials, 4) array, with each
    rank turned into the exit index of ``exit_labels``: 2*rank + value.
    """
    chunks = _outcome_chunks(stage_conditionals(trine), trials, master_seed)
    cells = np.concatenate([np.empty(0, dtype=np.intp), *(cell.copy() for _, _, cell in chunks)])
    va, vb, ra, rb = np.unravel_index(cells, (2, 2, 3, 3))
    return np.column_stack([va, vb, 2 * ra + va, 2 * rb + vb])


def run_toolate(config: ExperimentConfig, records: BinaryIO | None = None) -> EstimateTable:
    """Value-first protocol: exact stage statistics plus Monte Carlo.

    A trial enters the table, and the records, only through the cell
    that the sampler builds: the flat (2, 2, 3, 3) index of [value_A,
    value_B, rank_A, rank_B].  Each chunk's cells are counted and, when
    a binary ``records`` stream is given, written to it while in hand as
    ASCII JSON lines: the metadata line first, then ``records_text`` of
    each block of the chunk's trials that share ``trial // 1000``.  A
    block is at most 1000 lines, about 110 KB, so no write builds a
    chunk-sized bytes and the allocator reuses the same memory.
    """
    if config.protocol != "toolate":
        raise ValueError("run_toolate needs protocol toolate")
    trine = config.trine()
    degs = [degree_text(t) for t in trine.orientations]
    tree = stage_conditionals(trine)
    tails = None if records is None else record_tails(trine)
    del trine  # and its families: the sampling loop needs none of them
    p_values, cond, marg_a, marg_b = _exact_protocol_tables(tree)

    n = config.trials
    if records is not None:
        meta = json.dumps({"meta": metadata(config)}, sort_keys=True, separators=(",", ":"))
        records.write(meta.encode() + b"\n")
    counts = np.zeros(36, dtype=np.int64)
    for start, seeds, cell in _outcome_chunks(tree, n, config.master_seed):
        counts += np.bincount(cell, minlength=36)
        if records is not None:
            for a, b in _thousands(start, len(cell)):
                records.write(records_text(tails, start + a, seeds[a:b], cell[a:b]))
    ccounts = counts.reshape(2, 2, 3, 3)
    vcounts = ccounts.sum(axis=(2, 3))

    pairs = [(va, vb, f"vA={va.label},vB={vb.label}") for va in SpinValue for vb in SpinValue]
    rows = [(f"P({given})", p_values[va, vb], vcounts[va, vb], n) for va, vb, given in pairs]
    rows += [
        (f"P(oA={degs[ra]},oB={degs[rb]}|{given})", cond[va, vb, ra, rb],
         ccounts[va, vb, ra, rb], vcounts[va, vb])
        for va, vb, given in pairs for ra in range(3) for rb in range(3)
    ]
    rows += [(f"P(oA={degs[r]})", marg_a[r], ccounts[:, :, r, :].sum(), n) for r in range(3)]
    rows += [(f"P(oB={degs[r]})", marg_b[r], ccounts[:, :, :, r].sum(), n) for r in range(3)]
    table = EstimateTable()
    for label, exact, count, total in rows:
        count, total = int(count), int(total)
        if total > 0:
            est = count / total
            table.add(label, exact, est, math.sqrt(est * (1.0 - est) / total), total)
        else:
            table.add(label, exact=exact, n=0)
    return table


def record_tails(trine: Trine) -> list[bytes]:
    """A record's fields after "seed", for each cell [value_A, value_B,
    rank_A, rank_B]: the 36 possible tails of a line, each encoded once
    and ending in a newline."""
    degs = [degrees_of(t) for t in trine.orientations]
    values = (SpinValue.UP.label, SpinValue.DOWN.label)
    return [
        json.dumps(
            {
                "value_A": values[va],
                "value_B": values[vb],
                "orient_A": degs[ra],
                "orient_B": degs[rb],
            },
            separators=(",", ":"),
        )[1:].encode()
        + b"\n"
        for va, vb, ra, rb in np.ndindex(2, 2, 3, 3)
    ]


def _thousands(start: int, n: int) -> list[tuple[int, int]]:
    """Offsets (a, b) that cut trials start .. start + n - 1 at every
    multiple of 1000: the blocks of trials that share ``trial // 1000``."""
    edges = [start, *range(start // 1000 * 1000 + 1000, start + n, 1000), start + n]
    return [(a - start, b - start) for a, b in zip(edges, edges[1:])]


@functools.cache
def _last_digits(padded: bool) -> tuple[bytes, ...]:
    """Each trial's text after its thousand prefix, for 0 .. 999:
    three digits after a prefix, and plain digits in the first thousand.
    Built on first use, so importing the package formats nothing."""
    return tuple((b"%03d" if padded else b"%d") % i for i in range(1000))


def records_text(tails: list[bytes], start: int, seeds: np.ndarray, cells: np.ndarray) -> bytes:
    """One compact JSON line per trial, as ASCII bytes, for trials
    start, start + 1, ... with these seeds and cells.  Each block of
    trials that share ``trial // 1000`` is one bytes %-format whose
    format string carries the block's thousand prefix, so only the seed
    is formatted with %d: a trial's last digits are its entry in a
    table of 1000 pre-encoded strings, and the rest of a line is its
    cell's pre-encoded entry in ``tails``.  Slicing (digits, seed, tail)
    into one argument list is cheaper than chaining one tuple per line.
    A range that spans thousands is formatted one block at a time."""
    blocks = _thousands(start, len(seeds))
    if len(blocks) > 1:
        return b"".join(records_text(tails, start + a, seeds[a:b], cells[a:b]) for a, b in blocks)
    n = len(seeds)
    thousand, low = divmod(start, 1000)
    prefix = b"%d" % thousand if thousand else b""
    args = [None] * (3 * n)
    args[0::3] = _last_digits(thousand > 0)[low : low + n]
    args[1::3] = seeds.tolist()
    args[2::3] = map(tails.__getitem__, cells.tolist())
    return ((b'{"trial":' + prefix + b'%s,"seed":%d,%s') * n) % tuple(args)


# --- interference and erasure runs ---------------------------------------------


def _source_model_verdicts(
    trine: Trine, quantum_ports: np.ndarray, threshold: float
) -> dict[str, tuple[float, list[float], float, str]]:
    """The uniform and the quantum-fitted source models against the
    quantum recombination ports.  Maps each model name to (max abs
    exit-table difference from quantum, predicted ports, TV distance,
    verdict)."""
    quantum_table = joint_distribution(JointState(trine.pair, trine))
    verdicts = {}
    for name, model in (
        ("uniform", ConspiracyModel.uniform()),
        ("fitted_to_quantum", ConspiracyModel.from_exit_table(quantum_table)),
    ):
        exit_table, ports = conspiracy_predictions(model, trine)
        tv, passed = interference_discriminator(quantum_ports, ports, threshold)
        verdicts[name] = (
            float(np.max(np.abs(exit_table - quantum_table))),
            [float(p) for p in ports],
            float(tv),
            "pass" if passed else "fail",
        )
    return verdicts


def run_interference(config: ExperimentConfig) -> dict[str, Any]:
    """Recombination test: value-fixed quantum state against source models."""
    trine = config.trine()
    state, _ = literal_value_state(SpinValue.UP, trine)
    quantum = recombine(state)

    definite = np.zeros(PARTICLE_DIM, dtype=complex)
    definite[0] = 1.0  # port p1, spin up-z
    product = np.kron(np.full(3, 1.0 / math.sqrt(3.0), dtype=complex), np.array([1, 0], complex))

    results = {
        name: {"ports": ports, "tv_distance": tv, "verdict": verdict}
        for name, (_, ports, tv, verdict) in _source_model_verdicts(
            trine, quantum, config.threshold
        ).items()
    }

    return {
        "meta": metadata(config),
        "quantum_ports": [float(p) for p in quantum],
        "sanity": {
            "definite_port_input": [float(p) for p in recombine(definite)],
            "uniform_coherent_product": [float(p) for p in recombine(product)],
        },
        "models": results,
        "threshold": float(config.threshold),
    }


def run_erasure(config: ExperimentConfig) -> dict[str, Any]:
    trine = config.trine()
    report = swap_report(trine)
    report["meta"] = metadata(config)
    return report


# --- hidden-variable comparison --------------------------------------------------


def run_lhv_compare(config: ExperimentConfig) -> dict[str, Any]:
    """Quantum against local and source-fixed models, side by side."""
    if config.protocol != "lhv_compare":
        raise ValueError("run_lhv_compare needs protocol lhv_compare")
    a, a2, b, b2 = config.chsh_angles()
    s_quantum = chsh_value(a, a2, b, b2)
    lhv_max, best = enumerate_chsh_max()

    trine = Trine.default().permuted(config.port_binding)
    quantum_ports = recombine(literal_value_state(SpinValue.UP, trine)[0])
    models = {
        name: {
            "exit_table_max_abs_diff": diff,
            "recombination_ports": ports,
            "interference_tv": tv,
            "interference_verdict": verdict,
        }
        for name, (diff, ports, tv, verdict) in _source_model_verdicts(
            trine, quantum_ports, config.threshold
        ).items()
    }

    return {
        "meta": metadata(config),
        "chsh": {
            "quantum_S": float(s_quantum),
            "quantum_abs_S": float(abs(s_quantum)),
            "lhv_max": float(lhv_max),
            "gap": float(abs(s_quantum) - lhv_max),
            "best_lhv_assignment": {
                "a": best.a, "a2": best.a2, "b": best.b, "b2": best.b2,
            },
        },
        "conspiracy": models,
    }


# --- verification ---------------------------------------------------------------


def _check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


# checks of closed forms (1/4, 1/6, 4/9) that hold only when the orientations are 120 degrees apart
_CLOSED_FORMS_120 = ("value_pairs_quarter", "conditional_orientation_anticorrelation",
                     "recombination_ports", "interference_discrimination")


def _is_120_trine(trine: Trine) -> bool:
    """Whether the orientations are 120 degrees apart (to 1e-12 rad), in any rotation."""
    a, b, c = trine.orientations
    gaps = (b - a, c - b, a + 2.0 * math.pi - c)
    return all(abs(gap - 2.0 * math.pi / 3.0) <= 1e-12 for gap in gaps)


def run_verify(config: ExperimentConfig) -> tuple[dict[str, Any], bool]:
    """Analytic invariant sweep plus the state audit.

    Gates only on invariants a correct build can satisfy for the given
    trine; quantities the audit merely reports (the pair and joint
    overlaps, and the 120-degree closed forms on any other trine) are
    included in the payload but do not affect the verdict.
    """
    trine = config.trine()
    report = verify_states(trine)
    checks: list[dict[str, Any]] = []

    eq = {row["name"]: row for row in report.equations}
    _check(
        checks, "literal_norms",
        abs(eq["single_value_up"]["literal_norm"] - 1.0) <= 1e-12
        and abs(eq["pair_up_up"]["literal_norm"] - 1.0 / 3.0) <= 1e-12
        and abs(eq["joint_all_values"]["literal_norm"] - 1.0 / 3.0) <= 1e-12,
        "written prefactors give norms (1, 1/3, 1/3)",
    )
    _check(
        checks, "single_value_fidelity",
        abs(eq["single_value_up"]["fidelity_vs_oracle"] - 1.0) <= 1e-12,
        "normalized single-value form matches the exit-basis construction",
    )
    _check(checks, "zero_amplitudes", report.all_zero_checks_pass(),
           "same-orientation same-value amplitudes vanish at 1e-14")

    p_values, cond, marg_a, marg_b = _exact_protocol_tables(stage_conditionals(trine))
    _check(checks, "value_pairs_quarter",
           bool(np.max(np.abs(p_values - 0.25)) <= 1e-12),
           "all four value pairs have probability 1/4")
    diag_ok = True
    off_ok = True
    for vv in (SpinValue.UP, SpinValue.DOWN):
        c = cond[vv, vv]
        diag_ok &= float(np.max(np.abs(np.diag(c)))) <= 1e-14
        off = c[~np.eye(3, dtype=bool)]
        off_ok &= float(np.max(np.abs(off - 1.0 / 6.0))) <= 1e-12
    _check(checks, "conditional_orientation_anticorrelation", diag_ok and off_ok,
           "same-orientation probability 0 and unequal pairs 1/6 given equal values")
    _check(checks, "orientation_marginals",
           bool(np.max(np.abs(marg_a - 1.0 / 3.0)) <= 1e-12
                and np.max(np.abs(marg_b - 1.0 / 3.0)) <= 1e-12),
           "each orientation is seen with probability 1/3")

    start = JointState(trine.pair, trine)
    one_shot = joint_distribution(start)
    worst = max(
        float(np.max(np.abs(composed_distribution(start, order) - one_shot)))
        for order in STAGE_ORDERS
    )
    _check(checks, "ordering_invariance", worst <= 1e-12,
           f"six stage interleavings agree entrywise (worst {worst:.2e})")

    state_up, _ = literal_value_state(SpinValue.UP, trine)
    ports = recombine(state_up)
    expected_ports = np.array([4.0 / 9.0, 5.0 / 18.0, 5.0 / 18.0])
    _check(checks, "recombination_ports",
           bool(np.max(np.abs(ports - expected_ports)) <= 1e-12),
           "value-fixed state recombines to (4/9, 5/18, 5/18)")
    _, uniform_ports = conspiracy_predictions(ConspiracyModel.uniform(), trine)
    tv, passed = interference_discriminator(ports, uniform_ports, config.threshold)
    _check(checks, "interference_discrimination",
           abs(tv - 1.0 / 9.0) <= 1e-12
           and passed
           and bool(np.max(np.abs(uniform_ports - 1.0 / 3.0)) <= 1e-12),
           "source models predict equal thirds; tv = 1/9 exceeds the threshold")

    res0 = erase_paths(start)
    erase_ok = (
        abs(res0.success_prob - 1.0) <= 1e-10
        and abs(res0.fidelity_to_singlet - 1.0) <= 1e-10
    )
    for vv in (SpinValue.UP, SpinValue.DOWN):
        state, _ = oracle_conditional_state(vv, vv, trine)
        res = erase_paths(state)
        erase_ok &= abs(res.fidelity_to_singlet - 1.0) <= 1e-10
        erase_ok &= abs(res.entanglement_bits - 1.0) <= 1e-10
    contrast = definite_path_contrast(trine)
    erase_ok &= abs(contrast["values"]["entanglement_bits"]) <= 1e-10
    _check(checks, "erasure_swap", bool(erase_ok),
           "path erasure restores a unit-fidelity, 1-bit entangled spin pair; "
           "definite-path mixtures stay separable")

    s = chsh_value(*(math.radians(d) for d in _CHSH_DEFAULT_DEG))
    lhv_max, _ = enumerate_chsh_max()
    grid = np.radians(np.arange(0.0, 360.0, 15.0))
    a, b = grid[:, None], grid[None, :]
    corr_err = float(np.max(np.abs(correlations(a, b) + np.cos(a - b))))
    _check(checks, "bell_quantities",
           abs(abs(s) - 2.0 * math.sqrt(2.0)) <= 1e-9
           and lhv_max == 2.0
           and corr_err <= 1e-12,
           "correlations match -cos closed form; |S| = 2*sqrt 2 against the exact "
           "local bound of 2")

    # the identity binding is the trine itself, whose tables are in hand
    perms = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    perm_err = 0.0
    for perm in perms:
        other = trine.permuted(perm)
        pv2, cond2, ma2, mb2 = _exact_protocol_tables(stage_conditionals(other))
        perm_err = max(
            perm_err,
            float(np.max(np.abs(pv2 - p_values))),
            float(np.max(np.abs(cond2 - cond))),
            float(np.max(np.abs(ma2 - marg_a))),
            float(np.max(np.abs(mb2 - marg_b))),
            float(np.max(np.abs(recombine(literal_value_state(SpinValue.UP, other)[0]) - ports))),
        )
    _check(checks, "port_binding_invariance", perm_err <= 1e-12,
           f"statistics unchanged under all port re-bindings (worst {perm_err:.2e})")

    reported_only = {
        "pair_up_up_fidelity_vs_oracle": eq["pair_up_up"]["fidelity_vs_oracle"],
        "joint_fidelity_vs_oracle": eq["joint_all_values"]["fidelity_vs_oracle"],
    }
    if not _is_120_trine(trine):
        reported_only["checks"] = [c for c in checks if c["name"] in _CLOSED_FORMS_120]
        checks = [c for c in checks if c["name"] not in _CLOSED_FORMS_120]
    payload = {
        "meta": metadata(config),
        "audit": report.to_dict(),
        "checks": checks,
        "reported_only": reported_only,
    }
    ok = all(c["pass"] for c in checks)
    payload["ok"] = ok
    return payload, ok
