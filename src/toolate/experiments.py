"""Experiment drivers: exact tables, seeded Monte Carlo, and reports.

Every run is a pure function of its configuration: outputs carry a JSON
metadata preamble (artifact version, effective config, master seed) and
no timestamps, so reruns are byte-identical.  ``trials = 0`` selects
exact-only mode.  Monte Carlo uses the counter-based kernels; per-trial
seeds are mix64(master_seed, trial_id), so how trials are batched
cannot change results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterator

import numpy as np

from . import _kernels
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
    StageConditionals,
    Trine,
    composed_distribution,
    degrees_of,
    joint_distribution,
    prepare_joint,
    stage_conditionals,
)
from .spinlab import SpinValue, chsh_value, correlation_exact, joint_value_probabilities

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

    The field list is the config-file schema: each field's file key is
    its name, or the ``key`` in its metadata.  Values are type-checked
    here, whether they come from a file, a flag or a caller."""

    protocol: str
    angles_deg: tuple[float, ...] = field(default=(), metadata={"key": "angles"})
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
        if not (_is_finite(self.threshold) and 0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must be a finite number in [0, 1]")
        if not (
            isinstance(self.port_binding, (list, tuple))
            and all(_is_int(p) for p in self.port_binding)
            and sorted(self.port_binding) == [0, 1, 2]
        ):
            raise ValueError("port_binding must be a permutation of (0, 1, 2)")
        if not (
            isinstance(self.angles_deg, (list, tuple))
            and all(_is_finite(a) for a in self.angles_deg)
        ):
            raise ValueError("angles must be a list of finite numbers (degrees)")
        chsh = self.protocol in ("epr_standard", "lhv_compare")
        angles = tuple(float(a) for a in self.angles_deg)
        if not angles:
            angles = _CHSH_DEFAULT_DEG if chsh else _TRINE_DEFAULT_DEG
        if chsh and len(angles) != 4:
            raise ValueError("this protocol needs exactly four angles (a, a', b, b')")
        if not chsh and len(angles) != 3:
            raise ValueError("this protocol needs exactly three angles")
        if len(set(angles)) != len(angles):
            raise ValueError("angles must be distinct")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "port_binding", tuple(self.port_binding))
        object.__setattr__(self, "threshold", float(self.threshold))

    def trine(self) -> Trine:
        ordered = Trine.from_degrees(self.angles_deg)
        return ordered.permuted(self.port_binding)

    def chsh_angles(self) -> tuple[float, float, float, float]:
        return tuple(math.radians(a) for a in self.angles_deg)  # type: ignore[return-value]

    def to_dict(self) -> dict[str, Any]:
        """The config as file keys and JSON values, as echoed in metadata."""
        out = {}
        for key, name in _FIELD_OF_KEY.items():
            value = getattr(self, name)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        unknown = set(data) - set(_FIELD_OF_KEY)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{_FIELD_OF_KEY[key]: value for key, value in data.items()})


_FIELD_OF_KEY = {f.metadata.get("key", f.name): f.name for f in fields(ExperimentConfig)}


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


def _deg(rad: float) -> str:
    return f"{degrees_of(rad):g}"


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
        (f"E({_deg(a)},{_deg(b)})", a, b),
        (f"E({_deg(a)},{_deg(b2)})", a, b2),
        (f"E({_deg(a2)},{_deg(b)})", a2, b),
        (f"E({_deg(a2)},{_deg(b2)})", a2, b2),
    ]
    table = EstimateTable()
    exact = [correlation_exact(x, y) for _, x, y in pairs]
    s_exact = chsh_value(a, a2, b, b2)

    estimates = [None] * 4
    errors = [None] * 4
    s_est = s_err = None
    n = config.trials
    if n > 0:
        cum = _kernels.cumulative(
            np.array([joint_value_probabilities(x, y) for _, x, y in pairs])
        )
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
    # cond[va, vb, ra, rb]; the exit index of rank r and value v is 2*r + v
    va, vb, ra, rb = np.ix_(range(2), range(2), range(3), range(3))
    ea = 2 * ra + va
    cond = tree.p_exit_a[va, vb, ea] * tree.p_exit_b[va, vb, ea, 2 * rb + vb]
    marg_a = (p_values[:, :, None] * cond.sum(axis=3)).reshape(4, 3).sum(axis=0)
    marg_b = (p_values[:, :, None] * cond.sum(axis=2)).reshape(4, 3).sum(axis=0)
    return p_values, cond, marg_a, marg_b


def _sample_tree(tree: StageConditionals, trials: int, master_seed: int) -> np.ndarray:
    stages = (tree.p_value_a, tree.p_value_b, tree.p_exit_a, tree.p_exit_b)
    return _kernels.protocol_outcomes(
        *(_kernels.cumulative(p) for p in stages), master_seed, trials
    )


def sample_protocol(trine: Trine, trials: int, master_seed: int) -> np.ndarray:
    """Stage outcomes (value_A, value_B, exit_A, exit_B) for each trial.

    Stage conditionals are projected out of the prepared state once;
    each trial then consumes one uniform per stage in recorded order,
    which reproduces sequential collapse draw for draw (tested against
    the explicit slow path).
    """
    return _sample_tree(stage_conditionals(trine), trials, master_seed)


def _cells(outcomes: np.ndarray) -> np.ndarray:
    """Flat index ((value_A*2 + value_B)*3 + rank_A)*3 + rank_B of each row,
    where rank = exit // 2 is the orientation's place in the trine."""
    va, vb, ea, eb = outcomes.T
    return ((va * 2 + vb) * 3 + ea // 2) * 3 + eb // 2


def run_toolate(config: ExperimentConfig) -> tuple[EstimateTable, np.ndarray]:
    """Value-first protocol: exact stage statistics plus Monte Carlo.

    Returns the estimate table and the raw outcome array (trials x 4);
    use ``record_chunks`` to serialize the outcome stream.
    """
    if config.protocol != "toolate":
        raise ValueError("run_toolate needs protocol toolate")
    trine = config.trine()
    degs = [f"{d:g}" for d in (degrees_of(t) for t in trine.orientations)]
    tree = stage_conditionals(trine)
    p_values, cond, marg_a, marg_b = _exact_protocol_tables(tree)

    n = config.trials
    outcomes = _sample_tree(tree, n, config.master_seed)
    ccounts = np.bincount(_cells(outcomes), minlength=36).reshape(2, 2, 3, 3)
    vcounts = ccounts.sum(axis=(2, 3))

    table = EstimateTable()

    def freq_row(label, exact, count, total):
        if total > 0:
            est = count / total
            err = math.sqrt(est * (1.0 - est) / total)
            table.add(label, exact=exact, estimate=est, stderr=err, n=total)
        else:
            table.add(label, exact=exact, n=0)

    for va in SpinValue:
        for vb in SpinValue:
            freq_row(
                f"P(vA={va.label},vB={vb.label})",
                p_values[va, vb],
                int(vcounts[va, vb]),
                n,
            )
    for va in SpinValue:
        for vb in SpinValue:
            n_cond = int(vcounts[va, vb])
            for ra in range(3):
                for rb in range(3):
                    freq_row(
                        f"P(oA={degs[ra]},oB={degs[rb]}|vA={va.label},vB={vb.label})",
                        cond[va, vb, ra, rb],
                        int(ccounts[va, vb, ra, rb]),
                        n_cond,
                    )
    for ra in range(3):
        freq_row(
            f"P(oA={degs[ra]})",
            marg_a[ra],
            int(ccounts[:, :, ra, :].sum()),
            n,
        )
    for rb in range(3):
        freq_row(
            f"P(oB={degs[rb]})",
            marg_b[rb],
            int(ccounts[:, :, :, rb].sum()),
            n,
        )
    return table, outcomes


def records_text(
    trine: Trine, outcomes: np.ndarray, master_seed: int, start: int = 0
) -> str:
    """One compact JSON line per outcome row, for trials start, start + 1, ...

    A record's fields after "seed" depend only on its ``_cells`` index,
    so the 36 possible tails are rendered once and only the trial and
    seed are formatted per line.
    """
    degs = [degrees_of(t) for t in trine.orientations]
    values = (SpinValue.UP.label, SpinValue.DOWN.label)
    tails = [
        json.dumps(
            {
                "value_A": values[va],
                "value_B": values[vb],
                "orient_A": degs[ra],
                "orient_B": degs[rb],
            },
            separators=(",", ":"),
        )[1:]
        + "\n"
        for va, vb, ra, rb in np.ndindex(2, 2, 3, 3)
    ]
    trials = range(start, start + len(outcomes))
    seeds = _kernels.trial_seeds(master_seed, len(outcomes), start).tolist()
    return "".join(
        [
            f'{{"trial":{i},"seed":{seed},{tails[cell]}'
            for i, seed, cell in zip(trials, seeds, _cells(outcomes).tolist())
        ]
    )


def record_chunks(
    trine: Trine, outcomes: np.ndarray, meta: dict[str, Any]
) -> Iterator[str]:
    """The outcome stream as JSON lines: the metadata line, then
    ``records_text`` of each run of ``_kernels.CHUNK`` trials."""
    yield json.dumps({"meta": meta}, sort_keys=True, separators=(",", ":")) + "\n"
    for start in range(0, len(outcomes), _kernels.CHUNK):
        chunk = outcomes[start : start + _kernels.CHUNK]
        yield records_text(trine, chunk, meta["master_seed"], start)


# --- interference and erasure runs ---------------------------------------------


def _source_model_verdicts(
    trine: Trine, quantum_ports: np.ndarray, threshold: float
) -> dict[str, tuple[float, list[float], float, str]]:
    """The uniform and the quantum-fitted source models against the
    quantum recombination ports.  Maps each model name to (max abs
    exit-table difference from quantum, predicted ports, TV distance,
    verdict)."""
    quantum_table = joint_distribution(prepare_joint(trine))
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
    lhv_max, best = enumerate_chsh_max(a, a2, b, b2)

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


# --- chi-square -----------------------------------------------------------------


def _gamma_q(s: float, x: float, rel_tol: float = 1e-8, max_iter: int = 500) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x)/Gamma(s)."""
    if s <= 0.0 or x < 0.0:
        raise ValueError("need s > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    lg = math.lgamma(s)
    if x < s + 1.0:
        # series for the lower function, then complement
        term = 1.0 / s
        total = term
        k = s
        for _ in range(max_iter):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * rel_tol:
                break
        else:
            raise RuntimeError("series for the incomplete gamma did not converge")
        p = total * math.exp(-x + s * math.log(x) - lg)
        return max(0.0, 1.0 - p)
    # Lentz continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < rel_tol:
            break
    else:
        raise RuntimeError("continued fraction for the incomplete gamma did not converge")
    return min(1.0, max(0.0, h * math.exp(-x + s * math.log(x) - lg)))


def chi_square(observed, expected) -> tuple[float, float]:
    """Pearson statistic and tail probability.

    Cells with expected count below 5 are pooled into one; the test
    needs at least two cells after pooling.  Observations landing where
    the expected mass is zero make the statistic infinite.
    """
    obs = np.asarray(observed, dtype=float).reshape(-1)
    exp = np.asarray(expected, dtype=float).reshape(-1)
    if obs.shape != exp.shape:
        raise ValueError("observed and expected must have the same length")
    if np.any(obs < 0) or np.any(exp < -1e-15):
        raise ValueError("negative entries")
    n = obs.sum()
    if n <= 0:
        raise ValueError("need at least one observation")
    if abs(exp.sum() - 1.0) > 1e-8:
        raise ValueError("expected probabilities must sum to 1")

    expected_counts = exp * n
    keep = expected_counts >= 5.0
    cells = [(float(obs[i]), float(expected_counts[i])) for i in range(obs.size) if keep[i]]
    pooled_obs = float(obs[~keep].sum())
    pooled_exp = float(expected_counts[~keep].sum())
    if not np.all(keep):
        if pooled_exp == 0.0:
            if pooled_obs > 0.0:
                return math.inf, 0.0
        else:
            cells.append((pooled_obs, pooled_exp))
    if len(cells) < 2:
        raise ValueError("all cells pooled away; too few observations for the test")

    stat = sum((o - e) ** 2 / e for o, e in cells)
    dof = len(cells) - 1
    return float(stat), _gamma_q(dof / 2.0, stat / 2.0)


# --- verification ---------------------------------------------------------------


def _check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def run_verify(config: ExperimentConfig) -> tuple[dict[str, Any], bool]:
    """Analytic invariant sweep plus the state audit.

    Gates only on invariants a correct build can satisfy; quantities
    the audit merely reports (the pair and joint overlaps with derived
    states) are included in the payload but do not affect the verdict.
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

    start = prepare_joint(trine)
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
    lhv_max, _ = enumerate_chsh_max(*(math.radians(d) for d in _CHSH_DEFAULT_DEG))
    grid = np.radians(np.arange(0.0, 360.0, 15.0))
    corr_err = max(
        abs(correlation_exact(x, y) + math.cos(x - y)) for x in grid for y in grid
    )
    _check(checks, "bell_quantities",
           abs(abs(s) - 2.0 * math.sqrt(2.0)) <= 1e-9
           and lhv_max == 2.0
           and corr_err <= 1e-12,
           "correlations match -cos closed form; |S| = 2*sqrt 2 against the exact "
           "local bound of 2")

    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
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

    payload = {
        "meta": metadata(config),
        "audit": report.to_dict(),
        "checks": checks,
        "reported_only": {
            "pair_up_up_fidelity_vs_oracle": eq["pair_up_up"]["fidelity_vs_oracle"],
            "joint_fidelity_vs_oracle": eq["joint_all_values"]["fidelity_vs_oracle"],
        },
    }
    ok = all(c["pass"] for c in checks)
    payload["ok"] = ok
    return payload, ok
