"""Acceptance suite: one test per criterion, one printed verdict line each.

Run under pytest (add -s to see every verdict) or standalone:

    python tests/test_acceptance.py

Criterion 6 audits the literal closed forms against the derived states.
The literal up-up pair form is a product of identical singles minus
symmetric same-orientation terms, so it is even under particle
exchange.  The derived up-up conditional state comes from the singlet,
which is odd, through the same value projector on both particles, so it
is odd.  An even and an odd state have overlap exactly 0 on every
trine, so the criterion asserts that vanishing overlap and both
parities at 1e-12, together with the entrywise match of the exit
magnitudes at the default trine.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from oracles import independent_exit_table
from toolate import qcore
from toolate.audit import (
    _literal_joint,
    _literal_pair,
    literal_value_state,
    oracle_conditional_state,
    verify_states,
)
from toolate.cli import main as cli_main, records_path
from toolate.experiments import (
    ExperimentConfig,
    run_epr,
    sample_protocol,
)
from toolate.interference import (
    definite_path_contrast,
    erase_paths,
    interference_discriminator,
    recombine,
)
from toolate.lhv import ConspiracyModel, conspiracy_predictions, enumerate_chsh_max
from toolate.protocol import (
    STAGE_ORDERS,
    JointState,
    Trine,
    composed_distribution,
    exit_amplitudes,
    joint_distribution,
    prepare_joint,
    stage_conditionals,
)
from toolate.spinlab import SpinValue, chsh_value, correlations

TRINE = Trine.default()
ALL_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
CHSH_RAD = tuple(math.radians(d) for d in (0.0, 90.0, 45.0, 135.0))


def conclude(number: int, title: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {title}: {verdict}"
          + ("" if not failures else " | " + "; ".join(failures)))
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_singlet_correlations():
    failures = []
    a = np.radians(np.arange(360.0))[:, None]  # every pair of a 1-degree grid
    b = a.T
    worst = float(np.max(np.abs(correlations(a, b) + np.cos(a - b))))
    if worst > 1e-12:
        failures.append(f"1-degree grid deviates from -cos by {worst:.2e}")
    table = run_epr(ExperimentConfig(protocol="epr_standard", trials=100000, master_seed=11))
    for row in table.rows:
        if row.label.startswith("E(") and abs(row.estimate - row.exact) > 3 * row.stderr:
            failures.append(f"MC {row.label} off by more than 3 sigma")
    conclude(1, "singlet correlations exact and sampled", failures)


def test_criterion_02_chsh_bounds():
    failures = []
    s = chsh_value(*CHSH_RAD)
    if abs(abs(s) - 2 * math.sqrt(2)) > 1e-9:
        failures.append(f"|S| = {abs(s)!r} not 2*sqrt(2) within 1e-9")
    lhv_max, _ = enumerate_chsh_max()
    if lhv_max != 2.0:
        failures.append(f"exhaustive local maximum {lhv_max!r} differs from 2")
    conclude(2, "quantum CHSH 2*sqrt(2) against exact local bound 2", failures)


def test_criterion_03_value_pair_statistics():
    failures = []
    tree = stage_conditionals(TRINE)
    joint = tree.p_value_a[:, None] * tree.p_value_b
    if np.max(np.abs(joint - 0.25)) > 1e-12:
        failures.append("exact value-pair probabilities deviate from 1/4")
    oracle = independent_exit_table(TRINE.angles_by_port)
    for va in range(2):
        for vb in range(2):
            block = oracle[va::2, vb::2].sum()
            if abs(joint[va, vb] - block) > 1e-12:
                failures.append("artifact disagrees with the loop-built oracle table")
    n = 100000
    outcomes = sample_protocol(TRINE, n, 20250808)
    for va in range(2):
        for vb in range(2):
            est = np.mean((outcomes[:, 0] == va) & (outcomes[:, 1] == vb))
            sigma = math.sqrt(0.25 * 0.75 / n)
            if abs(est - 0.25) > 3 * sigma:
                failures.append(f"MC value pair ({va},{vb}) off by more than 3 sigma")
    conclude(3, "all four value pairs carry probability 1/4", failures)


def test_criterion_04_orientation_anticorrelation():
    failures = []
    tree = stage_conditionals(TRINE)
    oracle = independent_exit_table(TRINE.angles_by_port)
    for v in (0, 1):
        cond = np.zeros((3, 3))
        for ra in range(3):
            for rb in range(3):
                cond[ra, rb] = tree.p_orient_a[v, v, ra] * tree.p_orient_b[v, v, ra, rb]
        if np.max(np.abs(np.diag(cond))) > 1e-14:
            failures.append("same-orientation probability not exactly zero")
        off = cond[~np.eye(3, dtype=bool)]
        if np.max(np.abs(off - 1 / 6)) > 1e-12:
            failures.append("unequal-orientation pairs deviate from 1/6")
        oracle_cond = oracle[v::2, v::2] / oracle[v::2, v::2].sum()
        if np.max(np.abs(cond - oracle_cond)) > 1e-12:
            failures.append("conditional table disagrees with the loop-built oracle")
    outcomes = sample_protocol(TRINE, 100000, 7501)
    va, vb, ea, eb = outcomes.T
    bad = (va == vb) & ((ea // 2) == (eb // 2))
    if np.any(bad):
        failures.append("Monte Carlo produced a same-orientation equal-value event")
    conclude(4, "equal values forbid equal orientations (0 and 1/6 table)", failures)


def test_criterion_05_ordering_invariance():
    failures = []
    state = prepare_joint(TRINE)
    one_shot = joint_distribution(state)
    for order in STAGE_ORDERS:
        gap = float(np.max(np.abs(composed_distribution(state, order) - one_shot)))
        if gap > 1e-12:
            failures.append(f"interleaving {'>'.join(order)} deviates by {gap:.2e}")
    conclude(5, "joint table invariant across all stage interleavings", failures)


def literal_pair(trine):
    """The up-up pair form, built from the two literal single-value states."""
    return _literal_pair([literal_value_state(v, trine) for v in SpinValue], trine)


def literal_joint(trine):
    """The full pair form, built from the two literal single-value states."""
    return _literal_joint([literal_value_state(v, trine) for v in SpinValue], trine)


def exchange(vec: np.ndarray) -> np.ndarray:
    """Swap the two particles of a 36-dim pair state ordered A (x) B."""
    return vec.reshape(6, 6).T.reshape(36)


def test_criterion_06_equation_audits():
    failures = []
    _, norm_single = literal_value_state(SpinValue.UP, TRINE)
    pair, norm_pair = literal_pair(TRINE)
    joint, norm_joint = literal_joint(TRINE)
    if abs(norm_single - 1.0) > 1e-12:
        failures.append(f"single-value literal norm {norm_single!r} not 1")
    if abs(norm_pair - 1 / 3) > 1e-12:
        failures.append(f"pair literal norm {norm_pair!r} not 1/3")
    if abs(norm_joint - 1 / 3) > 1e-12:
        failures.append(f"joint literal norm {norm_joint!r} not 1/3")

    for degrees in ((0, 120, 240), (0, 100, 230), (10, 95, 300)):
        trine = Trine.from_degrees(degrees)
        where = ",".join(map(str, degrees))
        pair_t, _ = literal_pair(trine)
        oracle_t, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, trine)
        even_gap = float(np.max(np.abs(exchange(pair_t) - pair_t)))
        odd_gap = float(np.max(np.abs(exchange(oracle_t.vec) + oracle_t.vec)))
        fid_pair = qcore.fidelity(pair_t, oracle_t.vec)
        if even_gap > 1e-12:
            failures.append(f"pair form not exchange-even at {where} (gap {even_gap:.1e})")
        if odd_gap > 1e-12:
            failures.append(f"derived up-up state not exchange-odd at {where} (gap {odd_gap:.1e})")
        if fid_pair > 1e-12:
            failures.append(f"pair form overlap with derived up-up state at {where} is "
                            f"{fid_pair:.3e}, not 0 within 1e-12")

    oracle_upup, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, TRINE)
    mag_gap = float(
        np.max(
            np.abs(
                np.abs(exit_amplitudes(oracle_upup))
                - np.abs(exit_amplitudes(JointState(pair, TRINE)))
            )
        )
    )
    if mag_gap > 1e-12:
        failures.append(f"exit magnitudes differ entrywise by {mag_gap:.1e}")

    report = verify_states(TRINE)
    eq = {row["name"]: row for row in report.equations}
    fid_joint = eq["joint_all_values"]["fidelity_vs_oracle"]
    if not (0.0 <= fid_joint < 1.0):
        failures.append("joint-form fidelity must be computed and lie in [0, 1)")
    if not report.all_zero_checks_pass():
        failures.append("a same-orientation same-value amplitude exceeds 1e-14")
    conclude(6, "literal-form audits (norms, overlaps, parities, zero amplitudes)", failures)


def test_criterion_07_interference_discrimination():
    failures = []
    state, _ = literal_value_state(SpinValue.UP, TRINE)
    ports = recombine(state)
    if np.max(np.abs(ports - np.array([4 / 9, 5 / 18, 5 / 18]))) > 1e-12:
        failures.append(f"recombination ports {ports} not (4/9, 5/18, 5/18)")
    rng = np.random.default_rng(5)
    models = [ConspiracyModel.uniform(),
              ConspiracyModel.from_exit_table(joint_distribution(prepare_joint(TRINE)))]
    for _ in range(5):
        raw = rng.uniform(0, 1, size=(3, 3, 2, 2))
        models.append(ConspiracyModel(raw / raw.sum()))
    for model in models:
        _, model_ports = conspiracy_predictions(model, TRINE)
        if np.max(np.abs(model_ports - 1 / 3)) > 1e-12:
            failures.append("a source model failed to recombine uniformly")
    tv, passed = interference_discriminator(ports, np.full(3, 1 / 3), threshold=0.05)
    if abs(tv - 1 / 9) > 1e-12:
        failures.append(f"TV distance {tv!r} not 1/9")
    if not passed:
        failures.append("TV distance did not clear the 0.05 threshold")
    conclude(7, "interference separates superposed from source-fixed orientation", failures)


def test_criterion_08_erasure_swap():
    failures = []
    state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, TRINE)
    res = erase_paths(state)
    if abs(res.fidelity_to_singlet - 1.0) > 1e-10:
        failures.append(f"singlet fidelity {res.fidelity_to_singlet!r} not 1 within 1e-10")
    if abs(res.entanglement_bits - 1.0) > 1e-10:
        failures.append(f"entropy {res.entanglement_bits!r} not 1 bit within 1e-10")
    contrast = definite_path_contrast(TRINE)
    if abs(contrast["values"]["entanglement_bits"]) > 1e-10:
        failures.append("definite-path mixture shows spurious entanglement")
    conclude(8, "path erasure restores the entangled spin pair", failures)


def test_criterion_09_reproducibility():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        cases = [
            (["toolate", "--trials", "50000", "--seed", "42"], "run.csv", True),
            (["epr", "--trials", "50000", "--seed", "7"], "epr.csv", False),
            (["interfere"], "interference.json", False),
            (["erase"], "erasure.json", False),
            (["lhv", "--trials", "50000", "--seed", "3"], "lhv.json", False),
            (["verify"], "report.json", False),
        ]
        for args, name, has_records in cases:
            target = base / name
            assert cli_main(args + ["--out", str(target)]) == 0
            first = target.read_bytes()
            first_records = (
                Path(records_path(str(target))).read_bytes() if has_records else None
            )
            assert cli_main(args + ["--out", str(target)]) == 0
            if target.read_bytes() != first:
                failures.append(f"{args[0]} rerun changed {name}")
            if has_records and Path(records_path(str(target))).read_bytes() != first_records:
                failures.append(f"{args[0]} rerun changed the record stream")
    conclude(9, "identical seed and config give byte-identical files", failures)


def test_criterion_10_port_binding_invariance():
    failures = []
    base_tree = stage_conditionals(TRINE)
    base_joint = joint_distribution(prepare_joint(TRINE))
    base_ports = recombine(literal_value_state(SpinValue.UP, TRINE)[0])
    base_state, _ = oracle_conditional_state(SpinValue.UP, SpinValue.UP, TRINE)
    base_erase = erase_paths(base_state)
    base_outcomes = sample_protocol(TRINE, 20000, 616)
    for perm in ALL_PERMS:
        other = TRINE.permuted(perm)
        tree = stage_conditionals(other)
        checks = {
            "value stage": np.max(np.abs(tree.p_value_a - base_tree.p_value_a)),
            "partner value stage": np.max(np.abs(tree.p_value_b - base_tree.p_value_b)),
            "orientation stages": max(
                float(np.max(np.abs(tree.p_orient_a - base_tree.p_orient_a))),
                float(np.max(np.abs(tree.p_orient_b - base_tree.p_orient_b))),
            ),
            "joint table": np.max(
                np.abs(joint_distribution(prepare_joint(other)) - base_joint)
            ),
            "recombination": np.max(
                np.abs(recombine(literal_value_state(SpinValue.UP, other)[0]) - base_ports)
            ),
        }
        for name, gap in checks.items():
            if gap > 1e-12:
                failures.append(f"{name} changed under binding {perm} by {gap:.2e}")
        res = erase_paths(oracle_conditional_state(SpinValue.UP, SpinValue.UP, other)[0])
        if (
            abs(res.success_prob - base_erase.success_prob) > 1e-12
            or abs(res.fidelity_to_singlet - base_erase.fidelity_to_singlet) > 1e-12
            or abs(res.entanglement_bits - base_erase.entanglement_bits) > 1e-12
        ):
            failures.append(f"erasure statistics changed under binding {perm}")
        report = verify_states(other)
        norms = [row["literal_norm"] for row in report.equations]
        if max(abs(n - e) for n, e in zip(norms, (1.0, 1 / 3, 1 / 3))) > 1e-12:
            failures.append(f"literal norms changed under binding {perm}")
        if not report.all_zero_checks_pass():
            failures.append(f"a zero check broke under binding {perm}")
        if not np.array_equal(sample_protocol(other, 20000, 616), base_outcomes):
            failures.append(f"sampled outcome stream changed under binding {perm}")
    conclude(10, "statistics invariant under any port re-binding", failures)


CRITERIA = [
    test_criterion_01_singlet_correlations,
    test_criterion_02_chsh_bounds,
    test_criterion_03_value_pair_statistics,
    test_criterion_04_orientation_anticorrelation,
    test_criterion_05_ordering_invariance,
    test_criterion_06_equation_audits,
    test_criterion_07_interference_discrimination,
    test_criterion_08_erasure_swap,
    test_criterion_09_reproducibility,
    test_criterion_10_port_binding_invariance,
]


def main() -> int:
    bad = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError:
            bad += 1
    print(f"{len(CRITERIA) - bad}/{len(CRITERIA)} acceptance criteria hold")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
