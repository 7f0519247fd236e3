"""Planted defects: one-line mutants of the package and the tests that must kill them.

Usage (from the repository root)::

    python tests/mutants.py [NAME ...]

Each mutant replaces one exact text of one file under ``src/carentropy``.
The runner copies ``src/`` to a temporary directory, applies one mutant
there (the working tree is never edited), and runs the mutant's test ids
with ``PYTHONPATH`` pointing at the copy and one BLAS thread.  pytest runs
in that directory with its cache off, so a mutant that breaks where a test
writes a file writes nothing into the working tree.  A mutant is
killed when one of its tests fails.  One line is printed per mutant, and the
exit status is 1 when a mutant not marked equivalent survives, when one
marked equivalent is killed, or when its tests cannot run.  With names,
only those mutants run.  The file has no ``test_`` prefix, so pytest does
not collect it; ``tests/test_mutants.py`` checks that every old text still
occurs exactly once.

An equivalent mutant changes no result the package can produce; its reason
is given, and its tests run only to show that it survives.

Two recipe mutants of earlier versions cannot be written any more: the
region-equality loop of ``_validate_recipe`` and the ``_validate_recipe``
call in ``ExtensionRecipe.__post_init__``.  The recipe holds only its two
states and reads ``K`` and ``I`` off their regions, so it has no region to
disagree with, and its checks are the body of ``__post_init__``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/carentropy
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it; empty for a mutant that must die


MUTANTS = (
    Mutant(
        "spectrum_no_eig_floor_clamp", "states.py",
        "    lam[lam < EIG_FLOOR] = 0.0\n", "",
        ("tests/test_states.py::TestSpectrumClamp",),
    ),
    Mutant(
        "theta_image_factor_negated", "states.py",
        "par[:, None] * self.factor)", "-par[:, None] * self.factor)",
        ("tests/test_states.py", "tests/test_counterexamples.py"),
        equivalent="X and -X are factors of the same density X X*",
    ),
    Mutant(
        "reorder_sign_of_target_row", "car_algebra.py",
        "sign = (1 - 2 * (crossed[rows] & 1))", "sign = (1 - 2 * (crossed & 1))",
        (
            "tests/test_car_algebra.py::TestReorderRows",
            "tests/test_spin_reading.py::test_even_states_agree_on_contiguous_regions",
            "tests/test_free_fermions.py::test_entropy_of_a_restriction_matches_correlation_matrix",
        ),
    ),
    Mutant(
        "reorder_rows_no_sign_multiply", "car_algebra.py",
        "    out *= sign[:, None]\n", "",
        (
            "tests/test_car_algebra.py::TestReorderRows",
            "tests/test_exact.py::test_package_matches_certificate",
            "tests/test_free_fermions.py::test_entropy_of_a_restriction_matches_correlation_matrix",
        ),
    ),
    Mutant(
        "conditional_expectation_unnormalized", "operators.py",
        "local / 2 ** (len(x.region) + len(rest) - len(region))", "local",
        ("tests/test_car_algebra.py::test_conditional_expectation_matches_projection_oracle",),
    ),
    Mutant(
        "trace_out_wrong_axis_pair", "operators.py",
        "axis1=1, axis2=3)", "axis1=0, axis2=2)",
        (
            "tests/test_car_algebra.py::TestMonomialBasis::test_local_iso_roundtrip_and_products",
            "tests/test_car_algebra.py::test_conditional_expectation_matches_projection_oracle",
        ),
    ),
    Mutant(
        "commutant_candidate_without_v_I_twist", "operators.py",
        "twisted = v_I[None, :, None] * bJ.mats", "twisted = bJ.mats",
        ("tests/test_car_algebra.py::TestRelativeCommutant",),
    ),
    Mutant(
        "commutant_v_I_bits_reversed", "operators.py",
        ">> (local.n - np.array(pos_I))", ">> (np.array(pos_I) - 1)",
        ("tests/test_car_algebra.py::TestRelativeCommutant",),
    ),
    Mutant(
        "region_sites_truncated_by_int", "car_algebra.py",
        "operator.index(s) for s in sites", "int(s) for s in sites",
        ("tests/test_car_algebra.py::TestRegion::test_non_integer_sites_rejected",),
    ),
    Mutant(
        "region_of_sorts_before_converting", "car_algebra.py",
        "cls(tuple(sorted(_integer_sites(sites))))", "cls(tuple(sorted(sites)))",
        ("tests/test_car_algebra.py::TestRegion::test_of_converts_before_sorting",),
    ),
    Mutant(
        "region_upper_bound_dropped", "car_algebra.py",
        "1 <= s <= MAX_SITES for s in sites", "1 <= s for s in sites",
        ("tests/test_car_algebra.py::TestRegion::test_sites_outside_max_sites_rejected",),
    ),
    Mutant(
        "basis_sites_truncated_by_int", "car_algebra.py",
        "        self.check_region(Region.of(*order))\n"
        "        order = tuple(map(operator.index, order))",
        "        order = tuple(int(s) for s in order)\n"
        "        self.check_region(Region.of(*order))",
        (
            "tests/test_car_algebra.py::TestMonomialBasis"
            "::test_basis_sites_converted_through_region",
        ),
    ),
    Mutant(
        "check_region_off_by_one", "car_algebra.py",
        "if not region.issubset(self.lattice):", "if region.mask >> (self.n + 1):",
        ("tests/test_states.py::TestMalformedInput::test_drawn_region_off_the_lattice_refused",),
    ),
    Mutant(
        "check_region_type_check_dropped", "car_algebra.py",
        "        _require_region(region)\n        if not region.issubset",
        "        if not region.issubset",
        ("tests/test_states.py::TestMalformedInput::test_plain_tuple_region_refused",),
    ),
    Mutant(
        "region_issubset_without_complement", "car_algebra.py",
        "return not self.mask & ~other.mask", "return not self.mask & other.mask",
        ("tests/test_car_algebra.py::TestRegion::test_set_algebra_matches_frozenset",),
    ),
    Mutant(
        "of_mask_stops_before_max_sites", "car_algebra.py",
        "range(1, MAX_SITES + 1) if mask", "range(1, MAX_SITES) if mask",
        ("tests/test_car_algebra.py::TestRegion::test_set_algebra_matches_frozenset",),
    ),
    Mutant(
        "region_mask_bit_s", "car_algebra.py",
        "1 << (s - 1) for s in sites", "1 << s for s in sites",
        ("tests/test_car_algebra.py::TestRegion::test_set_algebra_matches_frozenset",),
    ),
    Mutant(
        "restrict_region_type_check_dropped", "states.py",
        "    _require_region(region)\n    if not region.issubset(state.region):\n",
        "    if not region.issubset(state.region):\n",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[restrict]",
        ),
    ),
    Mutant(
        "contained_region_type_check_dropped", "inequalities.py",
        "        _require_region(region)\n", "",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors",
        ),
    ),
    Mutant(
        "monotonicity_curve_I_J_unchecked", "inequalities.py",
        "    _contained(state, I=I, J=J)\n    previous", "    previous",
        ("tests/test_inequalities.py::TestMonotonicityCurve::test_J_outside_the_state_named",),
    ),
    Mutant(
        "pure_extension_region_type_check_dropped", "purification.py",
        'rank of ``rho1``.\n    """\n    _require_region(J)\n', 'rank of ``rho1``.\n    """\n',
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[pure_extension]",
        ),
    ),
    Mutant(
        "symmetric_purification_region_type_check_dropped", "purification.py",
        '``|J| >= |I|``.\n    """\n    _require_region(J)\n', '``|J| >= |I|``.\n    """\n',
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[symmetric_purification]",
        ),
    ),
    Mutant(
        "state_region_type_check_dropped", "states.py",
        "        _require_region(self.region)\n        d = 2 ** len(self.region)\n        factor",
        "        d = 2 ** len(self.region)\n        factor",
        ("tests/test_states.py::TestMalformedInput::test_plain_tuple_region_refused",),
    ),
    Mutant(
        "operator_element_region_type_check_dropped", "operators.py",
        "        _require_region(self.region)\n", "",
        ("tests/test_states.py::TestMalformedInput::test_plain_tuple_region_refused",),
    ),
    Mutant(
        "parity_unitary_region_type_check_dropped", "operators.py",
        "    _require_region(region)\n    return OperatorElement(region, np.diag",
        "    return OperatorElement(region, np.diag",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_bare_site_refused_by_the_operator_picture",
        ),
    ),
    Mutant(
        "monomial_basis_region_type_check_dropped", "operators.py",
        "    _require_region(region)\n    if not region.sites:", "    if not region.sites:",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[monomial_basis]",
        ),
    ),
    Mutant(
        "conditional_expectation_region_type_check_dropped", "operators.py",
        "    _require_region(region)\n    rest = region.difference",
        "    rest = region.difference",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[conditional_expectation]",
        ),
    ),
    Mutant(
        "relative_commutant_I_type_check_dropped", "operators.py",
        "    _require_region(I)\n", "",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[relative_commutant-I]",
        ),
    ),
    Mutant(
        "relative_commutant_J_type_check_dropped", "operators.py",
        "    _require_region(J)\n", "",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_plain_tuple_region_refused_past_the_constructors[relative_commutant-J]",
        ),
    ),
    Mutant(
        "odd_eigenvector_state_region_unchecked", "counterexamples.py",
        "if not ctx.check_region(K).sites:", "if not K.sites:",
        ("tests/test_states.py::TestMalformedInput::test_plain_tuple_region_refused",),
    ),
    Mutant(
        "tau_form_division_warns", "states.py",
        '    with np.errstate(invalid="ignore"):  # a non-finite entry stays one, and is refused\n'
        "        density = np.asarray(rep, dtype=complex) / 2 ** len(region)\n",
        "    density = np.asarray(rep, dtype=complex) / 2 ** len(region)\n",
        (
            "tests/test_states.py::TestMalformedInput"
            "::test_non_finite_tau_form_refused_without_warning",
        ),
    ),
    Mutant(
        "spectral_data_not_padded", "states.py",
        "np.concatenate([lam, np.zeros(2 ** len(state.region) - lam.size)])", "lam",
        (
            "tests/test_states.py::TestSpectralData",
            "tests/test_states.py::test_factored_marginal_matches_oracle",
        ),
    ),
    Mutant(
        "spectral_data_not_reversed", "states.py",
        "lam = _spectrum(state.factor)[::-1]", "lam = _spectrum(state.factor)",
        (
            "tests/test_states.py::TestSpectralData",
            "tests/test_states.py::test_factored_marginal_matches_oracle",
        ),
    ),
    Mutant(
        "density_hermiticity_check_dropped", "states.py",
        "    if not residual <= HERMITICITY_TOL:\n"
        '        raise NotAStateError(f"density is not Hermitian: max |D - D*| = {residual:.3e}")\n',
        "",
        (
            "tests/test_states.py::TestMalformedInput::test_non_hermitian_density_refused",
            "tests/test_states.py::TestMalformedInput::test_drawn_non_hermitian_density_refused",
        ),
    ),
    Mutant(
        "random_state_rank_not_converted", "states.py",
        "rank = d if rank is None else operator.index(rank)", "rank = d if rank is None else rank",
        ("tests/test_states.py::TestMalformedInput::test_drawn_bad_rank_refused",),
    ),
    Mutant(
        "state_factor_array_check_dropped", "states.py",
        "not isinstance(factor, np.ndarray) or ", "",
        ("tests/test_states.py::TestMalformedInput::test_non_array_factor_rejected",),
    ),
    Mutant(
        "is_even_early_return_on_not_all_mixed", "states.py",
        "if not mixed.any():\n        return True", "if not mixed.all():\n        return True",
        ("tests/test_states.py::TestIsEvenParityColumns",),
    ),
    Mutant(
        "purify_partner_fill_first_column", "purification.py",
        "partners[block, col]] = vectors", "partners[block, 0]] = vectors",
        ("tests/test_purification.py",),
    ),
    Mutant(
        "symmetric_purification_partner_blocks_swapped", "purification.py",
        "_parity_rows(len(J)))", "_parity_rows(len(J))[::-1])",
        ("tests/test_purification.py::TestStackedBlocks",),
    ),
    Mutant(
        "purify_pair_is_col", "purification.py",
        "pair = lam.shape[1] - 1 - col", "pair = col",
        ("tests/test_purification.py",),
    ),
    Mutant(
        "joint_extension_no_theta_for_odd_K", "counterexamples.py",
        "second = tilde if len(recipe.K) % 2 == 0 else tilde.theta_image()", "second = tilde",
        ("tests/test_exact.py::test_package_matches_certificate",),
    ),
    Mutant(
        "recipe_oddness_check_nan_unsafe", "counterexamples.py",
        "if not p_theta(self.rho1) <= P_THETA_TOL:", "if p_theta(self.rho1) > P_THETA_TOL:",
        ("tests/test_counterexamples.py::TestRecipeValidation",),
        equivalent="State refuses a non-finite factor, so p_theta is never NaN",
    ),
    Mutant(
        "recipe_purity_check_nan_unsafe", "counterexamples.py",
        "if not entropy(self.rho1) <= PURITY_TOL:", "if entropy(self.rho1) > PURITY_TOL:",
        ("tests/test_counterexamples.py::TestRecipeValidation",),
        equivalent="State refuses a non-finite factor, so its entropy is never NaN",
    ),
    Mutant(
        "recipe_parity_image_check_nan_unsafe", "counterexamples.py",
        "if not density_distance(self.rho2_tilde, self.rho2_tilde.theta_image()) > ODDNESS_MIN:",
        "if density_distance(self.rho2_tilde, self.rho2_tilde.theta_image()) <= ODDNESS_MIN:",
        ("tests/test_counterexamples.py::TestRecipeValidation",),
        equivalent="State refuses a non-finite factor, so the distance is never NaN",
    ),
    Mutant(
        "negative_eigenvalue_check_nan_unsafe", "states.py",
        "if not lam[0] >= -NEGATIVE_EIG_TOL:", "if lam[0] < -NEGATIVE_EIG_TOL:",
        ("tests/test_states.py::TestMalformedInput",),
        equivalent="a non-finite density is refused before eigh, so lam[0] is never NaN",
    ),
    Mutant(
        "density_finite_check_dropped", "states.py",
        "    if not np.isfinite(density).all():\n"
        '        raise NotAStateError("density has a non-finite entry")\n',
        "",
        (
            "tests/test_states.py::TestMalformedInput::test_nan_density_entry_rejected",
            "tests/test_states.py::TestMalformedInput::test_infinite_density_entry_rejected",
        ),
    ),
    Mutant(
        "vector_norm_check_nan_unsafe", "states.py",
        "if not abs(norm - 1.0) <= NORM_TOL:", "if abs(norm - 1.0) > NORM_TOL:",
        ("tests/test_states.py::TestMalformedInput::test_nan_vector_rejected",),
    ),
    Mutant(
        "classify_gap_no_finiteness_check", "inequalities.py",
        "    if not math.isfinite(gap):\n"
        '        raise CarError(f"{kind} gap is {gap}, not a finite number")\n',
        "",
        ("tests/test_inequalities.py::TestVerdicts::test_non_finite_gap_raises",),
    ),
    Mutant(
        "empty_region_entropy_from_its_marginal", "inequalities.py",
        "        if not region.sites:\n            return 0.0\n", "",
        (
            "tests/test_counterexamples.py::TestViolationDemo"
            "::test_empty_J_entropy_is_positive_zero",
        ),
    ),
    Mutant(
        "state_trace_check_dropped", "states.py",
        "        if not abs(trace - 1.0) <= TRACE_TOL:\n"
        '            raise NotAStateError(f"Tr(density) = {trace:.12f}, expected 1")\n',
        "",
        ("tests/test_states.py::TestMalformedInput",),
    ),
    Mutant(
        "state_trace_check_nan_unsafe", "states.py",
        "if not abs(trace - 1.0) <= TRACE_TOL:", "if abs(trace - 1.0) > TRACE_TOL:",
        ("tests/test_states.py::TestMalformedInput::test_non_finite_factor_rejected",),
    ),
    Mutant(
        "kron_product_never_rescaled", "states.py",
        "scale = 1.0 if abs(trace - 1.0) <= TRACE_TOL else 1.0 / math.sqrt(trace)", "scale = 1.0",
        (
            "tests/test_states.py::TestProductExtension::test_factors_near_trace_edge_accepted",
            "tests/test_counterexamples.py::TestViolationDemo::test_inputs_near_trace_edge_accepted",
        ),
    ),
    Mutant(
        "kron_product_always_rescaled", "states.py",
        "scale = 1.0 if abs(trace - 1.0) <= TRACE_TOL else 1.0 / math.sqrt(trace)",
        "scale = 1.0 / math.sqrt(trace)",
        ("tests/test_states.py::TestProductExtension::test_product_near_trace_one_kept_exact",),
    ),
    Mutant(
        "schmidt_norm_check_nan_unsafe", "purification.py",
        "if not abs(norm - 1.0) <= NORM_TOL:", "if abs(norm - 1.0) > NORM_TOL:",
        ("tests/test_purification.py::TestSchmidt::test_non_finite_vector_rejected",),
    ),
    Mutant(
        "cli_violation_bound_dropped", "cli.py",
        "-gap > MAX_VIOLATION_MAGNITUDE + HOLD_TOL", "-gap > math.inf",
        ("tests/test_cli.py::TestViolationBound",),
    ),
    Mutant(
        "cli_fixed_regions_ignored", "cli.py",
        "regions = config.regions or _trial_regions(", "regions = _trial_regions(",
        ("tests/test_cli.py::TestVerify::test_fixed_regions",),
    ),
    Mutant(
        "cli_table1_even_flag_dropped", "cli.py",
        "replace(config, seed=seed, suite=suite, even=even)", "replace(config, seed=seed, suite=suite)",
        ("tests/test_cli_config.py::test_table1_campaigns_derive_from_its_config",),
    ),
    Mutant(
        "cli_config_payload_keeps_output_path", "cli.py",
        'if v is not None and k != "output_path"}', "if v is not None}",
        (
            "tests/test_cli.py::TestDeterminism",
            "tests/test_cli_config.py::test_config_payload_renders_region_sites_without_output_path",
        ),
    ),
    Mutant(
        "cli_counterexample_exit_ignores_verdicts", "cli.py",
        "    return 0 if expected else 1\n", "    return 0\n",
        ("tests/test_cli_config.py::test_counterexample_verdicts_decide_both_exit_codes",),
    ),
    Mutant(
        "cli_outdir_appended", "cli.py",
        'os.path.join(os.environ.get("CARENTROPY_OUTDIR", ""), path)',
        'os.path.join(path, os.environ.get("CARENTROPY_OUTDIR", ""))',
        ("tests/test_cli.py::TestEnvironmentOverrides::test_outdir_env",),
    ),
)


def source(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "carentropy" / mutant.file


def run(mutant: Mutant) -> tuple[str, float]:
    """``killed``, ``survived`` or ``error`` for one mutant, and the seconds it took."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="carentropy-mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        path = source(mutant, Path(tmp))
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", time.perf_counter() - start
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), OPENBLAS_NUM_THREADS="1")
        # run in the copy, so that whatever a mutated program writes lands there
        tests = [str(ROOT / test_id) for test_id in mutant.tests]
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
    # pytest exits 1 when a test failed; any other nonzero status means it could not run
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, time.perf_counter() - start


def main(args: list[str]) -> int:
    chosen = [m for m in MUTANTS if not args or m.name in args]
    unknown = set(args) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    counts: dict[str, int] = {}
    start = time.perf_counter()
    for mutant in chosen:
        outcome, seconds = run(mutant)
        if outcome != ("survived" if mutant.equivalent else "killed"):
            bad += 1  # a survivor, a killed "equivalent" mutant, or tests that did not run
        elif mutant.equivalent:
            outcome = "equivalent"
        counts[outcome] = counts.get(outcome, 0) + 1
        note = f"  ({mutant.equivalent})" if mutant.equivalent else ""
        print(f"{outcome:10s} {seconds:5.1f} s  {mutant.name}{note}", flush=True)
    summary = ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items()))
    print(f"{len(chosen)} mutants: {summary} in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
