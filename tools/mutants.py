"""Hand-chosen mutants of src/ktmix, each with the tests that must kill it.

This is mutation analysis (DeMillo, Lipton & Sayward 1978) with the mutants
chosen by hand.  A mutant replaces one exact text in one file of the package
with another.  For each mutant the tool copies src/ to a temporary directory,
applies the mutant there and runs only that mutant's tests against the copy;
the mutant is killed when every one of its tests fails.  Before any mutant
runs, all the named tests must pass on an unmutated copy.  An old text that
is not found exactly once is an error, never a skip: a refactor moves its
mutants along with the code.

Run from any directory; the exit status is 0 when every mutant is killed,
1 when one survives and 2 on an error:

    python tools/mutants.py              # every mutant
    python tools/mutants.py NAME ...     # the named mutants only

Its own tests run with `python -m pytest tools/tests`; neither is part of
the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str       # under src/ktmix
    old: str        # exact text, found exactly once
    new: str
    tests: tuple    # pytest node ids, each of which must fail on the mutant


class MutantError(Exception):
    """A mutant that cannot be run: missing or repeated old text, or tests that cannot run."""


MUTANTS = (
    Mutant("alphabet-keeps-massless-cells", "estimator.py",
           "keep = eta > 0", "keep = eta >= 0",
           ("tests/test_properties.py::test_marginal_paths_equal_the_gn_oracle",
            "tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_properties.py::test_level_alphabet_keeps_the_cells_of_positive_oracle_mass",
            "tests/test_partition.py::TestCells::test_natural_support_level_two")),
    Mutant("state-alphabet-one-too-big", "estimator.py",
           "KtState(int(m)) if m", "KtState(int(m) + 1) if m",
           ("tests/test_properties.py::test_marginal_paths_equal_the_gn_oracle",
            "tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_joint.py::TestGridKraft::test_exhaustive_product_alphabet_sums_to_one")),
    Mutant("level-weights-of-the-last-axis", "estimator.py",
           "LevelWeights.default(len(axis.sizes) - 1)", "LevelWeights.default(len(axes[-1].sizes) - 1)",
           ("tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_properties.py::test_joint_with_a_one_cell_axis_is_the_marginal",
            "tests/test_joint.py::TestObserve::test_batch_with_every_pair_in_a_zero_mass_x_cell")),
    Mutant("dead-marginal-level-kept-alive", "estimator.py",
           "if valid.all() and state is not None:", "if state is not None:",
           ("tests/test_properties.py::test_mixture_batch_equals_sequential",
            "tests/test_properties.py::test_marginal_paths_equal_the_gn_oracle")),
    Mutant("finest-table-searched-left", "estimator.py",
           'at_most = np.searchsorted(np.sort(ys), self.finest_cuts, side="right")',
           'at_most = np.searchsorted(np.sort(ys), self.finest_cuts, side="left")',
           ("tests/test_properties.py::test_finest_count_table_equals_the_binned_samples",
            "tests/test_properties.py::test_mixture_batch_equals_sequential")),
    Mutant("cell-lookup-bisects-right", "partition.py",
           "from bisect import bisect_left", "from bisect import bisect_right as bisect_left",
           ("tests/test_properties.py::test_scalar_cell_lookup_is_the_batch_lookup",
            "tests/test_properties.py::test_ancestors_and_cells_of_are_the_searched_cells",
            "tests/test_properties.py::test_mixture_batch_equals_sequential",
            "tests/test_properties.py::test_marginal_paths_equal_the_gn_oracle")),
    Mutant("advance-leaves-the-log-density-stale", "estimator.py",
           "self._log_g = new = _logsumexp(", "new = _logsumexp(",
           ("tests/test_properties.py::test_cached_log_density_is_never_stale",
            "tests/test_estimator.py::TestObserve::test_hand_computed_three_sample_mixture",
            "tests/test_reports.py::test_report_bytes_are_pinned[codelength]")),
    Mutant("logsumexp-sums-with-maximum", "estimator.py",
           "math.log(float(np.add.reduce(np.exp(values - hi))))",
           "math.log(float(np.maximum.reduce(np.exp(values - hi))))",
           ("tests/test_estimator.py::TestObserve::test_hand_computed_three_sample_mixture",
            "tests/test_properties.py::test_marginal_paths_equal_the_gn_oracle",
            "tests/test_properties.py::test_mixtures_satisfy_kraft_equality",
            "tests/test_reports.py::test_report_bytes_are_pinned[codelength]")),
    Mutant("axis-pickles-its-lookup-views", "estimator.py",
           'return {**self.__dict__, "_views": None}', "return self.__dict__",
           ("tests/test_estimator.py::TestObserve::test_a_copy_resumes_the_stream",)),
    Mutant("alphabet-cache-ignores-the-measure", "estimator.py",
           "if cached is not None and cached[0] is measure:", "if cached is not None:",
           ("tests/test_estimator.py::TestConstruction::test_level_alphabet_is_cached_per_measure",)),
    Mutant("ancestors-searched-right", "partition.py",
           'np.searchsorted(cuts, uppers, side="left")', 'np.searchsorted(cuts, uppers, side="right")',
           ("tests/test_properties.py::test_ancestors_and_cells_of_are_the_searched_cells",
            "tests/test_properties.py::test_scalar_cell_lookup_is_the_batch_lookup",
            "tests/test_reports.py::test_report_bytes_are_pinned[codelength-dyadic-partition]")),
    Mutant("ancestors-shifted-one-level-too-far", "partition.py",
           "cells >> (self.max_level - k) for k", "cells >> (self.max_level - k + 1) for k",
           ("tests/test_properties.py::test_ancestors_and_cells_of_are_the_searched_cells",
            "tests/test_properties.py::test_scalar_cell_lookup_is_the_batch_lookup",
            "tests/test_partition.py::TestDyadicLevels::test_levels_are_the_level_by_level_cuts_bit_for_bit",
            "tests/test_reports.py::test_report_bytes_are_pinned[codelength]")),
    Mutant("cell-lookup-shifted-one-level-too-far", "partition.py",
           "range(self.max_level, -1, -1)", "range(self.max_level + 1, 0, -1)",
           ("tests/test_properties.py::test_ancestors_and_cells_of_are_the_searched_cells",
            "tests/test_properties.py::test_scalar_cell_lookup_is_the_batch_lookup",
            "tests/test_properties.py::test_mixture_batch_equals_sequential",
            "tests/test_reports.py::test_report_bytes_are_pinned[density-x]")),
    Mutant("partition-pickles-its-lookup-views", "partition.py",
           'return {**self.__dict__, "_lookup": None}', "return dict(self.__dict__)",
           ("tests/test_partition.py::TestDyadicLevels::test_a_copy_keeps_one_cut_array",)),
    Mutant("level-view-starts-one-cut-late", "partition.py",
           "finest[2 ** (max_level - k) - 1::", "finest[2 ** (max_level - k)::",
           ("tests/test_partition.py::TestDyadicLevels::test_levels_are_the_level_by_level_cuts_bit_for_bit",
            "tests/test_partition.py::TestCutPoints::test_level_three",
            "tests/test_reports.py::test_report_bytes_are_pinned[codelength]")),
    Mutant("lebesgue-mass-not-clipped-at-zero", "measure.py",
           "return np.maximum(mass, 0.0, out=mass)", "return mass",
           ("tests/test_measure.py::TestLebesgue::test_clips_to_support",
            "tests/test_properties.py::test_measure_of_equals_masses_half_open")),
    Mutant("atom-mass-on-empty-cells", "measure.py",
           "cells = np.flatnonzero(hi_idx > lo_idx)", "cells = np.flatnonzero(hi_idx >= lo_idx)",
           ("tests/test_properties.py::test_measure_of_equals_masses_half_open",
            "tests/test_properties.py::test_level_alphabet_keeps_the_cells_of_positive_oracle_mass",
            "tests/test_measure.py::test_monotonicity",
            "tests/test_reports.py::test_report_bytes_are_pinned[codelength-weighted-atoms]")),
    Mutant("atom-mass-of-scalar-ends-unflattened", "measure.py",
           'hi_idx = np.searchsorted(atoms, highs, side="right").ravel()',
           'hi_idx = np.searchsorted(atoms, highs, side="right")',
           ("tests/test_measure.py::test_scalar_ends_price_as_one_cell_arrays",)),
    Mutant("empty-fold-lgamma-shifted", "kt.py",
           "terms = _lgamma_half(counts) - _LGAMMA_HALF[0]",
           "terms = _lgamma_half(counts) - _LGAMMA_HALF[1]",
           ("tests/test_joint.py::TestConstruction::test_single_cell_grid",
            "tests/test_kt.py::TestBatch::test_batch_equals_sequential",
            "tests/test_properties.py::test_kt_batch_equals_sequential")),
    Mutant("big-counts-not-written-back", "kt.py",
           "out[big] = [_lgamma(c + 0.5) for c in counts[big].tolist()]", "out[big] = out[big]",
           ("tests/test_kt.py::TestTableEdge::test_fold_across_the_table_edge",
            "tests/test_kt.py::TestUniversality::test_codelength_approaches_entropy")),
    Mutant("fold-prior-count-one", "kt.py",
           "map(prior.get, keys, repeat(0))", "map(prior.get, keys, repeat(1))",
           ("tests/test_joint.py::TestObserve::test_batch_with_every_pair_in_a_zero_mass_x_cell",
            "tests/test_joint.py::TestObserve::test_batch_equals_sequential",
            "tests/test_joint.py::TestGridKraft::test_exhaustive_product_alphabet_sums_to_one",
            "tests/test_properties.py::test_joint_batch_equals_sequential",
            "tests/test_kt.py::TestBatchCounts::test_batch_into_a_state_with_counts")),
    Mutant("joint-sort-not-stable", "joint.py",
           'order = np.argsort(raw_x.astype(key_type), kind="stable")',
           "order = np.argsort(raw_x.astype(key_type))",
           ("tests/test_properties.py::test_joint_count_tables_are_the_binned_pairs",
            "tests/test_reports.py::test_report_bytes_are_pinned[forest]",
            "tests/test_reports.py::test_tall_forest_report_bytes_are_pinned")),
    Mutant("joint-level-alive-on-any-valid-pair", "joint.py",
           "live_y = [bool((b >= 0).all()) for b in alpha_y]",
           "live_y = [bool((b >= 0).any()) for b in alpha_y]",
           ("tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_properties.py::test_joint_count_tables_are_the_binned_pairs")),
    Mutant("joint-row-alive-on-any-valid-x-cell", "joint.py",
           "live_x = bool((alpha_x >= 0).all())", "live_x = bool((alpha_x >= 0).any())",
           ("tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_properties.py::test_joint_with_a_one_cell_axis_is_the_marginal",
            "tests/test_properties.py::test_joint_count_tables_are_the_binned_pairs")),
    Mutant("joint-drops-the-y-masses", "joint.py",
           "eta_y[k] = axis_y.log_eta[k][alpha_y[k]]", "eta_y[k] = 0.0",
           ("tests/test_joint.py::TestObserve::test_first_pair_has_density_one_on_uniform_setup",
            "tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_properties.py::test_mixtures_satisfy_kraft_equality")),
    Mutant("joint-eta-rows-column-major", "joint.py",
           "terms = np.take(eta_y, order, axis=1)", "terms = eta_y[:, order]",
           ("tests/test_reports.py::test_report_bytes_are_pinned[forest]",
            "tests/test_reports.py::test_tall_forest_report_bytes_are_pinned")),
    Mutant("joint-runs-merge-across-x-cells", "joint.py",
           "key = run_x * cells_per_level_y[k] + raw_y[k][reps]", "key = raw_y[k][reps]",
           ("tests/test_properties.py::test_joint_count_tables_are_the_binned_pairs",
            "tests/test_properties.py::test_joint_batch_equals_the_gn_oracle",
            "tests/test_reports.py::test_report_bytes_are_pinned[forest]")),
    Mutant("joint-batch-overwrites-its-level", "joint.py",
           "self._ld[j, k] += ", "self._ld[j, k] = ",
           ("tests/test_joint.py::TestObserve::test_batch_with_every_pair_in_a_zero_mass_x_cell",
            "tests/test_joint.py::TestObserve::test_batch_equals_sequential",
            "tests/test_properties.py::test_joint_batch_equals_sequential",
            "tests/test_properties.py::test_joint_with_a_one_cell_axis_is_the_marginal")),
    Mutant("fitted-cells-searched-right", "joint.py",
           'cells = np.searchsorted(shallow.level_map(joint_levels).cuts, values, side="left")',
           'cells = np.searchsorted(shallow.level_map(joint_levels).cuts, values, side="right")',
           ("tests/test_properties.py::test_score_pair_equals_the_joint_fit_of_the_values",)),
    Mutant("pair-priced-with-the-x-measure-twice", "joint.py",
           "fx.partition, fy.partition, fx.measure, fy.measure",
           "fx.partition, fy.partition, fx.measure, fx.measure",
           ("tests/test_joint.py::TestAnalyzePair::test_reference_scale_invariance",
            "tests/test_acceptance.py::test_c10_bayes_factor_scale_invariance",
            "tests/test_cli.py::TestIndepAndForest::test_forest_pairs_equal_the_library")),
    Mutant("error-row-off-by-one", "cli.py",
           "at row {exc.index + 2}", "at row {exc.index + 1}",
           ("tests/test_cli.py::TestErrors::"
            "test_value_outside_the_schema_support_names_row_and_column",)),
    # Each MemoryError handler of the CLI caught nothing: the old text runs
    # from the except clause into the start of the one error it raises.
    Mutant("deep-levels-memory-error-unhandled", "cli.py",
           "except MemoryError:\n        raise DatasetError(",
           "except ZeroDivisionError:\n        raise DatasetError(",
           ("tests/test_cli.py::TestErrors::test_levels_that_exhaust_memory_name_column_and_flags",)),
    Mutant("joint-grid-memory-error-unhandled", "cli.py",
           'except MemoryError:\n        raise ValueError(f"columns',
           'except ZeroDivisionError:\n        raise ValueError(f"columns',
           ("tests/test_cli.py::TestErrors::test_joint_grid_that_exhausts_memory_names_pair_and_flag",)),
    Mutant("density-grid-memory-error-unhandled", "cli.py",
           'except MemoryError:\n        raise ValueError(f"column {args.column',
           'except ZeroDivisionError:\n        raise ValueError(f"column {args.column',
           ("tests/test_cli.py::TestErrors::test_density_grid_that_exhausts_memory_names_flag",)),
    Mutant("simulated-rows-memory-error-unhandled", "cli.py",
           'except MemoryError:\n        raise ValueError(f"{args.rows}',
           'except ZeroDivisionError:\n        raise ValueError(f"{args.rows}',
           ("tests/test_cli.py::TestErrors::test_simulated_rows_that_exhaust_memory_name_flag",)),
)


def apply(mutant: Mutant, src: Path):
    """Apply mutant to the package under src, a copy of the repository's src/."""
    path = src / "ktmix" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise MutantError(f"mutant {mutant.name}: its old text occurs {found} times in "
                          f"src/ktmix/{mutant.file}, not once; move the mutant with the code")
    path.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")


def pytest_collect_file(file_path, parent):
    """Hook of this module as a pytest plugin (-p mutants): property tests stop at their first
    failing example, unshrunk.

    It runs after tests/conftest.py has loaded its profile and before a test
    module is imported, where @given reads the profile.  A kill needs a
    failure, not the smallest failing example, and shrinking is most of the
    time a mutant's tests take.
    """
    from hypothesis import Phase, settings

    settings.register_profile("mutants", settings.default, report_multiple_bugs=False,
                              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    settings.load_profile("mutants")


def failing(src: Path, tests) -> set:
    """The node ids among tests that fail (or error) with the package under src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(ROOT / "tools"))),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants", "--tb=no",
         "-rfE", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # interrupted, usage error (an unknown id), nothing collected
        raise MutantError(f"pytest exited with status {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    reported = [line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return {t for t in tests if any(r == t or r.startswith(t + "[") for r in reported)}


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run(mutants) -> bool:
    """Run each mutant against its tests; print one line per mutant; True when all are killed."""
    for mutant in mutants:
        if not mutant.tests:
            raise MutantError(f"mutant {mutant.name} names no test that kills it")
    with tempfile.TemporaryDirectory(prefix="ktmix-mutants-") as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        for mutant in mutants:   # every old text is checked before any test runs
            apply(mutant, _copy_src(Path(tmp) / mutant.name))
        tests = list(dict.fromkeys(t for mutant in mutants for t in mutant.tests))
        broken = failing(clean, tests)
        if broken:
            raise MutantError("tests fail on the unmutated tree: " + ", ".join(sorted(broken)))
        all_killed = True
        for mutant in mutants:
            killed_by = failing(Path(tmp) / mutant.name, mutant.tests)
            survivors = [t for t in mutant.tests if t not in killed_by]
            all_killed = all_killed and not survivors
            print(f"{'killed' if not survivors else 'SURVIVED'}  {mutant.name}"
                  + "".join(f"\n    passes: {t}" for t in survivors), flush=True)
    return all_killed


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    try:
        if unknown:
            raise MutantError("unknown mutant " + ", ".join(unknown))
        return 0 if run([known[name] for name in names] if names else MUTANTS) else 1
    except MutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
