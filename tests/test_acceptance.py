"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 2 checks the deep-noise end of the mutual-information bound
against its exact small-signal limit.  With x = |s_m - s_n|^2 / (4 N0) over
all T^2 ordered pairs of a resource's sum constellation, a = mean(x) and
b = mean(x^2) / 2, the convexity of exp(-x) and exp(-x) <= 1 - x + x^2/2
bracket the bound -log2(mean exp(-x)) in [(a - b)/ln 2, a/ln 2].  For a
zero-mean sum of power P, a = P / (2 N0): the bound falls off as 1/N0 and
never reaches zero at a finite noise level.  Under E_b = 1/log2 M, N0 = 50 at
-20 dB.  Unit-energy codewords on three users per resource give P = 1.5 and
a bound of at least 0.0213 bits there, for any 6x4 codebook; the published
Table II codebooks, with mean codeword energy 1.117 as transcribed, give
P = 1.676 and a bracket of [0.0238, 0.0242] bits.  A ceiling of 0.01 bits at
-20 dB therefore cannot be met (the bound first drops below it near
-23.75 dB), so the test pins the value inside its bracket instead.
"""
import time

import numpy as np

from scma.channel import block_rng, draw_frame_block, ebn0_to_n0
from scma.cli import main as cli_main
from scma.core import pack_params, unpack_params, write_codebook_json
from scma.detector import (
    MpaConfig,
    hard_decision,
    map_detect_batch,
    mpa_detect_batch,
)
from scma.fixtures import load_fixture
from scma.metrics import i_lower_bound_profile, kpi, sum_constellation
from scma.montecarlo import estimate_ser
from scma.optimizer import DeConfig, ObjectiveConfig, optimize
from scma.structure import builtin_template, instantiate

from conftest import brute_force_kpi, brute_force_marginals
from test_detector import tree_system


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"ACCEPTANCE {criterion} FAIL: {detail}"


class TestCriterion1KpiRegression:
    def test_distance_indicators_match_published_tables(self, table2, table3):
        started = time.perf_counter()
        expected = load_fixture("table4_kpi")
        results = {}
        for name, cbs, key in [
            ("awgn", table2, "proposed_awgn"),
            ("fading", table3, "proposed_fading"),
        ]:
            rep = kpi(cbs, rel_tol=1e-3)
            exp = expected[key]
            ok = (
                abs(rep.d_e_min - exp["d_e_min"]) <= 1e-3
                and rep.tau_e == exp["tau_e"]
                and abs(rep.d_p_min - exp["d_p_min"]) <= 1e-3
                and rep.tau_p == exp["tau_p"]
            )
            results[name] = (ok, rep)
        elapsed = time.perf_counter() - started
        ok = all(v[0] for v in results.values()) and elapsed < 1.0
        detail = (
            f"awgn ({results['awgn'][1].d_e_min:.4f}, {results['awgn'][1].tau_e}, "
            f"{results['awgn'][1].d_p_min:.4f}, {results['awgn'][1].tau_p}) / "
            f"fading ({results['fading'][1].d_e_min:.4f}, "
            f"{results['fading'][1].tau_e}, {results['fading'][1].d_p_min:.4f}, "
            f"{results['fading'][1].tau_p}) in {elapsed * 1e3:.0f} ms"
        )
        report(1, ok, detail)


def small_signal_bracket(cbs, n0: float) -> tuple[float, float]:
    """Resource-averaged bracket [(a - b)/ln 2, a/ln 2] on the bound
    -log2((1/T^2) sum_mn exp(-|s_m - s_n|^2 / (4 n0))), where x runs over
    the T^2 ordered pairs of each sum constellation, a = mean(x) and
    b = mean(x^2) / 2."""
    lows, highs = [], []
    for k in range(cbs.config.K):
        pts = sum_constellation(cbs, k)
        x = np.abs(pts[:, None] - pts[None, :]) ** 2 / (4.0 * n0)
        a, b = x.mean(), (x**2).mean() / 2.0
        lows.append((a - b) / np.log(2.0))
        highs.append(a / np.log(2.0))
    return float(np.mean(lows)), float(np.mean(highs))


class TestCriterion2MutualInformationEndpoints:
    def test_bound_endpoints_on_ebn0_grid(self, table2):
        started = time.perf_counter()
        grid = np.arange(-20.0, 30.0 + 1e-9, 2.0)
        means = np.array([
            i_lower_bound_profile(table2, ebn0_to_n0(g, table2.config))[1]
            for g in grid
        ])
        # N0 at the deep-noise end straight from E_b = 1/log2 M: 0.5 / 10^-2 = 50.
        n0_low = (1.0 / np.log2(table2.config.M)) / 10.0 ** (grid[0] / 10.0)
        lo, hi = small_signal_bracket(table2, n0_low)
        elapsed = time.perf_counter() - started
        low_end, high_end = means[0], means[-1]
        monotone = bool(np.all(np.diff(means) >= 0.0))
        ok = (
            lo <= low_end <= hi
            and monotone
            and abs(high_end - 6.0) < 0.05
            and elapsed < 5.0
        )
        detail = (
            f"mean bound {low_end:.5f} bits at {grid[0]:g} dB (N0 = {n0_low:g}, "
            f"target in [{lo:.5f}, {hi:.5f}]), nonincreasing in noise: "
            f"{monotone}, {high_end:.4f} bits at {grid[-1]:g} dB "
            f"(target 6 +- 0.05), {elapsed:.2f} s"
        )
        report(2, ok, detail)


class TestCriterion3TreeExactness:
    def test_two_user_cycle_free_system(self):
        cbs = tree_system()
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(20):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            cfg = MpaConfig(iterations=2)
            beliefs = mpa_detect_batch(y[None], cbs, None, 0.4, cfg)[0]
            exact = brute_force_marginals(np.asarray(cbs.books), y, None, 0.4)
            worst = max(worst, float(np.abs(beliefs - exact).max()))
        report(3, worst < 1e-10, f"max belief deviation {worst:.2e} (target < 1e-10)")


class TestCriterion4MpaVersusMapOracle:
    def test_paired_frames_at_ten_db(self, table2):
        started = time.perf_counter()
        n0 = ebn0_to_n0(10.0, table2.config)
        symbols, _, y = draw_frame_block(
            table2, "awgn", n0, 10 ** 4, block_rng(404, 0, 0)
        )
        mpa = hard_decision(mpa_detect_batch(y, table2, None, n0, MpaConfig()))
        joint = map_detect_batch(y, table2, None, n0)
        agreement = float((mpa == joint).all(axis=1).mean())
        map_ser = float((joint != symbols).mean())
        mpa_ser = float((mpa != symbols).mean())
        elapsed = time.perf_counter() - started
        ok = map_ser <= mpa_ser and agreement >= 0.95 and elapsed < 300.0
        detail = (
            f"map SER {map_ser:.2e} <= mpa SER {mpa_ser:.2e}, agreement "
            f"{agreement:.4f} (target >= 0.95), {elapsed:.1f} s"
        )
        report(4, ok, detail)


class TestCriterion5SerAnchors:
    def test_operating_point_and_limits(self, table2):
        mid = estimate_ser(table2, 10.0, "awgn", frames=3 * 10 ** 5, seed=1001)
        low = estimate_ser(table2, -60.0, "awgn", frames=10 ** 4, seed=1002)
        high = estimate_ser(table2, 60.0, "awgn", frames=10 ** 3, seed=1003)
        ok = (
            1e-4 <= mid.ser <= 1e-2
            and abs(low.ser - 0.75) <= 0.03
            and high.ser == 0.0
        )
        detail = (
            f"10 dB SER {mid.ser:.3e} in [1e-4, 1e-2]; deep-noise SER "
            f"{low.ser:.3f} in 0.75 +- 0.03; 60 dB SER {high.ser}"
        )
        report(5, ok, detail)


class TestCriterion6FadingCodebookOrdering:
    def test_fading_optimized_set_beats_awgn_set_at_18db(self, table2, table3):
        kwargs = dict(frames=2 * 10 ** 5, seed=42)
        awgn_opt = estimate_ser(table2, 18.0, "rayleigh", **kwargs)
        fad_opt = estimate_ser(table3, 18.0, "rayleigh", **kwargs)
        enough = awgn_opt.symbol_errors >= 200 and fad_opt.symbol_errors >= 200
        ok = enough and fad_opt.ser < awgn_opt.ser
        detail = (
            f"fading-optimized SER {fad_opt.ser:.3e} ({fad_opt.symbol_errors} "
            f"errors) < awgn-optimized SER {awgn_opt.ser:.3e} "
            f"({awgn_opt.symbol_errors} errors), paired seed {kwargs['seed']}"
        )
        report(6, ok, detail)


class TestCriterion7ReducedScaleSearch:
    def test_pinned_small_run_halves_initial_ser(self):
        cfg = DeConfig(
            s_p=8, d=12, alpha=0.6, c_r=0.95, i_max=25,
            plateau_eps=0.0, plateau_window=0,  # run all 25 generations
            seed=777,
            eval=ObjectiveConfig(
                ebn0_db=10.0, channel="awgn", frames=5000, crn_mode="fixed"
            ),
        )
        result = optimize(builtin_template("6x4"), cfg)
        h = result.history
        monotone = all(a >= b for a, b in zip(h, h[1:]))
        ok = monotone and result.generations == 25 and h[-1] <= 0.5 * h[0]
        detail = (
            f"seed 777: initial {h[0]:.3e} -> final {h[-1]:.3e} "
            f"(ratio {h[-1] / h[0]:.2f}, target <= 0.5), monotone={monotone}"
        )
        report(7, ok, detail)


class TestCriterion8Reproducibility:
    def test_outputs_independent_of_worker_count(self, tmp_path, capsys, table2):
        cb = tmp_path / "cb.json"
        write_codebook_json(table2, cb)
        sweeps = {}
        for threads in (1, 3, 8):
            out = tmp_path / f"sweep_t{threads}.csv"
            code = cli_main([
                "simulate", "--codebook", str(cb), "--channel", "rayleigh",
                "--ebno", "6:4:10", "--frames", "6000", "--seed", "31",
                "--threads", str(threads), "--out", str(out),
            ])
            assert code == 0
            sweeps[threads] = out.read_bytes()
        runs = {}
        for threads in (1, 8):
            out = tmp_path / f"run_t{threads}"
            code = cli_main([
                "optimize", "--template", "6x4", "--ebno", "10", "--np", "5",
                "--max-iter", "2", "--frames-per-eval", "1000", "--seed", "8",
                "--crn", "fixed", "--threads", str(threads), "--out", str(out),
            ])
            assert code == 0
            runs[threads] = tuple(
                (out / name).read_bytes()
                for name in ("history.csv", "codebook.json", "run.json")
            )
        analyses = []
        for rep in range(2):
            csv = tmp_path / f"il_{rep}.csv"
            code = cli_main([
                "analyze", "--codebook", str(cb), "--n0-grid-db=-20:5:30",
                "--il-csv", str(csv),
            ])
            assert code == 0
            analyses.append(csv.read_bytes())
        capsys.readouterr()
        ok = (
            sweeps[1] == sweeps[3] == sweeps[8]
            and runs[1] == runs[8]
            and analyses[0] == analyses[1]
        )
        report(8, ok, "simulate/optimize/analyze outputs byte-identical across "
                      "1, 3, 8 workers and reruns")


class TestCriterion9PropertySuites:
    def test_module_invariants_hold(self, table2):
        rng = np.random.default_rng(909)
        checks = []

        # pack/unpack bijection
        for _ in range(40):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            checks.append(np.array_equal(unpack_params(pack_params(a)), a))

        # Latin property and antipodal symmetry of the shipped layouts
        for name in ("6x4", "12x6"):
            t = builtin_template(name)
            for k in range(t.K):
                groups = [
                    set(np.abs(t.slots[j, :, k]).tolist()) - {0}
                    for j in t.graph.resource_users(k)
                ]
                for i in range(len(groups)):
                    for l in range(i + 1, len(groups)):
                        checks.append(not (groups[i] & groups[l]))
            a = rng.standard_normal(t.num_params) * np.exp(
                1j * rng.uniform(0, np.pi, t.num_params)
            )
            cbs = instantiate(t, a)
            checks.append(
                np.array_equal(cbs.books[:, 0, :], -cbs.books[:, t.M - 1, :])
            )

        # belief normalization and permutation equivariance
        n0 = ebn0_to_n0(8.0, table2.config)
        _, _, y = draw_frame_block(table2, "awgn", n0, 32, block_rng(909, 0, 0))
        beliefs = mpa_detect_batch(y, table2, None, n0, MpaConfig())
        checks.append(bool(np.abs(beliefs.sum(axis=2) - 1.0).max() < 1e-9))
        perm = np.array([2, 4, 0, 5, 1, 3])
        from scma.core import CodebookSet

        permuted = CodebookSet(
            np.asarray(table2.books)[perm], np.asarray(table2.factor_matrix)[:, perm]
        )
        relabeled = mpa_detect_batch(y, permuted, None, n0, MpaConfig())
        checks.append(bool(np.abs(relabeled - beliefs[:, perm, :]).max() < 1e-9))

        # elitism on a stochastic-free objective
        from scma.optimizer import Population, de_rng, step_generation

        rows = rng.uniform(-1, 1, (6, 12))
        objective = lambda r, bound: float(np.sum(r ** 2))  # noqa: E731
        pop = Population(
            rows=rows, fitness=np.array([objective(r, None) for r in rows]), generation=0
        )
        cfg = DeConfig(s_p=6, d=12, seed=1, eval=ObjectiveConfig(ebn0_db=10.0))
        stepped = step_generation(pop, cfg, objective, de_rng(2), builtin_template("6x4"))
        checks.append(stepped.best_fitness <= pop.best_fitness)

        # distance computation against the loop reference
        books = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        rep = kpi(CodebookSet(books))
        de, te, dp, tp = brute_force_kpi(books)
        checks.append(
            rep.d_e_min == de and rep.tau_e == te
            and rep.d_p_min == dp and rep.tau_p == tp
        )

        ok = all(checks)
        report(9, ok, f"{len(checks)} invariant checks "
                      f"(bijection, Latin, antipodal, normalization, "
                      f"equivariance, elitism, distance reference)")
