import math
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from rankmoments.contaminated import (ContaminationParams,
                                      sample_contaminated_block)
from rankmoments.correlation import (PairedSample, coefficients_rows,
                                     coefficients_rows_each,
                                     kendall, pearson, spearman)
from rankmoments.errors import DomainError, ResourceError
from rankmoments.simulate import (ExperimentConfig, ReportRow, TrialReport,
                                  _YRows, compare_report, format_report_csv,
                                  run_experiment, sample_binormal_block,
                                  threads_limit)


def small_config(**kw):
    base = dict(model="binormal", rho_grid=(0.3,), n_list=(10,),
                trials=10000, seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


def four_cpus(monkeypatch):
    """Let threads_limit() see four usable CPUs, so that a 1-core host
    runs the pool too."""
    from rankmoments import simulate

    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(simulate.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3}, raising=False)


def tracked_draws(monkeypatch):
    """Patch both samplers to append each draw they make to the list
    returned, in the order made: (n index, block index) order."""
    from rankmoments import simulate

    draws = []
    for name in ("sample_binormal_block", "sample_contaminated_block"):
        def tracked(*args, _sample=getattr(simulate, name)):
            draws.append(_sample(*args))
            return draws[-1]
        monkeypatch.setattr(simulate, name, tracked)
    return draws


def binormal_pairs(rho, n, rng, size):
    draw = sample_binormal_block(n, rng, size)
    return draw[0], _YRows(draw, rho)[:]


class TestSampler:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        x, y = binormal_pairs(1.0, 50, rng, 2)
        assert np.allclose(x, y)

    def test_independent_mean(self):
        rng = np.random.default_rng(1)
        x, y = binormal_pairs(0.0, 100000, rng, 1)
        r = np.corrcoef(x[0], y[0])[0, 1]
        assert abs(r) < 3 / math.sqrt(100000)

    def test_strong_correlation_concentrates(self):
        rng = np.random.default_rng(2)
        x, y = binormal_pairs(0.6, 1000, rng, 1)
        r = np.corrcoef(x[0], y[0])[0, 1]
        assert 0.55 <= r <= 0.65


class TestBlockKernel:
    @pytest.mark.parametrize("n", [10, 64, 65, 1000])
    def test_block_kendall_matches_single_sample(self, n):
        rng = np.random.default_rng(n)
        x, y = binormal_pairs(0.5, n, rng, 5)
        r_k = coefficients_rows(x, y)[2]
        assert r_k.tolist() == [kendall(PairedSample(x=x[i], y=y[i]))
                                for i in range(5)]

    @pytest.mark.parametrize("n", [10, 64, 65, 1000])
    def test_block_spearman_matches_single_sample(self, n):
        rng = np.random.default_rng(n)
        x, y = binormal_pairs(0.5, n, rng, 300)
        r_s = coefficients_rows(x, y)[1]
        assert r_s.tolist() == [spearman(PairedSample(x=x[i], y=y[i]))
                                for i in range(300)]

    @pytest.mark.parametrize("n", [10, 64, 65, 1000])
    def test_block_pearson_matches_single_sample(self, n):
        rng = np.random.default_rng(n)
        x, y = binormal_pairs(0.5, n, rng, 300)
        r_p = coefficients_rows(x, y)[0]
        assert r_p.tolist() == [pearson(PairedSample(x=x[i], y=y[i]))
                                for i in range(300)]


class TestDeterminism:
    def test_bit_identical_reruns(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.rows == b.rows

    def test_worker_count_irrelevant(self, monkeypatch):
        # several cells of several blocks, the last one short: one job per
        # (n, block), each computing every rho of the grid
        from rankmoments import simulate

        four_cpus(monkeypatch)
        block, block_sums = simulate._block, simulate._block_sums
        grid = (-0.4, 0.3, 0.8)
        block_threads = set()
        ahead = []      # per job: its index less the jobs reduced
        reduced = []    # one entry per (rho, block) reduced

        def traced_block(config, rhos, j, b, size):
            block_threads.add(threading.current_thread().name)
            # jobs run in (n, block) order, five blocks per n
            ahead.append(5 * j + b - len(reduced) // len(grid))
            return block(config, rhos, j, b, size)

        def counted_sums(values, shifts):
            if not reduced:
                # a slow first reduction: the pool runs ahead as far as
                # the window lets it
                time.sleep(0.1)
            reduced.append(1)
            return block_sums(values, shifts)

        monkeypatch.setattr(simulate, "_block", traced_block)
        monkeypatch.setattr(simulate, "_block_sums", counted_sums)
        cont = ContaminationParams(rho=0.0, epsilon=0.1, lambda_x=10.0,
                                   lambda_y=10.0, rho_prime=0.0)
        for model in ("binormal", "contaminated"):
            cfg = small_config(model=model, rho_grid=grid,
                               n_list=(10, 65), trials=4 * 4096 + 7,
                               contamination=cont)
            rows = {}
            for workers in (1, 2, 3):
                monkeypatch.setenv("RANKMOMENTS_THREADS", str(workers))
                block_threads.clear()
                ahead.clear()
                reduced.clear()
                report = run_experiment(cfg)
                # a job starts only when fewer than 2 * workers jobs are
                # in flight, so the results held stay bounded
                assert len(ahead) == 10 and max(ahead) < 2 * workers
                assert len(reduced) == 10 * len(grid)
                rows[workers] = report.rows
                assert [(c.rho, c.n) for c in report.cells] == [
                    (r, n) for r in cfg.rho_grid for n in cfg.n_list]
                main = threading.current_thread().name
                assert (block_threads == {main}) == (workers == 1)
                assert len(block_threads) <= workers
            assert rows[1] == rows[2] == rows[3]

    def test_failed_block_stops_the_stream(self, monkeypatch):
        from rankmoments import simulate

        four_cpus(monkeypatch)
        monkeypatch.setenv("RANKMOMENTS_THREADS", "2")
        block = simulate._block
        calls = []

        def failing_block(config, rhos, j, b, size):
            calls.append(b)
            if b == 2:
                raise MemoryError("block 2")
            return block(config, rhos, j, b, size)

        monkeypatch.setattr(simulate, "_block", failing_block)
        before = set(threading.enumerate())
        cfg = small_config(rho_grid=(0.1, 0.2, 0.3), n_list=(10,),
                           trials=10 * 4096)
        with pytest.raises(MemoryError, match="block 2"):
            run_experiment(cfg)
        assert set(threading.enumerate()) == before
        # job 2 (from 0) of 10 failed; the window of 2 * 2 jobs in flight
        # then ended at job 5, and the rest of the stream never ran
        assert 2 in calls and len(calls) <= 2 + 4

    def test_failed_draw_stops_the_stream(self, monkeypatch):
        # the draw of block 1 fails on its worker while other jobs are
        # in flight: the window is 4 jobs of 10
        from rankmoments import simulate

        four_cpus(monkeypatch)
        monkeypatch.setenv("RANKMOMENTS_THREADS", "2")
        draw = simulate._draw
        made = []           # a weakref to each draw's x

        def failing_draw(config, j, b, size):
            if b == 1:
                raise MemoryError("draw of block 1")
            x, v, mask = draw(config, j, b, size)
            made.append(weakref.ref(x))
            return x, v, mask

        monkeypatch.setattr(simulate, "_draw", failing_draw)
        before = set(threading.enumerate())
        cfg = small_config(rho_grid=(0.1, 0.2, 0.3, 0.4, 0.5), n_list=(10,),
                           trials=10 * 4096)
        with pytest.raises(MemoryError, match="draw of block 1"):
            run_experiment(cfg)
        assert set(threading.enumerate()) == before
        # job 1 failed, so jobs 0, 2, 3 and 4 at most made their draws,
        # and none of them is still alive
        assert 0 < len(made) <= 4
        assert [r() for r in made] == [None] * len(made)

    def test_seed_changes_results(self):
        a = run_experiment(small_config(seed=1))
        b = run_experiment(small_config(seed=2))
        assert a.rows != b.rows


def where_oracle(params, n, stream, size):
    """The mixture pairs by whole-array np.where, from the same stream
    draws as sample_contaminated_block: the form it replaced."""
    def cholesky_pair(r):
        return r, math.sqrt(max(1 - r * r, 0.0))

    u, v = stream.standard_normal((2, size, n))
    contaminated = stream.random((size, n)) < params.epsilon
    a0, b0 = cholesky_pair(params.rho)
    a1, b1 = cholesky_pair(params.rho_prime)
    x = np.where(contaminated, params.lambda_x * u, u)
    y_core = np.where(contaminated, a1 * u + b1 * v, a0 * u + b0 * v)
    y = np.where(contaminated, params.lambda_y * y_core, y_core)
    return x, y


class TestCommonRandomNumbers:
    CONT = ContaminationParams(rho=0.0, epsilon=0.2, lambda_x=10.0,
                               lambda_y=3.0, rho_prime=-0.5)

    @pytest.mark.parametrize("model", ["binormal", "contaminated"])
    def test_cell_rows_do_not_depend_on_the_grid(self, model):
        grid = (0.3, 0.6, 0.9)
        cfg = small_config(model=model, rho_grid=grid, n_list=(10, 65),
                           trials=4096 + 5, contamination=self.CONT)
        together = run_experiment(cfg).rows
        for rho in grid:
            alone = run_experiment(replace(cfg, rho_grid=(rho,))).rows
            assert alone == [r for r in together if r.rho == rho]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_draw_per_n_and_block(self, monkeypatch, workers):
        four_cpus(monkeypatch)
        monkeypatch.setenv("RANKMOMENTS_THREADS", workers)
        draws = tracked_draws(monkeypatch)
        for model in ("binormal", "contaminated"):
            draws.clear()
            cfg = small_config(model=model, rho_grid=(-0.4, 0.3, 0.8, 1.0),
                               n_list=(10, 65), trials=2 * 4096 + 7,
                               contamination=self.CONT)
            run_experiment(cfg)
            # len(n_list) x blocks, not x len(rho_grid), in (n, block) order
            assert [d[0].shape for d in draws] == [
                (size, n) for n in (10, 65) for size in (4096, 4096, 7)]

    @pytest.mark.parametrize("grid", [(0.3,), (-0.4, 0.8),
                                      (0.1, 0.2, 0.3, 0.4, 0.5)])
    def test_draws_freed_by_reference(self, monkeypatch, grid):
        # each job makes its draw on its worker and frees it when it ends,
        # so on every grid at most `workers` draws are alive, and the main
        # thread makes none while a pool runs
        from rankmoments import simulate

        four_cpus(monkeypatch)
        monkeypatch.setenv("RANKMOMENTS_THREADS", "2")
        sample = simulate.sample_binormal_block
        block = simulate._block
        made = []           # a weakref to each draw's x
        alive = []          # the draws alive at each draw and job start
        drawn_on = set()    # the threads that made draws
        fail_at = None

        def count_alive():
            alive.append(sum(r() is not None for r in made))

        def tracked_sample(*args):
            draw = sample(*args)
            made.append(weakref.ref(draw[0]))
            drawn_on.add(threading.current_thread().name)
            count_alive()
            return draw

        def counted_block(*args):
            count_alive()
            if len(alive) >= fail_at:
                raise MemoryError("job")
            return block(*args)

        monkeypatch.setattr(simulate, "sample_binormal_block", tracked_sample)
        monkeypatch.setattr(simulate, "_block", counted_block)
        cfg = small_config(rho_grid=grid, n_list=(10, 20), trials=3 * 4096 + 5)
        fail_at = math.inf
        report = run_experiment(cfg)
        assert len(made) == 8 and len(alive) == 8 + 8
        assert max(alive) <= 2
        assert threading.current_thread().name not in drawn_on
        assert [r() for r in made] == [None] * 8
        assert len(report.cells) == 2 * len(grid)
        for fail_at in (1, 7):
            made.clear()
            alive.clear()
            with pytest.raises(MemoryError, match="job"):
                run_experiment(cfg)
            assert max(alive) <= 2
            assert [r() for r in made] == [None] * len(made)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rho_groups(self, monkeypatch, workers):
        # on one (n, block) draw, fewer than the threads, the grid is cut
        # into a group of rho per thread; on a grid whose results would
        # pass _JOB_BYTES, into groups that bound each job's results and
        # so those held in flight; the rows never depend on the cut
        from rankmoments import simulate

        four_cpus(monkeypatch)
        block = simulate._block
        groups = []         # the rho of each job
        threads = set()     # the threads that ran jobs
        results = []        # a weakref to each job's result
        held = []           # the bytes of results alive at each job start

        def traced_block(config, rhos, j, b, size):
            alive = [r() for r in results]
            held.append(sum(a.nbytes for a in alive if a is not None))
            groups.append(rhos)
            threads.add(threading.current_thread().name)
            out = block(config, rhos, j, b, size)
            results.append(weakref.ref(out))
            return out

        monkeypatch.setattr(simulate, "_block", traced_block)
        cfg = small_config(model="contaminated",
                           rho_grid=tuple(np.linspace(-0.96, 0.96, 25)),
                           trials=300, contamination=self.CONT)
        monkeypatch.setenv("RANKMOMENTS_THREADS", "1")
        want = run_experiment(cfg).rows
        assert groups == [list(cfg.rho_grid)]
        monkeypatch.setenv("RANKMOMENTS_THREADS", str(workers))
        for job_bytes, count in ((simulate._JOB_BYTES, workers),
                                 (9 * 8 * 300 * 4, 7)):
            monkeypatch.setattr(simulate, "_JOB_BYTES", job_bytes)
            groups.clear()
            threads.clear()
            results.clear()
            held.clear()
            assert run_experiment(cfg).rows == want
            assert len(groups) == count
            assert sum(groups, []) == list(cfg.rho_grid)
            assert max(map(len, groups)) - min(map(len, groups)) <= 1
            main = threading.current_thread().name
            assert (main in threads) == (workers == 1)
            if count == 7:
                # 4 rho per job, and the results of at most 2 * workers
                # jobs in flight and of the one being reduced
                assert max(map(len, groups)) == 4
                assert max(held) <= (2 * workers + 1) * 4 * 6 * 8 * 300

    @pytest.mark.parametrize("n", [1000, 500])
    def test_y_by_chunk_matches_each_rho_alone(self, n):
        # coefficients_rows_each makes each rho's y one chunk of rows at a time
        # (32 rows at n = 1000, 64 at n = 500) from the shared draw; the
        # mask's entries cross the chunk boundaries
        rows = 2 * (32 if n == 1000 else 64) + 5
        params = replace(self.CONT, epsilon=0.3)
        draw = sample_contaminated_block(params, n,
                                         np.random.default_rng(n), rows)
        grid = (-1.0, 0.3, 0.9)
        got = coefficients_rows_each(draw[0],
                                     [_YRows(draw, rho) for rho in grid])
        for rho, cell in zip(grid, got):
            x, y = where_oracle(replace(params, rho=rho), n,
                                np.random.default_rng(n), rows)
            assert cell.tobytes() == np.array(
                coefficients_rows(x, y)).tobytes()

    def test_contaminated_transform_matches_where_formula(self):
        # 150 seeded draws, some of several kernel chunks (32 rows at
        # n = 1000, 64 at n = 500); every draw serves each rho in turn,
        # whole and 7 rows at a time, and must give the np.where
        # formula's bits
        rhos = (-1.0, -0.6, 0.0, 0.25, 0.9, 1.0)
        rho_primes = (-1.0, -0.3, 0.0, 0.5, 0.99, 1.0, -0.8)
        lambdas = (1e-300, 1e-150, 1e-3, 0.5, 1.0, 7.0, 1e50, 1e150)
        epsilons = (0.0, 0.05, 0.5, 0.9, 1.0)
        for i in range(150):
            n, size = (1000, 500, 6)[i % 3], 1 + 7 * i % 80
            base = ContaminationParams(
                rho=0.0, epsilon=epsilons[i % 5],
                rho_prime=rho_primes[i % 7], lambda_x=lambdas[i % 8],
                lambda_y=lambdas[(3 * i + 1) % 8])
            draw = sample_contaminated_block(
                base, n, np.random.default_rng(i), size)
            for rho in rhos:
                want = where_oracle(replace(base, rho=rho), n,
                                    np.random.default_rng(i), size)
                y = _YRows(draw, rho)
                by_7 = np.concatenate([y[lo:lo + 7]
                                       for lo in range(0, size, 7)])
                for got in ((draw[0], y[:]), (draw[0], by_7)):
                    assert [a.tobytes() for a in got] == [
                        a.tobytes() for a in want]


class TestStreamingMoments:
    def test_matches_two_pass(self):
        from rankmoments.simulate import _BLOCK, _SERIES, _block

        cfg = small_config(trials=10000)
        report = run_experiment(cfg)
        cell = report.cells[0]

        # regenerate the identical trial values and compute the moments
        # with plain two-pass numpy as the reference
        sizes = [_BLOCK, _BLOCK, cfg.trials - 2 * _BLOCK]
        blocks = [_block(cfg, [0.3], 0, b, size)[0]
                  for b, size in enumerate(sizes)]
        pooled = dict(zip(_SERIES, np.concatenate(blocks, axis=1)))
        for name, s in cell.series.items():
            v = pooled[name]
            d = v - v.mean()
            assert s.mean == pytest.approx(v.mean(), rel=1e-12, abs=1e-14)
            assert s.var == pytest.approx((d ** 2).mean(), rel=1e-12,
                                          abs=1e-14)
            assert s.mu4 == pytest.approx((d ** 4).mean(), rel=1e-11,
                                          abs=1e-14)
        ds = pooled["r_s"] - pooled["r_s"].mean()
        dk = pooled["r_k"] - pooled["r_k"].mean()
        assert cell.cov_rs_rk == pytest.approx((ds * dk).mean(), rel=1e-11,
                                               abs=1e-14)

    def test_block_sums_match_each_series(self):
        # the stacked sums of a block read the bits of each series summed
        # alone, and of its r_s and r_k rows for the cross terms
        from rankmoments.simulate import _block_sums

        rng = np.random.default_rng(14)
        sizes = [1, 2, 3, 7, 100, 1023, 4095, 4096, *rng.integers(1, 4097, 32)]
        for size in sizes:
            values = rng.standard_normal((6, size)) * rng.uniform(0.01, 2,
                                                                  (6, 1))
            shifts = values.mean(axis=1) + rng.normal(0, 0.01, 6)
            powers, cross = _block_sums(values, shifts)
            for row, shift, got in zip(values, shifts, powers.T):
                u = row - float(shift)
                u2 = u * u
                assert got.tolist() == [u.sum(), u2.sum(), (u2 * u).sum(),
                                        (u2 * u2).sum()]
            us, uk = values[0] - float(shifts[0]), values[1] - float(shifts[1])
            assert cross.tolist() == [(us * uk).sum(), (us * us * uk).sum(),
                                      (us * uk * uk).sum(),
                                      (us * us * uk * uk).sum()]

    def test_mse_identity(self):
        report = run_experiment(small_config())
        cell = report.cells[0]
        for name in ("pearson", "spearman", "kendall", "mixed"):
            s = cell.series[name]
            mse = cell.mse(name, 0.3)
            assert mse == pytest.approx(s.var + (s.mean - 0.3) ** 2,
                                        rel=1e-12)

    def test_se_positive(self):
        report = run_experiment(small_config(trials=100))
        for s in report.cells[0].series.values():
            assert s.se_mean > 0
            assert s.se_var > 0


class TestVerdicts:
    def test_exact_match_passes(self):
        row = ReportRow(model="binormal", rho=0.0, n=10, kind="r_s",
                        metric="mean", empirical=0.5, theory=0.5, se=1e-6)
        rep = TrialReport(config=small_config())
        rep.rows = [row]
        summary = compare_report(rep, 3.0)
        assert summary.rows[0].verdict == "PASS"
        assert summary.passed == 1

    def test_ten_sigma_fails(self):
        row = ReportRow(model="binormal", rho=0.0, n=10, kind="r_s",
                        metric="mean", empirical=0.5 + 10e-6, theory=0.5,
                        se=1e-6)
        rep = TrialReport(config=small_config())
        rep.rows = [row]
        assert compare_report(rep, 3.0).rows[0].verdict == "FAIL"

    def test_zero_se_allowance(self):
        # every trial identical: se = 0, and an asin-roundoff gap of
        # 2.4e-9 passes while 2e-8 still fails
        rep = TrialReport(config=small_config())
        rep.rows = [ReportRow(model="binormal", rho=1.0, n=10, kind="r_k",
                              metric="mean", empirical=1.0, theory=1.0 - gap,
                              se=0.0) for gap in (0.0, 2.4e-9, 2e-8)]
        verdicts = [r.verdict for r in compare_report(rep, 4.0).rows]
        assert verdicts == ["PASS", "PASS", "FAIL"]

    def test_missing_theory_skipped(self):
        row = ReportRow(model="contaminated", rho=0.0, n=10, kind="r_s",
                        metric="var", empirical=0.5, theory=None, se=1e-6)
        rep = TrialReport(config=small_config())
        rep.rows = [row]
        assert compare_report(rep, 3.0).rows[0].verdict == "SKIP"

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # at tol = inf an se = 0 row would read inf * 0 = nan and FAIL
        rep = TrialReport(config=small_config())
        rep.rows = [ReportRow(model="binormal", rho=1.0, n=10, kind="r_k",
                              metric="mean", empirical=1.0, theory=1.0,
                              se=0.0)]
        with pytest.raises(DomainError, match="finite and > 0"):
            compare_report(rep, tol)

    def test_empty_report_rejected(self):
        with pytest.raises(DomainError):
            compare_report(TrialReport(config=small_config()), 3.0)

    def test_exact_rows_pass_at_four_sigma(self):
        cfg = ExperimentConfig(model="binormal", rho_grid=(0.0, 0.6),
                               n_list=(10,), trials=20000, seed=42)
        summary = compare_report(run_experiment(cfg), 4.0)
        exact = [r for r in summary.rows
                 if r.kind in ("r_s", "r_k", "joint")]
        assert all(r.verdict == "PASS" for r in exact)


class TestContaminatedRun:
    def test_theorem_rows(self):
        cont = ContaminationParams(rho=0.0, epsilon=0.1, lambda_x=10.0,
                                   lambda_y=10.0, rho_prime=0.0)
        cfg = ExperimentConfig(model="contaminated", rho_grid=(0.5,),
                               n_list=(20,), trials=20000, seed=11,
                               contamination=cont)
        summary = compare_report(run_experiment(cfg), 4.0)
        means = {r.metric: r for r in summary.rows
                 if r.kind in ("r_s", "r_k") and r.metric == "mean"}
        assert all(r.verdict == "PASS" for r in means.values())
        assert summary.skipped > 0


class TestGuards:
    def test_budget(self):
        with pytest.raises(ResourceError):
            run_experiment(small_config(trials=10 ** 6, n_list=(1001,)))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            small_config(model="weird")
        with pytest.raises(DomainError):
            small_config(n_list=(3,))
        with pytest.raises(DomainError):
            small_config(rho_grid=(1.5,))
        with pytest.raises(DomainError):
            ExperimentConfig(model="contaminated", rho_grid=(0.5,),
                             n_list=(10,), trials=10, seed=0)
        # a non-integer n, trials or seed, or an empty grid or n list,
        # is refused before it can run some other cell or none
        for bad in (dict(n_list=(10.5,)), dict(n_list=(10, 20.0)),
                    dict(trials=2.5), dict(seed=1.5), dict(seed="1"),
                    dict(rho_grid=()), dict(n_list=())):
            with pytest.raises(DomainError):
                small_config(**bad)
        small_config(rho_grid=np.array([0.3]), n_list=np.array([10]),
                     trials=np.int32(100), seed=np.uint64(2 ** 63))

    def test_threads_env(self, monkeypatch):
        monkeypatch.setenv("RANKMOMENTS_THREADS", "2")
        assert threads_limit() <= 2
        monkeypatch.setenv("RANKMOMENTS_THREADS", "zero")
        with pytest.raises(DomainError):
            threads_limit()
        monkeypatch.setenv("RANKMOMENTS_THREADS", "0")
        with pytest.raises(DomainError):
            threads_limit()

    def test_threads_follow_the_affinity(self, monkeypatch):
        # the CPUs this process may run on, not the host's
        from rankmoments import simulate

        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 16)
        monkeypatch.setattr(simulate.os, "sched_getaffinity",
                            lambda pid: {3}, raising=False)
        monkeypatch.delenv("RANKMOMENTS_THREADS", raising=False)
        assert threads_limit() == 1
        monkeypatch.setenv("RANKMOMENTS_THREADS", "4")
        assert threads_limit() == 1
        monkeypatch.setattr(simulate.os, "sched_getaffinity",
                            lambda pid: set(range(12)))
        assert threads_limit() == 4
        monkeypatch.delenv("RANKMOMENTS_THREADS")
        assert threads_limit() == 8
        # where the platform has no affinity call, the CPU count
        monkeypatch.delattr(simulate.os, "sched_getaffinity")
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        assert threads_limit() == 3


def test_report_csv_shape():
    summary = compare_report(run_experiment(small_config(trials=2000)), 4.0)
    text = format_report_csv(summary.rows)
    lines = text.splitlines()
    assert lines[0] == "model,rho,n,kind,metric,empirical,theory,se,verdict"
    assert all(len(line.split(",")) == 9 for line in lines[1:])
