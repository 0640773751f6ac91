import math
import threading

import numpy as np
import pytest

from rankmoments.contaminated import ContaminationParams
from rankmoments.correlation import (PairedSample, coefficients_rows,
                                     kendall, pearson, spearman)
from rankmoments.errors import DomainError, ResourceError
from rankmoments.simulate import (ExperimentConfig, ReportRow, TrialReport,
                                  compare_report, format_report_csv,
                                  run_experiment, sample_binormal_block,
                                  threads_limit)


def small_config(**kw):
    base = dict(model="binormal", rho_grid=(0.3,), n_list=(10,),
                trials=10000, seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


class TestSampler:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        x, y = sample_binormal_block(1.0, 50, rng, 2)
        assert np.allclose(x, y)

    def test_independent_mean(self):
        rng = np.random.default_rng(1)
        x, y = sample_binormal_block(0.0, 100000, rng, 1)
        r = np.corrcoef(x[0], y[0])[0, 1]
        assert abs(r) < 3 / math.sqrt(100000)

    def test_strong_correlation_concentrates(self):
        rng = np.random.default_rng(2)
        x, y = sample_binormal_block(0.6, 1000, rng, 1)
        r = np.corrcoef(x[0], y[0])[0, 1]
        assert 0.55 <= r <= 0.65


class TestBlockKernel:
    @pytest.mark.parametrize("n", [10, 64, 65, 1000])
    def test_block_kendall_matches_single_sample(self, n):
        rng = np.random.default_rng(n)
        x, y = sample_binormal_block(0.5, n, rng, 5)
        r_k = coefficients_rows(x, y)[2]
        assert r_k.tolist() == [kendall(PairedSample(x=x[i], y=y[i]))
                                for i in range(5)]

    @pytest.mark.parametrize("n", [10, 64, 65, 1000])
    def test_block_spearman_matches_single_sample(self, n):
        rng = np.random.default_rng(n)
        x, y = sample_binormal_block(0.5, n, rng, 300)
        r_s = coefficients_rows(x, y)[1]
        assert r_s.tolist() == [spearman(PairedSample(x=x[i], y=y[i]))
                                for i in range(300)]

    @pytest.mark.parametrize("n", [10, 64, 65, 1000])
    def test_block_pearson_matches_single_sample(self, n):
        rng = np.random.default_rng(n)
        x, y = sample_binormal_block(0.5, n, rng, 300)
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
        # several cells of several blocks, the last one short; the CPU
        # count is raised so that a 1-core host runs the pool too
        from rankmoments import simulate

        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        cell_block, block_sums = simulate._cell_block, simulate._block_sums
        block_threads = set()
        ahead = []      # per block: its job index less the blocks reduced
        reduced = []

        def traced_block(config, rho, n, rho_idx, n_idx, block_idx, size):
            block_threads.add(threading.current_thread().name)
            job = (rho_idx * 2 + n_idx) * 3 + block_idx
            ahead.append(job - len(reduced))
            return cell_block(config, rho, n, rho_idx, n_idx, block_idx,
                              size)

        def counted_sums(values, shifts):
            reduced.append(1)
            return block_sums(values, shifts)

        monkeypatch.setattr(simulate, "_cell_block", traced_block)
        monkeypatch.setattr(simulate, "_block_sums", counted_sums)
        cont = ContaminationParams(rho=0.0, epsilon=0.1, lambda_x=10.0,
                                   lambda_y=10.0, rho_prime=0.0)
        for model in ("binormal", "contaminated"):
            cfg = small_config(model=model, rho_grid=(-0.4, 0.3, 0.8),
                               n_list=(10, 65), trials=2 * 4096 + 7,
                               contamination=cont)
            rows = {}
            for workers in (1, 2, 3):
                monkeypatch.setenv("RANKMOMENTS_THREADS", str(workers))
                block_threads.clear()
                ahead.clear()
                reduced.clear()
                report = run_experiment(cfg)
                # a block starts only when fewer than 2 * workers jobs are
                # in flight, so the results held stay bounded
                assert len(ahead) == 18 and max(ahead) < 2 * workers
                rows[workers] = report.rows
                assert [(c.rho, c.n) for c in report.cells] == [
                    (r, n) for r in cfg.rho_grid for n in cfg.n_list]
                main = threading.current_thread().name
                assert (block_threads == {main}) == (workers == 1)
                assert len(block_threads) <= workers
            assert rows[1] == rows[2] == rows[3]

    def test_failed_block_stops_the_stream(self, monkeypatch):
        from rankmoments import simulate

        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("RANKMOMENTS_THREADS", "2")
        cell_block = simulate._cell_block
        calls = []

        def failing_block(config, rho, n, rho_idx, n_idx, block_idx, size):
            calls.append((rho_idx, block_idx))
            if (rho_idx, block_idx) == (1, 1):
                raise MemoryError("block (1, 1)")
            return cell_block(config, rho, n, rho_idx, n_idx, block_idx,
                              size)

        monkeypatch.setattr(simulate, "_cell_block", failing_block)
        before = set(threading.enumerate())
        cfg = small_config(rho_grid=(0.1, 0.2, 0.3, 0.4, 0.5), n_list=(10,),
                           trials=3 * 4096)
        with pytest.raises(MemoryError, match=r"block \(1, 1\)"):
            run_experiment(cfg)
        assert set(threading.enumerate()) == before
        # job 4 (from 0) of 15 failed; the window of 2 * 2 jobs in flight
        # then ended at job 7, and the rest of the stream never ran
        assert (1, 1) in calls and len(calls) <= 4 + 4

    def test_seed_changes_results(self):
        a = run_experiment(small_config(seed=1))
        b = run_experiment(small_config(seed=2))
        assert a.rows != b.rows


class TestStreamingMoments:
    def test_matches_two_pass(self):
        from rankmoments.simulate import _BLOCK, _cell_block

        cfg = small_config(trials=10000)
        report = run_experiment(cfg)
        cell = report.cells[0]

        # regenerate the identical trial values and compute the moments
        # with plain two-pass numpy as the reference
        sizes = [_BLOCK, _BLOCK, cfg.trials - 2 * _BLOCK]
        n_blocks = len(sizes)
        blocks = [_cell_block(cfg, 0.3, 10, 0, 0, i, sizes[i])
                  for i in range(n_blocks)]
        pooled = {name: np.concatenate([b[name] for b in blocks])
                  for name in blocks[0]}
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

    def test_threads_env(self, monkeypatch):
        monkeypatch.setenv("RANKMOMENTS_THREADS", "2")
        assert threads_limit() <= 2
        monkeypatch.setenv("RANKMOMENTS_THREADS", "zero")
        with pytest.raises(DomainError):
            threads_limit()
        monkeypatch.setenv("RANKMOMENTS_THREADS", "0")
        with pytest.raises(DomainError):
            threads_limit()


def test_report_csv_shape():
    summary = compare_report(run_experiment(small_config(trials=2000)), 4.0)
    text = format_report_csv(summary.rows)
    lines = text.splitlines()
    assert lines[0] == "model,rho,n,kind,metric,empirical,theory,se,verdict"
    assert all(len(line.split(",")) == 9 for line in lines[1:])
