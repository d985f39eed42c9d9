"""SSIM, Gram-feature style scores, and the convergence report machinery."""

import contextlib
import math
import operator
import os
import warnings
from collections import Counter

import numpy as np
import pytest

import artbank.bank as bank_mod
from artbank import diffusion, metrics
from artbank.data_io import (ImageSample, default_style_specs,
                             gen_content_image, gen_style_collection)
from artbank.errors import ConfigError, DimensionError
from artbank.metrics import (MOVING_AVG_WINDOW, ConvergenceReport,
                             _gram_convs, _gram_vector, convergence_benchmark,
                             format_convergence_table, gram_style_score,
                             iterations_to_threshold, signature_of, ssim,
                             write_convergence_csv)

from oracles import uniform_ssim_ref


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        img = gen_content_image("shapes", 16, seed=1)
        assert ssim(img, img) == 1.0

    def test_inversion_scores_below_identity(self):
        img = gen_content_image("shapes", 16, seed=2)
        flipped = ImageSample.from_array(1.0 - img.pixels)
        assert ssim(img, flipped) < ssim(img, img)

    def test_symmetry(self):
        a = gen_content_image("photo", 16, seed=3)
        b = gen_content_image("shapes", 16, seed=4)
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12

    def test_uniform_images_match_closed_form(self):
        a = ImageSample.from_array(np.full((16, 16, 3), 0.4))
        b = ImageSample.from_array(np.full((16, 16, 3), 0.5))
        expected = uniform_ssim_ref(0.4, 0.5)
        assert abs(ssim(a, b) - expected) <= 1e-12

    def test_dimension_mismatch(self):
        a = gen_content_image("photo", 16, seed=5)
        b = gen_content_image("photo", 8, seed=5)
        with pytest.raises(DimensionError):
            ssim(a, b)

    def test_small_images_use_shrunk_window(self):
        a = gen_content_image("photo", 4, seed=6)
        assert ssim(a, a) == 1.0


class TestGramScores:
    def test_single_image_signature_scores_one(self):
        img = gen_content_image("photo", 16, seed=7)
        sig = signature_of([img])
        assert gram_style_score(img, sig).value == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_images_same_signature(self):
        img = gen_content_image("photo", 16, seed=8)
        sig1 = signature_of([img])
        sig3 = signature_of([img, img, img])
        np.testing.assert_allclose(sig1, sig3, atol=1e-15)

    def test_empty_collection_rejected(self):
        with pytest.raises(ConfigError):
            signature_of([])

    def test_same_seed_bank_scores_bitwise_equal(self):
        img = gen_content_image("shapes", 16, seed=9)
        sig = signature_of([gen_content_image("photo", 16, seed=10)])
        a = gram_style_score(img, sig)
        _gram_convs.cache_clear()  # the second score redraws the bank
        b = gram_style_score(img, sig)
        assert a.value == b.value

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_below_5x5_rejected(self, size):
        # two valid 3x3 convolutions leave no feature position
        img = gen_content_image("shapes", size, seed=1)
        with pytest.raises(DimensionError, match="at least 5x5"):
            signature_of([img])
        with pytest.raises(DimensionError, match="at least 5x5"):
            gram_style_score(img, np.ones(metrics.GRAM_CHANNELS ** 2))

    def test_5x5_scores(self):
        img = gen_content_image("shapes", 5, seed=1)
        sig = signature_of([img])
        assert np.all(np.isfinite(sig))
        assert gram_style_score(img, sig).value == pytest.approx(1.0)

    def test_own_family_scores_higher(self):
        specs = default_style_specs()
        size = 24
        sigs = {}
        collections = {}
        for name, spec in specs.items():
            collections[name] = gen_style_collection(spec, 20, size, seed=31)
            sigs[name] = signature_of(collections[name])
        for name in specs:
            probes = gen_style_collection(specs[name], 20, size, seed=77)
            own = np.mean([gram_style_score(p, sigs[name]).value
                           for p in probes])
            for other in specs:
                if other == name:
                    continue
                cross = np.mean([gram_style_score(p, sigs[other]).value
                                 for p in probes])
                assert own > cross, (name, other, own, cross)

    def test_intra_family_distance_below_inter(self):
        specs = default_style_specs()
        size = 24
        fams = sorted(specs)
        grams = {}
        for name in fams:
            coll = gen_style_collection(specs[name], 12, size, seed=55)
            grams[name] = [_gram_vector(img) for img in coll]

        def mean_dist(xs, ys, same):
            total, count = 0.0, 0
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    if same and j <= i:
                        continue
                    total += float(np.linalg.norm(x - y))
                    count += 1
            return total / count

        for name in fams:
            intra = mean_dist(grams[name], grams[name], same=True)
            for other in fams:
                if other == name:
                    continue
                inter = mean_dist(grams[name], grams[other], same=False)
                assert intra < inter, (name, other, intra, inter)

    def test_translation_tolerance_for_periodic_family(self):
        # whole-period translation of a jitter-free periodic pattern
        from artbank.data_io import StyleSpec
        spec = StyleSpec("checks", [(0.9, 0.9, 0.85), (0.1, 0.4, 0.2)],
                         scale=4.0, jitter=0.0)
        big = gen_style_collection(spec, 1, 32, seed=1)[0]
        sig = signature_of([big])
        shifted = ImageSample.from_array(
            np.roll(big.pixels, 8, axis=1))  # two full 4px periods
        score = gram_style_score(shifted, sig).value
        assert abs(score - 1.0) <= 0.05


class TestConvergenceMachinery:
    def test_too_short_trace_not_converged(self):
        # below the threshold throughout, but no full 100-step window
        assert iterations_to_threshold([1.0] * 99, 0.85, initial_loss=10.0) is None

    def test_first_crossing_with_probe_initial(self):
        trace = [1.0] * 150 + [0.1] * 250
        # moving average (window 100) crosses 0.85 somewhere after step 150
        it = iterations_to_threshold(trace, 0.85, initial_loss=1.0)
        assert it is not None
        arr = np.asarray(trace)
        ma = np.convolve(arr, np.ones(100) / 100, mode="valid")
        manual = int(np.nonzero(ma < 0.85)[0][0]) + 100
        assert it == manual

    def test_crossing_in_first_window_warns(self):
        trace = [0.5] * 200
        with pytest.warns(RuntimeWarning, match="censored at 100"):
            it = iterations_to_threshold(trace, 0.85, initial_loss=1.0)
        assert it == 100

    def test_never_crossing(self):
        assert iterations_to_threshold([1.0] * 400, 0.85, initial_loss=1.0) is None

    def test_report_csv_and_table(self, tmp_path):
        reports = [
            ConvergenceReport("ssam", [1, 2, 3], [120, None, 200], 0.85, 200),
            ConvergenceReport("sanet", [1, 2, 3], [None, None, None], 0.85, None),
        ]
        path = tmp_path / "bench.csv"
        write_convergence_csv(reports, path)
        text = path.read_text()
        assert "variant,seed,iterations,converged,threshold,median_iterations" in text
        assert "ssam,1,120,1,0.85,200" in text
        assert "sanet,1,,0,0.85," in text
        table = format_convergence_table(reports)
        assert "ssam" in table and "n/c" in table


class TestEarlyStop:
    """``convergence_benchmark`` stops each job at its crossing; its reports
    must be those of jobs trained for the whole budget."""

    @staticmethod
    def _run(desk, monkeypatch, tmp_path, variants, threshold, max_iters,
             full_budget):
        # Jobs may train in forked workers, whose memory the test cannot
        # read, so each call appends its job and trace length to a file.
        log = tmp_path / f"lengths-{full_budget}.txt"

        def counted(*args, on_step=None, **kwargs):
            trace = diffusion.train_ispb(
                *args, on_step=None if full_budget else on_step, **kwargs)
            with open(log, "a") as fh:
                fh.write(f"{kwargs['variant']} {kwargs['seed']} {len(trace)}\n")
            return trace

        seeds = [0, 1, 2]
        monkeypatch.setattr(metrics, "train_ispb", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = convergence_benchmark(
                desk.backbone, desk.style_collection, variants, seeds,
                loss_threshold=threshold, max_iters=max_iters,
                sched=desk.sched, lr=3e-4)
        censored = sum("censored" in str(w.message) for w in caught)
        calls = [line.split() for line in log.read_text().splitlines()]
        by_job = {(v, int(s)): int(n) for v, s, n in calls}
        assert len(by_job) == len(calls)  # each job trained once
        lengths = [by_job.pop((v, s)) for v in variants for s in seeds]
        assert not by_job
        return reports, lengths, censored

    @pytest.mark.parametrize("variants, threshold, max_iters, crosses", [
        (["ssam", "sanet"], 0.75, 200, True),  # at and after the window
        (["ssam"], 0.01, MOVING_AVG_WINDOW, False),
    ])
    def test_same_reports_as_full_budget(self, desk, monkeypatch, tmp_path,
                                         variants, threshold, max_iters,
                                         crosses):
        early, early_len, early_censored = self._run(
            desk, monkeypatch, tmp_path, variants, threshold, max_iters, False)
        full, full_len, full_censored = self._run(
            desk, monkeypatch, tmp_path, variants, threshold, max_iters, True)
        assert early == full
        iters = [it for r in early for it in r.iterations_to_threshold]
        assert full_len == [max_iters] * len(iters)
        assert early_len == [max_iters if it is None else it for it in iters]
        assert early_censored == full_censored
        assert early_censored == iters.count(MOVING_AVG_WINDOW)
        if crosses:
            assert iters.count(MOVING_AVG_WINDOW) >= 1  # a censored job
            assert max(it for it in iters if it is not None) > MOVING_AVG_WINDOW
        else:
            assert iters == [None] * len(iters)


class TestJobPool:
    """``convergence_benchmark`` runs its jobs on forked workers, as many as
    ``metrics._workers`` allows."""

    @staticmethod
    def _bench(desk, monkeypatch, workers, collection=None):
        monkeypatch.setattr(metrics, "_workers",
                            lambda jobs, environ, cores: min(jobs, workers))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = convergence_benchmark(
                desk.backbone, collection or desk.style_collection,
                ["ssam", "sanet"], [0, 1, 2], loss_threshold=0.75,
                max_iters=200, sched=desk.sched, lr=3e-4)
        return reports, [str(w.message) for w in caught]

    def test_pooled_reports_equal_in_process(self, desk, monkeypatch, tmp_path):
        pids = tmp_path / "pids.txt"

        def logged(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return diffusion.train_ispb(*args, **kwargs)

        monkeypatch.setattr(metrics, "train_ispb", logged)
        pooled = self._bench(desk, monkeypatch, 2)
        ran_in = set(pids.read_text().split())
        assert os.getpid() not in map(int, ran_in) and len(ran_in) <= 2
        assert pooled == self._bench(desk, monkeypatch, 1)
        assert any("censored" in m for m in pooled[1])

    def test_worker_error_reaches_caller_with_its_type(self, desk, monkeypatch):
        # An image the denoiser cannot take is refused here, before any fork.
        gray = [ImageSample.from_array(img.pixels.mean(axis=2))
                for img in desk.style_collection]
        with pytest.raises(DimensionError, match="1 channels"):
            self._bench(desk, monkeypatch, 2, collection=gray)

        def fails(*args, **kwargs):
            raise DimensionError(f"raised in process {os.getpid()}")

        # An error inside a probe job or a training job comes back from
        # its worker.
        for job in ("probe_losses", "train_ispb"):
            with monkeypatch.context() as m:
                m.setattr(metrics, job, fails)
                with pytest.raises(DimensionError, match="raised in process"
                                   ) as info:
                    self._bench(desk, m, 2)
            assert int(str(info.value).split()[-1]) != os.getpid()

    def test_a_failed_job_cancels_the_jobs_not_yet_started(self, monkeypatch,
                                                           tmp_path):
        # No job crosses 0.01 x its initial loss in 1,500 steps, so every
        # training job that starts runs its whole budget. The first one
        # fails at once; only the jobs already handed to a worker, at most
        # 2 running and 3 in the executor's call queue, still finish.
        finished = tmp_path / "finished.txt"
        finished.touch()

        def train(*args, variant, seed, **kwargs):
            if (variant, seed) == ("ssam", 0):
                raise DimensionError("raised at once")
            trace = diffusion.train_ispb(*args, variant=variant, seed=seed,
                                         **kwargs)
            with open(finished, "a") as fh:
                fh.write(f"{variant} {seed}\n")
            return trace

        monkeypatch.setattr(metrics, "train_ispb", train)
        monkeypatch.setattr(metrics, "_workers",
                            lambda jobs, environ, cores: min(jobs, 2))
        d = diffusion.Denoiser(3, 8, 12, seed=0, timesteps=10)
        d.freeze()
        images = gen_style_collection(default_style_specs()["checks"], 4, 8,
                                      seed=1)
        with pytest.raises(DimensionError, match="raised at once"):
            convergence_benchmark(d, images, ["ssam", "sanet", "adaattn"],
                                  [0, 1, 2], 0.01, 1500,
                                  sched=diffusion.make_schedule(10))
        assert len(finished.read_text().splitlines()) < 8

    def test_repeated_seed_gets_the_same_crossing(self, desk, monkeypatch):
        # Each trace is paired with its variant x seed position, so a seed
        # listed twice trains twice and reports the same crossing twice.
        monkeypatch.setattr(metrics, "_workers",
                            lambda jobs, environ, cores: min(jobs, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # censored crossings
            reports = {tuple(seeds): convergence_benchmark(
                desk.backbone, desk.style_collection, ["ssam", "sanet"], seeds,
                loss_threshold=0.75, max_iters=200, sched=desk.sched, lr=3e-4)
                for seeds in ([0, 0, 1], [0, 1, 2])}
        for repeated, distinct in zip(reports[0, 0, 1], reports[0, 1, 2]):
            assert repeated.seeds == [0, 0, 1]
            a, b = distinct.iterations_to_threshold[:2]
            assert repeated.iterations_to_threshold == [a, a, b]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_job_takes_another_jobs_result(self, workers):
        with metrics._job_pool(workers) as submit:
            half = submit(int, "21").result()
            whole = submit(operator.mul, 2, half).result()
            pid = submit(os.getpid).result()
        assert whole == 42
        assert (pid == os.getpid()) == (workers == 1)

    def test_each_seeds_training_is_submitted_as_its_probe_returns(
            self, monkeypatch):
        # A probe job's last argument is its seed; a training job's fourth
        # and fifth are its variant and seed.
        events = []
        real_pool = metrics._job_pool

        @contextlib.contextmanager
        def logged_pool(workers):
            with real_pool(1) as submit:
                def logged(fn, *args):
                    job = (f"probe {args[-1]}" if fn is metrics._probe_job
                           else f"train {args[3]} {args[4]}")
                    future = submit(fn, *args)
                    events.append(f"submit {job}")
                    result = future.result
                    future.result = lambda: events.append(
                        f"result {job}") or result()
                    return future
                yield logged

        monkeypatch.setattr(metrics, "_job_pool", logged_pool)
        d = diffusion.Denoiser(3, 8, 12, seed=0, timesteps=10)
        d.freeze()
        images = gen_style_collection(default_style_specs()["checks"], 2, 8,
                                      seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # censored crossings
            convergence_benchmark(d, images, ["ssam", "sanet"], [0, 1, 2],
                                  0.75, MOVING_AVG_WINDOW,
                                  sched=diffusion.make_schedule(10))
        assert events == [
            "submit probe 0", "submit probe 1", "submit probe 2",
            "result probe 0", "submit train ssam 0", "submit train sanet 0",
            "result probe 1", "submit train ssam 1", "submit train sanet 1",
            "result probe 2", "submit train ssam 2", "submit train sanet 2",
            *(f"result train {v} {seed}" for v in ("ssam", "sanet")
              for seed in range(3))]

    @pytest.mark.parametrize("environ, cores, jobs, workers", [
        ({}, 2, 6, 1),  # OpenBLAS's default: one thread per core
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 6, 6),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 6, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "64"}, 8, 6, 1),  # capped at the cores
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 6, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, 2, 6, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": "1"}, 2, 6, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 2, 6, 1),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 6, 2),
        ({"OMP_NUM_THREADS": "1"}, 4, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4096, 10 ** 6, 4096),  # starts none
    ])
    def test_worker_count_rule(self, environ, cores, jobs, workers):
        assert metrics._workers(jobs, environ, cores) == workers


def _refused_before_any_job(monkeypatch, variants, **kwargs):
    def no_pool(*args):
        raise AssertionError("started a job")

    monkeypatch.setattr(metrics, "_job_pool", no_pool)
    d = diffusion.Denoiser(3, 8, 12, seed=0, timesteps=10)
    d.freeze()
    images = gen_style_collection(default_style_specs()["checks"], 2, 8, seed=1)
    with pytest.raises(ConfigError) as info:
        convergence_benchmark(d, images, variants, [0, 1, 2], 0.85,
                              MOVING_AVG_WINDOW,
                              sched=diffusion.make_schedule(10), **kwargs)
    return str(info.value)


def test_unknown_variant_refused_before_any_job(monkeypatch):
    assert _refused_before_any_job(monkeypatch, ["ssam", "film"]) == (
        "unknown attention variant: 'film'")


@pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan])
def test_bad_lr_refused_before_any_job(monkeypatch, lr):
    assert _refused_before_any_job(monkeypatch, ["ssam"], lr=lr) == (
        f"lr must be finite and positive, got {lr}")


@pytest.mark.parametrize("positions, message", [
    (0, "entry dimensions must be positive"),
    (100_000, "an entry with channels=12 and positions=100000 needs a 74.5 GiB "
              "array; the limit is 256 MiB per array"),
], ids=["0", "100000"])
def test_bad_positions_refused_before_any_job(monkeypatch, positions, message):
    assert _refused_before_any_job(monkeypatch, ["ssam"],
                                   positions=positions) == message


def test_trace_budget_refused_before_any_job(monkeypatch):
    # 3 variants x 3 seeds x 100 losses take 7,200 bytes; the denoiser's
    # largest weight takes 4,608.
    monkeypatch.setattr(bank_mod, "MAX_ARRAY_BYTES", 7_000)
    message = _refused_before_any_job(monkeypatch, ["ssam", "sanet", "adaattn"])
    assert message.startswith("3 seeds' loss traces of up to 100 steps for 3 "
                              "variants needs a 0.0 GiB array")


class TestSharedProbe:
    """``convergence_benchmark`` probes each seed once for all variants."""

    def test_each_seeds_trunk_runs_once_per_probe_draw(self, desk, monkeypatch,
                                                       tmp_path):
        # No argument sets the entries' width: the backbone does, here the
        # desk's 64 and an untrained 12-wide one.
        narrow = diffusion.Denoiser(3, 8, 12, seed=0, timesteps=10)
        narrow.freeze()
        rigs = [(desk.backbone, desk.style_collection, desk.sched),
                (narrow, gen_style_collection(default_style_specs()["checks"],
                                              4, 8, seed=3),
                 diffusion.make_schedule(10))]
        # Tasks may run in forked workers, whose memory the test cannot
        # read, so each trunk call appends the phase its process is in.
        log = tmp_path / "trunks.txt"
        phase = ["set-up"]
        real_probe, real_train = metrics.probe_losses, metrics.train_ispb
        real_trunk = diffusion.Denoiser.trunk

        def probe(d, conds, images, sched, seed):
            phase[0] = f"probe-{seed}"
            return real_probe(d, conds, images, sched, seed)

        def train(*args, **kwargs):
            phase[0] = "train"
            return real_train(*args, **kwargs)

        def trunk(d, state):
            with open(log, "a") as fh:
                fh.write(f"{phase[0]}\n")
            return real_trunk(d, state)

        monkeypatch.setattr(metrics, "probe_losses", probe)
        monkeypatch.setattr(metrics, "train_ispb", train)
        monkeypatch.setattr(diffusion.Denoiser, "trunk", trunk)
        monkeypatch.setattr(metrics, "_workers",
                            lambda jobs, environ, cores: min(jobs, 2))
        variants, seeds = ["ssam", "sanet", "adaattn"], [0, 1, 2]
        for d, collection, sched in rigs:
            log.write_text("")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # censored crossings
                convergence_benchmark(
                    d, collection, variants, seeds, loss_threshold=0.75,
                    max_iters=MOVING_AVG_WINDOW, sched=sched, lr=3e-4)
            counts = Counter(log.read_text().split())
            # Every job trains exactly the window: it crosses there or never.
            assert counts == {
                **{f"probe-{s}": diffusion.PROBE_DRAWS for s in seeds},
                "train": MOVING_AVG_WINDOW * len(variants) * len(seeds)}
