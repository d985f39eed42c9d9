"""SSIM, Gram-feature style scores, and the convergence report machinery."""

import warnings

import numpy as np
import pytest

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
    def _run(desk, monkeypatch, variants, threshold, max_iters, full_budget):
        lengths = []

        def counted(*args, on_step=None, **kwargs):
            trace = diffusion.train_ispb(
                *args, on_step=None if full_budget else on_step, **kwargs)
            lengths.append(len(trace))
            return trace

        monkeypatch.setattr(metrics, "train_ispb", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = convergence_benchmark(
                desk.backbone, desk.style_collection, variants, [0, 1, 2],
                loss_threshold=threshold, max_iters=max_iters,
                sched=desk.sched, lr=3e-4)
        censored = sum("censored" in str(w.message) for w in caught)
        return reports, lengths, censored

    @pytest.mark.parametrize("variants, threshold, max_iters, crosses", [
        (["ssam", "sanet"], 0.75, 200, True),  # at and after the window
        (["ssam"], 0.01, MOVING_AVG_WINDOW, False),
    ])
    def test_same_reports_as_full_budget(self, desk, monkeypatch, variants,
                                         threshold, max_iters, crosses):
        early, early_len, early_censored = self._run(
            desk, monkeypatch, variants, threshold, max_iters, False)
        full, full_len, full_censored = self._run(
            desk, monkeypatch, variants, threshold, max_iters, True)
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
