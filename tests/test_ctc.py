import numpy as np
import pytest

from voxenc.ctc import (
    CtcInstance,
    collapse,
    ctc_greedy_decode,
    ctc_log_likelihood,
)
from voxenc.ctc.core import _extend_with_blanks, forward_log_likelihood

from oracles import count_alignments, ctc_brute_force, ctc_forward_reference


def random_instance(rng, T, n_classes, target_len):
    p = rng.dirichlet(np.ones(n_classes), size=T)
    targets = list(rng.integers(1, n_classes, size=target_len))
    return CtcInstance(np.log(p), targets)


class TestLogLikelihood:
    def test_single_frame_single_label(self):
        p = np.array([[0.2, 0.5, 0.3]])
        inst = CtcInstance(np.log(p), [1])
        assert ctc_log_likelihood(inst) == pytest.approx(np.log(0.5))

    def test_two_frames_three_alignments(self):
        p = np.array([[0.1, 0.6, 0.3], [0.2, 0.5, 0.3]])
        inst = CtcInstance(np.log(p), [1])
        # alignments: aa, a-, -a
        expected = 0.6 * 0.5 + 0.6 * 0.2 + 0.1 * 0.5
        assert ctc_log_likelihood(inst) == pytest.approx(np.log(expected), abs=1e-12)

    def test_uniform_probs_count_alignments(self):
        T, n_classes = 5, 3
        p = np.full((T, n_classes), 1.0 / n_classes)
        for targets in ([1], [1, 2], [2, 2], [1, 2, 1]):
            inst = CtcInstance(np.log(p), list(targets))
            n_align = count_alignments(T, list(targets), n_classes)
            expected = np.log(n_align) + T * np.log(1.0 / n_classes)
            assert ctc_log_likelihood(inst) == pytest.approx(expected, abs=1e-10)

    def test_impossible_target(self):
        p = np.full((2, 3), 1 / 3)
        inst = CtcInstance(np.log(p), [1, 1, 2])
        assert ctc_log_likelihood(inst) == -np.inf

    def test_repeated_label_needs_blank(self):
        p = np.full((2, 2), 0.5)
        inst = CtcInstance(np.log(p), [1, 1])  # needs 3 frames: a, blank, a
        assert ctc_log_likelihood(inst) == -np.inf

    @pytest.mark.parametrize("targets", [[], [1]])
    def test_no_frames_match_brute_force(self, targets):
        # no frames: the empty target's one empty path has probability 1, any other target none
        inst = CtcInstance(np.empty((0, 3)), targets)
        assert ctc_log_likelihood(inst) == ctc_brute_force(inst) == (0.0 if not targets else -np.inf)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            T = int(rng.integers(1, 7))
            n_classes = int(rng.integers(2, 5))
            tlen = int(rng.integers(1, 4))
            inst = random_instance(rng, T, n_classes, tlen)
            dp = ctc_log_likelihood(inst)
            bf = ctc_brute_force(inst)
            if np.isinf(bf):
                assert np.isinf(dp)
            else:
                assert dp == pytest.approx(bf, abs=1e-10)

    @pytest.mark.parametrize("T,n_classes,target_len,repeats", [
        (400, 37, 60, False), (400, 37, 60, True), (1, 4, 0, False), (1, 4, 1, False),
        (6, 3, 2, True), (30, 5, 12, True), (9, 6, 5, False)])
    def test_forward_bitwise_equals_reference(self, T, n_classes, target_len, repeats):
        rng = np.random.default_rng(T * 100 + target_len)
        # peaky posteriors, as a trained acoustic model gives, and some exact zeros
        p = rng.dirichlet(np.full(n_classes, 0.05), size=T)
        p[p < 1e-300] = 0.0
        targets = list(rng.integers(1, n_classes, size=target_len))
        if repeats:
            targets[1::3] = targets[0::3][: len(targets[1::3])]  # label repeats: skips are illegal
        with np.errstate(divide="ignore"):
            log_probs = np.log(p)
        ext = _extend_with_blanks(targets)
        got = forward_log_likelihood(log_probs, ext)
        want = ctc_forward_reference(log_probs, ext)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_permutation_covariance(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 5, 4, 2)
        # swap classes 1 and 3 consistently
        perm = np.array([0, 3, 2, 1])
        lp_perm = inst.log_probs[:, perm]
        targets_perm = [int(perm[t]) for t in inst.targets]
        # perm is self-inverse here, so relabeled targets use the same map
        inst2 = CtcInstance(lp_perm, targets_perm)
        assert ctc_log_likelihood(inst2) == pytest.approx(ctc_log_likelihood(inst), abs=1e-12)

    def test_no_nan_for_tiny_probs(self):
        p = np.full((50, 3), 1e-300)
        p[:, 1] = 1.0 - 2e-300
        inst = CtcInstance(np.log(p), [1])
        ll = ctc_log_likelihood(inst)
        assert np.isfinite(ll)

    @pytest.mark.parametrize("T", [1, 3, 5])
    def test_empty_targets_all_blank_path(self, T):
        # the blank-extended sequence is one blank: the only path is all blanks
        rng = np.random.default_rng(T)
        inst = CtcInstance(np.log(rng.dirichlet(np.ones(3), size=T)), [])
        ll = ctc_log_likelihood(inst)
        assert ll == pytest.approx(ctc_brute_force(inst), abs=1e-12)
        assert ll == pytest.approx(inst.log_probs[:, 0].sum(), abs=1e-12)

    def test_row_probability_validation(self):
        lp = np.log(np.array([[0.5, 0.1]]))  # sums to 0.6
        with pytest.raises(ValueError, match="sum to"):
            CtcInstance(lp, [1])

    def test_row_mass_tolerance_follows_dtype(self):
        p = np.full((3, 37), 1 / 37)
        p[:, 0] += 2e-6  # rows sum to 1 + 2e-6: within 37 float32 steps, not float64
        CtcInstance(np.log(p).astype(np.float32), [1])
        with pytest.raises(ValueError, match="sum to"):
            CtcInstance(np.log(p), [1])
        p[:, 0] += 1e-4  # too far off in either precision
        with pytest.raises(ValueError, match="sum to"):
            CtcInstance(np.log(p).astype(np.float32), [1])

    def test_float32_log_probs_stored_as_float64(self):
        inst = CtcInstance(np.log(np.full((2, 3), 1 / 3, dtype=np.float32)), [1])
        assert inst.log_probs.dtype == np.float64

    @pytest.mark.parametrize("shape", [(4,), (0, 0), (3, 0)])
    def test_log_probs_need_two_axes_and_a_blank(self, shape):
        with pytest.raises(ValueError, match="T x n_classes with a blank class"):
            CtcInstance(np.zeros(shape), [])

    def test_target_label_range(self):
        p = np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError, match="outside"):
            CtcInstance(np.log(p), [0])


class TestDecode:
    def test_collapse_repeats_and_blanks(self):
        assert collapse([1, 1, 0, 2]) == [1, 2]

    def test_all_blank_empty(self):
        assert collapse([0, 0, 0]) == []

    def test_blank_separates_repeats(self):
        assert collapse([1, 0, 1]) == [1, 1]

    def test_greedy_decode(self):
        p = np.array([[0.1, 0.8, 0.1], [0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        assert ctc_greedy_decode(np.log(p)) == [1, 2]

