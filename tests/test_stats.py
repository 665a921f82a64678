"""Accumulator tests: log-domain means, standard errors, merging."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmc.stats import StreamingAccumulator

from mpmath import mp


def mp_log_mean(log_weights):
    """Arbitrary-precision oracle: log(mean(exp(lw)))."""
    with mp.workdps(60):
        total = mp.fsum(mp.exp(mp.mpf(float(w))) for w in log_weights)
        return float(mp.log(total / len(log_weights)))


def filled(log_weights):
    acc = StreamingAccumulator()
    acc.update_many(np.asarray(log_weights, dtype=np.float64))
    return acc


def test_fresh_update_unit_weight():
    acc = filled([0.0])
    assert acc.count == 1
    s = acc.summarize()
    assert s.log_mean == 0.0
    assert s.std_error == 0.0
    assert s.low_count


def test_two_updates_mean_of_two_and_four():
    s = filled([math.log(2), math.log(4)]).summarize()
    assert s.log_mean == pytest.approx(math.log(3), abs=1e-15)
    # pinned convention: Bessel-corrected sample variance over count
    # ((2-3)^2 + (4-3)^2)/(2-1) = 2, se = sqrt(2/2) = 1
    assert s.std_error == pytest.approx(1.0, abs=1e-14)
    assert not s.low_count


def test_extreme_range_matches_high_precision_oracle():
    rng = np.random.default_rng(2024)
    lw = rng.uniform(-600.0, 600.0, size=100_000)
    got = filled(lw).summarize().log_mean
    want = mp_log_mean(lw)
    assert got == pytest.approx(want, rel=1e-10)


def test_merge_with_empty_is_identity():
    acc = filled([0.3, -0.2, 1.7])
    for merged in (acc.merge(StreamingAccumulator()), StreamingAccumulator().merge(acc)):
        assert merged.count == acc.count
        assert merged.summarize() == acc.summarize()


EMPTY, ALL_ZERO, WEIGHTS = [], [-math.inf, -math.inf], [3.0, 3.0, -math.inf]
E = math.exp(-1.0)


@pytest.mark.parametrize(
    "left, right, state",
    [
        (EMPTY, EMPTY, (0, -math.inf, 0.0, 0.0)),
        (EMPTY, ALL_ZERO, (2, -math.inf, 0.0, 0.0)),
        (ALL_ZERO, WEIGHTS, (5, 3.0, 2.0, 2.0)),
        (WEIGHTS, EMPTY, (3, 3.0, 2.0, 2.0)),
        # an incoming maximum above, below and equal to the one held: the held
        # sums, or the incoming ones, are scaled by E = e^-1, the other by 1
        ([0.0, 0.0], [1.0], (3, 1.0, 2.0 * E + 1.0, 2.0 * E * E + 1.0)),
        ([1.0], [0.0, 0.0], (3, 1.0, 1.0 + 2.0 * E, 1.0 + 2.0 * E * E)),
        ([2.0], [2.0, 2.0], (3, 2.0, 3.0, 3.0)),
    ],
)
def test_merged_state_is_exact(left, right, state):
    # exp(-inf) is 0.0 exactly, so a block of zero weights, or none, rescales nothing
    merged = filled(left).merge(filled(right))
    assert (merged.count, merged.max_log, merged.shifted_sum, merged.shifted_sum_sq) == state


def test_one_weight_summary():
    for acc in (filled([5.0]), StreamingAccumulator().merge(filled([5.0]))):
        assert tuple(acc.summarize()) == (5.0, 0.0, 0.0, True)


def test_merge_two_singletons():
    merged = filled([math.log(2)]).merge(filled([math.log(4)]))
    assert merged.summarize().log_mean == pytest.approx(math.log(3), abs=1e-15)


def test_eight_way_split_matches_single_stream():
    rng = np.random.default_rng(99)
    lw = rng.uniform(-300.0, 300.0, size=10_000)
    single = filled(lw).summarize()
    merged = StreamingAccumulator()
    for part in np.array_split(lw, 8):
        merged = merged.merge(filled(part))
    assert merged.count == 10_000
    assert merged.summarize().log_mean == pytest.approx(single.log_mean, rel=1e-12)


def test_merge_associative_and_order_insensitive():
    parts = [filled([0.1, 5.0]), filled([-200.0, 3.3]), filled([250.0, -1.0])]
    a, b, c = parts
    left = a.merge(b).merge(c).summarize().log_mean
    right = a.merge(b.merge(c)).summarize().log_mean
    assert left == pytest.approx(right, rel=1e-12)
    for order in ((a, c, b), (c, b, a), (b, a, c)):
        x, y, z = order
        assert x.merge(y).merge(z).summarize().log_mean == pytest.approx(left, rel=1e-12)


@given(st.floats(min_value=-500.0, max_value=500.0))
@settings(deadline=None, max_examples=50)
def test_shift_invariance(delta):
    lw = [0.0, math.log(2), -1.5, 4.0]
    base = filled(lw).summarize()
    shifted = filled([w + delta for w in lw]).summarize()
    assert shifted.log_mean - base.log_mean == pytest.approx(delta, rel=1e-12, abs=1e-12)
    assert shifted.std_error == pytest.approx(base.std_error * math.exp(delta), rel=1e-12)
    assert shifted.rel_std_error == pytest.approx(base.rel_std_error, rel=1e-12)


def test_std_error_zero_iff_weights_equal():
    s = filled([1.7] * 100).summarize()
    assert s.std_error == s.rel_std_error == 0.0
    assert filled([0.0, 1e-6]).summarize().std_error > 0.0


def test_uniform_weights_std_error_matches_analytic():
    rng = np.random.default_rng(5)
    u = rng.uniform(size=1_000_000)
    acc = StreamingAccumulator()
    acc.update_many(np.log(u))
    se = acc.summarize().std_error
    analytic = math.sqrt(1.0 / 12.0) / math.sqrt(u.size)
    assert se == pytest.approx(analytic, rel=0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        StreamingAccumulator().update_many(np.array([0.0, bad]))


def test_neg_inf_means_zero_weight():
    acc = filled([0.0, -math.inf])
    assert acc.count == 2
    assert acc.summarize().log_mean == pytest.approx(math.log(0.5), abs=1e-15)
    all_zero = filled([-math.inf, -math.inf]).summarize()
    assert all_zero.log_mean == -math.inf
    assert all_zero.std_error == all_zero.rel_std_error == 0.0


def test_empty_summarize_raises():
    with pytest.raises(ValueError):
        StreamingAccumulator().summarize()


def test_std_error_overflow_reported_as_inf():
    s = filled([800.0, 802.0]).summarize()
    assert math.isfinite(s.log_mean)
    assert s.std_error == math.inf
    # the relative standard error is computed from the shifted sums and stays finite
    base = filled([0.0, 2.0]).summarize()
    assert base.rel_std_error == pytest.approx(base.std_error / math.exp(base.log_mean),
                                               rel=1e-12)
    assert s.rel_std_error == pytest.approx(base.rel_std_error, rel=1e-12)


@given(
    st.lists(st.floats(min_value=-600.0, max_value=600.0), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=5),
)
@settings(deadline=None, max_examples=100)
def test_split_merge_agrees_with_sequential(lw, pieces):
    seq = filled(lw).summarize()
    merged = StreamingAccumulator()
    for part in np.array_split(np.asarray(lw), min(pieces, len(lw))):
        merged = merged.merge(filled(part))
    got = merged.summarize()
    assert got.log_mean == pytest.approx(seq.log_mean, rel=1e-11, abs=1e-11)
    assert min(lw) - 1e-9 <= seq.log_mean <= max(lw) + 1e-9
    assert got.std_error >= 0.0


def mp_log_sum(log_weights):
    """Arbitrary-precision oracle: log(sum(exp(lw))), -inf for no or zero weights."""
    with mp.workdps(60):
        return float(mp.log(mp.fsum(mp.exp(mp.mpf(float(w))) for w in log_weights)))


# 1,300 nats from the first weights to the largest: the leading running sums
# underflow against the block maximum and are rescanned
WIDE = np.concatenate([np.random.default_rng(7).uniform(-1000.0, -700.0, 40),
                       np.random.default_rng(8).uniform(-300.0, 300.0, 200)])


@pytest.mark.parametrize("before", [[], [-900.0]], ids=["fresh", "after_a_weight"])
@pytest.mark.parametrize(
    "block, at",
    [(WIDE, [0, 1, 39, 40, 40, 120, 239]), (np.full(5, -math.inf), [0, 2, 4]),
     (np.empty(0), []), (np.array([-3.0, -math.inf, 2.0]), [0, 1, 2])],
    ids=["wide", "all_zero", "empty", "short"],
)
def test_update_many_running_totals_match_oracle(before, block, at):
    acc, plain = filled(before), filled(before)
    got = acc.update_many(block, at=at)
    plain.update_many(block)
    lw = before + block.tolist()
    want = [mp_log_sum(lw[: len(before) + i + 1]) for i in at]
    assert got.shape == (len(at),)
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert acc.log_total == pytest.approx(mp_log_sum(lw), rel=1e-12, abs=1e-12)
    # listing positions leaves the fold bit for bit as it is without them
    assert dataclasses.astuple(acc) == dataclasses.astuple(plain)


def test_update_many_needs_a_1d_block():
    with pytest.raises(ValueError, match="1-D"):
        StreamingAccumulator().update_many(np.zeros((2, 3)))


@pytest.mark.parametrize("at", [[-1], [3], [2, 1]])
def test_update_many_rejects_positions_outside_the_block(at):
    with pytest.raises(ValueError):
        StreamingAccumulator().update_many(np.zeros(3), at=at)


FOLD_SCRIPT = """
from detmc import EnsembleSpec, EstimatorConfig, generate, inv_det_sphere, operator_from_matrix
m = generate(EnsembleSpec("gaussian_iid", n=10, seed=2))
r = inv_det_sphere(operator_from_matrix(m), EstimatorConfig(2**16, seed=2, num_streams=2))
print(float.hex(r.log_mean), float.hex(r.std_error))
"""


def test_fold_independent_of_blas_thread_count():
    # the thread count is read when numpy loads, so each run is a fresh process
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", FOLD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
