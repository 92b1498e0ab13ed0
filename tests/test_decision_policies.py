"""The decide seam: policies, evidence, vectorized FRR/FAR, calibration.

Pinned contracts:

* ``exchange_and_decide`` ≡ ``exchange(...).outcome()`` — the evidence
  split cannot change a single bit of the decide path;
* :class:`ThresholdPolicy` reproduces ``PianoAuthenticator``'s
  single-round decision exactly, for every status and threshold;
* :class:`ThresholdGridPolicy` ≡ a tuple of single policies;
* the vectorized :class:`GaussianAuthModel` curves are bit-identical to
  the pre-vectorization scalar integration (inlined here as the
  executable reference);
* the service calibration store turns served ranging errors into σ_d
  and τ, falling back to paper priors until traffic accrues.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.config import AuthConfig
from repro.core.decisions import (
    AuthDecision,
    CalibratedPolicy,
    CalibrationContext,
    DenyReason,
    ThresholdGridPolicy,
    ThresholdPolicy,
    decide_round,
)
from repro.core.piano import PianoAuthenticator
from repro.core.ranging import RangingOutcome, RangingStatus
from repro.eval.engine import TrialSpec, build_trial_session, run_cell_spec
from repro.eval.frr_far import PAPER_SIGMAS_M, THRESHOLDS_M, GaussianAuthModel
from repro.service.calibration import CalibrationStore, robust_sigma
from repro.service.protocol import (
    CalibrateReply,
    CalibrateRequest,
    decode_message,
    encode_message,
)
from repro.sim.pipeline import (
    RoundEvidence,
    exchange,
    exchange_and_decide,
    prepare,
    render_and_detect,
)

PAPER_TAUS = THRESHOLDS_M  # (0.5, 1.0, 1.5, 2.0)


def _cell_outcomes(distance=1.0, trials=3, environment="office"):
    spec = TrialSpec(
        environment=environment, distance_m=distance, n_trials=trials, seed=0
    )
    return run_cell_spec(spec).outcomes


def _synthetic_outcomes():
    return [
        RangingOutcome(status=RangingStatus.OK, distance_m=0.4,
                       elapsed_s=2.5, energy_j=0.01),
        RangingOutcome(status=RangingStatus.OK, distance_m=1.7,
                       elapsed_s=2.5, energy_j=0.01),
        RangingOutcome(status=RangingStatus.SIGNAL_NOT_PRESENT),
        RangingOutcome(status=RangingStatus.BLUETOOTH_UNAVAILABLE,
                       elapsed_s=0.1),
        RangingOutcome(status=RangingStatus.CHANNEL_TAMPERED, distance_m=0.2),
    ]


# ----------------------------------------------------------------------
# Evidence seam
# ----------------------------------------------------------------------


def _run_stages(spec, trial, *, use_evidence):
    session = build_trial_session(spec, trial)
    ctx, rng = session.context, session.rng
    prepared = prepare(session)
    if isinstance(prepared, RangingOutcome):
        return prepared
    [(_, detections)] = render_and_detect([prepared])
    negotiation = prepared.negotiation
    if use_evidence:
        return exchange(ctx, negotiation, detections, rng).outcome()
    return exchange_and_decide(ctx, negotiation, detections, rng)


def test_exchange_and_decide_is_exchange_then_outcome():
    spec = TrialSpec(
        environment="office", distance_m=1.0, n_trials=3, seed=0
    )
    for trial in range(spec.n_trials):
        via_evidence = _run_stages(spec, trial, use_evidence=True)
        direct = _run_stages(spec, trial, use_evidence=False)
        assert via_evidence == direct


def test_round_evidence_outcome_round_trip():
    for outcome in _synthetic_outcomes() + list(_cell_outcomes(trials=2)):
        evidence = RoundEvidence.from_outcome(outcome)
        assert evidence.outcome() == outcome
        assert evidence.ok == outcome.ok
        assert evidence.status is outcome.status
        if outcome.ok:
            assert evidence.require_distance() == outcome.require_distance()
        else:
            assert evidence.presence == (
                outcome.status is not RangingStatus.SIGNAL_NOT_PRESENT
            )


def test_round_evidence_require_distance_raises_without_estimate():
    evidence = RoundEvidence(status=RangingStatus.SIGNAL_NOT_PRESENT)
    with pytest.raises(ValueError):
        evidence.require_distance()


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


def test_threshold_policy_matches_piano_single_round():
    outcomes = _synthetic_outcomes() + list(_cell_outcomes(trials=2))
    for tau in PAPER_TAUS:
        policy = ThresholdPolicy(tau)
        piano = PianoAuthenticator(AuthConfig(threshold_m=tau))
        for outcome in outcomes:
            expected = piano._decide(
                outcome, 1, outcome.elapsed_s, outcome.energy_j
            )
            assert policy.decide(outcome) == expected


def test_threshold_policy_accepts_round_evidence():
    policy = ThresholdPolicy(1.0)
    for outcome in _synthetic_outcomes():
        evidence = RoundEvidence.from_outcome(outcome)
        assert policy.decide(evidence) == policy.decide(outcome)


def test_grid_policy_equals_tuple_of_single_policies():
    grid = ThresholdGridPolicy(PAPER_TAUS)
    for outcome in _synthetic_outcomes():
        fanned = grid.decide(outcome)
        singles = tuple(
            ThresholdPolicy(tau).decide(outcome) for tau in PAPER_TAUS
        )
        assert fanned == singles
        assert decide_round(outcome, grid) == fanned


def test_grid_policy_normalizes_threshold_sequence():
    assert ThresholdGridPolicy([0.5, 1.0]).thresholds_m == (0.5, 1.0)


def test_policy_reason_mapping():
    policy = ThresholdPolicy(1.0)
    by_status = {o.status: policy.decide(o) for o in _synthetic_outcomes()[2:]}
    assert (
        by_status[RangingStatus.SIGNAL_NOT_PRESENT].reason
        is DenyReason.SIGNAL_NOT_PRESENT
    )
    assert (
        by_status[RangingStatus.BLUETOOTH_UNAVAILABLE].reason
        is DenyReason.OUT_OF_BLUETOOTH_RANGE
    )
    assert (
        by_status[RangingStatus.CHANNEL_TAMPERED].reason
        is DenyReason.CHANNEL_TAMPERED
    )
    near, far = _synthetic_outcomes()[:2]
    assert policy.decide(near).decision is AuthDecision.GRANT
    assert policy.decide(near).rounds == 1
    assert policy.decide(far).reason is DenyReason.DISTANCE_EXCEEDS_THRESHOLD


def test_calibrated_policy_resolves_through_gaussian_model():
    context = CalibrationContext(sigma_m=0.1, target_frr=0.05)
    tau = context.threshold_m()
    model = GaussianAuthModel(sigma_m=0.1)
    assert model.frr(tau) <= 0.05
    # tightest: one grid step tighter misses the target
    assert model.frr(tau - model.grid_step_m) > 0.05
    policy = CalibratedPolicy(context)
    assert policy.resolve() == ThresholdPolicy(tau)
    for outcome in _synthetic_outcomes():
        assert policy.decide(outcome) == ThresholdPolicy(tau).decide(outcome)


def test_calibrated_policy_tau_shrinks_with_looser_target():
    loose = CalibrationContext(sigma_m=0.1, target_frr=0.10).threshold_m()
    tight = CalibrationContext(sigma_m=0.1, target_frr=0.02).threshold_m()
    assert loose < tight


def test_calibration_context_clamps_unreachable_target():
    context = CalibrationContext(sigma_m=0.15, target_frr=0.001)
    assert context.threshold_m() == pytest.approx(context.max_range_m)


# ----------------------------------------------------------------------
# Vectorized FRR/FAR — bit-identical to the scalar integration
# ----------------------------------------------------------------------


def _scalar_frr(model, tau):
    """The pre-vectorization implementation, inlined as the reference."""
    grid = np.arange(model.grid_step_m / 2, tau, model.grid_step_m)
    values = [
        1.0 if float(d) > model.max_range_m
        else float(norm.sf((tau - float(d)) / model.sigma_m))
        for d in grid
    ]
    return float(np.mean(values))


def _scalar_far(model, tau):
    grid = np.arange(
        tau + model.grid_step_m / 2, model.bluetooth_range_m, model.grid_step_m
    )
    values = [
        0.0
        if (float(d) >= model.max_range_m or float(d) > model.bluetooth_range_m)
        else float(norm.cdf((tau - float(d)) / model.sigma_m))
        for d in grid
    ]
    return float(np.mean(values))


TAUS_DENSE = tuple(THRESHOLDS_M) + tuple(0.125 * k for k in range(2, 18)) + (
    0.333, 2.49, 3.0, 9.5,
)


@pytest.mark.parametrize("sigma", sorted(set(PAPER_SIGMAS_M.values())))
def test_vectorized_frr_far_bit_identical_to_scalar_reference(sigma):
    model = GaussianAuthModel(sigma_m=sigma)
    for tau in TAUS_DENSE:
        assert model.frr(tau) == _scalar_frr(model, tau)
        if tau < model.bluetooth_range_m:
            assert model.far(tau) == _scalar_far(model, tau)


def test_curves_equal_scalars_elementwise():
    model = GaussianAuthModel(sigma_m=0.0702)
    frr = model.frr_curve(TAUS_DENSE)
    far = model.far_curve(TAUS_DENSE)
    for i, tau in enumerate(TAUS_DENSE):
        assert float(frr[i]) == model.frr(tau)
        assert float(far[i]) == model.far(tau)
    assert model.frr_row() == [100.0 * model.frr(t) for t in THRESHOLDS_M]
    assert model.far_row() == [100.0 * model.far(t) for t in THRESHOLDS_M]


def test_integration_grids_are_cached_per_instance():
    model = GaussianAuthModel(sigma_m=0.1)
    model.frr(1.0)
    base = model._frr_base_grid
    model.frr(2.0)
    assert model._frr_base_grid is base  # one shared base grid
    model.far(1.0)
    far_grid = model._far_grids[1.0]
    model.far(1.0)
    assert model._far_grids[1.0] is far_grid  # per-τ FAR grid reused


def test_caches_do_not_affect_model_equality():
    warm = GaussianAuthModel(sigma_m=0.1)
    warm.frr(1.0)
    warm.far(1.0)
    assert warm == GaussianAuthModel(sigma_m=0.1)


def test_frr_validation_unchanged():
    model = GaussianAuthModel(sigma_m=0.1)
    with pytest.raises(ValueError):
        model.frr(0.0)
    with pytest.raises(ValueError):
        model.far(model.bluetooth_range_m)


def test_threshold_for_frr_is_tightest_grid_tau():
    model = GaussianAuthModel(sigma_m=0.1)
    target = 0.04
    tau = model.threshold_for_frr(target)
    assert model.frr(tau) <= target
    assert model.frr(tau - model.grid_step_m) > target
    with pytest.raises(ValueError):
        model.threshold_for_frr(0.0)
    with pytest.raises(ValueError):
        model.threshold_for_frr(1.0)


# ----------------------------------------------------------------------
# Calibration store
# ----------------------------------------------------------------------


def test_robust_sigma_matches_mad_definition():
    rng = np.random.default_rng(7)
    errors = rng.normal(0.0, 0.1, size=501)
    expected = 1.4826 * float(np.median(np.abs(errors - np.median(errors))))
    assert robust_sigma(errors) == pytest.approx(expected)
    with pytest.raises(ValueError):
        robust_sigma([])


def test_store_prior_until_enough_samples():
    store = CalibrationStore(min_samples=4)
    sigma, samples, source = store.sigma("office")
    assert (sigma, samples, source) == (PAPER_SIGMAS_M["office"], 0, "prior")
    for error in (0.05, -0.04, 0.06):
        store.record("office", error)
    assert store.sigma("office")[2] == "prior"  # 3 < min_samples
    store.record("office", -0.05)
    sigma, samples, source = store.sigma("office")
    assert source == "measured" and samples == 4
    assert sigma == pytest.approx(robust_sigma([0.05, -0.04, 0.06, -0.05]))


def test_store_window_evicts_oldest():
    store = CalibrationStore(window=8, min_samples=2)
    for i in range(20):
        store.record("home", 0.01 * i)
    assert store.samples("home") == 8
    assert store.recorded == 20


def test_store_degenerate_window_falls_back_to_prior():
    store = CalibrationStore(min_samples=2)
    for _ in range(5):
        store.record("street", 0.02)  # identical ⇒ MAD σ = 0
    assert store.sigma("street")[2] == "prior"


def test_robust_sigma_zero_mad_uses_sample_std():
    # Regression: >half the window identical ⇒ MAD = 0, but the window
    # carries real spread — the old estimator returned 0.0 here, which
    # pushed a perfectly healthy deployment back onto the paper prior.
    window = [0.02] * 4 + [0.05]
    sigma = robust_sigma(window)
    assert sigma > 0.0
    assert sigma == pytest.approx(float(np.std(window, ddof=1)))
    # Genuinely zero-spread windows still report 0 (the store handles
    # the prior fallback), and a single sample has no spread estimate.
    assert robust_sigma([0.02] * 5) == 0.0
    assert robust_sigma([0.02]) == 0.0


def test_store_majority_identical_window_stays_measured():
    # The store must *not* fall back to the prior when the window has
    # spread that only the MAD discards.
    store = CalibrationStore(min_samples=4)
    for error in [0.02] * 4 + [0.05]:
        store.record("office", error)
    sigma, samples, source = store.sigma("office")
    assert source == "measured" and samples == 5
    assert sigma == pytest.approx(float(np.std([0.02] * 4 + [0.05], ddof=1)))
    # The §VI-C model gets a usable σ > 0 and therefore a finite τ.
    summary = store.summary("office")
    assert summary.sigma_m > 0.0
    assert summary.threshold_m > 0.0


def test_store_unprofiled_environment_uses_office_prior():
    store = CalibrationStore()
    assert store.sigma("quiet_lab")[0] == PAPER_SIGMAS_M["office"]


def test_store_summary_picks_tau_for_target():
    store = CalibrationStore(min_samples=2)
    for error in (0.03, -0.02, 0.04, -0.03, 0.02, -0.04):
        store.record("office", error)
    summary = store.summary("office", target_frr=0.05)
    model = GaussianAuthModel(sigma_m=summary.sigma_m)
    assert summary.source == "measured"
    assert model.frr(summary.threshold_m) <= 0.05
    assert summary.threshold_m == model.threshold_for_frr(0.05)


def test_store_rejects_bad_inputs():
    store = CalibrationStore()
    with pytest.raises(ValueError):
        store.record("", 0.1)
    store.record("office", float("nan"))  # ignored, not poisoned
    assert store.samples("office") == 0
    with pytest.raises(ValueError):
        CalibrationStore(window=0)
    with pytest.raises(ValueError):
        CalibrationStore(min_samples=1)


# ----------------------------------------------------------------------
# Calibrate wire messages
# ----------------------------------------------------------------------


def test_calibrate_messages_round_trip():
    request = CalibrateRequest(
        request_id="r1", environment="home", target_frr_pct=2.5
    )
    assert decode_message(encode_message(request)) == request
    reply = CalibrateReply(
        request_id="r1",
        shard=0,
        shards=2,
        environment="home",
        threshold_m=0.95,
        sigma_m=0.1191,
        samples=12,
        target_frr_pct=2.5,
        source="measured",
    )
    assert decode_message(encode_message(reply)) == reply
