"""Sample-size bounds, opt-out witnesses, and the shared-minimizer premise."""

import math

import numpy as np
import pytest

from fairuse.dataset import Dataset
from fairuse.groups import GroupSpace
from fairuse.models import (LinearModel, PersonalizedModel, Strategy,
                            TrainConfig, build_feature_map,
                            train_personalized, train_zero_one_exhaustive)
from fairuse.synth import gen_misspecification
from fairuse.theory import (BoundInputs, BoundVerdict, Prop2Check,
                            check_optout, check_prop2_premise, envy_bound,
                            rationality_bound, trained_loss,
                            trained_loss_matrix, vc_linear)

from oracles import bound_required_n

AB = GroupSpace((("g", ("a", "b")),))
TWO_BY_TWO = GroupSpace((("sex", ("f", "m")), ("age", ("o", "y"))))


def rhs_rationality(n, vc, delta, gain):
    return (4.0 * vc * math.log(2.0 * n / vc + 1.0)
            + math.log(8.0 / delta)) / gain ** 2


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(n_g=-1, vc=3, delta=0.1, gain=0.5)
    with pytest.raises(ValueError):
        BoundInputs(n_g=10, vc=0, delta=0.1, gain=0.5)
    with pytest.raises(ValueError):
        BoundInputs(n_g=10, vc=3, delta=0.0, gain=0.5)
    with pytest.raises(ValueError):
        BoundInputs(n_g=10, vc=3, delta=1.0, gain=0.5)
    with pytest.raises(ValueError):
        BoundInputs(n_g=10, vc=3, delta=0.1, gain=0.5, m=0)


def test_required_n_reference_value_and_crossing():
    verdict = rationality_bound(BoundInputs(n_g=10, vc=3, delta=0.1,
                                            gain=0.5))
    required = verdict.required_n
    assert required == 267
    assert not verdict.satisfied
    assert verdict.rhs_at_n == pytest.approx(
        rhs_rationality(10, 3, 0.1, 0.5))
    # required is the exact crossing point of the implicit display.
    assert required >= rhs_rationality(required, 3, 0.1, 0.5)
    assert required - 1 < rhs_rationality(required - 1, 3, 0.1, 0.5)
    at = rationality_bound(BoundInputs(n_g=required, vc=3, delta=0.1,
                                       gain=0.5))
    below = rationality_bound(BoundInputs(n_g=required - 1, vc=3,
                                          delta=0.1, gain=0.5))
    assert at.satisfied and not below.satisfied


@pytest.mark.parametrize("vc,delta,gain", [
    (1, 0.1, 0.5), (3, 0.1, 0.5), (3, 0.01, 0.2), (10, 0.05, 0.1),
    (5, 0.1, 0.05),
])
def test_rationality_required_n_matches_high_precision_oracle(vc, delta,
                                                              gain):
    got = rationality_bound(BoundInputs(n_g=1, vc=vc, delta=delta,
                                        gain=gain)).required_n
    want = bound_required_n(vc, delta, gain)
    assert abs(got - want) <= 1


@pytest.mark.parametrize("vc,delta,gain,m", [
    (3, 0.1, 0.5, 2), (3, 0.1, 0.5, 4), (3, 0.1, 0.5, 16),
    (10, 0.05, 0.1, 4),
])
def test_envy_required_n_matches_high_precision_oracle(vc, delta, gain, m):
    got = envy_bound(BoundInputs(n_g=1, vc=vc, delta=delta, gain=gain,
                                 m=m)).required_n
    want = bound_required_n(vc, delta, gain, m=m)
    assert abs(got - want) <= 1


def test_required_n_monotonicity():
    def rat(vc=3, delta=0.1, gain=0.5):
        return rationality_bound(BoundInputs(n_g=1, vc=vc, delta=delta,
                                             gain=gain)).required_n

    assert rat(gain=0.25) > rat(gain=0.5)
    assert rat(delta=0.01) > rat(delta=0.1)
    assert rat(vc=5) > rat(vc=3)

    def env(m):
        return envy_bound(BoundInputs(n_g=1, vc=3, delta=0.1, gain=0.5,
                                      m=m)).required_n

    assert env(16) >= env(4) >= env(2) >= rat()


def test_nonpositive_gain_is_not_applicable():
    for gain in (0.0, -0.5):
        verdict = rationality_bound(BoundInputs(n_g=100, vc=3, delta=0.1,
                                                gain=gain))
        assert not verdict.applicable
        assert verdict.required_n is None
        assert not verdict.satisfied
        assert math.isnan(verdict.rhs_at_n)
        assert verdict.to_jsonable()["rhs_at_n"] is None


def test_envy_bound_needs_group_count():
    with pytest.raises(ValueError, match="m >= 2"):
        envy_bound(BoundInputs(n_g=10, vc=3, delta=0.1, gain=0.5))
    with pytest.raises(ValueError, match="m >= 2"):
        envy_bound(BoundInputs(n_g=10, vc=3, delta=0.1, gain=0.5, m=1))


def test_tiny_gain_overflows():
    with pytest.raises(OverflowError):
        rationality_bound(BoundInputs(n_g=10, vc=3, delta=0.1, gain=1e-9))


def test_vc_linear():
    assert vc_linear(1) == 2
    assert vc_linear(2) == 3
    assert vc_linear(4) == 5
    with pytest.raises(ValueError):
        vc_linear(0)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_optout_witness_exists_for_every_strategy(strategy):
    res = check_optout(strategy, TWO_BY_TWO, d=3, n_samples=100, seed=0)
    assert res.compatible
    assert res.max_gap <= 1e-12
    assert res.checked == 100
    assert res.strategy is strategy
    assert res.witness
    assert res.to_jsonable()["compatible"] is True


def test_optout_detects_a_broken_witness():
    def broken(generic, space):
        fmap = build_feature_map(Strategy.ONEHOT, space,
                                 generic.feature_map.base_features)
        w = np.concatenate([generic.weights[:-1],
                            np.ones(fmap.n_indicators),
                            generic.weights[-1:]])
        return PersonalizedModel(Strategy.ONEHOT, space, generic,
                                 TrainConfig(),
                                 model=LinearModel(w, fmap))

    res = check_optout(Strategy.ONEHOT, AB, d=2, witness_builder=broken)
    assert not res.compatible
    assert res.max_gap > 0.5
    assert res.witness == "caller-supplied witness"



def test_optout_replicates_a_given_generic_model():
    # The given model fixes the base features; d is then not read.
    generic = LinearModel(np.array([0.5, -1.0, 2.0, 0.25]),
                          build_feature_map(Strategy.GENERIC, TWO_BY_TWO,
                                            ("x1", "x2", "x3")))
    for strategy in Strategy:
        res = check_optout(strategy, TWO_BY_TWO, generic=generic, d=7)
        assert res.compatible
        assert res.max_gap <= 1e-12
        assert res.checked == 100

def test_optout_reports_missing_witness():
    res = check_optout(Strategy.ONEHOT, AB, d=2,
                       witness_builder=lambda generic, space: None)
    assert not res.compatible
    assert res.witness == "no witness available"
    assert res.checked == 0
    assert math.isinf(res.max_gap)


def test_trained_loss_hand_values():
    assert trained_loss("logistic", [0.0], [1]) == pytest.approx(
        math.log(2.0))
    assert trained_loss("hinge", [0.0], [1]) == 1.0
    assert trained_loss("zero_one", [0.0], [1]) == 0.0
    assert trained_loss("zero_one", [0.0], [-1]) == 1.0
    assert trained_loss("logistic", [3.0], [1]) == pytest.approx(
        math.log1p(math.exp(-3.0)))
    assert trained_loss("hinge", [0.25, 2.0], [1, 1]) == pytest.approx(
        (0.75 + 0.0) / 2)
    with pytest.raises(ValueError, match="unknown loss"):
        trained_loss("brier", [0.0], [1])


def test_trained_loss_matrix_shape_and_empty_rows():
    from fairuse.dataset import Dataset
    space = GroupSpace((("g", ("a", "b", "c")),))
    a, b, _ = space.cells()
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1, -1, 1, -1])
    ds = Dataset(x, y, (a, a, b, b), space)
    model = train_personalized(ds, Strategy.ONEHOT,
                               TrainConfig(l2_penalty=1e-3))
    matrix = trained_loss_matrix(model, ds)
    assert matrix.shape == (3, 4)
    assert np.isnan(matrix[2]).all()
    from fairuse.groups import WITHHELD
    from fairuse.theory import trained_loss as tl
    rows = ds.rows_for(a)
    want = tl("logistic", model.margins(ds.features[rows], WITHHELD),
              ds.labels[rows])
    assert matrix[0, 0] == pytest.approx(want)
    want_b = tl("logistic", model.margins(ds.features[rows], b),
                ds.labels[rows])
    assert matrix[0, 2] == pytest.approx(want_b)


def test_premise_holds_when_personalized_is_the_decoupled_minimizer():
    with pytest.warns(UserWarning, match="single-class"):
        ds = gen_misspecification()
        dec = train_zero_one_exhaustive(ds, Strategy.DECOUPLED)
    check = check_prop2_premise(dec, dec, ds)
    assert check.all_hold
    assert all(check.premise.values())
    assert check.matrix_ok
    assert check.implication_holds
    assert check.worst_violation <= check.tolerance
    assert check.tolerance == pytest.approx(
        10.0 * dec.train_config.gradient_tolerance)


def test_premise_failure_pinpoints_the_harmed_group():
    ds = gen_misspecification()
    onehot = train_zero_one_exhaustive(ds, Strategy.ONEHOT)
    with pytest.warns(UserWarning, match="single-class"):
        dec = train_zero_one_exhaustive(ds, Strategy.DECOUPLED)
    check = check_prop2_premise(onehot, dec, ds)
    fy = ds.space.group("f", "y")
    assert check.premise[fy] is False
    assert not check.all_hold
    assert not check.matrix_ok
    assert check.worst_violation == pytest.approx(1.0)
    # The implication is vacuous once a premise fails.
    assert check.implication_holds
    json_out = check.to_jsonable()
    assert json_out["premise"][str(fy)] is False


def test_premise_skips_a_declared_group_without_rows():
    # The declared domain holds c, but no row is in c: its premise holds
    # vacuously, its trained-loss row is NaN, and the worst violation is
    # taken over the groups that have rows.
    space = GroupSpace((("g", ("a", "b", "c")),))
    a, b, c = space.cells()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(80, 2))
    y = np.where(x[:, 0] + 0.3 * rng.normal(size=80) > 0, 1, -1)
    ds = Dataset(x, y, [a, b] * 40, space)
    cfg = TrainConfig(l2_penalty=1e-3)
    onehot = train_personalized(ds, Strategy.ONEHOT, cfg)
    dec = train_personalized(ds, Strategy.DECOUPLED, cfg)
    check = check_prop2_premise(onehot, dec, ds)
    assert check.premise[c] is True
    assert np.isnan(check.matrix[2]).all()
    assert np.isfinite(check.matrix[:2]).all()
    gaps = [check.matrix[gi, gi + 1] - check.matrix[gi, col]
            for gi in range(2) for col in range(4) if col != gi + 1]
    assert check.worst_violation == max([0.0] + gaps)
    assert check.to_jsonable()["premise"][str(c)] is True



def test_premise_scores_the_loss_it_is_given():
    ds = gen_misspecification()
    onehot = train_zero_one_exhaustive(ds, Strategy.ONEHOT)
    with pytest.warns(UserWarning, match="single-class"):
        dec = train_zero_one_exhaustive(ds, Strategy.DECOUPLED)
    default = check_prop2_premise(onehot, dec, ds)
    given = check_prop2_premise(onehot, dec, ds, loss="hinge")
    assert onehot.train_config.loss != "hinge"
    assert np.array_equal(given.matrix,
                          trained_loss_matrix(onehot, ds, "hinge"),
                          equal_nan=True)
    assert not np.array_equal(given.matrix, default.matrix,
                              equal_nan=True)

def test_premise_rejects_wrong_minimizer_strategy():
    ds = gen_misspecification()
    onehot = train_zero_one_exhaustive(ds, Strategy.ONEHOT)
    with pytest.raises(ValueError, match="decoupled"):
        check_prop2_premise(onehot, onehot, ds)
