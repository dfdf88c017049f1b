"""Gradient engine tests: primitive adjoints against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advspeaker import autodiff as ad
from advspeaker.util import stable_int
from gradcheck_cases import OPSET, PRIMITIVE_CASES, finite_diff_check
from log_mel_chain import log, reshape


def rng_for(seed):
    return np.random.default_rng(seed)


def test_relu_values():
    out = ad.relu(ad.Value([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_conv1d_hand_example():
    # conv of [1,2,3] with kernel [1,1], valid: [1+2, 2+3] = [3, 5]
    x = ad.Value(np.array([[[1.0, 2.0, 3.0]]]))
    w = ad.Value(np.array([[[1.0, 1.0]]]))
    out = ad.conv1d(x, w)
    assert np.array_equal(out.data, [[[3.0, 5.0]]])


def test_backward_sum_of_squares():
    x = ad.Value([1.0, -2.0], requires_grad=True)
    loss = (x * x).sum()
    ad.backward(loss)
    assert np.allclose(x.grad, [2.0, -4.0])


def test_log_softmax_gradient_matches_probability_identity():
    rng = rng_for(0)
    z = rng.normal(size=5)
    k = 2
    v = ad.Value(z, requires_grad=True)
    row = reshape(v, (1, 5))
    loss = ad.gather_rows(row - ad.logsumexp(row, axis=1, keepdims=True), [k]).sum()
    ad.backward(loss)
    expected = -(np.exp(z) / np.exp(z).sum())
    expected[k] += 1.0
    assert np.allclose(v.grad, expected, atol=1e-12)
    # same thing via the finite-difference oracle
    err = finite_diff_check(
        lambda x: ad.gather_rows(
            reshape(x, (1, 5)) - ad.logsumexp(reshape(x, (1, 5)), axis=1, keepdims=True), [k]
        ).sum(),
        z,
    )
    assert err < 1e-6


def test_constant_loss_gives_zero_gradients():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    loss = (x * 0.0).sum()
    ad.backward(loss)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_backward_rejects_non_scalar():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(x * 2.0)


def test_shape_mismatch_names_operation():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Value(np.ones((2, 3))), ad.Value(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.Value(np.ones(3)), ad.Value(np.ones(4)))


def test_finite_diff_quadratic_is_tight():
    rng = rng_for(1)
    point = rng.normal(size=6)
    err = finite_diff_check(lambda x: (x * x).sum(), point)
    assert err < 1e-6


def test_finite_diff_zero_function():
    err = finite_diff_check(lambda x: (x * 0.0).sum(), np.ones(4))
    assert err == 0.0


def test_finite_diff_relu_away_from_kink():
    rng = rng_for(2)
    point = rng.normal(size=8)
    point[np.abs(point) < 0.05] = 0.1
    err = finite_diff_check(lambda x: ad.relu(x).sum(), point)
    assert err < 1e-4


def test_finite_diff_rejects_non_finite():
    with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError):
        finite_diff_check(lambda x: log(x).sum(), np.array([-1.0, 1.0]))


# per-primitive gradient battery lives in gradcheck_cases (shared with the
# acceptance gate)

@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    for seed in range(3):
        loss_fn, point = PRIMITIVE_CASES[name](rng_for((stable_int(name) % 1000, seed)))
        assert finite_diff_check(loss_fn, point) < 1e-6, name


def test_every_opset_entry_has_a_gradient_case():
    covered = set(PRIMITIVE_CASES)
    assert covered.issuperset(set(OPSET)), set(OPSET) - covered


def test_batchnorm_eval_uses_running_stats_and_is_affine():
    rng = rng_for(11)
    x = rng.normal(size=(4, 3, 5))
    gamma, beta = np.ones(3), np.zeros(3)
    rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    out = ad.batchnorm(ad.Value(x), ad.Value(gamma), ad.Value(beta), rm, rv, mode="eval")
    expected = (x - rm[None, :, None]) / np.sqrt(rv[None, :, None] + 1e-5)
    assert np.allclose(out.data, expected)
    err = finite_diff_check(
        lambda v: (ad.batchnorm(v, ad.Value(gamma), ad.Value(beta), rm, rv, mode="eval") ** 2.0).sum(), x
    )
    assert err < 1e-6


def test_batchnorm_train_updates_running_stats_but_batch_mode_does_not():
    rng = rng_for(12)
    x = ad.Value(rng.normal(size=(8, 3, 4)))
    g, b = ad.Value(np.ones(3)), ad.Value(np.zeros(3))
    rm, rv = np.zeros(3), np.ones(3)
    ad.batchnorm(x, g, b, rm, rv, mode="attack")
    assert np.array_equal(rm, np.zeros(3)) and np.array_equal(rv, np.ones(3))
    with pytest.raises(ValueError, match="unknown mode 'batch'"):
        ad.batchnorm(x, g, b, rm, rv, mode="batch")
    ad.batchnorm(x, g, b, rm, rv, mode="train")
    mu = x.data.mean(axis=(0, 2))
    assert np.allclose(rm, 0.1 * mu)


def test_maxpool_tie_routes_to_lowest_index():
    x = ad.Value(np.array([[[2.0, 2.0, 1.0, 0.0]]]), requires_grad=True)
    out = ad.maxpool1d(x, 2)
    ad.backward(out.sum())
    assert np.array_equal(x.grad, [[[1.0, 0.0, 1.0, 0.0]]])


def test_maxpool_drops_trailing_partial_window():
    x = ad.Value(np.array([[[1.0, 3.0, 2.0]]]), requires_grad=True)
    out = ad.maxpool1d(x, 2)
    assert np.array_equal(out.data, [[[3.0]]])
    ad.backward(out.sum())
    assert np.array_equal(x.grad, [[[0.0, 1.0, 0.0]]])


def test_relu_subgradient_at_zero_is_zero():
    x = ad.Value([0.0, 1.0], requires_grad=True)
    ad.backward(ad.relu(x).sum())
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_gradient_accumulates_when_value_reused():
    x = ad.Value([2.0], requires_grad=True)
    loss = (x * x).sum() + (x * 3.0).sum()
    ad.backward(loss)
    assert np.allclose(x.grad, [7.0])


def test_node_drops_an_edge_into_a_constant_without_calling_its_adjoint():
    def never(g):
        raise AssertionError("adjoint of a constant was computed")

    x = ad.Value([1.0, 2.0], requires_grad=True)
    const = ad.Value([3.0, 4.0])
    out = ad._node(x.data * const.data, "probe", (const, never), (x, lambda g: g * const.data))
    assert out.requires_grad and out._parents == (x,)
    ad.backward(ad.reduce_sum(out))
    assert np.array_equal(x.grad, [3.0, 4.0])
    frozen = ad._node(const.data.copy(), "probe", (const, never))
    assert not frozen.requires_grad and frozen._parents == () and frozen._edges == ()


@pytest.mark.parametrize("op, closed_form", [
    (ad.mul, lambda w, x: 2.0 * (w * x)), (ad.add, lambda w, x: 2.0 * w)])
def test_node_keeps_one_edge_per_input_when_a_parent_appears_twice(op, closed_form):
    rng = rng_for(21)
    x = ad.Value(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    out = op(x, x)
    assert out._parents == (x, x)
    ad.backward((out * ad.Value(w)).sum())
    assert x.grad.tobytes() == closed_form(w, x.data).tobytes()


def test_node_accumulates_adjoints_in_edge_order():
    calls = []
    x = ad.Value([1.0], requires_grad=True)
    edges = [(x, lambda g, k=k: calls.append(k) or g) for k in range(3)]
    ad.backward(ad.reduce_sum(ad._node(x.data.copy(), "probe", *edges)))
    assert calls == [0, 1, 2] and np.array_equal(x.grad, [3.0])


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul])
def test_constant_operand_leaves_the_other_gradient_bytes_unchanged(op):
    rng = rng_for(22)
    a, b = rng.normal(size=(3, 3)), rng.uniform(0.5, 2.0, size=(3, 3))
    grads = []
    for const_requires_grad in (False, True):
        x = ad.Value(b, requires_grad=True)
        loss = (op(ad.Value(a, requires_grad=const_requires_grad), x) ** 2.0).sum()
        ad.backward(loss)
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_chain_rule_composition_matches_fused_expression(seed):
    rng = rng_for(seed)
    a = rng.normal(size=(3, 3))
    w1 = rng.normal(size=(3, 3))
    w2 = rng.normal(size=(3, 3))

    x1 = ad.Value(a, requires_grad=True)
    h = ad.matmul(x1, ad.Value(w1))
    h = ad.matmul(h, ad.Value(w2))
    ad.backward((h * h).sum())

    x2 = ad.Value(a, requires_grad=True)
    fused = ad.matmul(x2, ad.Value(w1 @ w2))
    ad.backward((fused * fused).sum())

    assert np.allclose(x1.grad, x2.grad, rtol=1e-10, atol=1e-10)


def test_deterministic_forward_backward():
    def run():
        rng = rng_for(33)
        x = ad.Value(rng.normal(size=(4, 6)), requires_grad=True)
        w = ad.Value(rng.normal(size=(6, 3)), requires_grad=True)
        loss = (ad.logsumexp(ad.matmul(x, w), axis=1) ** 2.0).sum()
        ad.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for lhs, rhs in zip(first, second):
        assert np.array_equal(lhs, rhs)


def test_backward_populates_all_reachable_leaves():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    y = ad.Value([3.0, 4.0], requires_grad=True)
    loss = (x * y).sum()
    ad.backward(loss)
    assert x.grad is not None and y.grad is not None
    assert x.grad.shape == x.data.shape and y.grad.shape == y.data.shape


def test_a_second_backward_accumulates_into_the_leaves_only():
    x = ad.Value([1.0], requires_grad=True)
    doubled = x * 2.0
    loss = doubled.sum()
    ad.backward(loss)
    assert np.array_equal(x.grad, [2.0])
    assert doubled.grad is None and loss.grad is None  # interior gradients are dropped
    ad.backward(loss)
    assert np.array_equal(x.grad, [4.0])


def test_a_first_contribution_of_minus_zero_is_stored_as_plus_zero():
    # a zero-filled gradient plus -0.0 reads +0.0; the first write keeps that
    x = ad.Value([1.0, 2.0], requires_grad=True)
    out = ad._node(x.data.copy(), "probe", (x, lambda g: -0.0 * g))
    ad.backward(ad.reduce_sum(out))
    assert x.grad.tobytes() == np.zeros(2).tobytes()


def overlap_add_per_offset(frames, length, hop_length):
    """Each window offset of each frame added on its own, offsets in increasing order."""
    n, n_frames, window_length = frames.shape
    out = np.zeros((n, length))
    for offset in range(window_length):
        for f in range(n_frames):
            out[:, f * hop_length + offset] += frames[:, f, offset]
    return out


@pytest.mark.parametrize("n, length, window_length, hop_length", [
    (3, 1100, 256, 128),   # hop divides the window, ragged tail past the last frame
    (2, 2000, 400, 160),   # hop does not divide the window
    (2, 1000, 100, 100),   # hop equals the window
    (1, 999, 400, 160),    # one signal, as a 1-D waveform is framed
    (2, 37, 9, 4)])
def test_overlap_add_matches_a_per_offset_loop(n, length, window_length, hop_length):
    n_frames = (length - window_length) // hop_length + 1
    frames = rng_for(length).normal(size=(n, n_frames, window_length))
    out = ad.overlap_add(frames, length, hop_length)
    expected = overlap_add_per_offset(frames, length, hop_length)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
