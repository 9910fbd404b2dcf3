import itertools
import math

import numpy as np
import pytest

from textgraph import tensor as tg
from textgraph.errors import ContractError, ShapeError


def assert_grads_match(build, params, eps=1e-3, rtol=1e-3, atol=1e-6):
    """Central-difference check of d(build())/d(param) for every param element.

    build() must rebuild the same scalar loss from the current param values.
    """
    for p in params.values():
        p.grad = None
    with tg.Tape() as tape:
        loss = build()
    tg.backward(loss, tape)
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.ravel()
        numeric = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = build().item()
            flat[i] = orig - eps
            lo = build().item()
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
        a = analytic.ravel()
        bad = np.abs(a - numeric) > (rtol * np.maximum(np.abs(a), np.abs(numeric)) + atol)
        assert not bad.any(), (
            f"{name}: analytic {a[bad][:3]} vs numeric {numeric[bad][:3]} "
            f"at flat indices {np.nonzero(bad)[0][:3]}"
        )


def _param(rng, *shape):
    return tg.Tensor(rng.normal(size=shape), grad_enabled=True)


def _project(out, rng):
    """Random fixed projection to a scalar, so every output element matters."""
    c = tg.Tensor(rng.normal(size=out.shape))
    return tg.tensor_sum(tg.mul(out, c))


# ------------------------------------------------------------- exact oracles


def test_matmul_small_example():
    a = tg.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tg.Tensor([[5.0], [6.0]])
    np.testing.assert_array_equal(tg.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        tg.matmul(tg.Tensor(np.zeros((2, 3))), tg.Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_softplus_closed_forms():
    out = tg.softplus(tg.Tensor([0.0, 1.0])).data
    assert abs(out[0] - math.log(2.0)) < 1e-12
    assert abs(out[1] - math.log(1.0 + math.e)) < 1e-12
    assert abs(out[1] - 1.3132616875182228) < 1e-10


def test_softplus_identity_and_stability():
    xs = np.linspace(-50.0, 50.0, 401)
    sp = tg.softplus(tg.Tensor(xs)).data
    sm = tg.softplus(tg.Tensor(-xs)).data
    # softplus(x) - softplus(-x) == x exactly in reals
    assert np.max(np.abs((sp - sm) - xs)) < 1e-9
    big = tg.softplus(tg.Tensor([750.0, -750.0])).data
    assert np.isfinite(big).all()
    assert abs(big[0] - 750.0) < 1e-9 and big[1] >= 0.0


def test_cross_entropy_known_value():
    loss = tg.softmax_cross_entropy(tg.Tensor([[1.0, 2.0, 3.0]]), [2])
    assert abs(loss.item() - 0.40760596444438079) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        tg.softmax_cross_entropy(tg.Tensor([[0.0, 0.0]]), [2])
    with pytest.raises(IndexError):
        tg.softmax_cross_entropy(tg.Tensor([[0.0, 0.0]]), [-1])


def test_layer_norm_unit_row():
    g = tg.Tensor(np.ones(2))
    b = tg.Tensor(np.zeros(2))
    out = tg.layer_norm(tg.Tensor([[1.0, -1.0]]), g, b).data
    np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_standardizes(rng):
    x = tg.Tensor(rng.normal(size=(5, 16)) * 3.0 + 2.0)
    out = tg.layer_norm(x, tg.Tensor(np.ones(16)), tg.Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_softmax_rows_sum_to_one_and_mask_zeroes(rng):
    x = rng.normal(size=(4, 6))
    x[:, 4:] = -1e30  # additive mask convention
    y = tg.softmax(tg.Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert (y[:, 4:] == 0.0).all()


def test_take_rows_duplicate_indices_accumulate():
    w = tg.Tensor(np.eye(3), grad_enabled=True)
    with tg.Tape() as tape:
        out = tg.take_rows(w, [1, 1, 2])
        loss = tg.tensor_sum(out)
    tg.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, [[0, 0, 0], [2, 2, 2], [1, 1, 1]])


def test_take_rows_bounds():
    with pytest.raises(IndexError):
        tg.take_rows(tg.Tensor(np.zeros((2, 2))), [2])


def test_segment_sum_forward():
    x = tg.Tensor([[1.0], [2.0], [4.0]])
    out = tg.segment_sum(x, [1, 1, 0], 3)
    np.testing.assert_array_equal(out.data, [[4.0], [3.0], [0.0]])


def _scatter_cases():
    draw = np.random.default_rng(4)
    heavy = np.where(draw.random(600) < 0.7, 3, draw.integers(0, 20, size=600))
    ids = {"unsorted": (draw.permutation(np.arange(200) % 50), 50),
           "heavy": (heavy, 20),
           "two-buckets": (draw.integers(0, 2, size=40), 2),
           "empty": (np.empty(0, dtype=np.int64), 5)}
    for width in (None, 1, 64, 128):
        for name, (bucket_ids, buckets) in ids.items():
            yield pytest.param(bucket_ids, buckets, width,
                               id=f"{name}-{'1d' if width is None else width}")


@pytest.mark.parametrize("ids,buckets,width", list(_scatter_cases()))
def test_scatter_add_is_bitwise_add_at(ids, buckets, width):
    def shape(n):
        return (n,) if width is None else (n, width)

    draw = np.random.default_rng(ids.size)
    rows = draw.normal(size=shape(ids.size)) * 10.0 ** draw.integers(-9, 9, size=shape(ids.size))
    rows[draw.random(rows.shape) < 0.2] = -0.0  # signed zeros must survive
    rows[draw.random(rows.shape) < 0.1] = 0.0
    want = np.zeros(shape(buckets))
    np.add.at(want, ids, rows)
    got = tg.scatter_add(np.zeros(shape(buckets)), ids, rows)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("ids,buckets", [
    pytest.param(65530 + np.arange(300) % 6, 65536, id="ids-under-2**16"),
    # ids k and 65536 + k would share a bucket if narrowed to 16 bits
    pytest.param(np.r_[np.arange(300) % 6, 65536 + np.arange(300) % 6], 65542,
                 id="ids-over-2**16"),
    pytest.param(np.zeros(300, dtype=np.int64), 1, id="one-bucket"),
    # size keys (largest size - size) of 65535 and 69999 narrowed to 16 bits
    # would put the eight 1-row buckets before the eight 4465-row ones
    pytest.param(np.repeat(np.arange(17), [70000] + [4465] * 8 + [1] * 8), 17,
                 id="sizes-over-2**16")])
def test_scatter_add_sorts_every_key_range_as_add_at(ids, buckets):
    """Sort keys narrow to uint16 only when all of them fit; the sums of
    negative rows and -0.0 keep add.at's bytes on either side."""
    draw = np.random.default_rng(buckets)
    ids = draw.permutation(ids)
    rows = -np.abs(draw.normal(size=(ids.size, 8))) * 10.0 ** draw.integers(
        -9, 9, size=(ids.size, 8))
    rows[draw.random(rows.shape) < 0.3] = -0.0
    want = np.zeros((buckets, 8))
    np.add.at(want, ids, rows)
    got = tg.scatter_add(np.zeros((buckets, 8)), ids, rows)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _indexed_scatter_cases():
    draw = np.random.default_rng(6)
    light = draw.integers(1, 300, size=500)
    yield pytest.param(draw.integers(0, 30, size=400), 30, True, False, 8,
                       id="row-index")
    yield pytest.param(draw.integers(0, 30, size=400), 30, False, True, 8,
                       id="nonzero-start")
    yield pytest.param(draw.permutation(np.repeat(np.arange(40), 5)), 40, True, True, 8,
                       id="tied-sizes")
    yield pytest.param(np.where(draw.random(500) < 0.4, 0, light), 300, True, True, 8,
                       id="heavy-beside-light")
    yield pytest.param(draw.integers(0, 12, size=200), 12, True, True, None, id="1d")
    yield pytest.param(np.empty(0, dtype=np.int64), 5, True, True, 8, id="empty")


@pytest.mark.parametrize("ids,buckets,indexed,nonzero,width",
                         list(_indexed_scatter_cases()))
def test_scatter_add_row_index_and_start_are_bitwise_add_at(ids, buckets, indexed,
                                                            nonzero, width):
    def shape(n):
        return (n,) if width is None else (n, width)

    draw = np.random.default_rng(ids.size + buckets)
    pool = 2 * ids.size + 1
    rows = draw.normal(size=shape(pool)) * 10.0 ** draw.integers(-9, 9, size=shape(pool))
    rows[draw.random(rows.shape) < 0.2] = -0.0
    row_index = draw.integers(0, pool, size=ids.size) if indexed else None
    start = draw.normal(size=shape(buckets)) if nonzero else np.zeros(shape(buckets))
    start[draw.random(start.shape) < 0.2] = -0.0
    want = start.copy()
    if indexed:
        np.add.at(want, ids, rows[row_index])
        got = tg.scatter_add(start.copy(), ids, rows, row_index=row_index)
    else:
        np.add.at(want, ids, rows[:ids.size])
        got = tg.scatter_add(start.copy(), ids, rows[:ids.size])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _gather_cases():
    draw = np.random.default_rng(5)
    many = np.where(draw.random(300) < 0.6, 7, draw.integers(0, 40, size=300))
    yield pytest.param(many, draw.integers(0, 6, size=300), 6, id="repeated")
    yield pytest.param(draw.permutation(np.arange(120) % 40),
                       draw.permutation(np.arange(120) % 30), 30, id="unsorted")
    yield pytest.param(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4,
                       id="empty")


@pytest.mark.parametrize("idx,seg,buckets", list(_gather_cases()))
def test_gather_segment_sum_is_bitwise_take_rows_then_segment_sum(idx, seg, buckets):
    draw = np.random.default_rng(idx.size)
    a = tg.Tensor(draw.normal(size=(40, 16)) * 10.0 ** draw.integers(-6, 6, size=(40, 16)),
                  grad_enabled=True)
    weight = tg.Tensor(draw.normal(size=(buckets, 16)))
    results = []
    for build in (lambda: tg.gather_segment_sum(a, idx, seg, buckets),
                  lambda: tg.segment_sum(tg.take_rows(a, idx), seg, buckets)):
        a.grad = None
        with tg.Tape() as tape:
            out = build()
            loss = tg.tensor_sum(tg.mul(out, weight))
        tg.backward(loss, tape)
        results.append((out.data, a.grad, len(tape)))
    (fused, fused_grad, fused_nodes), (pair, pair_grad, pair_nodes) = results
    assert np.array_equal(fused, pair)
    assert np.array_equal(fused_grad, pair_grad)
    assert fused_nodes == pair_nodes - 1


def test_gather_segment_sum_checks_indices():
    a = tg.Tensor(np.zeros((3, 2)))
    with pytest.raises(IndexError):
        tg.gather_segment_sum(a, [3], [0], 2)
    with pytest.raises(IndexError):
        tg.gather_segment_sum(a, [0], [2], 2)
    with pytest.raises(ShapeError):
        tg.gather_segment_sum(a, [0, 1], [0], 2)


def test_add_tiled_and_take_strided_check_their_arguments():
    a = tg.Tensor(np.zeros((6, 2)))
    table = tg.Tensor(np.zeros((4, 2)))
    for period in (0, 4, 5):  # empty, 6 rows not whole tiles, past the table
        with pytest.raises(ShapeError):
            tg.add_tiled(a, table, period)
    with pytest.raises(ShapeError):
        tg.add_tiled(a, tg.Tensor(np.zeros((4, 3))), 3)
    for step in (0, -1):
        with pytest.raises(ContractError):
            tg.take_strided(a, step)


def test_take_prefix_is_bitwise_take_rows_of_arange():
    draw = np.random.default_rng(9)
    a = tg.Tensor(draw.normal(size=(12, 5)) * 10.0 ** draw.integers(-6, 6, size=(12, 5)),
                  grad_enabled=True)
    for n in (0, 7, 12):
        weight = tg.Tensor(draw.normal(size=(n, 5)))
        results = []
        for build in (lambda: tg.take_prefix(a, n), lambda: tg.take_rows(a, np.arange(n))):
            a.grad = None
            with tg.Tape() as tape:
                out = build()
                loss = tg.tensor_sum(tg.mul(out, weight))
            tg.backward(loss, tape)
            results.append((out.data, a.grad, len(tape)))
        (prefix, prefix_grad, prefix_nodes), (rows, rows_grad, rows_nodes) = results
        assert np.array_equal(prefix, rows)
        assert np.array_equal(prefix_grad, rows_grad)
        assert prefix_nodes == rows_nodes
    with pytest.raises(IndexError):
        tg.take_prefix(a, 13)


def test_row_slices_are_bitwise_take_rows_under_negative_zero_gradients():
    """take_prefix and take_strided against take_rows with an upstream
    gradient of -0.0, everywhere and then in every other row: take_rows's
    scatter into zeros turns each -0.0 into 0.0, and so must theirs."""
    draw = np.random.default_rng(21)
    a = draw.normal(size=(9, 3))
    cases = [(lambda t, n=n: tg.take_prefix(t, n), np.arange(n)) for n in (0, 4, 9)]
    cases += [(lambda t, s=s: tg.take_strided(t, s), np.arange(0, 9, s))
              for s in (1, 2, 4, 10)]
    for build, rows in cases:
        mixed = draw.normal(size=(rows.size, 3))
        mixed[::2] = -0.0
        for g in (np.full((rows.size, 3), -0.0), mixed):
            runs = [_taped(fn, [tg.Tensor(a, grad_enabled=True)], g)
                    for fn in (build, lambda t: tg.take_rows(t, rows))]
            (out, (node_grad,), (grad,)), (ref_out, (ref_node_grad,), (ref_grad,)) = runs
            assert _same_bytes(out, ref_out)
            assert _same_bytes(node_grad, ref_node_grad)
            assert _same_bytes(grad, ref_grad)


def test_concat_reshape_transpose_round_trip(rng):
    x = rng.normal(size=(2, 3))
    t = tg.Tensor(x)
    back = tg.transpose(tg.transpose(t, (1, 0)), (1, 0))
    np.testing.assert_array_equal(back.data, x)
    np.testing.assert_array_equal(tg.reshape(tg.reshape(t, (6,)), (2, 3)).data, x)
    both = tg.concat([t, t], axis=0)
    assert both.shape == (4, 3)


def _taped(build, operands, g):
    """Forward value, the recorded node's per-operand gradients for upstream g,
    and every operand's .grad after backward of sum(out * g)."""
    with tg.Tape() as tape:
        out = build(*operands)
        node_grads = tape.nodes[-1].backward_fn(g) if len(tape) else None
        loss = tg.tensor_sum(tg.mul(out, tg.Tensor(g)))
    if len(tape):
        tg.backward(loss, tape)
    return out.data, node_grads, [t.grad for t in operands]


def _same_bytes(a, b):
    return (a is None and b is None) or (
        a is not None and b is not None and a.dtype == b.dtype
        and a.shape == b.shape and a.tobytes() == b.tobytes())


def test_linear_is_bitwise_add_of_matmul_for_every_operand_mix():
    draw = np.random.default_rng(12)
    x = draw.normal(size=(7, 5)) * 10.0 ** draw.integers(-6, 6, size=(7, 5))
    w = draw.normal(size=(5, 3))
    b = draw.normal(size=3)
    g = draw.normal(size=(7, 3))
    g[::2] = -0.0
    for wants in itertools.product((False, True), repeat=3):
        runs = []
        for build in (tg.linear, lambda x, w, b: tg.add(tg.matmul(x, w), b)):
            operands = [tg.Tensor(v, grad_enabled=want) for v, want in zip((x, w, b), wants)]
            runs.append(_taped(build, operands, g))
        (out, node_grads, grads), (ref_out, _, ref_grads) = runs
        assert _same_bytes(out, ref_out), wants
        for want, grad, ref in zip(wants, grads, ref_grads):
            assert _same_bytes(grad, ref), wants
            assert (grad is not None) == want
        if any(wants):
            # a constant operand's gradient is never computed
            for want, node_grad, v in zip(wants, node_grads, (x, w, b)):
                assert (node_grad is None) if not want else node_grad.shape == v.shape
        else:
            assert node_grads is None
    with pytest.raises(ShapeError):
        tg.linear(tg.Tensor(x), tg.Tensor(w), tg.Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        tg.linear(tg.Tensor(x), tg.Tensor(w.T), tg.Tensor(b))


def _special_values(n, offset, seed):
    """n values drawn from +-0, +-NaN, +-inf, +-subnormal and +-1, as a view
    starting offset elements into its buffer (so numpy's vector loops meet
    every alignment and leave a scalar tail)."""
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                         5e-324, -5e-324, 1.0, -1.0])
    buf = np.resize(specials, n + offset)
    np.random.default_rng(seed).shuffle(buf)
    return buf[offset:]


def test_relu_is_bitwise_where_over_special_values():
    """relu(a) == np.where(a > 0, a, 0.0) byte for byte: -0.0 and NaN map to
    0.0, whichever of numpy's loops handles the element.  Its backward is
    g * (a > 0)."""
    for n in range(1, 301):
        for offset in range(3):
            a = _special_values(n, offset, seed=n)
            g = _special_values(n, 2 - offset, seed=n + 1000)
            x = tg.Tensor(a, grad_enabled=True)
            with tg.Tape() as tape:
                out = tg.relu(x)
            assert out.data.tobytes() == np.where(a > 0, a, 0.0).tobytes(), (n, offset)
            with np.errstate(invalid="ignore"):  # inf * False
                (grad,) = tape.nodes[-1].backward_fn(g)
                assert grad.tobytes() == (g * (a > 0.0)).tobytes(), (n, offset)


def _layer_norm_reference(a, gain, bias, g, eps=1e-5):
    """layer_norm's forward and backward written with a fresh array per step."""
    mu = a.mean(axis=-1, keepdims=True)
    xc = a - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    gx_hat = g * gain
    term = gx_hat - gx_hat.mean(axis=-1, keepdims=True) \
        - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
    axes = tuple(range(a.ndim - 1))
    return out, [inv * term, (g * xhat).sum(axis=axes), g.sum(axis=axes)]


def _softmax_reference(a, g, axis=-1):
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y, [y * (g - dot)]


def test_layer_norm_and_softmax_are_bitwise_their_reference_formulas():
    draw = np.random.default_rng(13)
    for shape in ((1, 1), (5, 16), (3, 7, 64), (2, 4, 9, 33)):
        a = draw.normal(size=shape) * 10.0 ** draw.integers(-4, 4, size=shape)
        g = draw.normal(size=shape)
        g[..., ::5] = -0.0
        gain, bias = draw.normal(size=shape[-1]), draw.normal(size=shape[-1])
        operands = [tg.Tensor(v, grad_enabled=True) for v in (a, gain, bias)]
        out, _, grads = _taped(tg.layer_norm, operands, g)
        ref_out, ref_grads = _layer_norm_reference(a, gain, bias, g)
        assert _same_bytes(out, ref_out), shape
        for grad, ref in zip(grads, ref_grads):
            assert _same_bytes(grad, ref), shape
        masked = a.copy()
        masked[..., shape[-1] // 2 + 1:] += -1e30  # the encoder's padding mask
        for logits in (a, masked):
            out, _, grads = _taped(tg.softmax, [tg.Tensor(logits, grad_enabled=True)], g)
            ref_out, ref_grads = _softmax_reference(logits, g)
            assert _same_bytes(out, ref_out), shape
            assert _same_bytes(grads[0], ref_grads[0]), shape


# ------------------------------------------------------- backward contracts


def test_backward_accumulates_and_reuses_inputs():
    x = tg.Tensor([3.0], grad_enabled=True)
    with tg.Tape() as tape:
        loss = tg.tensor_sum(tg.mul(x, x))
    tg.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [6.0])
    tg.backward(loss, tape)  # second call adds on top
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_rejects_non_scalar_and_off_tape():
    x = tg.Tensor([1.0, 2.0], grad_enabled=True)
    with tg.Tape() as tape:
        y = tg.mul(x, x)
    with pytest.raises(ContractError):
        tg.backward(y, tape)
    with tg.Tape() as other:
        z = tg.tensor_sum(x)
        del z
    with tg.Tape() as tape2:
        loss = tg.tensor_sum(x)
    del tape2
    with pytest.raises(ContractError):
        tg.backward(loss, other)


def test_no_grad_blocks_recording():
    x = tg.Tensor([1.0], grad_enabled=True)
    with tg.Tape() as tape:
        with tg.no_grad():
            y = tg.mul(x, x)
        assert len(tape) == 0
        loss = tg.tensor_sum(tg.add(y, x))
    tg.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [1.0])  # only the add path sees x


def test_constants_are_not_recorded():
    a = tg.Tensor([1.0])
    b = tg.Tensor([2.0])
    with tg.Tape() as tape:
        tg.add(a, b)
        assert len(tape) == 0


def test_binary_ops_skip_gradients_of_constant_operands():
    draw = np.random.default_rng(10)
    const = tg.Tensor(draw.normal(size=(3, 3)))
    leaf = tg.Tensor(draw.normal(size=(3, 3)), grad_enabled=True)
    g = draw.normal(size=(3, 3))
    for op in (tg.add, tg.mul, tg.matmul):
        with tg.Tape() as tape:
            for live in (leaf, tg.neg(leaf)):  # a leaf, then a taped output
                for operands in ((live, const), (const, live)):
                    op(*operands)
                    grads = tape.nodes[-1].backward_fn(g)
                    for operand, grad in zip(operands, grads):
                        if operand is const:
                            assert grad is None
                        else:
                            assert grad.shape == (3, 3)


def test_constant_operands_leave_leaf_grads_bitwise_unchanged():
    draw = np.random.default_rng(11)
    w = tg.Tensor(draw.normal(size=(4, 3)), grad_enabled=True)
    b = tg.Tensor(draw.normal(size=(3,)), grad_enabled=True)
    x = draw.normal(size=(5, 4))
    mask = draw.normal(size=(5, 3))
    grads = []
    for grad_enabled in (False, True):
        w.grad = b.grad = None
        xt, mt = tg.Tensor(x, grad_enabled), tg.Tensor(mask, grad_enabled)
        with tg.Tape() as tape:
            h = tg.add(tg.matmul(xt, w), b)
            h = tg.add(tg.mul(h, mt), tg.neg(mt))
            loss = tg.tensor_sum(tg.mul(tg.mul(h, h), tg.Tensor(0.5)))
        tg.backward(loss, tape)
        grads.append((w.grad, b.grad))
        assert (xt.grad is not None) == grad_enabled
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


# ------------------------------------------------- finite-difference suite


def test_grad_add_sub_mul_neg_broadcast():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shape_a = tuple(rng.integers(1, 5, size=2))
        shape_b = (1, shape_a[1]) if seed % 2 else shape_a
        a = _param(rng, *shape_a)
        b = _param(rng, *shape_b)

        def build():
            out = tg.add(tg.add(tg.mul(a, b), tg.neg(b)), tg.neg(a))
            return _project(out, np.random.default_rng(seed + 100))

        assert_grads_match(build, {"a": a, "b": b})


def test_grad_matmul():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, k, m = rng.integers(1, 5, size=3)
        a = _param(rng, n, k)
        b = _param(rng, k, m)

        def build():
            return _project(tg.matmul(a, b), np.random.default_rng(seed + 100))

        assert_grads_match(build, {"a": a, "b": b})


def test_grad_linear():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, k, m = rng.integers(1, 5, size=3)
        x = _param(rng, n, k)
        w = _param(rng, k, m)
        b = _param(rng, m)

        def build():
            return _project(tg.linear(x, w, b), np.random.default_rng(seed + 100))

        assert_grads_match(build, {"x": x, "w": w, "b": b})


def test_grad_matmul_batched():
    rng = np.random.default_rng(7)
    a = _param(rng, 2, 3, 4)
    b = _param(rng, 2, 4, 2)

    def build():
        return _project(tg.matmul(a, b), np.random.default_rng(1))

    assert_grads_match(build, {"a": a, "b": b})


def test_grad_relu_softplus():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 6, size=2))
        # keep relu inputs away from the kink for clean differences
        raw = rng.uniform(0.05, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        x = tg.Tensor(raw, grad_enabled=True)

        def build():
            return _project(tg.add(tg.relu(x), tg.softplus(x)),
                            np.random.default_rng(seed + 100))

        assert_grads_match(build, {"x": x})


def test_grad_softmax():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = _param(rng, int(rng.integers(1, 5)), int(rng.integers(2, 6)))

        def build():
            return _project(tg.softmax(x), np.random.default_rng(seed + 100))

        assert_grads_match(build, {"x": x})


def test_grad_sum_mean_axes():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = _param(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        axis = int(rng.integers(0, 2))

        def build():
            parts = tg.add(
                _project(tg.tensor_sum(x, axis=axis), np.random.default_rng(seed + 100)),
                _project(tg.tensor_mean(x, axis=1 - axis, keepdims=True),
                         np.random.default_rng(seed + 200)),
            )
            return tg.add(parts, tg.tensor_mean(x))

        assert_grads_match(build, {"x": x})


def test_grad_layer_norm():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b, f = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        x = _param(rng, b, f)
        gain = _param(rng, f)
        bias = _param(rng, f)

        def build():
            return _project(tg.layer_norm(x, gain, bias), np.random.default_rng(seed + 100))

        assert_grads_match(build, {"x": x, "gain": gain, "bias": bias}, rtol=2e-3)


def test_grad_cross_entropy():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        x = _param(rng, n, c)
        labels = rng.integers(0, c, size=n)

        def build():
            return tg.softmax_cross_entropy(x, labels)

        assert_grads_match(build, {"x": x})


def test_grad_take_rows_segment_sum():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        w = _param(rng, n, f)
        idx = rng.integers(0, n, size=int(rng.integers(1, 7)))
        seg = rng.integers(0, 3, size=len(idx))

        def build():
            rows = tg.take_rows(w, idx)
            pooled = tg.segment_sum(rows, seg, 3)
            return _project(pooled, np.random.default_rng(seed + 100))

        assert_grads_match(build, {"w": w})


def test_grad_gather_segment_sum():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, f = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        w = _param(rng, n, f)
        idx = rng.integers(0, n, size=int(rng.integers(1, 9)))
        seg = rng.integers(0, 3, size=len(idx))

        def build():
            pooled = tg.gather_segment_sum(w, idx, seg, 3)
            return _project(pooled, np.random.default_rng(seed + 100))

        assert_grads_match(build, {"w": w})


def test_grad_concat_reshape_transpose():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = _param(rng, 2, 3)
        b = _param(rng, 1, 3)

        def build():
            cat = tg.concat([a, b], axis=0)
            flipped = tg.transpose(cat, (1, 0))
            flat = tg.reshape(flipped, (9,))
            return _project(flat, np.random.default_rng(seed + 100))

        assert_grads_match(build, {"a": a, "b": b})


def test_grad_composite_mlp():
    # one end-to-end shape: affine -> relu -> affine -> CE
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = tg.Tensor(rng.normal(size=(4, 5)))
        w1 = _param(rng, 5, 6)
        b1 = _param(rng, 6)
        w2 = _param(rng, 6, 3)
        labels = rng.integers(0, 3, size=4)

        def build():
            h = tg.relu(tg.add(tg.matmul(x, w1), b1))
            return tg.softmax_cross_entropy(tg.matmul(h, w2), labels)

        assert_grads_match(build, {"w1": w1, "b1": b1, "w2": w2})


# ---------------------------------------------------------------- optimizer


def test_adam_first_step_magnitude():
    p = tg.Tensor(np.zeros(4), grad_enabled=True)
    p.grad = np.array([1.0, -2.0, 0.5, 10.0])
    tg.Adam({"p": p}, learning_rate=1e-2).step()
    np.testing.assert_allclose(np.abs(p.data), 1e-2, rtol=1e-6)
    assert (np.sign(p.data) == [-1, 1, -1, -1]).all()


def test_adam_zero_grad_and_missing_key_leave_params():
    p = tg.Tensor([1.5, -0.5], grad_enabled=True)
    q = tg.Tensor([2.0], grad_enabled=True)
    before_p, before_q = p.data.copy(), q.data.copy()
    p.grad = np.zeros(2)
    opt = tg.Adam({"p": p, "q": q}, learning_rate=0.1)
    opt.step()
    assert p.data.tobytes() == before_p.tobytes()
    assert q.data.tobytes() == before_q.tobytes()
    assert opt.steps == 1


def test_adam_shape_mismatch():
    p = tg.Tensor([1.0], grad_enabled=True)
    p.grad = np.zeros(3)
    with pytest.raises(ShapeError):
        tg.Adam({"p": p}, 1e-3).step()


def test_adam_decreases_quadratic():
    target = np.array([3.0, -1.0])
    p = tg.Tensor(np.zeros(2), grad_enabled=True)
    opt = tg.Adam({"p": p}, learning_rate=0.05)
    for _ in range(400):
        with tg.Tape() as tape:
            diff = tg.add(p, tg.neg(tg.Tensor(target)))
            loss = tg.tensor_sum(tg.mul(diff, diff))
        tg.backward(loss, tape)
        opt.step()
        opt.zero_grad()
    np.testing.assert_allclose(p.data, target, atol=1e-2)


def test_training_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        w = tg.Tensor(rng.normal(size=(3, 3)), grad_enabled=True)
        x = tg.Tensor(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=5)
        opt = tg.Adam({"w": w}, learning_rate=1e-3)
        for _ in range(20):
            with tg.Tape() as tape:
                loss = tg.softmax_cross_entropy(tg.matmul(x, w), labels)
            tg.backward(loss, tape)
            opt.step()
            opt.zero_grad()
        return w.data.tobytes()

    assert run() == run()


def test_finished_tape_is_freed_without_cyclic_gc():
    import gc
    import weakref
    w = tg.Tensor(np.ones((3, 2)), grad_enabled=True)
    x = tg.Tensor(np.arange(6.0).reshape(2, 3))
    gc.disable()
    try:
        with tg.Tape() as tape:
            loss = tg.tensor_sum(tg.relu(tg.matmul(x, w)))
        tg.backward(loss, tape)
        ref = weakref.ref(tape)
        del tape
        # the output still knows it came off a tape, but does not keep it
        assert loss._src_tape is not None
        assert ref() is None
    finally:
        gc.enable()
