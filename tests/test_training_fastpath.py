"""Tests for the allocation-free training fast path.

The buffer arena must be an invisible optimisation: every History value,
every parameter, every functional primitive must be bit-identical with
and without it.
"""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    BufferArena,
    Trainer,
    evaluate,
    evaluate_accuracy,
)
from repro.nn import functional as F
from repro.nn.binary_ops import sign, ste_grad
from repro.testing import make_tiny_bnn


def _tiny_data(n=64, hw=8, classes=4, seed=11):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, hw, hw, 3)).astype(np.float32)
    y = gen.integers(0, classes, size=n).astype(np.int64)
    return x, y


def _fit(use_arena, epochs=2):
    model = make_tiny_bnn(seed=3)
    x, y = _tiny_data(64)
    xv, yv = _tiny_data(24, seed=12)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=0.01), use_arena=use_arena
    )
    history = trainer.fit(
        x, y, x_val=xv, y_val=yv, epochs=epochs, batch_size=16,
        rng=np.random.default_rng(5), verbose=False,
    )
    params = [p.data.copy() for p in model.parameters()]
    return history, params


class TestArenaBitIdentity:
    def test_history_and_params_identical(self):
        h_arena, p_arena = _fit(use_arena=True)
        h_plain, p_plain = _fit(use_arena=False)
        assert h_arena.train_loss == h_plain.train_loss
        assert h_arena.train_accuracy == h_plain.train_accuracy
        assert h_arena.val_loss == h_plain.val_loss
        assert h_arena.val_accuracy == h_plain.val_accuracy
        for a, b in zip(p_arena, p_plain):
            np.testing.assert_array_equal(a, b)

    def test_arena_cleared_after_fit(self):
        model = make_tiny_bnn(seed=3)
        x, y = _tiny_data(32)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
        trainer.fit(x, y, epochs=1, batch_size=16,
                    rng=np.random.default_rng(5), verbose=False)
        assert model._arena is None
        assert len(trainer.arena) > 0  # it was actually used

    def test_eval_mode_never_uses_arena(self):
        model = make_tiny_bnn(seed=3)
        arena = BufferArena()
        model.set_arena(arena)
        model.eval()
        x, _ = _tiny_data(8)
        model.forward(x)
        assert len(arena) == 0


class TestBufferArena:
    def test_same_key_reuses_buffer(self):
        arena = BufferArena()
        owner = object()
        a = arena.get(owner, "out", (4, 3))
        b = arena.get(owner, "out", (4, 3))
        assert a is b
        assert len(arena) == 1

    def test_distinct_keys_get_distinct_buffers(self):
        arena = BufferArena()
        owner, other = object(), object()
        a = arena.get(owner, "out", (4, 3))
        assert arena.get(owner, "cols", (4, 3)) is not a
        assert arena.get(other, "out", (4, 3)) is not a
        assert arena.get(owner, "out", (4, 4)) is not a
        assert len(arena) == 4
        assert arena.nbytes == 4 * (4 * 3 + 4 * 3 + 4 * 3 + 4 * 4)

    def test_clear(self):
        arena = BufferArena()
        arena.get(object(), "out", (2, 2))
        arena.clear()
        assert len(arena) == 0


class TestFusedEvaluate:
    def test_matches_separate_helpers(self):
        model = make_tiny_bnn(seed=3)
        x, y = _tiny_data(40)
        loss, acc = evaluate(model, x, y, batch_size=16)
        assert acc == evaluate_accuracy(model, x, y, batch_size=16)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
        assert (loss, acc) == trainer.evaluate(x, y, batch_size=16)
        assert loss == trainer._eval_loss(x, y, batch_size=16)

    def test_batch_size_invariant(self):
        model = make_tiny_bnn(seed=3)
        x, y = _tiny_data(40)
        loss_a, acc_a = evaluate(model, x, y, batch_size=40)
        loss_b, acc_b = evaluate(model, x, y, batch_size=7)
        # Accuracy is an integer count — exact; the loss accumulates in a
        # different order across chunkings, so only float-tolerance equal.
        assert acc_a == acc_b
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_restores_training_mode(self):
        model = make_tiny_bnn(seed=3)
        model.train()
        x, y = _tiny_data(8)
        evaluate(model, x, y)
        assert model.training


class TestFunctionalOutParams:
    def test_im2col_out_matches(self):
        gen = np.random.default_rng(0)
        x = gen.normal(size=(2, 8, 8, 3)).astype(np.float32)
        ref = F.im2col(x, (3, 3), (1, 1), (1, 1))
        out = np.empty_like(ref)
        assert F.im2col(x, (3, 3), (1, 1), (1, 1), out=out) is out
        np.testing.assert_array_equal(ref, out)

    def test_im2col_rejects_bad_out(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            F.im2col(x, (3, 3), out=np.empty((1, 2, 2, 17), dtype=np.float32))

    def test_col2im_scratch_matches(self):
        gen = np.random.default_rng(1)
        cols = gen.normal(size=(2, 8, 8, 27)).astype(np.float32)
        shape = (2, 8, 8, 3)
        ref = F.col2im(cols, shape, (3, 3), (1, 1), (1, 1))
        scratch = np.empty((2, 10, 10, 3), dtype=np.float32)
        got = F.col2im(cols, shape, (3, 3), (1, 1), (1, 1), scratch=scratch)
        np.testing.assert_array_equal(ref, got)

    def test_pool_unpool_out_matches(self):
        gen = np.random.default_rng(2)
        x = gen.normal(size=(2, 4, 4, 3)).astype(np.float32)
        ref_w = F.pool_windows(x, (2, 2), (2, 2))
        out_w = np.empty_like(ref_w)
        F.pool_windows(x, (2, 2), (2, 2), out=out_w)
        np.testing.assert_array_equal(ref_w, out_w)
        grads = gen.normal(size=ref_w.shape).astype(np.float32)
        ref_u = F.unpool_windows(grads, x.shape, (2, 2), (2, 2))
        out_u = np.empty_like(ref_u)
        F.unpool_windows(grads, x.shape, (2, 2), (2, 2), out=out_u)
        np.testing.assert_array_equal(ref_u, out_u)


class TestBinaryOpsOutParams:
    def test_sign_out_matches_and_handles_signed_zero(self):
        x = np.array([-2.0, -0.0, 0.0, 1.5, -1e-30], dtype=np.float32)
        ref = sign(x)
        out = np.empty_like(x)
        assert sign(x, out=out) is out
        np.testing.assert_array_equal(ref, out)
        np.testing.assert_array_equal(
            out, np.array([-1.0, 1.0, 1.0, 1.0, -1.0], dtype=np.float32)
        )

    def test_sign_rejects_bad_out(self):
        with pytest.raises(ValueError):
            sign(np.zeros(3, dtype=np.float32), out=np.zeros(4, dtype=np.float32))
        with pytest.raises(ValueError):
            sign(np.zeros(3, dtype=np.float32), out=np.zeros(3, dtype=np.float64))

    @pytest.mark.parametrize("variant", ["identity", "clipped"])
    def test_ste_grad_out_matches(self, variant):
        gen = np.random.default_rng(3)
        g = gen.normal(size=(5, 7)).astype(np.float32)
        pre = gen.normal(size=(5, 7)).astype(np.float32) * 2.0
        ref = ste_grad(g, pre, variant)
        out = np.empty_like(g)
        assert ste_grad(g, pre, variant, out=out) is out
        np.testing.assert_array_equal(ref, out)

