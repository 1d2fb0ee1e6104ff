"""Cross-engine bit-exactness contract.

Every registered engine must reproduce the interpreted reference
datapath exactly — logits for every Table I prototype under both input
dtypes and at batch sizes that straddle the planned engine's piece
boundaries, and ``return_bits`` traces. This is the contract the
capability flag ``bit_exact`` declares; a new engine registered without
passing this file is a registry bug. Every engine also shares one
input contract: NaN and ±inf pixels raise ``ValueError``.

The process engine rides in the ``parallel`` marker (CI runs it in the
dedicated multi-core job); the in-process engines run in tier 1.
"""

import numpy as np
import pytest

from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import compile_model
from repro.runtime import ExecutionConfig, create_engine, engine_names
from repro.testing import randomize_bn_stats

PROTOTYPES = ("cnv", "n-cnv", "u-cnv")

#: Configs that resolve each registered engine, with enough workers /
#: buckets for the toy batches below. Kept in sync with the registry by
#: ``test_every_registered_engine_is_covered``.
ENGINE_CONFIGS = {
    "interpreted": ExecutionConfig(engine="interpreted"),
    "planned-blas": ExecutionConfig(engine="planned-blas"),
    "process": ExecutionConfig(
        isolation="process", workers=1, bucket_sizes=(4,), max_batch=4
    ),
}
IN_PROCESS = tuple(n for n in ENGINE_CONFIGS if n != "process")

#: Batch sizes around the planned engine's pieces (powers of two up to
#: ``max_batch=32``): one piece, several small ones, exactly one full
#: piece, a full piece plus one image, and more than two full pieces.
SPLIT_SIZES = (1, 3, 7, 32, 33, 70)


def build_accelerator(name: str):
    model = build_architecture(name, rng=0)
    randomize_bn_stats(model)
    model.eval()
    return compile_model(model, table1_folding(name), name=name)


@pytest.fixture(scope="module")
def accelerators():
    return {name: build_accelerator(name) for name in PROTOTYPES}


def seed_batch(dtype, n=4):
    rng = np.random.default_rng(1234)
    images = rng.random((n, 32, 32, 3)).astype(np.float32)
    if dtype == "uint8":
        return (images * 255).astype(np.uint8)
    return images


def reference_logits(accelerator, images, return_bits=False):
    engine = create_engine(accelerator, ENGINE_CONFIGS["interpreted"])
    return engine.run(images, return_bits=return_bits)


def test_every_registered_engine_is_covered():
    assert set(engine_names()) == set(ENGINE_CONFIGS)


@pytest.mark.parametrize("dtype", ["f32", "uint8"])
@pytest.mark.parametrize("engine_name", IN_PROCESS)
@pytest.mark.parametrize("arch", PROTOTYPES)
def test_engine_matches_interpreted_logits(accelerators, arch, engine_name, dtype):
    acc = accelerators[arch]
    images = seed_batch(dtype, n=max(SPLIT_SIZES))
    # The reference is row-wise, so the full batch's logits hold every
    # smaller batch's as a prefix.
    golden = reference_logits(acc, images)
    engine = create_engine(acc, ENGINE_CONFIGS[engine_name])
    assert engine.name == engine_name
    for n in SPLIT_SIZES:
        np.testing.assert_array_equal(
            engine.run(images[:n]), golden[:n], err_msg=f"batch {n}"
        )


@pytest.mark.parametrize("engine_name", ["planned-blas"])
@pytest.mark.parametrize("arch", PROTOTYPES)
def test_planned_return_bits_match_interpreted(accelerators, arch, engine_name):
    acc = accelerators[arch]
    engine = create_engine(acc, ENGINE_CONFIGS[engine_name])
    # 7 = 4+2+1 and 33 = 32+1: traces are concatenated across pieces.
    for n in (7, 33):
        images = seed_batch("f32", n=n)
        golden_logits, golden_bits = reference_logits(
            acc, images, return_bits=True
        )
        logits, bits = engine.run(images, return_bits=True)
        np.testing.assert_array_equal(logits, golden_logits)
        assert len(bits) == len(golden_bits)
        for got, ref in zip(bits, golden_bits):
            np.testing.assert_array_equal(got, ref, err_msg=f"batch {n}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("engine_name", [
    pytest.param(name, marks=pytest.mark.parallel) if name == "process"
    else name
    for name in ENGINE_CONFIGS
])
def test_engine_rejects_non_finite_pixels(accelerators, engine_name, bad):
    acc = accelerators["u-cnv"]
    images = seed_batch("f32")
    images[1, 3, 5, 0] = bad
    engine = acc.engine_for(ENGINE_CONFIGS[engine_name])
    try:
        with pytest.raises(ValueError, match="finite"):
            engine.run(images)
    finally:
        acc.close_pool()


@pytest.mark.parallel
@pytest.mark.parametrize("arch", PROTOTYPES)
def test_process_engine_matches_interpreted(arch):
    acc = build_accelerator(arch)
    engine = create_engine(acc, ENGINE_CONFIGS["process"])
    try:
        for dtype in ("f32", "uint8"):
            images = seed_batch(dtype)
            golden = reference_logits(acc, images)
            np.testing.assert_array_equal(engine.run(images), golden)
        images = seed_batch("f32")
        golden_logits, golden_bits = reference_logits(
            acc, images, return_bits=True
        )
        logits, bits = engine.run(images, return_bits=True)
        np.testing.assert_array_equal(logits, golden_logits)
        assert len(bits) == len(golden_bits)
        for got, ref in zip(bits, golden_bits):
            np.testing.assert_array_equal(got, ref)
    finally:
        engine.close()
        acc.close_pool()
