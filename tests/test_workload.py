"""Cost-model tests: frozen values, linearity, monotonicity."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from edgetrainsim.workload import (MODEL_PRESETS, TrainingJob, TransformerSpec,
                                   activation_bytes_per_block, default_edge_job,
                                   flops_per_iteration, full_replication_memory,
                                   model_preset, param_count, state_bytes)

FP32_JOB = TrainingJob(global_batch=128, seq_len=32, micro_batch=128)

# Hand-evaluated 12*L*h^2 + V*h for each preset.
EXPECTED_PARAMS = {
    "distilbert": 65_908_224,
    "gpt2-s": 123_532_032,
    "opt-350m": 353_468_416,
    "gpt2-l": 772_117_760,
}


def small_spec(l=2, h=64, a=4, v=100, r=4):
    return TransformerSpec("toy", num_blocks=l, hidden_size=h, num_heads=a,
                           vocab_size=v, mlp_ratio=r)


@given(l=st.integers(0, 96), a=st.integers(1, 64), head_dim=st.integers(1, 256),
       v=st.integers(1, 300_000), micro=st.integers(1, 64),
       count=st.integers(1, 64), s=st.integers(1, 4096),
       factor=st.floats(1e-3, 16.0))
def test_ratio_4_costs_equal_the_literal_expressions(l, a, head_dim, v, micro,
                                                     count, s, factor):
    """At mlp_ratio 4 the three costs are the 12*L*h^2 / 34 forms, bit for
    bit, so no preset's numbers move."""
    h = a * head_dim
    b, m = micro * count, micro
    spec = TransformerSpec("r4", l, h, a, v)
    job = TrainingJob(b, s, m, activation_bytes_factor=factor)
    assert param_count(spec) == 12 * l * h * h + v * h
    assert flops_per_iteration(spec, job) == (
        6.0 * b * s * (12.0 * l * h * h) + 12.0 * l * b * s * s * h
        + 6.0 * b * s * h * v)
    assert activation_bytes_per_block(spec, job) == (
        factor * (s * m * h * (34.0 + 5.0 * a * s / h)))


@pytest.mark.parametrize("r", [1, 2, 3, 8])
class TestMlpRatio:
    """Every cost reads the MLP width: (4 + 2r)*h^2 weights per block and
    18 + 4r activation bytes per element before attention's 5*a*s/h."""

    def test_params(self, r):
        spec = small_spec(l=3, h=128, a=4, v=1000, r=r)
        assert param_count(spec) == (4 + 2 * r) * 3 * 128 * 128 + 1000 * 128

    def test_flops_block_term(self, r):
        # Only the block term reads r, so two ratios differ by it alone.
        spec, job = small_spec(l=3, h=128, r=r), TrainingJob(16, 32, 4)
        block = (flops_per_iteration(spec, job)
                 - flops_per_iteration(replace(spec, num_blocks=0), job)
                 - 12 * 3 * 16 * 32 * 32 * 128)
        assert block == 6 * 16 * 32 * (4 + 2 * r) * 3 * 128 * 128

    def test_activation_bytes(self, r):
        spec = small_spec(h=128, a=4, r=r)
        job = TrainingJob(16, 32, 4, activation_bytes_factor=1.5)
        assert activation_bytes_per_block(spec, job) == (
            1.5 * 32 * 4 * 128 * (18 + 4 * r + 5 * 4 * 32 / 128))


class TestParamCount:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED_PARAMS.items()))
    def test_preset_values(self, name, expected):
        assert param_count(model_preset(name)) == expected

    def test_embedding_only_degenerate(self):
        spec = TransformerSpec("tiny", num_blocks=0, hidden_size=1,
                               num_heads=1, vocab_size=1)
        assert param_count(spec) == 1

    def test_formula_by_direct_arithmetic(self):
        spec = small_spec(l=3, h=128, a=4, v=1000)
        assert param_count(spec) == 12 * 3 * 128 * 128 + 1000 * 128


class TestFlops:
    def test_gpt2s_frozen_value(self):
        # 6*128*32*(12*12*768^2) + 12*12*128*32^2*768 + 6*128*32*768*50257
        expected = (6 * 128 * 32 * (12 * 12 * 768 * 768)
                    + 12 * 12 * 128 * 32 * 32 * 768
                    + 6 * 128 * 32 * 768 * 50257)
        assert expected == 3_050_418_733_056
        got = flops_per_iteration(model_preset("gpt2-s"), FP32_JOB)
        assert got == pytest.approx(expected, rel=0)

    def test_linear_in_batch(self):
        spec = model_preset("gpt2-s")
        base = flops_per_iteration(spec, TrainingJob(64, 32, 8))
        doubled = flops_per_iteration(spec, TrainingJob(128, 32, 8))
        assert doubled == pytest.approx(2 * base, rel=0)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_linear_scaling_property(self, b, factor):
        spec = small_spec()
        f1 = flops_per_iteration(spec, TrainingJob(b, 16, 1))
        f2 = flops_per_iteration(spec, TrainingJob(b * factor, 16, 1))
        assert f2 == pytest.approx(factor * f1, rel=1e-12)


class TestActivations:
    def test_gpt2s_frozen_value(self):
        # 2 * 32*128*768*(34 + 5*12*32/768) = 229,638,144 bytes
        got = activation_bytes_per_block(model_preset("gpt2-s"), FP32_JOB)
        assert got == pytest.approx(229_638_144.0, rel=0)

    @given(st.integers(1, 64))
    def test_linear_in_microbatch(self, m):
        spec = small_spec()
        a1 = activation_bytes_per_block(spec, TrainingJob(2 * m, 32, m))
        a2 = activation_bytes_per_block(spec, TrainingJob(2 * m, 32, 2 * m))
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_factor_scales_bytes(self):
        spec = small_spec()
        half = TrainingJob(8, 16, 8, activation_bytes_factor=1.0)
        full = TrainingJob(8, 16, 8, activation_bytes_factor=2.0)
        assert (activation_bytes_per_block(spec, full)
                == 2 * activation_bytes_per_block(spec, half))


class TestMemory:
    def test_state_bytes_identity(self):
        spec = model_preset("gpt2-l")
        job = FP32_JOB
        assert state_bytes(spec, job) == param_count(spec) * 16
        # 772M params * 16 B ~ 12.35 GB, larger than any 4 GB board.
        assert state_bytes(spec, job) > 12e9

    def test_full_replication_frozen_value(self):
        # GPT2-S at B=m=128, fp32 defaults: ~1.98 GB state + ~2.76 GB acts.
        got = full_replication_memory(model_preset("gpt2-s"), FP32_JOB)
        assert got == pytest.approx(4_732_170_240.0, rel=0)

    def test_zero_block_spec_is_state_only(self):
        spec = TransformerSpec("tiny", num_blocks=0, hidden_size=8,
                               num_heads=1, vocab_size=16)
        assert full_replication_memory(spec, FP32_JOB) == state_bytes(spec, FP32_JOB)


class TestMonotonicity:
    def test_monotone_in_architecture_and_batch(self):
        rng = random.Random(7)
        for _ in range(200):
            l = rng.randint(1, 12)
            h = 64 * rng.randint(1, 8)
            b = rng.randint(1, 64)
            s = rng.randint(1, 64)
            spec = TransformerSpec("a", l, h, 4, 500)
            job = TrainingJob(b, s, 1)
            bigger_specs = [TransformerSpec("b", l + 1, h, 4, 500),
                            TransformerSpec("c", l, h + 64, 4, 500)]
            bigger_jobs = [TrainingJob(b + 1, s, 1), TrainingJob(b, s + 1, 1)]
            wider_mlp = TransformerSpec("d", l, h, 4, 500, mlp_ratio=8)
            f0 = flops_per_iteration(spec, job)
            m0 = full_replication_memory(spec, job)
            for s2 in bigger_specs:
                assert flops_per_iteration(s2, job) >= f0
                assert full_replication_memory(s2, job) >= m0
            assert param_count(wider_mlp) > param_count(spec)
            assert flops_per_iteration(wider_mlp, job) > f0
            assert full_replication_memory(wider_mlp, job) > m0
            for j2 in bigger_jobs:
                assert flops_per_iteration(spec, j2) >= f0

    def test_determinism(self):
        spec = model_preset("opt-350m")

        def costs():
            return (param_count(spec), flops_per_iteration(spec, FP32_JOB),
                    state_bytes(spec, FP32_JOB),
                    activation_bytes_per_block(spec, FP32_JOB))
        assert costs() == costs()


class TestValidation:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            TransformerSpec("bad", 2, 100, 3, 10)

    def test_rejects_negative_blocks(self):
        with pytest.raises(ValueError):
            TransformerSpec("bad", -1, 64, 4, 10)

    def test_rejects_bad_microbatch(self):
        with pytest.raises(ValueError):
            TrainingJob(8, 16, 3)  # 3 does not divide 8
        with pytest.raises(ValueError):
            TrainingJob(8, 16, 16)  # larger than the batch

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            model_preset("nonexistent")


def test_default_edge_job_is_half_precision():
    job = default_edge_job()
    assert (job.global_batch, job.seq_len, job.micro_batch,
            job.dp_sync_period) == (128, 32, 8, 5)
    assert job.param_bytes == 2.0
    assert job.activation_bytes_factor == 1.0
    assert default_edge_job(seq_len=64).seq_len == 64


def test_all_presets_listed():
    assert set(MODEL_PRESETS) == {"distilbert", "gpt2-s", "opt-350m", "gpt2-l"}
