"""ProcessorConfig validation and helpers."""

import pytest

from repro.cmt import ProcessorConfig


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(num_thread_units=0),
            dict(fetch_width=0),
            dict(issue_width=-1),
            dict(rob_size=0),
            dict(forward_latency=-1),
            dict(init_overhead=-2),
            dict(spawn_order_check="psychic"),
            dict(removal_occurrences=0),
            dict(value_predictor="tea-leaves"),
            dict(branch_predictor="coin"),
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            ProcessorConfig(**kw)

    def test_defaults_match_paper_section_4_1(self):
        config = ProcessorConfig()
        assert config.num_thread_units == 16
        assert config.fetch_width == 4
        assert config.issue_width == 4
        assert config.rob_size == 64
        assert config.branch_history_bits == 10
        assert config.l1_size_kb == 32
        assert config.l1_assoc == 2
        assert config.l1_hit_latency == 3
        assert config.l1_miss_latency == 8
        assert config.forward_latency == 3
        assert config.value_predictor_kb == 16


class TestHelpers:
    def test_with_replaces_fields(self):
        config = ProcessorConfig().with_(num_thread_units=4, init_overhead=8)
        assert config.num_thread_units == 4
        assert config.init_overhead == 8
        assert config.fetch_width == 4  # untouched

    def test_with_validates_too(self):
        with pytest.raises(ValueError):
            ProcessorConfig().with_(rob_size=0)

    def test_single_threaded_strips_dynamic_policies(self):
        config = ProcessorConfig(
            removal_cycles=50, min_thread_size=32, reassign=True
        ).single_threaded()
        assert config.num_thread_units == 1
        assert config.removal_cycles is None
        assert config.min_thread_size is None
        assert not config.reassign

    def test_config_is_hashable(self):
        assert hash(ProcessorConfig()) == hash(ProcessorConfig())
        assert ProcessorConfig() != ProcessorConfig(num_thread_units=4)

    def test_single_threaded_resets_value_predictor(self):
        config = ProcessorConfig(
            value_predictor="fcm", value_predictor_kb=4,
            prime_value_predictor=False,
        ).single_threaded()
        assert config.value_predictor == ProcessorConfig.value_predictor
        assert config.value_predictor_kb == ProcessorConfig.value_predictor_kb
        assert config.prime_value_predictor
        assert config == ProcessorConfig().single_threaded()
