"""Machine-description tests (paper Table 2 and section 4.2 variants)."""

import re

import pytest

from repro.arch import (
    BASELINE_CONFIG,
    NOBAL_MEM_CONFIG,
    NOBAL_REG_CONFIG,
    BusConfig,
    CacheConfig,
    FuKind,
    MachineConfig,
    named_config,
)
from repro.errors import ConfigError


class TestTable2Parameters:
    def test_baseline_matches_table2(self):
        cfg = BASELINE_CONFIG
        assert cfg.num_clusters == 4
        assert cfg.fu_per_cluster == {FuKind.INT: 1, FuKind.FP: 1, FuKind.MEM: 1}
        assert cfg.cache.module_bytes == 2 * 1024
        assert cfg.cache.block_bytes == 32
        assert cfg.cache.associativity == 2
        assert cfg.cache.hit_latency == 1
        assert cfg.memory_buses == BusConfig(4, 2)
        assert cfg.register_buses == BusConfig(4, 2)
        assert cfg.next_level.ports == 4
        assert cfg.next_level.latency == 10

    def test_total_cache_is_8kb(self):
        cfg = BASELINE_CONFIG
        assert cfg.num_clusters * cfg.cache.module_bytes == 8 * 1024

    def test_nobal_mem_buses(self):
        assert NOBAL_MEM_CONFIG.memory_buses == BusConfig(4, 2)
        assert NOBAL_MEM_CONFIG.register_buses == BusConfig(2, 4)

    def test_nobal_reg_buses(self):
        assert NOBAL_REG_CONFIG.memory_buses == BusConfig(2, 4)
        assert NOBAL_REG_CONFIG.register_buses == BusConfig(4, 2)

    def test_named_config_lookup(self):
        assert named_config("baseline") is BASELINE_CONFIG
        assert named_config("nobal+mem") is NOBAL_MEM_CONFIG
        assert named_config("nobal+reg") is NOBAL_REG_CONFIG

    def test_named_config_unknown(self):
        with pytest.raises(ConfigError, match="unknown configuration"):
            named_config("bogus")


class TestLatencyLadder:
    def test_ladder_is_increasing(self):
        lat = BASELINE_CONFIG.memory_latencies()
        assert lat.local_hit < lat.remote_hit < lat.local_miss < lat.remote_miss
        assert lat.ladder() == (1, 5, 11, 15)

    def test_ladder_tracks_bus_latency(self):
        lat = NOBAL_REG_CONFIG.memory_latencies()
        # 4-cycle memory buses: remote hit = 4 + 1 + 4.
        assert lat.remote_hit == 9
        assert lat.remote_miss == 19

    def test_op_latencies(self):
        cfg = BASELINE_CONFIG
        assert cfg.op_latency("ialu") == 1
        assert cfg.op_latency("fmul") == 4
        with pytest.raises(ConfigError):
            cfg.op_latency("bogus")


class TestAddressMapping:
    def test_word_interleaving(self):
        cfg = BASELINE_CONFIG  # 4-byte interleave
        assert [cfg.home_cluster(a) for a in (0, 4, 8, 12, 16)] == [0, 1, 2, 3, 0]

    def test_halfword_interleaving(self):
        cfg = BASELINE_CONFIG.with_interleave(2)
        assert [cfg.home_cluster(a) for a in (0, 2, 4, 6, 8)] == [0, 1, 2, 3, 0]

    def test_with_interleave_keeps_other_fields(self):
        cfg = BASELINE_CONFIG.with_interleave(2)
        assert cfg.cache == BASELINE_CONFIG.cache
        assert cfg.num_clusters == BASELINE_CONFIG.num_clusters

    def test_subblock_size(self):
        # 32-byte block over 4 clusters: 8 bytes per cluster.
        assert BASELINE_CONFIG.subblock_bytes == 8


class TestValidation:
    def test_block_must_cover_all_clusters(self):
        rendered = re.escape("(block_bytes % (interleave * clusters) == 0)")
        with pytest.raises(ConfigError, match=rendered + "$"):
            MachineConfig(interleave_bytes=12)

    def test_bus_count_positive(self):
        with pytest.raises(ConfigError):
            BusConfig(0, 2)

    def test_bus_latency_positive(self):
        with pytest.raises(ConfigError):
            BusConfig(4, 0)

    def test_cache_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(module_bytes=1000)  # not a multiple of block*ways

    def test_cache_num_sets(self):
        assert CacheConfig().num_sets == 2048 // (32 * 2)

    def test_attraction_buffer_copy(self):
        cfg = BASELINE_CONFIG.with_attraction_buffers()
        assert cfg.attraction_buffer.entries == 16
        assert cfg.attraction_buffer.associativity == 2
        assert cfg.attraction_buffer.num_sets == 8
        assert BASELINE_CONFIG.attraction_buffer is None

    def test_describe_mentions_key_facts(self):
        text = BASELINE_CONFIG.describe()
        assert "4" in text and "2KB" in text and "32B" in text
