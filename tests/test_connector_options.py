"""Tests for connector option parsing and validation."""

import pytest

from repro.connector import SimVerticaCluster
from repro.connector.options import (
    ConnectorOptions,
    DEFAULT_S2V_PARTITIONS,
    DEFAULT_V2S_PARTITIONS,
    OptionsError,
)
from repro.sim import Environment


@pytest.fixture
def cluster():
    return SimVerticaCluster(env=Environment(), num_nodes=4)


def opts(cluster, **kwargs):
    base = {"db": cluster, "table": "t"}
    base.update(kwargs)
    return base


class TestRequiredOptions:
    def test_db_required(self):
        with pytest.raises(OptionsError):
            ConnectorOptions({"table": "t"})

    def test_table_required(self, cluster):
        with pytest.raises(OptionsError):
            ConnectorOptions({"db": cluster})
        with pytest.raises(OptionsError):
            ConnectorOptions({"db": cluster, "table": ""})

    def test_unknown_option_rejected_with_list(self, cluster):
        with pytest.raises(OptionsError) as info:
            ConnectorOptions(opts(cluster, numpartitoins=4))  # typo
        assert "numpartitoins" in str(info.value)
        assert "numpartitions" in str(info.value)  # the known list helps
        # rejections are tolerated per job (failed_rows_percent_tolerance);
        # a per-COPY reject_max was parsed but never applied, so setting it
        # is an error rather than a silent no-op
        with pytest.raises(OptionsError, match="reject_max"):
            ConnectorOptions(opts(cluster, reject_max=7))


class TestDefaults:
    def test_load_default_partitions(self, cluster):
        parsed = ConnectorOptions(opts(cluster))
        assert parsed.num_partitions == DEFAULT_V2S_PARTITIONS == 32

    def test_save_default_partitions(self, cluster):
        parsed = ConnectorOptions(opts(cluster), for_save=True)
        assert parsed.num_partitions == DEFAULT_S2V_PARTITIONS == 128

    def test_host_defaults_to_first_node(self, cluster):
        parsed = ConnectorOptions(opts(cluster))
        assert parsed.host == cluster.node_names[0]

    def test_misc_defaults(self, cluster):
        parsed = ConnectorOptions(opts(cluster))
        assert parsed.user == "dbadmin"
        assert parsed.scale_factor == 1.0
        assert parsed.failed_rows_percent_tolerance == 0.0
        assert parsed.avro_codec == "deflate"
        assert parsed.prehash_partitioning is False


class TestValidation:
    def test_table_uppercased_with_schema(self, cluster):
        parsed = ConnectorOptions(opts(cluster, dbschema="public"))
        assert parsed.table == "PUBLIC.T"

    def test_host_must_be_cluster_node(self, cluster):
        with pytest.raises(OptionsError):
            ConnectorOptions(opts(cluster, host="not-a-node"))

    def test_explicit_host(self, cluster):
        parsed = ConnectorOptions(opts(cluster, host=cluster.node_names[2]))
        assert parsed.host == cluster.node_names[2]

    @pytest.mark.parametrize("bad", [0, -1, "x", 1.5])
    def test_numpartitions_positive_int(self, cluster, bad):
        with pytest.raises(OptionsError):
            ConnectorOptions(opts(cluster, numpartitions=bad))

    def test_numpartitions_accepts_numeric_string(self, cluster):
        parsed = ConnectorOptions(opts(cluster, numpartitions="16"))
        assert parsed.num_partitions == 16

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2])
    def test_tolerance_range(self, cluster, bad):
        with pytest.raises(OptionsError):
            ConnectorOptions(opts(cluster, failed_rows_percent_tolerance=bad))

    def test_scale_factor_positive(self, cluster):
        with pytest.raises(OptionsError):
            ConnectorOptions(opts(cluster, scale_factor=0))

    @pytest.mark.parametrize("value,expected", [
        (True, True), ("true", True), ("YES", True), ("1", True),
        (False, False), ("false", False), ("0", False), ("off", False),
    ])
    def test_prehash_bool_parsing(self, cluster, value, expected):
        parsed = ConnectorOptions(opts(cluster, prehash_partitioning=value))
        assert parsed.prehash_partitioning is expected
