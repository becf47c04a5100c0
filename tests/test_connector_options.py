"""Tests for connector option parsing and validation."""

import pytest

from repro.bench.fabric import Fabric
from repro.connector import SimVerticaCluster
from repro.connector.options import (
    ConnectorOptions,
    DEFAULT_S2V_PARTITIONS,
    DEFAULT_V2S_PARTITIONS,
    OptionsError,
)
from repro.sim import Environment
from repro.workloads.datasets import make_d1


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1e400",
                                     "-inf", "abc", None, [2.0]])
    def test_scale_factor_is_a_finite_number(self, cluster, bad):
        # NaN / inf would make every virtual volume NaN / inf; a value
        # float() cannot read is the option's error, not a bare one
        with pytest.raises(OptionsError, match="'scale_factor'"):
            ConnectorOptions(opts(cluster, scale_factor=bad))

    @pytest.mark.parametrize("bad", [None, "abc", float("nan"), "inf"])
    def test_tolerance_is_a_finite_number(self, cluster, bad):
        with pytest.raises(OptionsError,
                           match="'failed_rows_percent_tolerance'"):
            ConnectorOptions(opts(cluster, failed_rows_percent_tolerance=bad))

    def test_numeric_strings_still_parse(self, cluster):
        parsed = ConnectorOptions(opts(cluster, scale_factor="2.5",
                                       failed_rows_percent_tolerance="0.1"))
        assert parsed.scale_factor == 2.5
        assert parsed.failed_rows_percent_tolerance == 0.1

    @pytest.mark.parametrize("value,expected", [
        (True, True), ("true", True), ("YES", True), ("1", True),
        (False, False), ("false", False), ("0", False), ("off", False),
        (" On ", True), ("no", False), ("\tFALSE\n", False), ("yes ", True),
    ])
    def test_prehash_bool_parsing(self, cluster, value, expected):
        parsed = ConnectorOptions(opts(cluster, prehash_partitioning=value))
        assert parsed.prehash_partitioning is expected

    @pytest.mark.parametrize("option", ["prehash_partitioning", "agg_pushdown"])
    @pytest.mark.parametrize("bad", ["ture", "flase", None, 2, "maybe", "", 1.0])
    def test_unrecognised_bool_names_the_option(self, cluster, option, bad):
        # a misspelt value must not switch the feature off silently
        with pytest.raises(OptionsError, match=repr(option)):
            ConnectorOptions(opts(cluster, **{option: bad}))

    @pytest.mark.parametrize("codec", ["null", "deflate"])
    def test_known_avro_codecs_parse(self, cluster, codec):
        assert ConnectorOptions(opts(cluster, avro_codec=codec)).avro_codec == codec

    @pytest.mark.parametrize("bad", ["snappy", "DEFLATE", None, ["deflate"]])
    def test_unknown_avro_codec_is_refused(self, cluster, bad):
        with pytest.raises(OptionsError, match="'avro_codec'"):
            ConnectorOptions(opts(cluster, avro_codec=bad))

    def test_unknown_avro_codec_fails_before_any_task_runs(self):
        # refused while the options are parsed, not by each task attempt
        fabric = Fabric(num_vertica=2, num_spark=2)
        d1 = make_d1(real_rows=40, num_cols=4)
        with pytest.raises(OptionsError, match="snappy"):
            fabric.save("vertica", d1, "dest", 4, numpartitions=4,
                        avro_codec="snappy")
        assert fabric.env.now == 0.0
        assert fabric.vertica.db.catalog.tables == {}  # no temp or status table
