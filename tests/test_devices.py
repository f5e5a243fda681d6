"""Device, power, network, and serialization tests."""

import dataclasses
import itertools
import math

import pytest

from edgetrainsim import config_io
from edgetrainsim.devices import (DEFAULT_FAULT_MODEL, MAX_DEVICE_ID_CHARS,
                                  DeviceProfile, FaultModel, Link,
                                  NetworkModel, TrustedDomain,
                                  ValidationError, busy_power,
                                  effective_throughput, jetson_nano, jetson_nx,
                                  jetson_tx2, testbed_preset as load_testbed)


class TestProfiles:
    def test_preset_shapes(self):
        nano = jetson_nano("n")
        assert nano.mem_capacity == 4e9
        assert nano.gpu_throughput > nano.cpu_throughput
        tx2, nx = jetson_tx2("t"), jetson_nx("x")
        assert tx2.mem_capacity == nx.mem_capacity == 8e9
        # capability ladder: nano < tx2 < nx in both modes
        for mode in ("cpu", "gpu"):
            assert (effective_throughput(nano, mode)
                    < effective_throughput(tx2, mode)
                    < effective_throughput(nx, mode))

    def test_usable_memory_fraction(self):
        nano = jetson_nano("n")
        assert nano.usable_memory == pytest.approx(0.9 * 4e9)

    def test_modes(self):
        nano = jetson_nano("n")
        assert effective_throughput(nano, "cpu") == nano.cpu_throughput
        assert effective_throughput(nano, "gpu") == nano.gpu_throughput
        with pytest.raises(ValidationError):
            effective_throughput(nano, "tpu")

    def test_busy_power_follows_mode(self):
        nano = jetson_nano("n")
        assert busy_power(nano, "cpu") == nano.power_cpu_busy
        assert busy_power(nano, "gpu") == nano.power_gpu_busy
        # A device without a GPU computes on the CPU even in gpu mode.
        cpu_only = DeviceProfile("c", 1e9, 0.0, 1e9, 1.0, 3.0, 3.0, 0.5)
        assert effective_throughput(cpu_only, "gpu") == 1e9
        assert busy_power(cpu_only, "gpu") == 3.0

    @pytest.mark.parametrize("mode", ["cpu", "gpu"])
    def test_throughput_and_power_come_from_one_unit(self, mode):
        """Over equal, zero and signed-zero throughputs: GPU mode runs at
        the faster unit's FLOP/s, and the throughput and the busy power are
        always those of the same unit."""
        for cpu, gpu in itertools.product((0.0, -0.0, 1e9, 2e9), repeat=2):
            dev = DeviceProfile("d", cpu, gpu, 1e9, 1.0, 3.0, 5.0, 0.5)
            thr, power = effective_throughput(dev, mode), busy_power(dev, mode)
            assert (thr, power) in ((cpu, 3.0), (gpu, 5.0))
            want = cpu if mode == "cpu" else max(cpu, gpu)
            assert (thr, math.copysign(1.0, thr)) == \
                (want, math.copysign(1.0, want))

    def test_gpu_mode_energy_per_flop_is_lower(self):
        # The mode gap relies on GPUs being more efficient per FLOP.
        for dev in (jetson_nano("a"), jetson_tx2("b"), jetson_nx("c")):
            cpu_jpf = busy_power(dev, "cpu") / effective_throughput(dev, "cpu")
            gpu_jpf = busy_power(dev, "gpu") / effective_throughput(dev, "gpu")
            assert gpu_jpf < cpu_jpf

    def test_validation(self):
        with pytest.raises(ValidationError):
            DeviceProfile("", 1e9, 0, 1e9, 1, 2, 2, 0)
        with pytest.raises(ValidationError):
            DeviceProfile("x", -1, 0, 1e9, 1, 2, 2, 0)
        with pytest.raises(ValidationError):
            DeviceProfile("x", 1e9, 0, 0, 1, 2, 2, 0)
        with pytest.raises(ValidationError):  # idle above busy
            DeviceProfile("x", 1e9, 0, 1e9, 5, 2, 2, 0)

    def test_id_length_cap(self):
        longest = "x" * MAX_DEVICE_ID_CHARS
        assert DeviceProfile(longest, 1e9, 0, 1e9, 1, 2, 2, 0).id == longest
        with pytest.raises(ValidationError, match="at most 122 characters"):
            DeviceProfile("x" * (MAX_DEVICE_ID_CHARS + 1), 1e9, 0, 1e9, 1, 2,
                          2, 0)


class TestNetwork:
    def test_default_link(self):
        net = NetworkModel(default_bandwidth=1e9, default_latency=1e-4)
        link = net.link_between("a", "b")
        assert link.bytes_per_second == pytest.approx(125e6)
        assert link.latency == 1e-4

    def test_explicit_link_is_symmetric(self):
        ids = [f"d{i}" for i in range(12)]
        table = {pair: Link(1e6 * (k + 1), 1e-4)
                 for k, pair in enumerate(itertools.combinations(ids, 2))}
        net = NetworkModel(links=tuple((a, b, link)
                                       for (a, b), link in table.items()))
        assert len(table) == 66
        for a, b in itertools.permutations(ids, 2):
            assert net.link_between(a, b) is table.get((a, b), table.get((b, a)))
        assert net.link_between("d0", "x").bandwidth == net.default_bandwidth

    @pytest.mark.parametrize("links", [
        (("a", "a"),), (("a", "b"), ("a", "b")), (("a", "b"), ("b", "a"))],
        ids=["self-link", "repeated", "repeated-reversed"])
    def test_network_rejects_bad_link_pairs(self, links):
        with pytest.raises(ValidationError):
            NetworkModel(links=tuple((a, b, Link(1e9, 0.0)) for a, b in links))

    def test_link_validation(self):
        with pytest.raises(ValidationError):
            Link(0, 0)
        with pytest.raises(ValidationError):
            Link(1e9, -1)


class TestDomain:
    def test_testbed_presets(self):
        homog = load_testbed("homogeneous-nano4")
        assert homog.device_ids == ("nano-0", "nano-1", "nano-2", "nano-3")
        hetero = load_testbed("heterogeneous-mix4")
        assert hetero.device_ids == ("nano-0", "nano-1", "tx2-0", "nx-0")
        assert homog.mode == "gpu"
        with pytest.raises(KeyError):
            load_testbed("nonexistent")

    def test_unique_ids_required(self):
        with pytest.raises(ValidationError):
            TrustedDomain(devices=(jetson_nano("a"), jetson_nano("a")))

    def test_with_mode(self):
        domain = load_testbed("homogeneous-nano4")
        cpu = domain.with_mode("cpu")
        assert cpu.mode == "cpu" and domain.mode == "gpu"
        assert cpu.device_ids == domain.device_ids

    def test_every_device_must_compute_in_the_mode(self):
        idle = DeviceProfile("idle", 0.0, 0.0, 1e9, 1.0, 3.0, 3.0, 0.5)
        with pytest.raises(ValidationError, match="idle has zero throughput"):
            TrustedDomain(devices=(jetson_nano("a"), idle))
        gpu_only = DeviceProfile("g", 0.0, 1e9, 1e9, 1.0, 3.0, 3.0, 0.5)
        domain = TrustedDomain(devices=(gpu_only,))
        with pytest.raises(ValidationError, match="in mode 'cpu'"):
            domain.with_mode("cpu")

    def test_unknown_device_lookup(self):
        domain = load_testbed("homogeneous-nano4")
        with pytest.raises(KeyError):
            domain.device("nano-9")

    def test_unknown_device_names_the_id(self):
        domain = load_testbed("homogeneous-nano4")
        with pytest.raises(KeyError) as by_device:
            domain.device("nope")
        assert by_device.value.args == ("unknown device id 'nope'",)

    def test_throughput_table_follows_mode_and_devices(self):
        domain = load_testbed("heterogeneous-mix4")
        cpu = domain.with_mode("cpu")
        for d in domain.devices:
            assert domain._throughput[d.id] == effective_throughput(d, "gpu")
            assert cpu._throughput[d.id] == effective_throughput(d, "cpu")
        pair = dataclasses.replace(domain, devices=(jetson_tx2("a"),
                                                    jetson_nx("b")))
        assert pair.device_ids == tuple(pair._throughput) == ("a", "b")
        assert pair._throughput["b"] == jetson_nx("b").gpu_throughput

    def test_equal_domains_compare_and_hash_equal(self):
        a = load_testbed("heterogeneous-mix4")
        b = load_testbed("heterogeneous-mix4").with_mode("cpu").with_mode("gpu")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a.with_mode("cpu")
        assert len({a, b, a.with_mode("cpu")}) == 2

    def test_lookup_tables_are_not_file_fields(self):
        domain = load_testbed("heterogeneous-mix4")
        assert [name for name, *_ in config_io._schema(TrustedDomain)] == [
            "mode", "name"]
        data = config_io.domain_to_dict(domain)
        assert sorted(data) == ["devices", "mode", "name", "network",
                                "schema_version"]
        assert repr(domain).endswith(", mode='gpu', name='heterogeneous-mix4')")
        text = config_io.dump_yaml(data)
        again = config_io.domain_from_dict(config_io.parse_yaml(text, "domain"))
        assert config_io.dump_yaml(config_io.domain_to_dict(again)) == text


class TestFaultModel:
    def test_defaults(self):
        assert DEFAULT_FAULT_MODEL.mtbf_per_device == 86400.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultModel(0, 1e6, 1e6)
        with pytest.raises(ValidationError):
            FaultModel(100, 0, 1e6)


class TestSerialization:
    def test_domain_round_trip(self):
        domain = load_testbed("heterogeneous-mix4")
        data = config_io.domain_to_dict(domain)
        back = config_io.domain_from_dict(data)
        assert back == domain

    def test_round_trip_through_yaml_text(self):
        domain = TrustedDomain(
            devices=(jetson_nano("a"), jetson_tx2("b")),
            network=NetworkModel(default_bandwidth=5e8, default_latency=2e-4,
                                 links=(("a", "b", Link(1e8, 1e-3)),)),
            mode="cpu", name="pair")
        text = config_io.dump_yaml(config_io.domain_to_dict(domain))
        back = config_io.domain_from_dict(config_io.parse_yaml(text, "domain"))
        assert back == domain

    def test_dump_is_byte_stable(self):
        domain = load_testbed("homogeneous-nano4")
        a = config_io.dump_yaml(config_io.domain_to_dict(domain))
        b = config_io.dump_yaml(config_io.domain_to_dict(domain))
        assert a == b

    def test_invalid_domain_rejected(self):
        data = config_io.domain_to_dict(load_testbed("homogeneous-nano4"))
        data["devices"][0]["mem_capacity_bytes"] = -1
        with pytest.raises(config_io.ConfigError):
            config_io.domain_from_dict(data)

    def test_missing_field_rejected(self):
        with pytest.raises(config_io.ConfigError):
            config_io.domain_from_dict({"schema_version": 1})

    def test_wrong_schema_version_rejected(self):
        data = config_io.domain_to_dict(load_testbed("homogeneous-nano4"))
        data["schema_version"] = 99
        with pytest.raises(config_io.ConfigError):
            config_io.domain_from_dict(data)
