"""Device, power and network modeling for a trusted edge domain.

Profiles are declared metadata (no live probing).  Effective throughputs and
power draws for the built-in Jetson profiles are assumptions chosen at
roughly half the datasheet peaks; downstream acceptance checks rely only on
ratios and orderings that are robust to these defaults.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

MODE_CPU = "cpu"
MODE_GPU = "gpu"
MODES = (MODE_CPU, MODE_GPU)
# The longest device id.  A result file writes ids as mapping keys, read
# only within 1,024 characters of their ":"; escaped at most 6 characters
# each (\uHHHH) and quoted, a 122-character id fits.
MAX_DEVICE_ID_CHARS = 122
# Refused in a device id or domain name, as it would split a cell or a row
# of the TSV outputs: a C0 or C1 control character, U+2028 or U+2029.
_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x80-\x9f\u2028\u2029]")


class ValidationError(ValueError):
    """A profile or domain violates a structural invariant."""


def _check_finite_nonnegative(value: float, *what: str):
    """Refuse a ``value`` that is not finite and >= 0; the parts of ``what``
    name it, joined only for the message."""
    # NaN fails both `value < 0` and `value >= 0`: test the bound positively.
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{''.join(what)} must be finite and >= 0, "
                              f"got {value}")


def _check_no_control(text: str, what: str):
    if found := _CONTROL_CHARS.search(text):
        raise ValidationError(f"{what} must not contain a control character "
                              f"or line separator, got U+{ord(found[0]):04X} "
                              f"in {text!r}")


def _check_link(prefix: str, bandwidth: float, latency: float):
    # `not x > 0` also rejects NaN; an infinite bandwidth is valid.
    if not bandwidth > 0:
        raise ValidationError(f"{prefix}bandwidth must be > 0, got {bandwidth}")
    _check_finite_nonnegative(latency, prefix, "latency")


@dataclass(frozen=True)
class DeviceProfile:
    id: str
    cpu_throughput: float            # effective sustained FLOP/s
    gpu_throughput: float            # FLOP/s, 0 if no GPU
    mem_capacity: float              # bytes
    power_idle: float                # watts
    power_cpu_busy: float            # watts
    power_gpu_busy: float            # watts
    power_net: float                 # additive watts while transmitting
    usable_mem_fraction: float = 0.9

    def __post_init__(self):
        if not self.id:
            raise ValidationError("device id must be non-empty")
        if len(self.id) > MAX_DEVICE_ID_CHARS:
            raise ValidationError(f"device id must be at most "
                                  f"{MAX_DEVICE_ID_CHARS} characters, got "
                                  f"{len(self.id)}: {self.id[:20]}...")
        _check_no_control(self.id, "device id")
        for name in ("cpu_throughput", "gpu_throughput", "power_idle",
                     "power_cpu_busy", "power_gpu_busy", "power_net"):
            _check_finite_nonnegative(getattr(self, name), self.id, ": ",
                                      name)
        if not (math.isfinite(self.mem_capacity) and self.mem_capacity > 0):
            raise ValidationError(f"{self.id}: mem_capacity must be finite "
                                  f"and > 0, got {self.mem_capacity}")
        if not 0 < self.usable_mem_fraction <= 1:
            raise ValidationError(f"{self.id}: usable_mem_fraction must be in (0, 1]")
        if self.power_idle > self.power_cpu_busy or self.power_idle > self.power_gpu_busy:
            raise ValidationError(f"{self.id}: power_idle must not exceed busy power")

    @property
    def usable_memory(self) -> float:
        """Bytes available to the training runtime; single OOM choke point."""
        return self.mem_capacity * self.usable_mem_fraction


def _gpu_computes(device: DeviceProfile, mode: str) -> bool:
    """Whether the GPU does the computing: in GPU mode, when it is at least
    as fast as the CPU and not absent (0 FLOP/s)."""
    return (mode == MODE_GPU and device.gpu_throughput >= device.cpu_throughput
            and device.gpu_throughput > 0)


def effective_throughput(device: DeviceProfile, mode: str) -> float:
    """Sustained FLOP/s of the unit that computes under the given mode."""
    if mode not in MODES:
        raise ValidationError(
            f"unknown mode {mode!r} (expected one of {MODES})")
    return (device.gpu_throughput if _gpu_computes(device, mode)
            else device.cpu_throughput)


def busy_power(device: DeviceProfile, mode: str) -> float:
    """Power draw while computing, of the unit effective_throughput picks."""
    return (device.power_gpu_busy if _gpu_computes(device, mode)
            else device.power_cpu_busy)


@dataclass(frozen=True)
class Link:
    bandwidth: float   # bits/s
    latency: float     # seconds

    def __post_init__(self):
        _check_link("link ", self.bandwidth, self.latency)

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth / 8.0


@dataclass(frozen=True)
class NetworkModel:
    default_bandwidth: float = 1e9   # bits/s (1000 Mbps wireless)
    default_latency: float = 1e-4    # seconds per hop
    links: tuple = ()                # ((dev_a, dev_b, Link), ...)
    # (a, b) and (b, a) -> Link of each explicit link, and the default link.
    _by_pair: dict = field(init=False, repr=False, compare=False)
    _default: Link = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_link("default_", self.default_bandwidth, self.default_latency)
        by_pair = {}
        for a, b, link in self.links:
            if a == b:
                raise ValidationError(f"link {a}-{b} joins a device to itself")
            if (a, b) in by_pair:
                raise ValidationError(f"link {a}-{b} is listed twice")
            by_pair[a, b] = by_pair[b, a] = link
        object.__setattr__(self, "_by_pair", by_pair)
        object.__setattr__(self, "_default", Link(self.default_bandwidth,
                                                  self.default_latency))

    def link_between(self, a: str, b: str) -> Link:
        return self._by_pair.get((a, b), self._default)


@dataclass(frozen=True)
class TrustedDomain:
    """Devices, their network and an execution mode.

    Four tables map each device id, built once when the domain is made
    (``with_mode`` makes a new domain) and not fields of its files:

    - ``_by_id``: its profile;
    - ``_throughput``: its effective throughput in ``mode``;
    - ``_usable_memory``: its ``DeviceProfile.usable_memory``;
    - ``_power``: its (idle, busy − idle, network) watts in ``mode``, busy
      being :func:`busy_power`.

    The plan builders, the memory check, the stage split and the simulator
    index them rather than call a method per device.
    """
    devices: tuple[DeviceProfile, ...]
    network: NetworkModel = field(default_factory=NetworkModel)
    mode: str = MODE_GPU
    name: str = "custom"
    _by_id: dict = field(init=False, repr=False, compare=False)
    _throughput: dict = field(init=False, repr=False, compare=False)
    _usable_memory: dict = field(init=False, repr=False, compare=False)
    _power: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.devices:
            raise ValidationError("a trusted domain needs at least one device")
        _check_no_control(self.name, "domain name")
        by_id = {d.id: d for d in self.devices}
        if len(by_id) != len(self.devices):
            raise ValidationError("device ids must be unique")
        for a, b, _ in self.network.links:
            if a not in by_id or b not in by_id:
                unknown = {a, b} - by_id.keys()
                raise ValidationError(f"link {a}-{b}: unknown device "
                                      f"{min(unknown)!r}")
        mode = self.mode
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
        throughput = {d.id: effective_throughput(d, mode) for d in self.devices}
        for device_id, thr in throughput.items():
            if not thr > 0:
                raise ValidationError(f"device {device_id} has zero "
                                      f"throughput in mode {mode!r}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_throughput", throughput)
        object.__setattr__(self, "_usable_memory", {
            d.id: d.usable_memory for d in self.devices})
        object.__setattr__(self, "_power", {
            d.id: (d.power_idle, busy_power(d, mode) - d.power_idle,
                   d.power_net) for d in self.devices})

    def device(self, device_id: str) -> DeviceProfile:
        try:
            return self._by_id[device_id]
        except KeyError:
            raise KeyError(f"unknown device id {device_id!r}") from None

    @property
    def device_ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def with_mode(self, mode: str) -> "TrustedDomain":
        return replace(self, mode=mode)


@dataclass(frozen=True)
class FaultModel:
    mtbf_per_device: float            # seconds
    checkpoint_write_bandwidth: float  # bytes/s
    recovery_reload_bandwidth: float   # bytes/s
    rng_seed: int = 0

    def __post_init__(self):
        # `not x > 0` also rejects NaN; an infinite MTBF or bandwidth is valid.
        if not self.mtbf_per_device > 0:
            raise ValidationError(
                f"mtbf_per_device must be > 0, got {self.mtbf_per_device}")
        for name in ("checkpoint_write_bandwidth", "recovery_reload_bandwidth"):
            if not getattr(self, name) > 0:
                raise ValidationError(
                    f"{name} must be > 0, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")

    def system_mtbf(self, num_devices: int) -> float:
        """Mean time between failures of ``num_devices`` participants: their
        independent exponential failures superpose into one Poisson stream
        of summed rate."""
        return self.mtbf_per_device / num_devices


DEFAULT_FAULT_MODEL = FaultModel(
    mtbf_per_device=86400.0,            # one day
    checkpoint_write_bandwidth=50e6,    # local flash write
    recovery_reload_bandwidth=50e6,
    rng_seed=0,
)


def jetson_nano(device_id: str) -> DeviceProfile:
    return DeviceProfile(id=device_id, cpu_throughput=15e9, gpu_throughput=240e9,
                         mem_capacity=4e9, power_idle=2.0, power_cpu_busy=7.0,
                         power_gpu_busy=10.0, power_net=1.5)


def jetson_tx2(device_id: str) -> DeviceProfile:
    return DeviceProfile(id=device_id, cpu_throughput=30e9, gpu_throughput=600e9,
                         mem_capacity=8e9, power_idle=3.0, power_cpu_busy=10.0,
                         power_gpu_busy=15.0, power_net=1.5)


def jetson_nx(device_id: str) -> DeviceProfile:
    return DeviceProfile(id=device_id, cpu_throughput=60e9, gpu_throughput=1200e9,
                         mem_capacity=8e9, power_idle=4.0, power_cpu_busy=12.0,
                         power_gpu_busy=20.0, power_net=1.5)


DEVICE_PROFILE_FACTORIES = {
    "nano": jetson_nano,
    "tx2": jetson_tx2,
    "nx": jetson_nx,
}

# Each built-in testbed's device profiles, in pool order.
_TESTBED_PROFILES = {
    "homogeneous-nano4": ("nano",) * 4,
    "heterogeneous-mix4": ("nano", "nano", "tx2", "nx"),
}
TESTBED_PRESETS = tuple(_TESTBED_PROFILES)


def profile_domain(profiles, name: str) -> TrustedDomain:
    """A domain of one built-in device per profile name, in order, on the
    default 1000 Mbps network; the k-th device of profile ``p`` (from 0) is
    ``p-k``."""
    devices, counts = [], {}
    for profile in profiles:
        if profile not in DEVICE_PROFILE_FACTORIES:
            known = ", ".join(sorted(DEVICE_PROFILE_FACTORIES))
            raise KeyError(f"unknown device profile {profile!r} "
                           f"(known: {known})")
        k = counts.get(profile, 0)
        counts[profile] = k + 1
        devices.append(DEVICE_PROFILE_FACTORIES[profile](f"{profile}-{k}"))
    return TrustedDomain(devices=tuple(devices), name=name)


def testbed_preset(name: str) -> TrustedDomain:
    """Built-in testbeds: four Nanos, or two Nanos + TX2 + NX, 1000 Mbps links."""
    if name not in _TESTBED_PROFILES:
        known = ", ".join(TESTBED_PRESETS)
        raise KeyError(f"unknown testbed preset {name!r} (known: {known})")
    return profile_domain(_TESTBED_PROFILES[name], name)
