"""Per-layer wall-time and work accounting for the traced run.

The tracer wraps the public entry points of each layer from outside the
program (no file under ``src/`` changes) and wraps every callback passed
to ``Simulator.schedule_at``, charging it to the layer whose object or
module owns it.  Every wrapper is a span: the time spent in the callee
minus the time of the spans nested inside it is that span's *self*
time, so the self times of all layers add up to the wall time of the
traced run.  Counters are bumped at the same boundaries.

Wrapping changes no simulated behaviour: no event is added, reordered
or dropped, and the wrappers return what the callee returns.  One trap
is avoided on purpose: the fluid kernel compares ``type(flow)._emit``
by identity, so flow emits are never patched; they are attributed
through the ``schedule_at`` callback wrapper instead.

An entry point that no longer exists (renamed or removed) does not fail
the run: its layer is reported as *unmeasured*.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List


def _always(result) -> bool:
    return True


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    ``span`` names the span; its layer is the part before the first dot.
    ``count`` is bumped on every call; ``outcome`` only when ``accept``
    holds for the call's result.  ``sample`` keeps each call's
    inclusive duration (for percentiles).
    """

    target: str
    span: str
    count: str = ""
    outcome: str = ""
    accept: Callable[[object], bool] = _always
    sample: bool = False

    @property
    def layer(self) -> str:
        return self.span.split(".")[0]


PROBES = (
    Probe("repro.net.simulator:Simulator.run", "kernel"),
    Probe("repro.net.links:Link.transmit", "links", "links.transmits",
          "links.drops", lambda sent: sent is False),
    Probe("repro.net.legacy:LegacySwitch.receive", "legacy", "legacy.frames"),
    Probe("repro.openflow.switch:OpenFlowSwitch.receive", "switch",
          "switch.frames"),
    Probe("repro.openflow.switch:OpenFlowSwitch.handle_of_message",
          "switch.of", "switch.of_msgs"),
    Probe("repro.openflow.flowtable:FlowTable.lookup", "flowtable.lookup",
          "flowtable.lookups", "flowtable.hits",
          lambda entry: entry is not None),
    Probe("repro.openflow.flowtable:FlowTable.add", "flowtable.add",
          "flowtable.adds"),
    Probe("repro.openflow.channel:SecureChannel.to_controller", "channel",
          "channel.to_controller"),
    Probe("repro.openflow.channel:SecureChannel.to_switch", "channel",
          "channel.to_switch"),
    Probe("repro.openflow.pipeline:InstallPipeline.install", "pipeline",
          "pipeline.installs"),
    Probe("repro.openflow.pipeline:InstallPipeline.on_barrier_reply",
          "pipeline", "pipeline.barrier_acks"),
    Probe("repro.net.host:Host.receive", "hosts", "hosts.rx_frames"),
    Probe("repro.elements.base:ServiceElement.receive", "elements",
          "elements.frames"),
    Probe("repro.core.controller:LiveSecController.on_packet_in",
          "controller.packet_in", "controller.packet_ins", sample=True),
    Probe("repro.core.bus:EventBus.publish", "bus", "bus.publishes"),
    Probe("repro.core.apps.steering:SteeringApp.on_data_packet", "steering"),
    Probe("repro.core.policy:PolicyTable.match", "policy", "policy.lookups"),
    Probe("repro.core.loadbalance:LoadBalancer.assign", "loadbalance",
          "loadbalance.assigns"),
    Probe("repro.core.routing:PathRuleCache.path_rules", "routing",
          "routing.lookups"),
    # Only the cache calls it, so each call is one cache miss.
    Probe("repro.core.routing:compute_path_rules", "routing",
          "routing.misses"),
    Probe("repro.core.nib:NetworkInformationBase.learn_host", "nib",
          "nib.learns"),
    Probe("repro.core.nib:NetworkInformationBase.location_digest",
          "nib.digest", "nib.digests"),
    Probe("repro.core.sharding:ShardMember.hello", "sharding.hello",
          "sharding.hellos"),
    Probe("repro.core.sharding:ShardCoordinator.remote_rule", "sharding",
          outcome="sharding.remote_rule_ops",
          accept=lambda sent: sent is True),
    Probe("repro.core.events:EventLog.emit", "eventlog", "eventlog.emits"),
    Probe("repro.net.fluid:FluidRegion.advance_to", "fluid",
          "fluid.advances"),
)

# Every element type's own ``inspect`` is wrapped too (found through the
# public ``ELEMENT_TYPES`` registry).
ELEMENT_REGISTRY = "repro.elements:ELEMENT_TYPES"

# Scheduled callbacks are charged by the module of the object (or
# function) that owns them; the longest matching prefix wins.
CALLBACK_LAYERS = {
    "repro.net.simulator": "kernel",
    "repro.net.links": "links",
    "repro.net.node": "links",
    "repro.net.wifi": "links",
    "repro.net.legacy": "legacy",
    "repro.net.host": "hosts",
    "repro.net.tcp": "hosts",
    "repro.net.fluid": "fluid",
    "repro.openflow.switch": "switch",
    "repro.openflow.flowtable": "flowtable",
    "repro.openflow.channel": "channel",
    "repro.openflow.pipeline": "pipeline",
    "repro.openflow": "controller",
    "repro.workloads": "workloads",
    "repro.elements": "elements",
    "repro.core.apps.steering": "steering",
    "repro.core.sharding": "sharding",
    "repro.core.nib": "nib",
    "repro.core.events": "eventlog",
    "repro.core.bus": "bus",
    "repro.core": "controller",
}
CALLBACK_COUNTS = {"workloads": "workloads.emits"}

SCHEDULE_AT = "repro.net.simulator:Simulator.schedule_at"
EVERY = "repro.net.simulator:Simulator.every"


def _resolve(target: str):
    """``(owner, attribute name, current value)`` for a target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    value = owner.__dict__[name] if isinstance(owner, type) else getattr(
        owner, name
    )
    if not callable(value):
        raise TypeError(f"{target} is not a plain function")
    return owner, name, value


class Tracer:
    """Installs the wrappers, accumulates spans and counters, restores.

    Use as a context manager around building *and* running a
    deployment: objects capture bound methods at build time (bus
    subscriptions, periodic timers), so wrappers installed afterwards
    would miss them.  Call :meth:`reset` between set-up and the traffic
    phase to measure the traffic phase alone.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.pending_peak = 0
        self.unmeasured: Dict[str, str] = {}  # layer -> missing target
        # Child-time accumulators of the open spans; the bottom entry
        # collects top-level spans and is never popped.
        self._stack: List[float] = [0.0]
        self._restore: List[tuple] = []
        self._layer_of_module: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Span machinery

    def _spanned(self, fn: Callable, key: str, count: str = "",
                 outcome: str = "", accept=_always, sample: bool = False):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        samples = self.samples[key] if sample else None
        clock = perf_counter

        def span(*args, **kwargs):
            if count:
                counts[count] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                stack[-1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if outcome and accept(result):
                counts[outcome] += 1
            return result

        return span

    def _callback_layer(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is not None and not isinstance(owner, type):
            module = type(owner).__module__
        else:
            module = getattr(callback, "__module__", None) or ""
        layer = self._layer_of_module.get(module)
        if layer is None:
            layer = "other"
            best = -1
            for prefix, name in CALLBACK_LAYERS.items():
                if ((module == prefix or module.startswith(prefix + "."))
                        and len(prefix) > best):
                    layer, best = name, len(prefix)
            self._layer_of_module[module] = layer
        return layer

    def _wrap_callback(self, callback):
        layer = self._callback_layer(callback)
        return self._spanned(callback, layer, CALLBACK_COUNTS.get(layer, ""))

    # ------------------------------------------------------------------
    # Install / restore

    def _patch(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def _install_probe(self, probe: Probe) -> None:
        try:
            owner, name, original = _resolve(probe.target)
        except (ImportError, AttributeError, KeyError, TypeError):
            self.unmeasured.setdefault(probe.layer, probe.target)
            return
        wrapper = self._spanned(
            original, probe.span, probe.count, probe.outcome, probe.accept,
            probe.sample,
        )
        self._patch(owner, name, original,
                    functools.update_wrapper(wrapper, original))

    def _install_kernel_hooks(self) -> None:
        tracer = self
        try:
            owner, _, schedule_at = _resolve(SCHEDULE_AT)
            _, _, every = _resolve(EVERY)
        except (ImportError, AttributeError, KeyError, TypeError):
            self.unmeasured.setdefault("kernel", SCHEDULE_AT)
            return
        counts = self.counts
        wrap = self._wrap_callback

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim, time, callback, *args):
            counts["kernel.schedules"] += 1
            handle = schedule_at(sim, time, wrap(callback), *args)
            pending = sim.pending()
            if pending > tracer.pending_peak:
                tracer.pending_peak = pending
            return handle

        @functools.wraps(every)
        def traced_every(sim, interval, callback, *args, **kwargs):
            # The series' own re-arm is kernel work; the periodic
            # callback itself is charged to its owner.
            return every(sim, interval, wrap(callback), *args, **kwargs)

        self._patch(owner, "schedule_at", schedule_at, traced_schedule_at)
        self._patch(owner, "every", every, traced_every)

    def _install_element_inspects(self) -> None:
        module_name, _, name = ELEMENT_REGISTRY.partition(":")
        try:
            registry = getattr(importlib.import_module(module_name), name)
        except (ImportError, AttributeError):
            registry = None
        if not isinstance(registry, dict):
            self.unmeasured.setdefault("elements", ELEMENT_REGISTRY)
            return
        owners = {
            next((k for k in cls.__mro__ if "inspect" in k.__dict__), None)
            for cls in registry.values()
        }
        if None in owners:
            self.unmeasured.setdefault("elements", "ServiceElement.inspect")
        for klass in owners - {None}:
            original = klass.__dict__["inspect"]
            wrapper = self._spanned(original, "elements", "elements.inspects")
            self._patch(klass, "inspect", original,
                        functools.update_wrapper(wrapper, original))

    def __enter__(self) -> "Tracer":
        self._install_kernel_hooks()
        for probe in PROBES:
            self._install_probe(probe)
        self._install_element_inspects()
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Forget everything recorded so far (call outside any span)."""
        self.self_s.clear()
        self.counts.clear()
        for values in self.samples.values():
            values.clear()
        self.pending_peak = 0

    # ------------------------------------------------------------------
    # Readout

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span of ``layer`` (``x`` and ``x.*``)."""
        return sum(
            seconds for key, seconds in self.self_s.items()
            if key == layer or key.startswith(layer + ".")
        )
