"""Spans around the package's public functions, installed from outside it.

install() replaces module attributes with timing wrappers and returns a
function that puts the originals back. Calls between modules go through those
attributes: ``singular`` reaches ``frozen.classify_region`` through its own
imported name, and ``frozen`` reaches the kernels through its ``_kernels``
attribute. So each wrapper is installed under every name another layer calls
it by, and the kernels are reached through one proxy module. Calls inside a
module (``_kernels`` calling its own cubic root from the arc transport) are
not wrapped, which keeps the tracer out of the innermost loops.

Each span records wall time, the thread's CPU time, and the wall time of the
spans it called directly, so a layer's self time is its wall time minus its
children's. The cell kernel runs on pool threads that share the interpreter
lock, so its busy time is the threads' CPU time, not their wall time.
"""
import math
import os
import threading
import time
import types
from collections import defaultdict

from fhn_tis import _kernels, experiments, frozen, sim, singular


class Stat:
    __slots__ = ("calls", "wall_ns", "cpu_ns", "child_ns", "units")

    def __init__(self):
        self.calls = self.wall_ns = self.cpu_ns = self.child_ns = self.units = 0


def _cell_steps(args, result):
    return int(math.ceil(args[8] / args[9] - 1e-12))


def _rk4_steps(args, result):
    span = args[13] - args[12]
    return int(math.ceil(span / args[14] - 1e-12)) if span > 0.0 else 0


def _dp45_steps(args, result):
    # samples are stored every `stride` accepted steps and at the end, so this
    # is the accepted-step count to within one stride per call
    return (int(result[3]) - 1) * int(args[17])


def _samples(args, result):
    return len(args[0])


def _bytes(args, result):
    return sum(os.path.getsize(p) for p in result)


_DRIVE_NAMES = {"AveragedCosine": "averaged_cosine", "SignCosine": "sign_cosine",
                "FrozenConstant": "frozen_constant", "CustomSampled": "custom_sampled",
                "RawInterference": "raw_interference"}


def _simulate_key(args, kwargs):
    cfg = args[4] if len(args) > 4 else kwargs.get("cfg", sim.DEFAULT_CONFIG)
    integ = "fixed" if isinstance(cfg.method, sim.FixedRK4) else "adaptive"
    return f"sim.simulate.{_DRIVE_NAMES[type(args[1]).__name__]}.{integ}"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.phase_cpu = defaultdict(int)   # pool-thread CPU inside each experiment call
        self._phase = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn, units=None, key=None, phase=False):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            root = not stack
            frame = [0]
            stack.append(frame)
            if phase:
                tracer._phase = name
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter_ns() - t0
                cpu = time.thread_time_ns() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                if phase:
                    tracer._phase = None
            n = units(args, result) if units else 0
            names = (name, key(args, kwargs)) if key else (name,)
            with tracer._lock:
                for nm in names:
                    s = tracer.stats[nm]
                    s.calls += 1
                    s.wall_ns += wall
                    s.cpu_ns += cpu
                    s.child_ns += frame[0]
                    s.units += n
                if root and not phase and tracer._phase is not None:
                    tracer.phase_cpu[tracer._phase] += cpu
            return result

        return traced

    def install(self):
        """Wrap the public functions; returns a callable that removes the wrappers."""
        saved = []

        def put(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        kernels = types.SimpleNamespace(**{k: v for k, v in vars(_kernels).items()
                                           if not k.startswith("__")})
        for name, units in (("cosine_cell_spikes", _cell_steps),
                            ("rk4_trajectory", _rk4_steps),
                            ("dp45_trajectory", _dp45_steps),
                            ("spike_scan", _samples),
                            ("transport_arc", None),
                            ("leftmost_cubic_root", None)):
            setattr(kernels, name, self.wrap(f"_kernels.{name}", getattr(_kernels, name), units))
        for module in (frozen, singular, sim, experiments):
            put(module, "_kernels", kernels)

        def wrap_in(fn_module, attr, callers, **kw):
            traced = self.wrap(f"{fn_module.__name__.split('.')[-1]}.{attr}",
                               getattr(fn_module, attr), **kw)
            for module in callers:
                put(module, attr, traced)

        wrap_in(frozen, "classify_region", (frozen, singular, experiments))
        for attr in ("frozen_table", "no_spiking_condition", "piecewise_spiking_condition"):
            wrap_in(frozen, attr, (frozen,))
        wrap_in(frozen, "equilibrium", (singular, sim, experiments))
        wrap_in(frozen, "fold_point", (singular,))
        for attr in ("kappa_threshold", "escape_cycle_check", "predicts_no_tonic"):
            wrap_in(singular, attr, (singular, experiments))
        wrap_in(sim, "simulate", (sim,), key=_simulate_key)
        wrap_in(sim, "count_spikes", (sim,))
        for attr in ("run_experiment1", "run_experiment2"):
            wrap_in(experiments, attr, (experiments,), phase=True)
        wrap_in(experiments, "evaluate_prediction", (experiments,))
        for attr in ("save_sweep_results", "save_grid_results"):
            wrap_in(experiments, attr, (experiments,), units=_bytes)

        def uninstall():
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

        return uninstall

    # ------------------------------------------------------------- metrics

    def _self_ns(self, prefix):
        return sum(s.wall_ns - s.child_ns for n, s in self.stats.items()
                   if n.startswith(prefix))

    def per_layer(self, rounds, points):
        """name -> (value, unit); totals are per traced round, 0 where nothing ran."""
        st = self.stats

        def per(name, field, scale, unit_field=None):
            s = st.get(name)
            if s is None:
                return 0.0
            den = getattr(s, unit_field) if unit_field else s.calls
            return getattr(s, field) / scale / den if den else 0.0

        def total(name, field, scale):
            s = st.get(name)
            return getattr(s, field) / scale / rounds if s else 0.0

        def self_per_call(name, scale, extra_ns=0):
            s = st.get(name)
            return (s.wall_ns - s.child_ns - extra_ns) / scale / s.calls if s else 0.0

        m = {
            "kernels.cosine_cell_spikes.ns_per_step":
                (per("_kernels.cosine_cell_spikes", "cpu_ns", 1, "units"), "ns"),
            "kernels.cosine_cell_spikes.busy_s":
                (total("_kernels.cosine_cell_spikes", "cpu_ns", 1e9), "s"),
            "kernels.rk4_trajectory.ns_per_step":
                (per("_kernels.rk4_trajectory", "wall_ns", 1, "units"), "ns"),
            "kernels.dp45_trajectory.ns_per_accepted_step":
                (per("_kernels.dp45_trajectory", "wall_ns", 1, "units"), "ns"),
            "kernels.spike_scan.ns_per_sample":
                (per("_kernels.spike_scan", "wall_ns", 1, "units"), "ns"),
            "kernels.transport_arc.calls":
                (total("_kernels.transport_arc", "calls", 1), "count"),
            "kernels.transport_arc.us_per_call":
                (per("_kernels.transport_arc", "wall_ns", 1e3), "us"),
            "kernels.leftmost_cubic_root.calls":
                (total("_kernels.leftmost_cubic_root", "calls", 1), "count"),
            "frozen.classify_region.calls": (total("frozen.classify_region", "calls", 1), "count"),
            "frozen.classify_region.us_per_call":
                (per("frozen.classify_region", "wall_ns", 1e3), "us"),
            "frozen.frozen_table.ms_per_call": (per("frozen.frozen_table", "wall_ns", 1e6), "ms"),
        }
        for name in ("kappa_threshold", "escape_cycle_check", "predicts_no_tonic"):
            m[f"singular.{name}.ms_per_call"] = (per(f"singular.{name}", "wall_ns", 1e6), "ms")
        m["singular.self_ms_per_point"] = (
            self._self_ns("singular.") / 1e6 / points if points else 0.0, "ms")
        for kind in _DRIVE_NAMES.values():
            for integ in ("fixed", "adaptive"):
                name = f"sim.simulate.{kind}.{integ}"
                m[f"{name}.ms_per_call"] = (per(name, "wall_ns", 1e6), "ms")
        m["sim.simulate.self_ms_per_call"] = (self_per_call("sim.simulate", 1e6), "ms")
        m["sim.count_spikes.us_per_call"] = (per("sim.count_spikes", "wall_ns", 1e3), "us")
        for name in ("experiments.run_experiment1", "experiments.run_experiment2"):
            m[f"{name}.self_s"] = (self_per_call(name, 1e9, self.phase_cpu[name]), "s")
        for name in ("save_sweep_results", "save_grid_results"):
            m[f"experiments.{name}.ms"] = (per(f"experiments.{name}", "wall_ns", 1e6), "ms")
        m["experiments.bytes_written"] = (
            total("experiments.save_sweep_results", "units", 1)
            + total("experiments.save_grid_results", "units", 1), "B")
        return m
