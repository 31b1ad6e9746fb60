"""Span tracing of calls into bbmlab, installed from outside the library.

``Tracer.install()`` replaces every public function of each bbmlab module,
and every public method of each public class, by a timing wrapper.  It
patches the real module attributes and class dictionaries (including the
names other bbmlab modules imported with ``from ... import``), so
``isinstance`` checks inside the library still see the real classes.
``uninstall()`` puts the originals back.

Each call records a span: name, start, end, parent span and op id.  Spans
live in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("fields", "mollifiers", "quadrature", "constants", "functionals",
          "perimeter", "maximal", "pathology", "reports", "cli")


def _mollifier_key(m, tail_tol):
    return (m.kind, m.dimension, m.param, m.normalized, tail_tol)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.points = array("q")    # rows evaluated, for eval/gradient spans
        self.stack: list[int] = []
        self.op_id = -1
        self.repeats = {"radial": [0, 0, set()], "radius": [0, 0, set()]}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _repeat(self, which: str, key) -> None:
        slot = self.repeats[which]
        slot[1] += 1
        if key in slot[2]:
            slot[0] += 1
        else:
            slot[2].add(key)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        leaf = name.rsplit(".", 1)[-1]
        # rows of the (m, d) point batch of a field evaluation
        rows = leaf in ("eval_many", "gradient_many")
        if name == "quadrature.radial_rule":
            def note(args, kwargs):
                m = args[0]
                level = args[1] if len(args) > 1 else kwargs.get("level")
                self._repeat("radial", (
                    _mollifier_key(m, kwargs.get("tail_tol")), level,
                    tuple(float(b) for b in kwargs.get("breakpoints", ())),
                    kwargs.get("nodes_per_panel"), kwargs.get("grade_origin")))
        elif name == "mollifiers.RadialMollifier.quadrature_radius":
            def note(args, kwargs):
                tol = args[1] if len(args) > 1 else kwargs.get("tail_tol")
                self._repeat("radius", _mollifier_key(args[0], tol))
        else:
            note = None
        grid = name == "perimeter.degiorgi_field"
        stack, start, end = self.stack, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.points.append(args[1].shape[0] if rows else 0)
            start.append(0.0)
            end.append(0.0)
            if note is not None:
                note(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if grid:
                self.points[idx] = result.values.size
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"bbmlab.{m}") for m in LAYERS}
        modules["bbmlab"] = importlib.import_module("bbmlab")
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                new = self._wrap(name, member)
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(name, member.__func__))
            else:
                continue
            self._patched.append((cls, attr, member))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "points": np.frombuffer(self.points, dtype=np.int64)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, ops: int, cli_bytes: int, cli_identical: float) -> dict:
        a = self.arrays()
        n = a["name"].size
        names = np.array(self.names + [""])
        span_name = names[a["name"]] if n else np.array([], dtype=str)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_t = dur - child
        layer = np.array([s.split(".", 1)[0] for s in span_name])
        leaf = np.array([s.rsplit(".", 1)[-1] for s in span_name])
        is_field_call = (layer == "fields") & np.isin(leaf, ("eval_many", "gradient_many"))
        # a field call nested in another (BVField1D -> its smooth part) is
        # not a second evaluation; neither is any call below a constants one
        in_field = np.zeros(n, dtype=bool)
        in_const = np.zeros(n, dtype=bool)
        in_path = np.zeros(n, dtype=bool)
        in_maximal = np.zeros(n, dtype=bool)
        par = a["parent"]
        for i in range(n):
            j = par[i]
            if j >= 0:
                in_field[i] = in_field[j] or is_field_call[j]
                in_const[i] = in_const[j] or layer[j] == "constants"
                in_path[i] = in_path[j] or layer[j] == "pathology"
                in_maximal[i] = in_maximal[j] or layer[j] == "maximal"
        outer_eval = (leaf == "eval_many") & is_field_call & ~in_field
        outer_grad = (leaf == "gradient_many") & is_field_call & ~in_field

        def total(mask, values=dur):
            return float(np.sum(values[mask]))

        def count(mask):
            return int(np.count_nonzero(mask))

        def named(*qual):
            return np.isin(span_name, qual)

        def ratio(num, den):
            return num / den if den else 0.0

        eval_points = int(np.sum(a["points"][outer_eval]))
        eval_s = total(outer_eval)
        density = named("functionals.pointwise_density",
                        "functionals.remainder_density",
                        "functionals.domain_density")
        energies = named("functionals.energy", "functionals.sobolev_residual")
        radial = named("quadrature.radial_rule")
        sphere = named("quadrature.sphere_rule", "quadrature.sphere_rule_aligned")
        radius = named("mollifiers.RadialMollifier.quadrature_radius")
        const_outer = (layer == "constants") & ~in_const
        maximal_outer = (layer == "maximal") & ~in_maximal
        rep_r, rep_m = self.repeats["radial"], self.repeats["radius"]
        m = {
            "fields.eval_calls": count(outer_eval),
            "fields.eval_points": eval_points,
            "fields.eval_s": eval_s,
            "fields.points_per_s": ratio(eval_points, eval_s),
            "fields.grad_points": int(np.sum(a["points"][outer_grad])),
            "fields.grad_s": total(outer_grad),
            "functionals.density_calls": count(density),
            "functionals.density_self_s": total(density, self_t),
            "functionals.energy_calls": count(energies),
            "functionals.energy_self_s": total(energies, self_t),
            "functionals.points_per_op": ratio(eval_points, ops),
            "quadrature.radial_rule_calls": count(radial),
            "quadrature.radial_rule_s": total(radial),
            "quadrature.radial_repeat_ratio": ratio(rep_r[0], rep_r[1]),
            "quadrature.sphere_rule_calls": count(sphere),
            "quadrature.sphere_rule_s": total(sphere),
            "quadrature.axis_rule_s": total(named("quadrature.axis_rule")),
            "mollifiers.evaluate_calls": count(named("mollifiers.RadialMollifier.evaluate")),
            "mollifiers.evaluate_s": total(named("mollifiers.RadialMollifier.evaluate")),
            "mollifiers.radius_calls": count(radius),
            "mollifiers.radius_s": total(radius),
            "mollifiers.radius_repeat_ratio": ratio(rep_m[0], rep_m[1]),
            "constants.calls": count(const_outer),
            "constants.s": total(const_outer),
            "perimeter.bbm_self_s": total(named("perimeter.bbm_perimeter"), self_t),
            "perimeter.degiorgi_s": total(named("perimeter.degiorgi_perimeter")),
            "perimeter.grid_points": int(np.sum(a["points"][named("perimeter.degiorgi_field")])),
            "maximal.calls": count(maximal_outer),
            "maximal.weak11_s": total(named("maximal.weak11_check")),
            "maximal.maximal_function_s": total(named("maximal.maximal_function")),
            "maximal.kernel_bound_s": total(named("maximal.kernel_bound_check")),
            "pathology.probe_s": total(named("pathology.divergence_probe")),
            "pathology.scan_s": total(named("pathology.threshold_scan")),
            "pathology.eval_points": int(np.sum(a["points"][outer_eval & in_path])),
            "reports.classify_calls": count(named("reports.classify_sequence")),
            "reports.classify_s": total(named("reports.classify_sequence")),
            "cli.runs": count(named("cli.main")),
            "cli.run_s": total(named("cli.main")),
            "cli.emit_s": total(named("cli.emit")),
            "cli.csv_bytes": int(cli_bytes),
            "cli.rerun_identical": float(cli_identical),
        }
        for lay in LAYERS:
            m[f"{lay}.self_s"] = total(layer == lay, self_t)
        m["trace.spans"] = int(n)
        return m


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, by name."""
    units = {}
    special = {"fields.points_per_s": "points/s", "functionals.points_per_op": "points/op",
               "cli.csv_bytes": "bytes", "cli.rerun_identical": "1", "constants.s": "s"}
    for name in Tracer().layer_metrics(1, 0, 1.0):
        if name in special:
            units[name] = special[name]
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "1"
        else:
            units[name] = "count"
    units.update({"trace.untraced_s": "s", "trace.traced_s": "s",
                  "trace.overhead_s": "s"})
    return units

