"""Spans around every public function of the framescale modules.

The tracer works from outside the package.  For each layer module it
wraps every public function the module defines, then rebinds each
wrapped function in every ``framescale`` namespace that refers to it.
Functions look up module globals at call time, so calls inside a module
(``psd_sqrt`` calling ``jacobi_eigh``) and across modules (``rescale``
calling ``jacobi_eigh`` through its own import) are both recorded.
Names are grouped by the module that defines them, so a re-export or a
rename of the importing name does not move a function to another layer.

Private helpers (``_newton_polish``, ``_psi_only`` and the like) are not
wrapped: their time shows as self time of the public span that called
them.

Spans are kept in flat arrays (name id, start, end, parent id, op id)
and written out once, at the end of the run.
"""

import array
import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "frames", "multiplier", "rescale", "verify", "instances",
          "cli")
NO_OP = -1


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.op_id = NO_OP
        self._stack = [-1]
        self._restore = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(sid)

        return traced

    def install(self) -> None:
        """Rebind every public framescale function to its traced wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"framescale.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for name, m in sys.modules.items()
                      if name == "framescale" or name.startswith("framescale.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, op."""
        return (np.frombuffer(self.name_id, dtype=np.intc).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.op, dtype=np.intc).copy())

    def write(self, path: str) -> None:
        """Write every span to an .npz file with the name table alongside."""
        name_id, start, end, parent, op = self.arrays()
        np.savez(path, name_id=name_id, start=start, end=end, parent=parent,
                 op=op, names=np.array(json.dumps(self.names)))


def _ancestor_with(names, name_id, parent, wanted):
    """For each span, the nearest span at or above it whose name is wanted.

    Spans are numbered in start order, so a parent always precedes its
    children and one forward pass resolves every chain.
    """
    hit = np.isin(name_id, [i for i, n in enumerate(names) if n in wanted])
    out = np.full(name_id.size, -1, dtype=np.int64)
    for sid in range(name_id.size):
        if hit[sid]:
            out[sid] = sid
        elif parent[sid] >= 0:
            out[sid] = out[parent[sid]]
    return out


IO_FUNCTIONS = {"cli.load_instance", "cli.load_corpus", "cli.save_instance",
                "cli.write_report"}
GRID = "multiplier.norm_oracle_grid"
OPTIMIZE = "rescale.optimize"
ALTERNATING = "multiplier.norm_lower_alternating"


def layer_metrics(tracer: Tracer, ops: int, setups: int,
                  masks_per_op: dict, op_scale, setup_scale: float) -> dict:
    """Per-layer metrics derived from the recorded spans.

    Spans whose op id is NO_OP belong to set-up.  Times are per
    operation (per set-up for the set-up metrics), scaled to the
    reference host speed by their operation's factor ``op_scale[op]``
    (``setup_scale`` for set-up spans); ``<layer>.calls`` is the total
    call count over the traced operations.
    """
    names = tracer.names
    name_id, start, end, parent, op = tracer.arrays()
    factor = np.append(np.asarray(op_scale, dtype=np.float64), setup_scale)
    dur = (end - start) * factor[op]  # op == NO_OP picks setup_scale
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_t = dur - child
    span_name = np.array(names, dtype=object)[name_id] if names else np.array([])
    layer = np.array([n.split(".")[0] for n in span_name], dtype=object)
    in_op = op != NO_OP

    def total(mask, values):
        return float(np.sum(values[mask]))

    m = {}
    for lay in LAYERS:
        sel = in_op & (layer == lay)
        m[f"{lay}.calls"] = int(np.count_nonzero(sel))
        m[f"{lay}.self_s"] = total(sel, self_t) / ops
    m["linalg.calls_per_op"] = m["linalg.calls"] / ops

    def named(name):
        return in_op & (span_name == name)

    for name in (OPTIMIZE, "rescale.extract_scaling", "rescale.build_dilation",
                 GRID, ALTERNATING, "multiplier.cb_lower_sampled"):
        m[f"{name}.s"] = total(named(name), dur) / ops
    m[f"{OPTIMIZE}.self_s"] = total(named(OPTIMIZE), self_t) / ops
    m[f"{ALTERNATING}.calls_per_op"] = int(np.count_nonzero(named(ALTERNATING))) / ops

    optimizes = int(np.count_nonzero(named(OPTIMIZE)))
    under_opt = _ancestor_with(names, name_id, parent, {OPTIMIZE}) >= 0
    linalg_under_opt = int(np.count_nonzero(in_op & under_opt & (layer == "linalg")))
    m[f"{OPTIMIZE}.linalg_calls"] = linalg_under_opt / optimizes if optimizes else 0.0

    grid_spans = np.flatnonzero(named(GRID))
    masks = sum(masks_per_op.get(int(op[s]), 0) for s in grid_spans)
    m["multiplier.grid_ns_per_mask"] = (
        1e9 * float(np.sum(dur[grid_spans])) / masks if masks else 0.0)

    # outermost I/O spans only, so load_corpus -> load_instance counts once
    io_top = _ancestor_with(names, name_id, parent, IO_FUNCTIONS)
    outer_io = (io_top == np.arange(name_id.size)) & (
        np.where(nested, io_top[np.maximum(parent, 0)], -1) < 0)
    m["cli.io_s"] = total(outer_io & in_op, dur) / ops
    m["cli.setup_io_s"] = total(outer_io & ~in_op, dur) / setups if setups else 0.0
    m["instances.generate.s"] = total(
        ~in_op & (span_name == "instances.generate"), dur) / setups if setups else 0.0
    return m
