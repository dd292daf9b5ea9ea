"""In-memory span tracing of hencler, installed from outside the package.

`instrument` replaces the public functions of each hencler module (and every
other module's reference to them) with wrappers that record a span per call:
name, start, end, parent span and run id. Tape ops get a forward span and a
span around each backward closure of the `Var` they return, so per-op forward
and backward self times land on the op name. Nothing under `src/` changes.

`untraced_hooks` is the cheap alternative for end-to-end runs: it only
timestamps the first entry into training (or into the feature maps, for the
oracle) so set-up time can be split from the rest of a command.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import time
from collections import Counter

MODULES = ("graphio", "gradients", "model", "loss", "trainer", "linalg",
           "evaluate", "dual", "cli")

# Private functions that bound a stage the per-layer metrics need.
PRIVATE = {
    "trainer": ("_eval_embeddings", "_project_unit_columns"),
    "linalg": ("_lloyd",),
    "cli": ("_write_assignment", "_write_embeddings"),
}

# gradients functions that are not tape ops.
NOT_OPS = ("backward", "forward_backward", "grad_check", "kink_signature")

# The same function seen through two callers gets two names, so the training
# forward and the tracking forward can be told apart.
ALIASES = {("loss", "feature_maps"): "model.feature_maps.train",
           ("trainer", "feature_maps"): "model.feature_maps.eval"}


class Tracer:
    """Spans kept in flat lists; `stack` holds the indices of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recording one span per call; `after(result, args)`
        may add exact counts once the call has returned."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args)
            return result
        return traced

    def wrap_op(self, op: str, fn):
        """Tape op: forward span, then wrap the backward closures it made.

        The closures are rewrapped after the forward span closes, so that
        bookkeeping is charged to the caller, not to the op's forward time.
        """
        fwd_name = "gradients.fwd." + op
        bwd_name = "gradients.bwd." + op

        def traced(*args, **kwargs):
            idx = self.open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            out.parents = tuple((parent, self.wrap(bwd_name, back))
                                for parent, back in out.parents)
            return out
        return traced

    def export(self) -> dict:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        return {"run_id": self.run_id, "names": table,
                "spans": [[index[n], s, e, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends,
                              self.parents)],
                "counts": dict(self.counts)}


def _modules():
    return {name: importlib.import_module(f"hencler.{name}")
            for name in MODULES}


def _originals(mods) -> dict:
    """Map each function to trace onto (defining module, name): the public
    functions a module defines, plus its PRIVATE entries."""
    found = {}
    for short, mod in mods.items():
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and (not name.startswith("_")
                         or name in PRIVATE.get(short, ()))):
                found[fn] = (short, name)
    return found


def instrument(tracer: Tracer) -> None:
    """Replace every traced function in every hencler namespace."""
    import hencler
    mods = _modules()
    originals = _originals(mods)

    def count_epochs(result, args):
        tracer.counts["trainer.epochs"] += args[1].epochs

    def count_lloyd(result, args):
        tracer.counts["linalg.lloyd_iters"] += len(result[2])

    def count_similarity(result, args):
        tracer.counts["model.similarity_bytes"] += int(result.nbytes)

    after = {("trainer", "train"): count_epochs,
             ("linalg", "_lloyd"): count_lloyd,
             ("model", "similarity_matrix"): count_similarity}

    namespaces = dict(mods, hencler=hencler)
    for short, mod in namespaces.items():
        for attr, value in list(vars(mod).items()):
            if not inspect.isfunction(value) or value not in originals:
                continue
            home, name = originals[value]
            if home == "gradients" and name not in NOT_OPS:
                wrapped = tracer.wrap_op(name, value)
            else:
                label = ALIASES.get((short, attr), f"{home}.{name}")
                wrapped = tracer.wrap(label, value, after.get((home, name)))
            setattr(mod, attr, wrapped)

    # metrics.json and oracle.json are written inline by the cli commands.
    pathlib.Path.write_text = tracer.wrap("pathlib.write_text",
                                          pathlib.Path.write_text)


def untraced_hooks(marks: dict) -> None:
    """Timestamp entry into `train` / `map_features` as the cli calls them.

    `marks` receives `<name>.first` (first entry), `<name>.total` (seconds
    inside) and, for train, `train.node_epochs` (nodes x epochs).
    """
    from hencler import cli

    def hook(name, fn, node_epochs=False):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            marks.setdefault(name + ".first", start)
            try:
                return fn(*args, **kwargs)
            finally:
                marks[name + ".total"] = (marks.get(name + ".total", 0.0)
                                          + time.perf_counter() - start)
                if node_epochs:
                    marks["train.node_epochs"] = (
                        marks.get("train.node_epochs", 0)
                        + args[0].num_nodes * args[1].epochs)
        return timed

    cli.train = hook("train", cli.train, node_epochs=True)
    cli.map_features = hook("map_features", cli.map_features)
