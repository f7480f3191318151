"""Per-layer tracing from outside the program.

The tracer wraps public functions of the dtikit modules in place: a
module-level function is replaced under every name a dtikit module binds it
to (``splits`` calls ``jaccard_distance`` through its own ``from`` import,
``train`` calls ``parse_smiles``, ``auroc`` and ``sample_episode`` the same
way), and a method is replaced on its class.  Each wrapped call records a
span (name, start, end, enclosing span) in memory; nothing is written until
``summary`` is asked for at the end of the run.  A hook whose target no
longer exists is reported as absent and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter
from time import perf_counter

# (module, qualified name): one span per call
SPANNED = (
    ("tensor", "Tensor.backward"),
    ("encoder", "DTIEncoder.interact"),
    ("encoder", "DTIEncoder.protein_levels"),
    ("encoder", "DTIEncoder.drug_levels"),
    ("optim", "ParameterStore.adam_step"),
    ("optim", "ParameterStore.save_bytes"),
    ("train", "evaluate"),
    ("train", "predict"),
    ("metrics", "auroc"),
    ("splits", "drug_distance_matrix"),
    ("splits", "protein_distance_matrix"),
    ("splits", "single_linkage_cluster"),
    ("descriptors", "ecfp"),
    ("descriptors", "psc"),
    ("adversarial", "DomainAdversary.domain_loss"),
    ("fewshot", "PrototypeHead.episode_loss"),
    ("fewshot", "PrototypeHead.episode_probabilities"),
    ("splits", "sample_episode"),
    ("synth", "synth_generate"),
    ("datasets", "load_interactions"),
    ("smiles", "parse_smiles"),
    ("proteins", "encode_protein"),
    ("train", "Featurizer.build"),
)

# Called once per entity pair inside the distance loops (about 700,000
# times in split-large): a span each would cost more than the call, so
# these are only counted and their time stays with the calling matrix.
COUNTED = (
    ("descriptors", "jaccard_distance"),
    ("descriptors", "cosine_distance"),
)

PACKAGE = "dtikit"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, qualname in SPANNED:
        base = f"{module}.{qualname}"
        names += [f"{base}.calls", f"{base}.self_s", f"{base}.errors"]
        if base == "optim.ParameterStore.save_bytes":
            names.append(f"{base}.bytes")
    names += [f"{module}.{qualname}.calls" for module, qualname in COUNTED]
    names += ["tensor.nodes_per_pair", "train.tower_calls_per_pair", "trace.overhead_s"]
    return names


def graph_size(root) -> int:
    """Autodiff nodes reachable from `root` through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, index of enclosing span or -1]
        self._open: list[int] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.absent: list[str] = []
        self.graph_nodes = 0
        self.checkpoint_bytes = 0

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked function; call once, before the workload runs."""
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module, qualname in SPANNED:
            self._patch(modules, module, qualname, self._spanned)
        for module, qualname in COUNTED:
            self._patch(modules, module, qualname, self._counted)

    def _patch(self, modules, module: str, qualname: str, wrap) -> None:
        name = f"{module}.{qualname}"
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            self.absent.append(name)
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(wrap(name, raw.__func__)))
        elif path:
            setattr(owner, attr, wrap(name, raw))
        else:
            wrapped = wrap(name, raw)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, alias, wrapped)

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        spans, open_, calls, errors = self.spans, self._open, self.calls, self.errors
        is_backward = name == "tensor.Tensor.backward"
        is_save = name == "optim.ParameterStore.save_bytes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_backward:
                # counted before the span opens, so the walk is charged to
                # tracing overhead rather than to backward's self time
                if hasattr(args[0], "_parents"):
                    self.graph_nodes += graph_size(args[0])
                elif "tensor.nodes_per_pair" not in self.absent:
                    self.absent.append("tensor.nodes_per_pair")
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
                calls[name] += 1
            if is_save:
                self.checkpoint_bytes += len(out)
            return out

        return wrapper

    # -- reading out ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, errors, total and self time.

        Self time is a span's duration minus the durations of the spans it
        directly encloses.  A name's total counts only its outermost spans,
        so a call nested in a call of the same name is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total_s[name] += end - start
        root_s = sum(end - start for _, start, end, parent in spans if parent < 0)
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "root_s": root_s,
            "absent": list(self.absent),
            "graph_nodes": self.graph_nodes,
            "checkpoint_bytes": self.checkpoint_bytes,
        }
