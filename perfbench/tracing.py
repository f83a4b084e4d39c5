"""In-memory span tracing of groupsystems, applied from outside the package.

`Tracer.install` wraps the public callables listed below.  A function is
rebound on every loaded ``groupsystems.*`` module that refers to it, so calls
made inside the package go through the wrapper too; a method is rebound on
its class.  Nothing under ``src/`` is edited, and `uninstall` restores every
binding.  Targets a later version of the package no longer has are skipped
and reported, and their metrics read zero.

Each call records one span ``[name, start, end, parent, job, extra]``:
`parent` is the index of the enclosing span (-1 for a root), `job` the job
label current when the span started, and `extra` holds counts taken at the
boundary (the error type of a call that raised, the number of extensions an
extension search kept).  A span's self time is its duration minus the
durations of its direct children; spans nest, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "groupsystems"

# (module, function): rebound wherever a groupsystems module refers to it.
TRACED_FUNCTIONS = (
    ("io", "parse_system"),
    ("io", "parse_elementary_system"),
    ("io", "dump_elementary_system"),
    ("systems", "build_system"),
    ("systems", "controllability_index"),
    ("systems", "extract_basis"),
    ("systems", "decode_to_tensor"),
    ("systems", "encode_time_domain"),
    ("systems", "encode_spectral_domain"),
    ("generators", "elementary_group"),
    ("generators", "circ"),
    ("generators", "recover_system_fhgs"),
    ("elementary", "extract_elementary_system"),
    ("elementary", "recover_original"),
    ("elementary", "global_product"),
    ("elementary", "check_homomorphism_condition"),
    ("elementary", "construct_elementary_system"),
    ("elementary", "global_group_system"),
    ("extensions", "enumerate_extensions"),
    ("extensions", "subdirect_product"),
    ("groups", "direct_product"),
    ("groups", "find_isomorphism"),
    ("groups", "is_normal"),
    ("chains", "normal_chain"),
    ("chains", "reconstruct_from_chain"),
    ("chains", "decompose_along_chain"),
    ("chains", "enumerate_normal_fillings"),
)

# (module, class, attribute, span name): constructors, methods, properties.
TRACED_MEMBERS = (
    ("groups", "FiniteGroup", "__init__", "groups.FiniteGroup"),
    ("generators", "GeneratorContext", "__init__", "generators.GeneratorContext"),
    ("systems", "GroupSystem", "verify_closure", "systems.GroupSystem.verify_closure"),
    ("systems", "GroupSystem", "sequence_group", "systems.GroupSystem.sequence_group"),
)


class Tracer:
    """Records spans while installed; `job` labels the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self.skipped: list = []
        self._stack: list = []
        self._undo: list = []
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_kept = name == "extensions.enumerate_extensions"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counts_kept:
                rec[5] = {"kept": len(result.extensions)}
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) under a root span of the benchmark's own."""
        return self._wrap(name, fn)(*args)

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        by_name = {m.__name__: m for m in modules}
        for mod_name, fn_name in TRACED_FUNCTIONS:
            home = by_name.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.skipped.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        for mod_name, cls_name, attr, span_name in TRACED_MEMBERS:
            cls = getattr(by_name.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                self.skipped.append(span_name)
                continue
            if isinstance(orig, property):
                wrapped = property(self._wrap(span_name, orig.fget), doc=orig.__doc__)
            else:
                wrapped = self._wrap(span_name, orig)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reading --------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, indexed like `spans`."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                row = {"name": rec[0], "start": rec[1] - self._origin,
                       "end": rec[2] - self._origin, "parent": rec[3],
                       "job": rec[4]}
                if rec[5]:
                    row.update(rec[5])
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def summarize(tracer: Tracer, keep=None) -> dict:
    """Per span name: calls, self_s, errors and summed result counts, over
    the spans whose job label satisfies `keep` (all spans by default)."""
    selfs = tracer.self_times()
    out: dict = defaultdict(lambda: defaultdict(float))
    for rec, own in zip(tracer.spans, selfs):
        if keep is not None and not keep(rec[4]):
            continue
        row = out[rec[0]]
        row["calls"] += 1
        row["self_s"] += own
        if rec[5]:
            for key, value in rec[5].items():
                row[key] += 1 if key == "error" else value
    return out


def count_children(tracer: Tracer, parent_name: str, child_name: str) -> tuple:
    """(parents with at least one such child, children under such parents)."""
    parents = set()
    children = 0
    spans = tracer.spans
    for rec in spans:
        if rec[0] == child_name and rec[3] >= 0 and spans[rec[3]][0] == parent_name:
            parents.add(rec[3])
            children += 1
    return len(parents), children


def span_signature(path) -> dict:
    """Span names with their counts, and their summed boundary counts, from a
    JSON-lines trace: everything in it except the times."""
    sig: dict = defaultdict(int)
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            sig[row["name"]] += 1
            for key, value in row.items():
                if key not in ("name", "start", "end", "parent", "job"):
                    sig[f"{row['name']}:{key}:{value}"] += 1
    return dict(sig)
