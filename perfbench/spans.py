"""In-memory span tracing of calls into specalt's public functions.

``Tracer.install()`` replaces each traced function in every ``specalt``
module that holds it, including modules that imported it by name, with a
wrapper recording a span ``(name, start, end, parent, op, tag)``.  ``tag``
keeps the part of the result the per-layer counters need.  Spans stay in
memory; ``write`` saves them as CSV when the run ends.
"""

from __future__ import annotations

import sys
import time

TRACED = {
    "tables": ["analyze"],
    "diagram": ["parse_pd", "reduce_nugatory", "change_crossings", "canonical_key"],
    "seifert": ["signature_nullity"],
    "linalg": ["symmetric_signature_nullity", "det_bareiss"],
    "invariants": ["gl_signature", "determinant", "linking_matrix", "goeritz"],
    "lattice": ["obstruction", "clasp_candidates"],
    "unknotting": ["decide_minimal_unlinking", "exhaustive_search",
                   "certify_unlink", "reidemeister_simplify"],
    "moves": ["apply_move"],
    "bracket": ["normalized_bracket"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

_REFUTED = {"linking number": "linking", "determinant": "determinant",
            "bracket": "bracket", "component count": "components"}


def _tag(name: str, result):
    """The part of a result that the counters read."""
    if name == "lattice.obstruction":
        return (result.nodes, result.dedup)
    if name == "unknotting.exhaustive_search":
        return (result.subsets_tried, result.status)
    if name == "unknotting.certify_unlink":
        if result.status == "refuted":
            return "refuted." + _REFUTED.get(result.invariant, result.invariant)
        return result.status
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = ""
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, clock(), parent, self.op, "raised")
                raise
            finally:
                stack.pop()
            spans[idx] = (name, t0, clock(), parent, self.op, _tag(name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a specalt module holds it."""
        mods = [m for key, m in sys.modules.items()
                if m is not None and (key == "specalt" or key.startswith("specalt."))]
        for modname, fns in TRACED.items():
            home = sys.modules[f"specalt.{modname}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{modname}.{fn}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def under(spans, ancestor: str) -> list[bool]:
    """Whether each span has an ancestor span called ``ancestor``."""
    out = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        out[i] = p >= 0 and (spans[p][0] == ancestor or out[p])
    return out


def write(path: str, spans) -> None:
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,op,tag\n")
        for name, t0, t1, parent, op, tag in spans:
            tag_text = "" if tag is None else str(tag).replace(",", ";")
            fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op},{tag_text}\n")
