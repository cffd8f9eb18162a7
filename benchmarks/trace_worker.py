"""Run one excol invocation in this fresh process, optionally traced.

Usage: python3 trace_worker.py --trace 0|1 --result R.json --stdout O --stderr E -- ARGV...

The first statement after the clock starts is ``import excol.cli``, so
``startup_s`` is the import cost a fresh ``excol`` process pays.  The
invocation then runs in-process as ``excol.cli.main(ARGV)`` with stdout
and stderr captured to the given files.

With ``--trace 1`` the entry points of every excol module are replaced,
wherever callers look them up, by wrappers that record one span per call:
its name, start, end and parent span.  Spans are kept in flat arrays in
memory and folded into per-layer metrics after ``main`` returns.  A
layer's self time is the time its spans cover minus the time their child
spans cover; the root span is ``cli.main``.  The worker checks that the
self times of all layers add up to the time ``main`` took after startup,
clocked outside every wrapper, to within ``WRAPPER_TOLERANCE_S``.
"""

import sys
import time

_T0 = time.perf_counter()
import excol.cli  # noqa: E402  (timed: this is the startup cost)

STARTUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402

from excol import braid, collection, markov, pn, regions, suites  # noqa: E402

LAYERS = ("cli", "suites", "markov", "collection", "braid", "regions", "pn")

# Groups whose inclusive time is reported: a span adds its duration to a
# group only when no enclosing span belongs to the same group.
GROUPS = {
    "collection.mutate_s": ("collection._mutate",),
    "collection.apply_word_s": ("collection.apply_word",),
    "collection.unipotency_s": ("collection.is_minus_kappa_unipotent",),
    "collection.io_s": ("collection.load", "collection.save",
                        "collection.to_json_text", "collection.from_json_text"),
    "braid.normal_form_s": ("braid.normal_form",),
    "braid.parse_s": ("braid.parse_word",),
    "markov.oracle_s": ("markov.unipotency_oracle",),
    "markov.tuple_action_s": ("markov.apply_g", "markov.GWord.apply", "markov.f_image"),
    "markov.equivariance_s": ("markov.check_equivariance",),
    "regions.is_feasible_s": ("regions.is_feasible",),
    "pn.s": ("pn.beilinson_collection", "pn.twist_matrix", "pn.serre_class_map",
             "pn.line_bundle_cohomology", "pn.euler_chi_line"),
    "suites.braid_s": ("suites.braid",),
    "suites.mutation_s": ("suites.mutation",),
    "suites.markov_s": ("suites.markov",),
    "suites.regions_s": ("suites.regions",),
    "suites.pn_s": ("suites.pn",),
}

# Largest gap allowed between the untraced clock around main and the sum
# of the layer self times: the root wrapper's few appends and clock reads,
# plus a garbage-collector pause that may fall between them.
WRAPPER_TOLERANCE_S = 5e-3

# Span counts and self times reported by span name.
COUNTS = {
    "collection.mutations": "collection._mutate",
    "braid.words_built": "braid.BraidWord",
    "braid.normal_form_calls": "braid.normal_form",
    "markov.oracle_calls": "markov.unipotency_oracle",
}
SELF_TIMES = {
    "markov.orbit_self_s": "markov.orbit",
    "markov.stabilizer_self_s": "markov.stabilizer_scan",
}


class Recorder:
    """Spans in flat arrays plus counters filled in by result hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {
            "braid.letters_checked": 0,
            "braid.nf_letters": 0,
            "markov.orbit_members": 0,
            "markov.stabilizer_hits": 0,
            "regions.constraints": 0,
        }
        self.max_entry_bits = 0

    def wrap(self, fn, name, hook=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # ---- result hooks (run after the span closes; charged to the caller)

    def _note_bits(self, colls):
        for c in colls:
            for m in (c.gram, c.classes):
                for row in m:
                    for x in row:
                        b = x.bit_length()
                        if b > self.max_entry_bits:
                            self.max_entry_bits = b

    def hook_word(self, args, _result):
        self.counters["braid.letters_checked"] += len(args[0].letters)

    def hook_normal_form(self, args, _result):
        self.counters["braid.nf_letters"] += len(args[0].letters)

    def hook_apply_word(self, _args, result):
        self._note_bits((result,))

    def hook_orbit(self, _args, result):
        self.counters["markov.orbit_members"] += len(result)
        self._note_bits(m for m in result if isinstance(m, collection.NumericalCollection))

    def hook_stabilizer(self, _args, result):
        self.counters["markov.stabilizer_hits"] += len(result)

    def hook_feasible(self, args, _result):
        self.counters["regions.constraints"] += len(args[0].constraints)

    # ---- installation

    def install(self):
        """Wrap each module's entry points under every name bound to them."""
        modules = [m for k, m in sys.modules.items() if k == "excol" or k.startswith("excol.")]

        def function(module, attr, span, hook=None):
            orig = getattr(module, attr)
            new = self.wrap(orig, span, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
            for key, value in suites.SUITES.items():
                if value is orig:
                    suites.SUITES[key] = new

        def method(cls, attr, span, hook=None):
            setattr(cls, attr, self.wrap(vars(cls)[attr], span, hook))

        function(suites, "run_suite", "suites.run_suite")
        for name in ("braid", "mutation", "markov", "regions", "pn"):
            function(suites, f"{name}_suite", f"suites.{name}")

        function(markov, "orbit", "markov.orbit", self.hook_orbit)
        function(markov, "stabilizer_scan", "markov.stabilizer_scan", self.hook_stabilizer)
        function(markov, "unipotency_oracle", "markov.unipotency_oracle")
        function(markov, "apply_g", "markov.apply_g")
        method(markov.GWord, "apply", "markov.GWord.apply")
        function(markov, "f_image", "markov.f_image")
        function(markov, "check_equivariance", "markov.check_equivariance")
        for attr in ("eval_eq1", "eval_eq2", "t_map"):
            function(markov, attr, f"markov.{attr}")

        function(collection, "_mutate", "collection._mutate")
        function(collection, "apply_word", "collection.apply_word", self.hook_apply_word)
        for attr in ("is_minus_kappa_unipotent", "serre_matrix", "from_gram",
                     "is_strong_candidate", "load", "save", "to_json_text", "from_json_text"):
            function(collection, attr, f"collection.{attr}")

        method(braid.BraidWord, "__post_init__", "braid.BraidWord", self.hook_word)
        function(braid, "normal_form", "braid.normal_form", self.hook_normal_form)
        function(braid, "is_trivial", "braid.is_trivial")
        function(braid, "parse_word", "braid.parse_word")

        function(regions, "is_feasible", "regions.is_feasible", self.hook_feasible)
        for attr in ("region_system", "lemma41_system", "thm51_systems", "contains", "alpha"):
            function(regions, attr, f"regions.{attr}")

        for attr in ("beilinson_collection", "twist_matrix", "serre_class_map",
                     "line_bundle_cohomology", "euler_chi_line"):
            function(pn, attr, f"pn.{attr}")

    # ---- folding spans into metrics

    def metrics(self):
        names = self.names
        layer_of = [LAYERS.index(n.split(".", 1)[0]) for n in names]
        group_keys = list(GROUPS)
        group_bits = [0] * len(names)
        for g, key in enumerate(group_keys):
            for span in GROUPS[key]:
                if span in self.name_ids:
                    group_bits[self.name_ids[span]] |= 1 << g
        # one more bit marks spans inside a stabilizer scan
        stab_bit = 1 << len(group_keys)
        if "markov.stabilizer_scan" in self.name_ids:
            group_bits[self.name_ids["markov.stabilizer_scan"]] |= stab_bit
        mutate_id = self.name_ids.get("collection._mutate", -1)

        n = len(self.name_of)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        mask = [0] * n
        layer_self = [0.0] * len(LAYERS)
        group_incl = [0.0] * len(group_keys)
        self_by_name = [0.0] * len(names)
        count_by_name = [0] * len(names)
        stab_mutations = 0
        for i in range(n):
            nid = self.name_of[i]
            p = self.parent[i]
            outer = mask[p] if p >= 0 else 0
            bits = group_bits[nid]
            mask[i] = outer | bits
            own = dur[i] - child[i]
            layer_self[layer_of[nid]] += own
            self_by_name[nid] += own
            count_by_name[nid] += 1
            fresh = bits & ~outer & (stab_bit - 1)
            g = 0
            while fresh:
                if fresh & 1:
                    group_incl[g] += dur[i]
                fresh >>= 1
                g += 1
            if nid == mutate_id and outer & stab_bit:
                stab_mutations += 1

        out = {f"{layer}.self_s": layer_self[k] for k, layer in enumerate(LAYERS)}
        out.update({key: group_incl[g] for g, key in enumerate(group_keys)})
        for key, span in COUNTS.items():
            nid = self.name_ids.get(span)
            out[key] = count_by_name[nid] if nid is not None else 0
        for key, span in SELF_TIMES.items():
            nid = self.name_ids.get(span)
            out[key] = self_by_name[nid] if nid is not None else 0.0
        out["markov.stabilizer_mutations"] = stab_mutations
        out.update(self.counters)
        return out, sum(layer_self)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--stdout", required=True)
    parser.add_argument("--stderr", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = Recorder() if args.trace else None
    if recorder is not None:
        recorder.install()

    def invoke():
        # behave like the console script: an uncaught error ends the
        # process with a traceback on stderr and exit status 1
        try:
            return excol.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            return 1

    root = recorder.wrap(invoke, "cli.main") if recorder is not None else invoke
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = root()
        main_s = time.perf_counter() - t0

    result = {"returncode": rc, "startup_s": STARTUP_S, "main_s": main_s}
    if recorder is not None:
        layers, self_sum = recorder.metrics()
        # main_s is clocked outside the root span: the layer self times
        # must cover it, short of the root wrapper's own bookkeeping
        if abs(main_s - self_sum) > WRAPPER_TOLERANCE_S:
            raise SystemExit(f"layer self times sum to {self_sum:.6f} s, "
                             f"but main ran {main_s:.6f} s after startup")
        result.update(layers=layers, max_entry_bits=recorder.max_entry_bits)
    with open(args.stdout, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    with open(args.stderr, "w", encoding="utf-8") as fh:
        fh.write(err.getvalue())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
