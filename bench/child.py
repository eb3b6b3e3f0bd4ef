"""One `verify` run in a fresh interpreter, timed from outside the program.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds `src` (the directory holding the carlitzscan package),
`argv` (the `verify` arguments), `marks` (a file for the timing marks),
`trace` (a directory for spans, or null), `setup_only` and `cpus` (the
CPUs the run is pinned to, pool workers included, or null).

The run calls `carlitzscan.cli.main(argv)`.  The only change to the
program is that functions are wrapped where its modules bind them:
`cli.run_verify` and `cli.write_records` always, to mark when the scan
starts and when the report is written, and with `trace` set every
function in TRACED as well, each call recording a span (name, start,
end, parent).  Spans stay in memory and are written out when the process
ends; pool workers forked during the run write their own.
"""

import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import resource
import sys
import time

# (module, function, counted argument, count per call) or None in place of
# the last two.  A name the program no longer has is reported as missing,
# not as an error.
TRACED = (
    ("residues", "inverse_range", ("n", int)),
    ("residues", "binom_pm1", None),
    ("residues", "signed_central_binomial", None),
    ("residues", "reduce_rational", None),
    ("bernoulli", "power_sum_mod", None),
    ("bernoulli", "smallest_prime_factors", None),
    # A window evaluates B_(p-3) when it holds the offset 3.
    ("bernoulli", "bernoulli_window_mod_p", ("offsets", lambda offsets: int(3 in offsets))),
    ("bernoulli", "bernoulli_pm3_mod_p", None),
    ("bernoulli", "fermat_quotient_2", None),
    ("congruences", "lhs_power_sums_batch", ("a_max", int)),
    ("congruences", "rhs_theorem", None),
    ("harmonic", "verify_lemma_2_1", None),
    ("harmonic", "verify_lemma_2_2", None),
    ("harmonic", "verify_derived_sums", None),
    ("cli", "run_verify", None),
    ("cli", "write_records", ("records", len)),
)


class SetupDone(Exception):
    """Raised at the scan call when only the set-up is measured."""


class Tracer:
    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        multiprocessing.util.register_after_fork(self, Tracer._forked)

    def _forked(self) -> None:
        # A pool worker starts with no spans and writes its own at exit.
        self.spans = []
        self.stack = []
        multiprocessing.util.Finalize(self, self.write, exitpriority=10)

    def wrap(self, name: str, fn, counted: "tuple | None"):
        index = None
        if counted is not None:
            param, count = counted
            params = list(inspect.signature(fn).parameters)
            if param in params:
                index = params.index(param)
            else:
                self.missing.append(f"{name}({param})")
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            self.spans.append(None)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                n = 0
                if index is not None:
                    arg = args[index] if index < len(args) else kwargs.get(param)
                    n = 0 if arg is None else count(arg)
                self.spans[sid] = (sid, parent, name, t0, t1, n)

        return functools.update_wrapper(traced, fn)

    def write(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "w") as f:
            for span in self.spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")


def rebind(old, new) -> None:
    """Replace `old` by `new` in every carlitzscan module that binds it."""
    for modname, mod in list(sys.modules.items()):
        if modname == "carlitzscan" or modname.startswith("carlitzscan."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def install_tracer(tracer: Tracer) -> None:
    for modname, fname, counted in TRACED:
        try:
            mod = importlib.import_module(f"carlitzscan.{modname}")
        except ImportError:
            tracer.missing.append(f"{modname}.{fname}")
            continue
        fn = getattr(mod, fname, None)
        if not callable(fn):
            tracer.missing.append(f"{modname}.{fname}")
            continue
        rebind(fn, tracer.wrap(f"{modname}.{fname}", fn, counted))


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpus"):
        os.sched_setaffinity(0, spec["cpus"])
    sys.path.insert(0, spec["src"])
    from carlitzscan import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"carlitzscan imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 4

    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["trace"])
        install_tracer(tracer)

    marks = {}
    run_verify, write_records = cli.run_verify, cli.write_records

    def marked_run_verify(*args, **kwargs):
        marks["scan_start"] = time.monotonic_ns()
        if spec["setup_only"]:
            raise SetupDone
        return run_verify(*args, **kwargs)

    def marked_write_records(*args, **kwargs):
        write_records(*args, **kwargs)
        marks["write_end"] = time.monotonic_ns()

    rebind(run_verify, marked_run_verify)
    rebind(write_records, marked_write_records)
    try:
        code = cli.main(spec["argv"])
    except SetupDone:
        code = 0
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    marks.update(
        code=code,
        maxrss_kb=max(own.ru_maxrss, kids.ru_maxrss),
        worker_cpu_s=kids.ru_utime + kids.ru_stime,
        missing=tracer.missing if tracer else [],
    )
    if tracer:
        tracer.write()
    with open(spec["marks"], "w") as f:
        json.dump(marks, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
