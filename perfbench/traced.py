"""Run one equilines CLI command in this process, recording a span around
every call into the public functions of each layer.

    python perfbench/traced.py SPANS_FILE STDOUT_FILE CLI_ARG...

The CLI runs through `equilines.cli.run_cli`, so the calls happen in the
order the command makes them.  Each listed function is replaced, in every
`equilines` module that holds a reference to it, by a wrapper that records
name, start, end (perf_counter_ns), the enclosing span and a request id: a
new id starts at each config parsed (analyze) or base set generated
(search).  Spans stay in memory and are written as JSON lines at exit.
The report goes to STDOUT_FILE; the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACED = {
    "cli": ("run_cli",),
    "reports": ("parse_config", "analysis_document", "search_section", "dump_json"),
    "geometry": ("enumerate_lines",),
    "profiles": ("compute_profile", "verify_identities"),
    "inequalities": ("evaluate_all",),
    "bounds": ("evaluate_all_bounds", "evaluate_bound"),
    "generators": ("generate",),
    "kernels": ("build_incidence", "selection_table", "exhaustive_scan", "descent_replay"),
    "search": ("run_search",),
}
REQUEST_ROOTS = ("reports.parse_config", "generators.generate")


def _nbytes(args, result) -> dict:
    return {"bytes": sum(v.nbytes for v in vars(result).values() if hasattr(v, "nbytes"))}


# Counts taken at the span boundary: (args, result) -> span attributes.
ATTRIBUTES = {
    "geometry.enumerate_lines": lambda args, result: {"points": len(args[0]), "lines": len(result)},
    "kernels.build_incidence": _nbytes,
    "kernels.exhaustive_scan": lambda args, result: {"colorings": int(result[3])},
    "kernels.descent_replay": lambda args, result: {"moves": int(result[3]) - 1},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request = 0

    def wrap(self, name: str, fn):
        attributes = ATTRIBUTES.get(name)

        def traced(*args, **kwargs):
            if name in REQUEST_ROOTS:
                self._request += 1
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "request": self._request,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if attributes is not None:
                span.update(attributes(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"equilines.{layer}") for layer in TRACED}
        loaded = [m for key, m in list(sys.modules.items()) if key.startswith("equilines")]
        for layer, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[layer], fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, stdout_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    from equilines import cli

    real_stdout = sys.stdout
    with open(stdout_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            code = cli.run_cli(cli_args)
        finally:
            sys.stdout = real_stdout
    with open(spans_path, "w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
