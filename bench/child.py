"""Fresh-process probes for traced runs.

    python3 bench/child.py cli <k3lat arguments...>
        Runs one CLI call as ``python -m k3lat.cli`` would, timing the
        ``k3lat.cli`` import and the command, with spans around the CLI's
        calls into the other modules.  The span record is appended to stderr
        after a marker line.
    python3 bench/child.py groups <catalog|subgroups|filter>
        Times one group-layer step cold, on a fixed input: building the whole
        catalog, enumerating every catalog group's subgroups, or filtering
        the extensions of every finite-kernel row of table 2.  Prints JSON.

``k3lat`` must be importable (``src`` on ``PYTHONPATH``).
"""

import sys
import time


def cli(argv: list[str]) -> int:
    t = time.perf_counter_ns()
    import k3lat.cli as cli_module

    import_ns = time.perf_counter_ns() - t
    import json

    from common import MARKER
    from spans import Tracer, TracedModule

    tracer = Tracer()
    for name, value in list(vars(cli_module).items()):
        if name in ("classifier", "elliptic", "finite_geometry", "lattice_core", "root_config"):
            setattr(cli_module, name, TracedModule(value, tracer))
        elif getattr(value, "__module__", None) == "k3lat.groups" and not (
            isinstance(value, type) and issubclass(value, BaseException)
        ):
            setattr(cli_module, name, lambda *a, _f=value, _n=f"groups.{name}", **kw:
                    tracer.call(_n, _f, *a, **kw))
    t = time.perf_counter_ns()
    code = tracer.call("cli.run", cli_module.run, argv)
    command_ns = time.perf_counter_ns() - t
    sys.stdout.flush()
    record = {"import_ms": import_ns / 1e6, "command_ms": command_ns / 1e6, "spans": tracer.spans}
    sys.stderr.write(MARKER + json.dumps(record))
    return code


def _kernel_invariants(name: str) -> tuple:
    """'1', 'Z/n' or '(Z/n)^k' as invariant factors."""
    if name == "1":
        return ()
    if name.startswith("("):
        base, power = name[1:].split(")^")
        return (int(base[2:]),) * int(power)
    return (int(name[2:]),)


def groups(step: str) -> int:
    import json

    from k3lat import groups as g
    from k3lat.data import load_json
    from k3lat.lattice_core import AbelianInvariants

    out = {}
    t = time.perf_counter_ns()
    catalog = [g.catalog_group(name) for name in g.CATALOG_ORDER]
    if step == "catalog":
        out["ms"] = (time.perf_counter_ns() - t) / 1e6
    elif step == "subgroups":
        t = time.perf_counter_ns()
        out["found"] = sum(len(g.all_subgroups(G)) for G in catalog)
        out["ms"] = (time.perf_counter_ns() - t) / 1e6
    elif step == "filter":
        rows = [r for r in load_json("table2.json")["rows"] if r["kernel"] != "infinite"]
        t = time.perf_counter_ns()
        survivors = []
        for row in rows:
            kernel = AbelianInvariants(_kernel_invariants(row["kernel"]))
            constraint = g.ExtensionConstraint(kernel, 2, tuple(row["ext_facts"]))
            cands = [G for G in catalog if G.order == 2 * kernel.order]
            survivors.append([G.name for G in g.filter_extensions(constraint, cands)])
        out["ms"] = (time.perf_counter_ns() - t) / 1e6
        out["constraints"] = len(rows)
        out["wrong"] = sum(
            s != [g.catalog_group(r["pi1"]["name"]).name] for s, r in zip(survivors, rows)
        )
    else:
        print(f"unknown groups step {step!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["cli"]:
        sys.exit(cli(sys.argv[2:]))
    if sys.argv[1:2] == ["groups"] and len(sys.argv) == 3:
        sys.exit(groups(sys.argv[2]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
