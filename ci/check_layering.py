#!/usr/bin/env python3
"""Architecture-layering linter: the ROADMAP Rule as a mechanical check.

Parses the project #include graph and fails when an edge crosses a layer
boundary the architecture forbids:

  optimizer-internal  Code outside src/optimizer/ and tests/ must not
                      include optimizer-internal headers (the planner
                      stages: Binder/DagPlanner/PhysicalPlanner and their
                      support headers). Everything else consumes the pass
                      facade (optimizer/passes.h) or the priced outputs
                      (optimizer/dop_planner.h, optimizer/bi_objective.h,
                      optimizer/cardinality.h).

  session-bypass      examples/ and bench/ enter through the service layer
                      (service/session.h, service/database.h) or
                      harness-level components; including optimizer/sql/
                      plan internals or service/query_service.h bypasses
                      the Session front door.

  own-planner         src/tuning, src/stats, and src/workload consume the
                      facade's estimator and pass pipeline; including a
                      planner stage header directly means the component
                      wired its own planner.

  storage-internal    The block format under src/storage/block/ (typed
                      pages, zone maps, manifest) is an implementation
                      detail of the persistent table tier. Only the
                      storage layer itself, the catalog (which surfaces
                      manifest summaries), and unit tests may include it;
                      everyone else goes through storage/persistent.h or
                      the table/catalog layer.

  engine-object-store Execution engines (src/exec/) scan through
                      TableStorage/BlockCache and must never talk to the
                      SimulatedObjectStore directly — GETs issued outside
                      the priced cache path would escape both the billing
                      ledger and the storage-term calibration.

  net-internal        The exchange transport and wire format under
                      src/net/ are implementation details of the sharded
                      engine's exchange seam. Only the net layer itself,
                      the engine that owns the seam (src/exec/), the
                      simulator that predicts it (src/sim/), and unit
                      tests may include them; everyone else consumes the
                      re-exported knobs on exec/sharded_engine.h or the
                      service facade — a second direct consumer of the
                      wire format would fork the serialization contract.

Legitimate exceptions live in ci/layering_allowlist.txt as
"includer -> included" lines; stale entries fail the check so the
allowlist cannot rot.

Usage:
  ci/check_layering.py [--root DIR]          lint the real tree
  ci/check_layering.py --self-test [--root DIR]
      run the fixture suite in tests/layering_fixtures/ (each fixture
      declares "// pretend: <path>" and "// expect: <rule>|none" header
      comments) and then assert the real tree is clean.
"""

import argparse
import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# Planner-stage headers: the optimizer's internals. sql/binder.h is the
# bind stage even though it lives under sql/.
OPTIMIZER_INTERNAL = {
    "optimizer/optimizer.h",
    "optimizer/dag_planner.h",
    "optimizer/physical_planner.h",
    "optimizer/bushy_rewriter.h",
    "optimizer/join_graph.h",
    "sql/binder.h",
}

# Directories whose code may include the internals freely: the optimizer
# itself and unit tests (which exercise stages in isolation by design).
INTERNAL_OK_PREFIXES = ("src/optimizer/", "tests/")

# Client-side trees that must enter through Session.
CLIENT_PREFIXES = ("examples/", "bench/")
# Entering the planner from client code bypasses the facade.
CLIENT_FORBIDDEN_PREFIXES = ("optimizer/", "sql/", "plan/")
CLIENT_FORBIDDEN_FILES = {"service/query_service.h"}

# Components that must consume the planning facade, not wire stages.
NO_OWN_PLANNER_PREFIXES = ("src/tuning/", "src/stats/", "src/workload/")

# Block-format internals: reachable only via the table/catalog layer.
# src/net/ rides along: the wire format deliberately reuses the block
# format's page primitives (PutU64/ByteCursor/Checksum64) so a chunk is laid
# out the same way on the wire as at rest.
STORAGE_INTERNAL_PREFIX = "storage/block/"
STORAGE_INTERNAL_OK_PREFIXES = ("src/storage/", "src/catalog/", "src/net/",
                                "tests/")

# Exchange-transport internals: only the engine that owns the exchange
# seam, the simulator that predicts it, and tests reach src/net/ directly.
NET_INTERNAL_PREFIX = "net/"
NET_INTERNAL_OK_PREFIXES = ("src/net/", "src/exec/", "src/sim/", "tests/")

# Engines scan through TableStorage/BlockCache, never the store itself.
ENGINE_PREFIXES = ("src/exec/",)
ENGINE_FORBIDDEN_FILES = {"cloud/object_store.h"}

SCAN_DIRS = ("src", "examples", "bench", "tests", "tools")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")


def component_of(path):
    """Top-level component of an include-style path ("sql/binder.h" -> "sql")."""
    return path.split("/", 1)[0] if "/" in path else ""


def includer_component(path):
    """Component of an includer path relative to src/ ("" outside src/)."""
    if path.startswith("src/"):
        rest = path[len("src/"):]
        return component_of(rest)
    return ""


def parse_includes(text):
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        m = INCLUDE_RE.match(line)
        if m:
            out.append((lineno, m.group(1)))
    return out


def check_file(path, includes, allowlist, used_allowlist):
    """Return [(rule, lineno, include, message)] violations for one file."""
    violations = []
    for lineno, inc in includes:
        if (path, inc) in allowlist:
            used_allowlist.add((path, inc))
            continue

        # Rule: optimizer-internal
        if inc in OPTIMIZER_INTERNAL:
            same_component = includer_component(path) == component_of(inc)
            exempt = path.startswith(INTERNAL_OK_PREFIXES) or same_component
            if not exempt:
                if path.startswith(NO_OWN_PLANNER_PREFIXES):
                    violations.append((
                        "own-planner", lineno, inc,
                        f"{path}:{lineno}: includes planner stage '{inc}' — "
                        "tuning/stats/workload must consume the facade's "
                        "pass pipeline (optimizer/passes.h), not wire "
                        "Binder/DagPlanner/PhysicalPlanner themselves"))
                else:
                    violations.append((
                        "optimizer-internal", lineno, inc,
                        f"{path}:{lineno}: includes optimizer-internal "
                        f"header '{inc}' — only src/optimizer/ and tests/ "
                        "may; use optimizer/passes.h or the Database/"
                        "Session facade"))

        # Rule: storage-internal
        if (inc.startswith(STORAGE_INTERNAL_PREFIX)
                and not path.startswith(STORAGE_INTERNAL_OK_PREFIXES)):
            violations.append((
                "storage-internal", lineno, inc,
                f"{path}:{lineno}: includes block-format internal '{inc}' — "
                "only src/storage/, src/catalog/, and tests/ may; consume "
                "storage/persistent.h or the table/catalog layer"))

        # Rule: net-internal
        if (inc.startswith(NET_INTERNAL_PREFIX)
                and not path.startswith(NET_INTERNAL_OK_PREFIXES)):
            violations.append((
                "net-internal", lineno, inc,
                f"{path}:{lineno}: includes exchange-transport internal "
                f"'{inc}' — only src/net/, src/exec/, src/sim/, and tests/ "
                "may; consume the transport knobs re-exported by "
                "exec/sharded_engine.h or the service facade"))

        # Rule: engine-object-store
        if (path.startswith(ENGINE_PREFIXES)
                and inc in ENGINE_FORBIDDEN_FILES):
            violations.append((
                "engine-object-store", lineno, inc,
                f"{path}:{lineno}: engine includes '{inc}' — engines scan "
                "through TableStorage/BlockCache (storage/persistent.h); "
                "direct object-store GETs would bypass the priced cache, "
                "the billing ledger, and the storage-term calibration"))

        # Rule: session-bypass
        if path.startswith(CLIENT_PREFIXES):
            if (inc.startswith(CLIENT_FORBIDDEN_PREFIXES)
                    or inc in CLIENT_FORBIDDEN_FILES):
                violations.append((
                    "session-bypass", lineno, inc,
                    f"{path}:{lineno}: client code includes '{inc}' — "
                    "examples and benches enter through service/session.h "
                    "(or service/database.h), never the planner directly"))
    return violations


def load_allowlist(root):
    allowlist = {}
    path = os.path.join(root, "ci", "layering_allowlist.txt")
    if not os.path.exists(path):
        return allowlist
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                print(f"layering: bad allowlist line: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            includer, included = (p.strip() for p in line.split("->", 1))
            allowlist[(includer, included)] = raw.strip()
    return allowlist


def iter_sources(root):
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            # Fixtures are linted by --self-test with pretend paths, not
            # as part of the real tree.
            dirnames[:] = [d for d in dirnames if d != "layering_fixtures"]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def lint_tree(root):
    allowlist = load_allowlist(root)
    used = set()
    failures = []
    for rel in iter_sources(root):
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            includes = parse_includes(f.read())
        failures.extend(check_file(rel, includes, allowlist, used))
    stale = set(allowlist) - used
    for includer, included in sorted(stale):
        failures.append((
            "stale-allowlist", 0, included,
            f"ci/layering_allowlist.txt: stale entry "
            f"'{includer} -> {included}' (no such include in the tree)"))
    return failures


def self_test(root):
    """Each fixture must trigger exactly its declared rule; then the real
    tree must be clean."""
    fixture_dir = os.path.join(root, "tests", "layering_fixtures")
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith(SOURCE_EXTS))
    if not fixtures:
        print("layering self-test: no fixtures found", file=sys.stderr)
        return 1
    allowlist = load_allowlist(root)
    failed = False
    for name in fixtures:
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as f:
            text = f.read()
        pretend = re.search(r"//\s*pretend:\s*(\S+)", text)
        expect = re.search(r"//\s*expect:\s*(\S+)", text)
        if not pretend or not expect:
            print(f"layering self-test: {name}: missing "
                  "'// pretend:' or '// expect:' header", file=sys.stderr)
            failed = True
            continue
        violations = check_file(pretend.group(1), parse_includes(text),
                                allowlist, set())
        rules = {v[0] for v in violations}
        expected = expect.group(1)
        if expected == "none":
            if rules:
                print(f"layering self-test: {name}: expected clean, "
                      f"got {sorted(rules)}", file=sys.stderr)
                failed = True
            else:
                print(f"layering self-test: {name}: clean as expected")
        elif expected not in rules:
            print(f"layering self-test: {name}: expected rule "
                  f"'{expected}', got {sorted(rules) or 'no violations'}",
                  file=sys.stderr)
            failed = True
        else:
            print(f"layering self-test: {name}: rejected ({expected})")
    tree_failures = lint_tree(root)
    if tree_failures:
        print("layering self-test: real tree not clean:", file=sys.stderr)
        for _, _, _, msg in tree_failures:
            print(f"  {msg}", file=sys.stderr)
        failed = True
    else:
        print("layering self-test: real tree clean")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite, then lint the tree")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test(args.root))

    failures = lint_tree(args.root)
    if failures:
        for _, _, _, msg in failures:
            print(msg, file=sys.stderr)
        print(f"layering: {len(failures)} violation(s)", file=sys.stderr)
        sys.exit(1)
    print("layering: include graph clean")


if __name__ == "__main__":
    main()
