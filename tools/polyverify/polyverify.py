#!/usr/bin/env python3
"""polyverify: semantic static analysis for the polyvalue tree.

Ten rules that need (at least) an AST — and for the deeper tiers, a
control-flow graph or the extracted protocol automaton — rather than
a regex; the deeper layer above tools/polylint.py:

  LK01  Declared lock-rank order. Every `Mutex` declared in src/ must
        carry POLYV_MUTEX_RANK(<rank>); the ACQUIRED_BEFORE boundary
        chain in src/common/lock_rank.h must be a single total order
        that agrees with the numeric rank values (no cycles, no gaps,
        no unchained ranks); raw ACQUIRED_BEFORE/ACQUIRED_AFTER
        attributes on mutexes outside the macro are rejected.

  SW01  Every `switch` over MsgType or TraceEventType covers every
        enumerator, and any `default:` must be LOUD (return an error /
        abort / check-fail) — a silent `default: break;` swallows the
        next protocol message or trace kind somebody adds.

  CG01  Call-graph layering: no blocking primitive (the sleep family,
        fsync/fdatasync outside class Wal, real-socket I/O) is
        reachable through the static call graph from the deterministic
        core (src/event/, src/sim/, sim_transport). Deeper than
        polylint's include-only LAY01.

  TR01  Every commit-engine message handler (TxnEngine::Handle* /
        PaxosEngine::Handle* taking a Message, per ENGINE_SCOPES)
        emits a trace event on every return path — directly
        via Trace()/TraceKey() or by unconditionally calling another
        all-paths-emitting engine method. Closes the loop with the
        TraceAuditor: an untraced return path is protocol behaviour
        the auditor can never see.

  WA01  Write-ahead ordering, proven per-path on an intraprocedural
        CFG (tools/polyverify/dataflow.py) with interprocedural
        summaries. Two obligations per ENGINE_SCOPES class: (a) a
        mutation of durable protocol state (prepared/decided tables,
        item versions) must reach a Wal append before ANY outbound
        send / FlushOutbox on every path; (b) specific protocol acks
        (READY, COMPLETE, outcome replies, Paxos phase/decision
        messages) must be dominated by the record they acknowledge
        (promised=/accepted[]/RecordDecision/...). Boolean-correlated
        branches (`if (commit || made_writes) Record(..)` ...
        `commit ? MakeComplete(..) : MakeAbort(..)`) are understood;
        lambda bodies are opaque (deferred thunks run post-barrier).

  GD01  Guard inference: for every class with exactly one Mutex
        member, infer which unannotated fields are lock-protected from
        the lock context of their accessors (RAII MutexLock scopes,
        explicit Lock/Unlock spans, REQUIRES annotations, and a
        call-graph fixpoint over functions only ever called under the
        lock) and flag fields accessed BOTH under and outside the
        inferred guard — the unannotated shared state Clang TSA is
        blind to. The fix is a GUARDED_BY annotation (see
        CONTRIBUTING.md's mutex recipe), which moves the field into
        TSA's jurisdiction.

  HP01  Hot-path allocation census: every heap-allocation site (new,
        make_unique/make_shared, container-growth calls) reachable
        through the static call graph from the hot roots
        (TxnEngine/PaxosEngine Submit + message handlers, the
        condition algebra in src/condition/, transport encode/decode)
        is enumerated into tools/polyverify/hp01_baseline.json. The
        checked-in baseline may only SHRINK: any new site or count
        growth fails, so the arena/flat-condition work (ROADMAP item
        3) starts from a quantified, monotonically improving map.
        Regenerate with --hp01-update after intentional reductions.

  SM01  Message-flow completeness over the extracted protocol state
        machine (tools/polyverify/statemachine.py): every MsgType
        constructed anywhere in src/ must have a receiving OnMessage
        handler arm in some engine, Message::Encode AND Decode codec
        arms, and a trace event in the receiving handler's closure —
        cross-TU, closing the per-file gap of polylint MSG01. SM01
        also gates that extraction matches the committed automaton
        spec (tools/polyverify/sm_{txn,paxos}.json + DOT); a handler
        change shows up as a reviewable protocol-spec diff.
        Regenerate with --sm-update.

  LV01  Static liveness over the automaton: every method that creates
        a waiting entry (participations_/coordinations_/leaderships_)
        must reach a ScheduleGuarded escape timer, and every timer
        callback that seeks an outcome remotely (OutcomeRequest,
        Paxos nudge/recovery) must consult the local decided_ table
        and re-arm — the static form of Gray & Lamport's non-blocking
        property, and exactly the shape of the PR-7 FailoverTick bug.

  DC01  Decision consistency, path-sensitive on the PR-8 CFG: an
        engine method executes each terminal action family (Decide,
        ApplyOutcome, outcome replies, client callbacks, ...) at most
        once per feasible path — no path both replies and re-decides.

Frontends: libclang over compile_commands.json when the clang.cindex
bindings are importable (--frontend=clang to require it), otherwise a
self-contained internal parser (cpplite.py). The compilation database
also provides the translation-unit list; generate it with the normal
CMake configure (CMAKE_EXPORT_COMPILE_COMMANDS is ON). When libclang
is requested-by-auto but missing or mismatched, a one-line warning
names the reason and the internal frontend takes over; the final
report line always names the frontend that produced it.

Suppression: a line ending in `// polyverify: allow(RULE)` is exempt
from RULE. Policy (docs/STATIC_ANALYSIS.md): the tree carries ZERO
suppressions; the escape exists for incremental migration only and CI
treats new ones as review flags.

  --self-test       seed one violation per rule in a temp tree and fail
                    unless every rule fires
  --check-lockdep D validate runtime lockdep JSON dumps (produced by a
                    POLYV_LOCKDEP build with POLYV_LOCKDEP_JSON_DIR set)
                    against the declared rank order
  --json PATH       write a machine-readable report (frontend, per-rule
                    violations and wall-clock timings, HP01 census
                    summary)
  --budget-seconds N fail when the full scan exceeds N seconds — keeps
                    the pass cheap enough for the default CI gate; the
                    failure names the slowest rule
  --hp01-update     regenerate tools/polyverify/hp01_baseline.json from
                    the current tree and exit
  --sm-update       regenerate the committed protocol automaton specs
                    (tools/polyverify/sm_*.json + .dot) and exit
  --sm-emit DIR     write freshly extracted automata into DIR and exit
                    (CI diffs them against the committed specs)

Exit status: 0 clean, 1 violations, 2 usage/environment error,
3 over --budget-seconds.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite  # noqa: E402
import clangfront  # noqa: E402
import dataflow  # noqa: E402
import statemachine  # noqa: E402

ALLOW_PATTERN = re.compile(r"//\s*polyverify:\s*allow\(([A-Z0-9]+)\)")

LOUD_DEFAULT = re.compile(
    r"\breturn\b|\babort\s*\(|\bthrow\b|POLYV_CHECK|\bCHECK\s*\(|"
    r"\bFatal\b|__builtin_unreachable")

# CG01: blocking primitives by exact (case-sensitive) call token.
BLOCKING_PRIMITIVES = {
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until",
    "fsync", "fdatasync",
    "socket", "connect", "accept", "listen", "epoll_wait",
    "recv", "recvfrom", "send", "sendto", "poll", "select",
}
# fsync inside the WAL is the one sanctioned blocking call: durability
# IS its job. Everything else stays forbidden even there.
WAL_EXEMPT = {"fsync", "fdatasync"}

# CG01 roots: the deterministic core, plus the sim-driven benchmarks —
# bench_cluster/bench_availability drive the simulator under fixed
# seeds, so a blocking call reachable from them breaks reproducibility
# exactly like one in src/sim. Every function *defined* in these
# locations must not reach a blocking primitive.
# src/workload/ generators and the src/svc/ serving plane run inside
# SimFrontDoor-driven sims too, so they carry the same obligation, and
# so does the src/replica/ partial-replication layer (placement,
# routing, consistency sweeps all run on the simulator clock).
DETERMINISTIC_DIRS = ("src/event/", "src/sim/", "src/workload/",
                      "src/svc/", "src/replica/")
DETERMINISTIC_BASENAMES = ("sim_transport", "bench_cluster",
                           "bench_availability", "bench_georep")

SW01_ENUMS = ("MsgType", "TraceEventType")


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.rule)


def allowed(src, lineno, rule):
    m = ALLOW_PATTERN.search(src.raw_line(lineno))
    return m is not None and m.group(1) == rule


# --------------------------------------------------------------------
# Tree loading
# --------------------------------------------------------------------


def find_compdb(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for cand in sorted(glob.glob(os.path.join(root, "build*",
                                              "compile_commands.json"))):
        return cand
    return None


def load_tree(root, compdb_path):
    """Returns (sources, compdb_entries). Sources covers every .h/.cc
    under src/ plus bench/ (the sim-driven benchmarks are CG01 roots);
    the compilation database (when present) defines the
    translation-unit subset handed to the libclang frontend."""
    paths = set()
    for top in ("src", "bench"):
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                if name.endswith((".h", ".cc")):
                    paths.add(os.path.join(dirpath, name))
    entries = []
    if compdb_path:
        with open(compdb_path) as f:
            entries = json.load(f)
    sources = []
    for path in sorted(paths):
        with open(path, errors="replace") as f:
            sources.append(cpplite.SourceFile(path=path, text=f.read()))
    return sources, entries


def rel(root, path):
    return os.path.relpath(path, root)


def in_src(root, path):
    return rel(root, path).replace(os.sep, "/").startswith("src/")


def src_only(root, sources):
    """bench/ sources participate in the call graph (CG01 roots) but
    declaration-level rules stay scoped to src/: bench mutexes may be
    unranked, bench switches/fields are not protocol state."""
    return [s for s in sources if in_src(root, s.path)]


# --------------------------------------------------------------------
# LK01 — declared lock-rank order
# --------------------------------------------------------------------

RANK_ENTRY_RE = re.compile(r"\bX\((k\w+),\s*(\d+)\)")
BOUNDARY_RE = re.compile(
    r"\binline\s+LockRankBoundary\s+g_(\w+)\s*"
    r"(?:ACQUIRED_BEFORE\(\s*g_(\w+)\s*\))?\s*;")
RAW_ATTR_RE = re.compile(
    r"\bMutex\s+\w+\s+ACQUIRED_(?:BEFORE|AFTER)\s*\(")

LK01_EXEMPT_FILES = ("thread_annotations.h", "lock_rank.h")


def check_lk01(root, sources):
    violations = []
    rank_file = next(
        (s for s in sources if s.path.endswith("src/common/lock_rank.h")),
        None)
    if rank_file is None:
        violations.append(Violation(
            "LK01", os.path.join(root, "src/common/lock_rank.h"), 1,
            "missing lock_rank.h: the declared lock-rank order is gone"))
        return violations

    ranks = {}   # name -> value
    for m in RANK_ENTRY_RE.finditer(rank_file.clean):
        name, value = m.group(1), int(m.group(2))
        line = rank_file.line_of(m.start())
        if name in ranks:
            violations.append(Violation(
                "LK01", rank_file.path, line, f"duplicate rank name {name}"))
        if value in ranks.values():
            violations.append(Violation(
                "LK01", rank_file.path, line,
                f"duplicate rank value {value} ({name})"))
        ranks[name] = value

    boundaries = {}  # name -> (line, before_target or None)
    for m in BOUNDARY_RE.finditer(rank_file.clean):
        name, target = m.group(1), m.group(2)
        line = rank_file.line_of(m.start())
        if name in boundaries:
            violations.append(Violation(
                "LK01", rank_file.path, line,
                f"duplicate boundary sentinel g_{name}"))
        boundaries[name] = (line, target)

    for name in ranks:
        if name not in boundaries:
            violations.append(Violation(
                "LK01", rank_file.path, 1,
                f"rank {name} has no boundary sentinel g_{name} in the "
                "ACQUIRED_BEFORE chain"))
    for name, (line, _) in boundaries.items():
        if name not in ranks:
            violations.append(Violation(
                "LK01", rank_file.path, line,
                f"boundary g_{name} names no declared rank"))

    # The chain must be exactly the numeric order: an edge a->b for
    # every consecutive rank pair, no edge contradicting the values,
    # and no cycle.
    edges = {}
    for name, (line, target) in boundaries.items():
        if target is None:
            continue
        if name in ranks and target in ranks and ranks[name] >= ranks[target]:
            violations.append(Violation(
                "LK01", rank_file.path, line,
                f"chain declares {name} ACQUIRED_BEFORE {target} but rank "
                f"values say {ranks.get(name)} >= {ranks.get(target)}"))
        edges.setdefault(name, set()).add(target)

    # Cycle detection over the boundary graph.
    state = {}
    def dfs(node, path):
        state[node] = "visiting"
        for nxt in edges.get(node, ()):
            if state.get(nxt) == "visiting":
                cycle = path[path.index(nxt):] + [nxt] if nxt in path else \
                    [node, nxt]
                violations.append(Violation(
                    "LK01", rank_file.path, boundaries.get(node, (1,))[0],
                    "cycle in the declared lock order: "
                    + " -> ".join(cycle)))
            elif state.get(nxt) != "done":
                dfs(nxt, path + [nxt])
        state[node] = "done"
    for node in list(edges):
        if state.get(node) is None:
            dfs(node, [node])

    ordered = sorted((v, k) for k, v in ranks.items())
    for (_, a), (_, b) in zip(ordered, ordered[1:]):
        if b not in edges.get(a, ()):
            violations.append(Violation(
                "LK01", rank_file.path, boundaries.get(a, (1, None))[0],
                f"chain gap: no g_{a} ACQUIRED_BEFORE(g_{b}) edge between "
                "consecutive ranks"))

    # Every Mutex declaration in src/ must be ranked with a known rank,
    # spelled via the macro (raw attributes bypass the runtime half).
    for src in src_only(root, sources):
        if src.path.endswith(LK01_EXEMPT_FILES):
            continue
        for decl in cpplite.parse_mutex_decls(src):
            if allowed(src, decl.line, "LK01"):
                continue
            if not decl.rank:
                violations.append(Violation(
                    "LK01", src.path, decl.line,
                    f"Mutex {decl.name} has no declared rank; add "
                    "POLYV_MUTEX_RANK(<rank>) (see lock_rank.h)"))
            elif decl.rank not in ranks:
                violations.append(Violation(
                    "LK01", src.path, decl.line,
                    f"Mutex {decl.name} uses unknown rank {decl.rank}"))
        for m in RAW_ATTR_RE.finditer(src.clean):
            line = src.line_of(m.start())
            if not allowed(src, line, "LK01"):
                violations.append(Violation(
                    "LK01", src.path, line,
                    "raw ACQUIRED_BEFORE/ACQUIRED_AFTER on a Mutex; spell "
                    "the rank via POLYV_MUTEX_RANK so the runtime lockdep "
                    "sees it too"))
    return violations


# --------------------------------------------------------------------
# SW01 — exhaustive switches over protocol enums
# --------------------------------------------------------------------


def collect_enums(sources):
    members = {}
    for src in sources:
        for name, enumerators in cpplite.parse_enums(src).items():
            if name in SW01_ENUMS and enumerators:
                members[name] = enumerators
    return members


def check_sw01(root, sources, compdb_entries, frontend):
    sources = src_only(root, sources)
    enums = collect_enums(sources)
    violations = []
    for name in SW01_ENUMS:
        if name not in enums:
            violations.append(Violation(
                "SW01", root, 1,
                f"could not locate enum class {name} in src/"))
    if frontend == "clang":
        return violations + _sw01_clang(root, compdb_entries, enums)
    return violations + _sw01_internal(sources, enums)


def _switch_violations(path, line, enum, covered, has_default, loud,
                       expected):
    out = []
    missing = [m for m in expected if m not in covered]
    if missing:
        out.append(Violation(
            "SW01", path, line,
            f"switch over {enum} missing enumerator(s): "
            + ", ".join(missing)))
    if has_default and not loud:
        out.append(Violation(
            "SW01", path, line,
            f"silent `default:` in switch over {enum}; either enumerate "
            "every kind or make the default loud (return an error, "
            "POLYV_CHECK, abort)"))
    return out


def _sw01_internal(sources, enums):
    violations = []
    for src in sources:
        for sw in cpplite.parse_switches(src):
            target = None
            covered = set()
            for qual, member, _ in sw.cases:
                base = qual.split("::")[-1] if qual else ""
                if base in enums:
                    target = base
                    covered.add(member)
            if target is None:
                continue
            if allowed(src, sw.line, "SW01"):
                continue
            loud = bool(LOUD_DEFAULT.search(sw.default_body))
            violations.extend(_switch_violations(
                src.path, sw.line, target, covered, sw.has_default, loud,
                enums[target]))
    return violations


def _sw01_clang(root, compdb_entries, enums):
    violations = []
    seen = set()
    for entry in compdb_entries:
        if "/src/" not in entry["file"] and not \
                entry["file"].startswith("src/"):
            continue
        tu = clangfront.parse_tu(entry)
        if tu is None:
            continue
        for (path, line, enum, covered, has_default,
             loud) in clangfront.switches_over_enums(tu, enums.keys()):
            key = (path, line)
            if key in seen or not path.startswith(root):
                continue
            seen.add(key)
            violations.extend(_switch_violations(
                path, line, enum, covered, has_default, loud, enums[enum]))
    return violations


# --------------------------------------------------------------------
# CG01 — no blocking primitive reachable from the deterministic core
# --------------------------------------------------------------------


def _is_deterministic(root, path):
    r = rel(root, path).replace(os.sep, "/")
    if any(r.startswith(d) for d in DETERMINISTIC_DIRS):
        return True
    return os.path.basename(r).startswith(DETERMINISTIC_BASENAMES)


def fkey(fn):
    return (fn.cls, fn.name)


def gather_functions(sources):
    """Parses every source once: (functions, member_types)."""
    functions = []
    member_types = {}
    for src in sources:
        functions.extend(cpplite.parse_functions(src))
        for cls, members in cpplite.parse_member_types(src).items():
            member_types.setdefault(cls, {}).update(members)
    return functions, member_types


def build_call_graph(functions, member_types, primitive_check=None):
    """Conservative static call graph, shared by CG01 and HP01.

    Edges are resolved conservatively: same-class members, receiver
    types known from the member index, then tree-wide unique names.
    Unresolvable calls (std::function indirection, overloaded names
    with unknown receivers) produce no edge — reachability
    under-approximates so that every report is a real static chain.

    primitive_check(fn, name) may return "taint" (record the name as a
    direct primitive hit, no edge) or "skip" (no edge); anything else
    resolves normally. Returns (by_key, by_name, calls, taint).
    """
    by_key = {}
    by_name = {}
    for fn in functions:
        by_key.setdefault(fkey(fn), []).append(fn)
        by_name.setdefault(fn.name, []).append(fn)

    taint = {}  # fkey -> primitive name
    calls = {}  # fkey -> set of callee fkeys
    for fn in functions:
        key = fkey(fn)
        callees = calls.setdefault(key, set())
        for recv, op, name in cpplite.parse_calls(fn.body):
            if primitive_check is not None:
                verdict = primitive_check(fn, name)
                if verdict == "taint":
                    taint.setdefault(key, name)
                    continue
                if verdict == "skip":
                    continue
            if recv and op:
                recv_type = member_types.get(fn.cls, {}).get(recv)
                if recv_type and (recv_type, name) in by_key:
                    callees.add((recv_type, name))
                continue
            if (fn.cls, name) in by_key and fn.cls:
                callees.add((fn.cls, name))
            elif len(by_name.get(name, [])) == 1:
                target = by_name[name][0]
                callees.add(fkey(target))
    return by_key, by_name, calls, taint


def check_cg01(root, sources):
    violations = []
    functions, member_types = gather_functions(sources)

    def primitive_check(fn, name):
        if name in BLOCKING_PRIMITIVES:
            if name in WAL_EXEMPT and fn.cls == "Wal":
                return "skip"
            return "taint"
        return None

    _, _, calls, taint = build_call_graph(functions, member_types,
                                          primitive_check)

    # Propagate taint backwards to a fixpoint, remembering one concrete
    # chain per function for the report.
    chain = {k: [v] for k, v in taint.items()}
    changed = True
    while changed:
        changed = False
        for key, callees in calls.items():
            if key in chain:
                continue
            for callee in callees:
                if callee in chain:
                    chain[key] = ["::".join(filter(None, callee))] + \
                        chain[callee]
                    changed = True
                    break

    for fn in functions:
        if not _is_deterministic(root, fn.file):
            continue
        key = fkey(fn)
        if key in chain:
            if allowed(next(s for s in sources if s.path == fn.file),
                       fn.line, "CG01"):
                continue
            qualified = "::".join(filter(None, key))
            violations.append(Violation(
                "CG01", fn.file, fn.line,
                f"deterministic-core function {qualified} reaches blocking "
                "primitive: " + " -> ".join([qualified] + chain[key])))
    return violations


# --------------------------------------------------------------------
# TR01 — every engine message handler traces every return path
# --------------------------------------------------------------------


# Each commit-protocol leg owns an engine class whose message handlers
# must trace every return path. New legs register here. `handler_prefix`
# + `param_token` select the protocol-step methods (param_token None =
# no parameter requirement); `emitters` are the class's base trace
# helpers.
ENGINE_SCOPES = (
    {"dir": "src/txn", "cls": "TxnEngine", "handler_prefix": "Handle",
     "param_token": "Message", "emitters": ("Trace", "TraceKey")},
    {"dir": "src/paxos", "cls": "PaxosEngine", "handler_prefix": "Handle",
     "param_token": "Message", "emitters": ("Trace", "TraceKey")},
    # Partial-replication leg: the read router's protocol step is
    # Attempt() — serve, fail over, or exhaust — tracing through its
    # Emit() helper (replica_read / replica_failover events).
    {"dir": "src/replica", "cls": "ReadRouter",
     "handler_prefix": "Attempt", "param_token": None,
     "emitters": ("Emit",)},
)


def check_tr01(root, sources):
    violations = []
    srcs_by_path = {s.path: s for s in sources}
    for scope in ENGINE_SCOPES:
        scope_dir = scope["dir"]
        engine_cls = scope["cls"]
        base_emitters = set(scope["emitters"])
        scoped = [
            src for src in sources
            if "/" + scope_dir + "/" in src.path.replace(os.sep, "/") or
            src.path.replace(os.sep, "/").endswith(scope_dir)
        ]
        if not scoped:
            # A tree without this leg (e.g. the self-test fixture) is
            # not a TR01 failure — the check is scoped per engine.
            continue
        engine_methods = []
        for src in scoped:
            for fn in cpplite.parse_functions(src):
                if fn.cls == engine_cls:
                    engine_methods.append(fn)

        # Fixpoint: the set of engine methods that emit on ALL paths.
        # Base emitters are the class's trace helpers themselves.
        emitting = set()
        changed = True
        while changed:
            changed = False
            emitters = base_emitters | emitting
            for fn in engine_methods:
                if fn.name in emitting:
                    continue
                if not cpplite.uncovered_returns(fn.body, emitters):
                    emitting.add(fn.name)
                    changed = True

        handlers = [
            fn for fn in engine_methods
            if fn.name.startswith(scope["handler_prefix"]) and
            (scope["param_token"] is None or
             scope["param_token"] in fn.params)
        ]
        if not handlers:
            violations.append(Violation(
                "TR01", root, 1,
                f"found no {engine_cls}::{scope['handler_prefix']}* "
                f"handlers under {scope_dir} — frontend drift? (TR01 "
                "would be vacuous)"))
        emitters = base_emitters | emitting
        for fn in handlers:
            src = srcs_by_path[fn.file]
            for off in cpplite.uncovered_returns(fn.body, emitters):
                line = src.line_of(
                    fn.body_offset + min(off, len(fn.body) - 1))
                if allowed(src, line, "TR01"):
                    continue
                violations.append(Violation(
                    "TR01", fn.file, line,
                    f"return path in message handler {engine_cls}::"
                    f"{fn.name} emits no trace event (Trace/TraceKey or "
                    "an all-paths-emitting callee); the TraceAuditor "
                    "cannot see this protocol step"))
    return violations


# --------------------------------------------------------------------
# WA01 — write-ahead ordering, proven per-path
# --------------------------------------------------------------------

# Mode A: a durable-state mutation must reach a Wal append before ANY
# outbound send on every path. Configured per engine class; Paxos is
# durable-by-contract (no WAL member), so only TxnEngine participates.
WA01_BARRIER_RES = (r"\bWal_\s*\(", r"\bwal_\s*->\s*Append\s*\(")
WA01_SEND_RES = (r"\bsends\s*\.\s*(?:emplace_back|push_back)\s*\(",
                 r"\bsend_\s*\(", r"\bFlushOutbox\s*\(")
WA01_MODE_A = {
    "TxnEngine": {
        "mutations": (
            ("prepared_",
             r"\bprepared_\s*(?:\[|\.\s*(?:emplace|erase|insert|clear)\b)"),
            ("decided_",
             r"\bdecided_\s*(?:\[|\.\s*(?:emplace|erase|insert|clear)\b)"),
            ("items_->Write", r"\bitems_\s*->\s*Write\s*\("),
        ),
        # WAL replay / snapshot import re-applies already-durable state;
        # logging it again would double every record on recovery.
        "exempt": ("RestoreDurableState", "ImportDurableState"),
    },
}

# Mode B: protocol acks must be dominated by the record they
# acknowledge — per-send-token obligations, (label, send regex,
# record regexes). A record anywhere earlier on the path (including
# inside an always-recording callee) discharges the obligation;
# obligations that reach a function entry unsatisfied bubble to every
# call site.
WA01_OBLIGATIONS = {
    "TxnEngine": (
        ("MakeComplete", r"\bMakeComplete\s*\(",
         (r"\bRecordDecisionDurable\s*\(", r"\bWal_\s*\(",
          r"\bdecided_\b")),
        ("MakeReady", r"\bMakeReady\s*\(",
         (r"\bMarkPreparedDurable\s*\(", r"\bWal_\s*\(",
          r"\bprepared_\b")),
        ("MakeOutcomeReply", r"\bMakeOutcomeReply\s*\(",
         (r"\bRecordDecisionDurable\s*\(", r"\bdecided_\b",
          r"\boutcomes_\s*->")),
        ("MakeOutcomeNotify", r"\bMakeOutcomeNotify\s*\(",
         (r"\bWal_\s*\(", r"\boutcomes_\s*->", r"\bdecided_\b")),
    ),
    "PaxosEngine": (
        ("MakePaxosPhase1b", r"\bMakePaxosPhase1b\s*\(",
         (r"\bpromised\s*=(?!=)", r"\bdecided_\b")),
        ("MakePaxosPhase2b", r"\bMakePaxosPhase2b\s*\(",
         (r"\baccepted\s*\[",)),
        ("MakePaxosDecision", r"\bMakePaxosDecision\s*\(",
         (r"\bRecordDecision\s*\(", r"\bdecided_\b")),
        ("MakePaxosPhase2a", r"\bMakePaxosPhase2a\s*\(",
         (r"\bprepared_\b", r"\bproposed\s*\[", r"\bbest_accepted\b")),
    ),
}


class _WaInfo:
    """Per-function CFG + source context for the WA01 walks."""

    def __init__(self, fn, src):
        self.fn = fn
        self.src = src
        self.body = dataflow.blank_lambdas(fn.body)
        self.cfg = dataflow.build_cfg(self.body)

    def line(self, body_off):
        return self.src.line_of(
            self.fn.body_offset + min(body_off, len(self.fn.body) - 1))


def _wa01_infos(root, sources, engine_cls):
    infos = []
    for src in src_only(root, sources):
        for fn in cpplite.parse_functions(src):
            if fn.cls == engine_cls:
                infos.append(_WaInfo(fn, src))
    return infos


def _wa01_mode_a(root, engine_cls, infos, conf):
    barrier_re = re.compile("|".join(WA01_BARRIER_RES))
    send_re = re.compile("|".join(WA01_SEND_RES))
    mut_res = [(label, re.compile(rx)) for label, rx in conf["mutations"]]
    exempt = set(conf.get("exempt", ()))
    names = {i.fn.name for i in infos}
    call_re = re.compile(
        r"\b(" + "|".join(sorted(map(re.escape, names), key=len,
                                 reverse=True)) + r")\s*\(")
    by_name = {}
    for i in infos:
        by_name.setdefault(i.fn.name, []).append(i)

    # summary per function name: (exit_pending, always_barrier,
    # sends_unbarriered). Overloads merge conservatively.
    summ = {n: (frozenset(), False, False) for n in names}
    for n in exempt:
        summ[n] = (frozenset(), False, False)

    def analyze(info, report=None):
        obs = {"send_unbarriered": False}

        def transfer(off, text, payload, facts):
            pending, barriered = payload
            events = []
            for m in barrier_re.finditer(text):
                events.append((m.start(), 0, "bar", None))
            for label, rx in mut_res:
                for m in dataflow.guarded_tokens(rx, text, facts):
                    events.append((m.start(), 1, "mut", label))
            for m in dataflow.guarded_tokens(send_re, text, facts):
                events.append((m.start(), 2, "send", None))
            for m in call_re.finditer(text):
                nm = m.group(1)
                if nm != info.fn.name:
                    events.append((m.start(), 3, "call", nm))
            events.sort(key=lambda e: (e[0], e[1]))
            for pos, _, kind, arg in events:
                if kind == "bar":
                    pending, barriered = frozenset(), True
                elif kind == "mut":
                    pending = pending | {arg}
                elif kind == "send":
                    if not barriered:
                        obs["send_unbarriered"] = True
                    if pending and report:
                        report(info, off + pos, pending, None)
                elif kind == "call":
                    s = summ.get(arg)
                    if s is None:
                        continue
                    ep, ab, su = s
                    if pending and su and report:
                        report(info, off + pos, pending, arg)
                    if ab:
                        pending, barriered = frozenset(), True
                    if ep:
                        pending = pending | ep
            return (pending, barriered)

        exits = dataflow.walk(info.cfg, (frozenset(), False), transfer)
        ep = frozenset().union(*(p for p, _ in exits)) if exits \
            else frozenset()
        ab = bool(exits) and all(b for _, b in exits)
        return (ep, ab, obs["send_unbarriered"])

    for _ in range(len(names) + 3):
        changed = False
        for n, group in by_name.items():
            if n in exempt:
                continue
            results = [analyze(i) for i in group]
            merged = (frozenset().union(*(r[0] for r in results)),
                      all(r[1] for r in results),
                      any(r[2] for r in results))
            if merged != summ[n]:
                summ[n] = merged
                changed = True
        if not changed:
            break

    violations = []
    seen = set()

    def report(info, off, pending, via):
        line = info.line(off)
        key = (info.fn.file, line, tuple(sorted(pending)))
        if key in seen or allowed(info.src, line, "WA01"):
            return
        seen.add(key)
        what = ", ".join(sorted(pending))
        via_txt = f" (send inside callee {via})" if via else ""
        violations.append(Violation(
            "WA01", info.fn.file, line,
            f"durable mutation of {what} may reach an outbound "
            f"send{via_txt} without a Wal append on some path in "
            f"{engine_cls}::{info.fn.name}; append before the send is "
            "enqueued"))

    for info in infos:
        if info.fn.name in exempt:
            continue
        analyze(info, report=report)
    return violations


def _wa01_mode_b(root, engine_cls, infos, obligation):
    send_label, send_rx, rec_rxs = obligation
    send_re = re.compile(send_rx)
    rec_re = re.compile("|".join(rec_rxs))
    names = {i.fn.name for i in infos}
    call_re = re.compile(
        r"\b(" + "|".join(sorted(map(re.escape, names), key=len,
                                 reverse=True)) + r")\s*\(")
    by_name = {}
    for i in infos:
        by_name.setdefault(i.fn.name, []).append(i)

    # always_records[name]: every entry->exit path hits a record (or an
    # always-recording callee) — calling such a function discharges the
    # obligation in the caller.
    always = {n: False for n in names}
    for _ in range(len(names) + 3):
        changed = False
        for n, group in by_name.items():
            if always[n]:
                continue
            ok = True
            for info in group:
                def transfer(off, text, sat, facts):
                    if sat:
                        return sat
                    for m in rec_re.finditer(text):
                        return True
                    for m in call_re.finditer(text):
                        if m.group(1) != info.fn.name and \
                                always.get(m.group(1)):
                            return True
                    return sat
                exits = dataflow.walk(info.cfg, False, transfer)
                if not exits or not all(exits):
                    ok = False
                    break
            if ok:
                always[n] = True
                changed = True
        if not changed:
            break

    # needs[name]: an obligation site reachable from entry with no
    # record first — (file, line, chain) of the innermost site.
    needs = {n: None for n in names}
    for _ in range(len(names) + 3):
        changed = False
        for n, group in by_name.items():
            if needs[n] is not None:
                continue
            for info in group:
                esc = []

                def transfer(off, text, sat, facts):
                    events = []
                    for m in rec_re.finditer(text):
                        events.append((m.start(), 0, "rec", None))
                    for m in dataflow.guarded_tokens(send_re, text,
                                                     facts):
                        events.append((m.start(), 1, "send", None))
                    for m in call_re.finditer(text):
                        nm = m.group(1)
                        if nm != info.fn.name:
                            events.append((m.start(), 2, "call", nm))
                    events.sort(key=lambda e: (e[0], e[1]))
                    for pos, _, kind, arg in events:
                        if kind == "rec":
                            sat = True
                        elif kind == "send":
                            if not sat:
                                esc.append((info.fn.file,
                                            info.line(off + pos),
                                            (info.fn.name,)))
                        elif kind == "call":
                            if not sat and needs.get(arg):
                                f, ln, chain = needs[arg]
                                esc.append((f, ln,
                                            (info.fn.name,) + chain))
                            if always.get(arg):
                                sat = True
                    return sat

                dataflow.walk(info.cfg, False, transfer)
                if esc:
                    needs[n] = esc[0]
                    changed = True
                    break
        if not changed:
            break

    # Roots: class functions never called from another class function
    # (lambda-scheduled callbacks count as entry points — their bodies
    # are opaque, and they run later with fresh context).
    called = set()
    for info in infos:
        for m in call_re.finditer(info.body):
            if m.group(1) != info.fn.name:
                called.add(m.group(1))

    violations = []
    seen = set()
    recs = ", ".join(r.replace("\\b", "").replace("\\s*", " ").strip()
                     for r in rec_rxs)
    for n, group in by_name.items():
        if n in called or needs[n] is None:
            continue
        f, ln, chain = needs[n]
        src = group[0].src if group[0].fn.file == f else \
            next((i.src for i in infos if i.fn.file == f), group[0].src)
        if allowed(src, ln, "WA01"):
            continue
        key = (f, ln, send_label)
        if key in seen:
            continue
        seen.add(key)
        via = " [via " + " -> ".join(chain) + "]" if len(chain) > 1 \
            else ""
        violations.append(Violation(
            "WA01", f, ln,
            f"{engine_cls}::{chain[-1]} sends {send_label}(...) on a "
            f"path with no prior record ({recs}); the ack can outrun "
            f"the state it acknowledges{via}"))
    return violations


def check_wa01(root, sources):
    violations = []
    for scope in ENGINE_SCOPES:
        engine_cls = scope["cls"]
        infos = _wa01_infos(root, sources, engine_cls)
        if not infos:
            continue
        conf = WA01_MODE_A.get(engine_cls)
        if conf:
            violations.extend(
                _wa01_mode_a(root, engine_cls, infos, conf))
        for obligation in WA01_OBLIGATIONS.get(engine_cls, ()):
            violations.extend(
                _wa01_mode_b(root, engine_cls, infos, obligation))
    return violations


# --------------------------------------------------------------------
# GD01 — guard inference for unannotated fields
# --------------------------------------------------------------------

GD01_EXEMPT_TYPES = ("Mutex", "CondVar", "MutexLock", "LockRankBoundary")


def check_gd01(root, sources):
    violations = []
    fields_by_cls = {}
    fns_by_cls = {}
    srcs = {}
    for src in src_only(root, sources):
        srcs[src.path] = src
        for cls, fl in cpplite.parse_member_fields(src).items():
            fields_by_cls.setdefault(cls, []).extend(fl)
        for fn in cpplite.parse_functions(src):
            if fn.cls:
                fns_by_cls.setdefault(fn.cls, []).append(fn)

    for cls, fields in sorted(fields_by_cls.items()):
        mutexes = [f for f in fields if f.type == "Mutex"]
        if len(mutexes) != 1:
            continue  # no guard to infer, or ambiguous
        mu = mutexes[0].name
        fns = fns_by_cls.get(cls, [])
        if not fns:
            continue

        bodies = {id(fn): dataflow.blank_lambdas(fn.body) for fn in fns}
        regions = {id(fn): [r for r in cpplite.lock_regions(bodies[id(fn)])
                            if r[0] == mu]
                   for fn in fns}
        req_re = re.compile(r"\bREQUIRES(?:_SHARED)?\s*\(\s*" +
                            re.escape(mu) + r"\s*\)")
        locked_fns = {fn.name for fn in fns
                      if req_re.search(fn.annotations)}

        # Call-graph fixpoint: a function called ONLY from locked
        # contexts inherits the lock.
        name_set = {fn.name for fn in fns}
        call_re = re.compile(
            r"\b(" + "|".join(sorted(map(re.escape, name_set), key=len,
                                     reverse=True)) + r")\s*\(")
        sites = {}  # callee name -> [(caller fn, offset)]
        for fn in fns:
            for m in call_re.finditer(bodies[id(fn)]):
                nm = m.group(1)
                if nm != fn.name:
                    sites.setdefault(nm, []).append((fn, m.start()))

        def under_lock(fn, off):
            if fn.name in locked_fns:
                return True
            return any(s <= off < e for _, s, e in regions[id(fn)])

        changed = True
        while changed:
            changed = False
            for fn in fns:
                if fn.name in locked_fns:
                    continue
                ss = sites.get(fn.name, [])
                if ss and all(under_lock(cfn, off) for cfn, off in ss):
                    locked_fns.add(fn.name)
                    changed = True

        for f in fields:
            if f.annotations or f.type in GD01_EXEMPT_TYPES:
                continue
            # const members are immutable after the ctor; unguarded
            # reads are benign. ("const" also covers constexpr.)
            if "static" in f.spec or "const" in f.spec:
                continue
            if f.type.startswith(("std::atomic", "atomic")):
                continue
            if not f.name.endswith("_"):
                continue
            acc_re = re.compile(r"\b" + re.escape(f.name) + r"\b")
            locked_n = 0
            unlocked = []
            for fn in fns:
                is_ctor = fn.name == cls
                for m in acc_re.finditer(bodies[id(fn)]):
                    if under_lock(fn, m.start()):
                        locked_n += 1
                    elif not is_ctor:
                        unlocked.append((fn, m.start()))
            if locked_n >= 2 and unlocked and locked_n > len(unlocked):
                fn, off = unlocked[0]
                src = srcs.get(fn.file)
                line = src.line_of(fn.body_offset +
                                   min(off, len(fn.body) - 1))
                if allowed(src, line, "GD01") or \
                        allowed(src, f.line, "GD01"):
                    continue
                violations.append(Violation(
                    "GD01", fn.file, line,
                    f"{cls}::{f.name} is accessed under {mu} "
                    f"{locked_n}x but here in {cls}::{fn.name} without "
                    f"it ({len(unlocked)} unguarded access(es)); "
                    f"annotate the field GUARDED_BY({mu}) (declared "
                    f"line {f.line}) or move the access under the "
                    "lock"))
        del under_lock
    return violations


# --------------------------------------------------------------------
# HP01 — hot-path allocation census (shrink-only baseline)
# --------------------------------------------------------------------

HP01_BASELINE = os.path.join("tools", "polyverify", "hp01_baseline.json")

HP01_ALLOC_KINDS = (
    ("new", re.compile(r"\bnew\b")),
    ("make_unique", re.compile(r"\bmake_unique\s*<")),
    ("make_shared", re.compile(r"\bmake_shared\s*<")),
    ("container_growth", re.compile(
        r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|insert|resize|"
        r"reserve|append)\s*\(")),
)

HP01_ENGINE_CLASSES = ("TxnEngine", "PaxosEngine")
HP01_CONDITION_CLASSES = ("Condition", "Term")


def _hp01_is_root(root, fn):
    r = rel(root, fn.file).replace(os.sep, "/")
    if fn.cls in HP01_ENGINE_CLASSES and (
            fn.name == "Submit" or fn.name == "OnMessage" or
            fn.name.startswith("Handle")):
        return True
    if r.startswith("src/condition/") and fn.cls in \
            HP01_CONDITION_CLASSES:
        return True
    if (r.startswith("src/net/") or
            os.path.basename(r) == "messages.cc") and \
            re.match(r"(Encode|Decode)", fn.name):
        return True
    return False


def hp01_census(root, sources):
    """Returns (census, lines): census maps
    "file::Class::Function::kind" -> count over every allocation site
    whose enclosing function is statically reachable from a hot root;
    lines maps each key to its first occurrence for reporting."""
    functions, member_types = gather_functions(sources)
    by_key, _, calls, _ = build_call_graph(functions, member_types)

    roots = {fkey(fn) for fn in functions if _hp01_is_root(root, fn)}
    reachable = set(roots)
    frontier = list(roots)
    while frontier:
        k = frontier.pop()
        for callee in calls.get(k, ()):
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)

    census = {}
    lines = {}
    srcs = {s.path: s for s in sources}
    for fn in functions:
        if fkey(fn) not in reachable:
            continue
        r = rel(root, fn.file).replace(os.sep, "/")
        if not r.startswith("src/"):
            continue
        for kind, rx in HP01_ALLOC_KINDS:
            for m in rx.finditer(fn.body):
                key = f"{r}::{fn.cls}::{fn.name}::{kind}"
                census[key] = census.get(key, 0) + 1
                if key not in lines:
                    lines[key] = srcs[fn.file].line_of(
                        fn.body_offset + m.start())
    return census, lines


def hp01_write_baseline(root, census):
    path = os.path.join(root, HP01_BASELINE)
    payload = {
        "comment": "HP01 hot-path allocation census. CI enforces this "
                   "baseline may only shrink; regenerate with "
                   "`polyverify.py --hp01-update` after intentional "
                   "allocation reductions (see docs/STATIC_ANALYSIS.md).",
        "total_sites": len(census),
        "total_allocations": sum(census.values()),
        "entries": {k: census[k] for k in sorted(census)},
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=False)
        f.write("\n")
    return path


def check_hp01(root, sources):
    census, lines = hp01_census(root, sources)
    path = os.path.join(root, HP01_BASELINE)
    if not os.path.isfile(path):
        return [Violation(
            "HP01", path, 1,
            "hot-path allocation baseline is missing; generate it with "
            "`python3 tools/polyverify/polyverify.py --hp01-update` "
            "and commit it")]
    with open(path) as f:
        baseline = json.load(f).get("entries", {})
    violations = []
    for key in sorted(census):
        base = baseline.get(key, 0)
        if census[key] > base:
            grew = "new hot-path allocation site" if base == 0 else \
                f"count grew {base} -> {census[key]}"
            violations.append(Violation(
                "HP01", key.split("::")[0], lines[key],
                f"{grew}: {key} — the census may only shrink; avoid "
                "the allocation (arena/small-vector/reuse) or, if "
                "genuinely required, update the baseline with "
                "--hp01-update and justify it in the PR"))
    shrunk = [k for k in baseline
              if census.get(k, 0) < baseline[k]]
    if shrunk and not violations:
        print(f"polyverify HP01: {len(shrunk)} baseline entr"
              f"{'y' if len(shrunk) == 1 else 'ies'} shrank — run "
              "--hp01-update to ratchet the baseline down")
    return violations


# --------------------------------------------------------------------
# lockdep JSON validation (CI gate for the runtime half)
# --------------------------------------------------------------------


def check_lockdep_dumps(root, dump_dir):
    rank_path = os.path.join(root, "src/common/lock_rank.h")
    with open(rank_path) as f:
        clean = cpplite.strip_comments_and_strings(f.read())
    declared = {name: int(value)
                for name, value in RANK_ENTRY_RE.findall(clean)}

    files = sorted(glob.glob(os.path.join(dump_dir, "lockdep.*.json")))
    if not files:
        print(f"polyverify --check-lockdep: no lockdep.*.json in {dump_dir}",
              file=sys.stderr)
        return 2

    errors = 0
    merged_edges = {}
    unranked_edges = 0
    total_reports = 0
    for path in files:
        with open(path) as f:
            dump = json.load(f)
        dumped = {e["name"]: e["rank"] for e in dump.get("rank_order", [])}
        if dumped != declared:
            print(f"{path}: rank table disagrees with lock_rank.h "
                  f"(binary built from a different tree?)", file=sys.stderr)
            errors += 1
        for report in dump.get("reports", []):
            print(f"{path}: lockdep report: {report}", file=sys.stderr)
            errors += 1
            total_reports += 1
        for e in dump.get("edges", []):
            held, acq = e["held_rank"], e["acquired_rank"]
            if held == 0 or acq == 0:
                unranked_edges += 1
                continue
            key = (held, acq)
            merged_edges[key] = merged_edges.get(key, 0) + e["count"]
            if held >= acq:
                print(f"{path}: observed edge {e['held_name']}({held}) -> "
                      f"{e['acquired_name']}({acq}) is not implied by the "
                      f"declared rank order "
                      f"[held at {e['held_site']}; "
                      f"acquired at {e['acquired_site']}]", file=sys.stderr)
                errors += 1

    print(f"polyverify --check-lockdep: {len(files)} dump(s), "
          f"{len(merged_edges)} distinct ranked edge(s), "
          f"{unranked_edges} edge(s) involving unranked (test-local) "
          f"mutexes, {total_reports} runtime report(s)")
    for (held, acq), count in sorted(merged_edges.items()):
        held_name = next((n for n, v in declared.items() if v == held),
                         str(held))
        acq_name = next((n for n, v in declared.items() if v == acq),
                        str(acq))
        print(f"  {held_name}({held}) -> {acq_name}({acq}) x{count}")
    if errors:
        print(f"polyverify --check-lockdep: {errors} error(s)",
              file=sys.stderr)
        return 1
    print("polyverify --check-lockdep: every observed edge is implied by "
          "the declared rank order; no cycles reported")
    return 0


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def _statemachine_rule(check):
    """Wraps a statemachine.py rule (returning raw finding tuples)
    into the Violation + allow-comment regime."""
    def run(root, sources, compdb, fe):
        by_path = {s.path: s for s in sources}
        out = []
        for rule, path, line, message in check(root, sources):
            src = by_path.get(path)
            if src is not None and allowed(src, line, rule):
                continue
            out.append(Violation(rule, path, line, message))
        return out
    return run


CHECKS = {
    "LK01": lambda root, sources, compdb, fe: check_lk01(root, sources),
    "SW01": check_sw01,
    "CG01": lambda root, sources, compdb, fe: check_cg01(root, sources),
    "TR01": lambda root, sources, compdb, fe: check_tr01(root, sources),
    "WA01": lambda root, sources, compdb, fe: check_wa01(root, sources),
    "GD01": lambda root, sources, compdb, fe: check_gd01(root, sources),
    "HP01": lambda root, sources, compdb, fe: check_hp01(root, sources),
    "SM01": _statemachine_rule(statemachine.check_sm01),
    "LV01": _statemachine_rule(statemachine.check_lv01),
    "DC01": _statemachine_rule(statemachine.check_dc01),
}


def run_rules(root, compdb_path, frontend, rules=None):
    """Returns (violations, per-rule wall-clock seconds)."""
    sources, compdb_entries = load_tree(root, compdb_path)
    violations = []
    timings = {}
    for rule, check in CHECKS.items():
        if rules and rule not in rules:
            continue
        rule_started = time.monotonic()
        violations.extend(check(root, sources, compdb_entries, frontend))
        timings[rule] = round(time.monotonic() - rule_started, 3)
    violations.sort(key=Violation.sort_key)
    return violations, timings


# --------------------------------------------------------------------
# Self-test: seed one violation per rule, fail unless every rule fires.
# --------------------------------------------------------------------

SELF_TEST_FILES = {
    # LK01 seeds: a chain edge contradicting the numeric order, an
    # unranked mutex, and a raw-attribute mutex.
    "src/common/lock_rank.h": """
#define POLYV_LOCK_RANK_LIST(X) \\
  X(kAlpha, 10)                 \\
  X(kBeta, 20)                  \\
  X(kGamma, 30)

class CAPABILITY("lock_rank") LockRankBoundary {};
inline LockRankBoundary g_kAlpha;
inline LockRankBoundary g_kGamma ACQUIRED_BEFORE(g_kAlpha);
inline LockRankBoundary g_kBeta ACQUIRED_BEFORE(g_kGamma);
""",
    "src/store/cache.h": """
class Cache {
 private:
  Mutex mu_;
  Mutex ranked_ POLYV_MUTEX_RANK(kBeta);
  Mutex raw_ ACQUIRED_AFTER(g_kAlpha);
};
""",
    # SW01 seeds: a missing enumerator and a silent default.
    "src/txn/messages.h": """
enum class MsgType : uint8_t {
  kPrepare = 1,
  kAbort = 2,
  kPing = 3,
};
""",
    # Codec fixture: complete Encode/Decode switches (SW01-clean) so
    # SM01's codec-arm sub-check sees kPrepare/kAbort/kPing covered —
    # kPaxosNudge below is deliberately constructed without arms.
    "src/txn/messages.cc": """
Message MakePing(TxnId txn) {
  Message m;
  m.type = MsgType::kPing;
  m.txn = txn;
  return m;
}
Message MakePrepare(TxnId txn) {
  Message m;
  m.type = MsgType::kPrepare;
  m.txn = txn;
  return m;
}
Message MakeAbort(TxnId txn) {
  Message m;
  m.type = MsgType::kAbort;
  m.txn = txn;
  return m;
}
Message MakePaxosNudge(TxnId txn) {
  Message m;
  m.type = MsgType::kPaxosNudge;
  m.txn = txn;
  return m;
}
const char* Message::Encode() const {
  switch (type) {
    case MsgType::kPrepare:
      return "P";
    case MsgType::kAbort:
      return "A";
    case MsgType::kPing:
      return "G";
  }
  return "";
}
Message Message::Decode(const char* buf) {
  Message m;
  switch (m.type) {
    case MsgType::kPrepare:
      break;
    case MsgType::kAbort:
      break;
    case MsgType::kPing:
      break;
    default:
      return m;
  }
  return m;
}
""",
    # SM01 + DC01 seeds. OnMessage gives kPrepare/kAbort real handler
    # arms but discards kPing (constructed in engine_seed/engine_hot)
    # without a handler -> SM01. HandleAsk replies twice on the
    # known-outcome path -> DC01; FanOut's single looped reply site
    # must stay clean (distinct-site counting), and its decided_
    # consult discharges the WA01 outcome-reply obligation.
    "src/txn/engine_sm.cc": """
void TxnEngine::OnMessage(SiteId from, const Message& msg, Outbox* out) {
  switch (msg.type) {
    case MsgType::kPrepare:
      HandleFlow(from, msg, out);
      break;
    case MsgType::kAbort:
      HandleFlow(from, msg, out);
      break;
    case MsgType::kPing:
      break;
  }
}
void TxnEngine::HandleFlow(SiteId from, const Message& msg, Outbox* out) {
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::HandleAsk(SiteId from, const Message& msg, Outbox* sends) {
  const bool known = decided_.count(msg.txn) > 0;
  if (known) {
    sends.emplace_back(from, MakeOutcomeReply(msg.txn, true));
  }
  sends.emplace_back(from, MakeOutcomeReply(msg.txn, false));
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::FanOut(TxnId txn, Outbox* sends) {
  if (decided_.count(txn) == 0) {
    return;
  }
  for (SiteId peer : peers_) {
    sends->emplace_back(peer, MakeOutcomeReply(txn, true));
  }
}
""",
    # LV01 seeds. HandleParkForever creates a waiting entry with no
    # reachable escape timer (rule a). FailoverPoke is an armed timer
    # callback that nudges for an outcome without consulting decided_
    # and without re-arming — the PR-7 dropped-self-decision stuck-wait
    # shape (rule b, two findings). SteadyTick does both and must stay
    # clean.
    "src/paxos/paxos_live.cc": """
void PaxosEngine::HandleParkForever(SiteId from, const Message& msg,
                                    Outbox* out) {
  participations_.emplace(msg.txn, Participation{});
  Trace(TraceEventType::kSubmit, msg.txn);
}
void PaxosEngine::HandleKickoff(SiteId from, const Message& msg,
                                Outbox* out) {
  ScheduleGuarded(config_.paxos_failover_timeout,
                  [this, msg] { FailoverPoke(msg.txn); });
  ScheduleGuarded(config_.inquiry_interval,
                  [this, msg] { SteadyTick(msg.txn); });
  Trace(TraceEventType::kSubmit, msg.txn);
}
void PaxosEngine::FailoverPoke(TxnId txn) {
  outbox_.emplace_back(0, MakePaxosNudge(txn));
  Trace(TraceEventType::kCrash, txn);
}
void PaxosEngine::SteadyTick(TxnId txn) {
  if (decided_.count(txn) > 0) {
    return;
  }
  outbox_.emplace_back(0, MakePaxosNudge(txn));
  ScheduleGuarded(config_.inquiry_interval,
                  [this, txn] { SteadyTick(txn); });
  Trace(TraceEventType::kCrash, txn);
}
""",
    "src/obs/trace.h": """
enum class TraceEventType : uint8_t {
  kSubmit = 1,
  kCrash = 2,
};
""",
    "src/txn/dispatch.cc": """
void Dispatch(MsgType t) {
  switch (t) {
    case MsgType::kPrepare:
      break;
    default:
      break;
  }
}
""",
    # CG01 seed: a deterministic-core function reaching sleep_for
    # through one hop.
    "src/sim/driver.cc": """
void Settle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}
void Tick() {
  Settle();
}
""",
    # TR01 seed: a handler with an untraced early-return path.
    "src/txn/engine_extra.cc": """
void TxnEngine::HandlePing(SiteId from, const Message& msg, Outbox* out) {
  if (msg.txn.value() == 0) {
    return;
  }
  Trace(TraceEventType::kSubmit, msg.txn);
}
""",
    # CG01 bench seed: a sim-driven benchmark reaching sleep_for
    # through one hop (bench_cluster is in DETERMINISTIC_BASENAMES).
    "bench/bench_cluster.cc": """
void Drive() {
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}
int main() {
  Drive();
  return 0;
}
""",
    # WA01 seeds. Mode A: HandleLoseAck mutates prepared_ then sends
    # with no Wal append on the path. Mode B: HandleProbe sends
    # MakePaxosPhase2b without touching acceptor state. FP guards:
    # Decide's commit||made_writes correlation via a ternary send must
    # stay clean (DecideLike), and records buried in an always-records
    # helper must discharge the obligation (HandleTell via
    # RecordCleanly).
    "src/txn/engine_seed.cc": """
void TxnEngine::HandleLoseAck(SiteId from, const Message& msg, Outbox* sends) {
  prepared_.erase(msg.txn);
  sends.emplace_back(from, MakePing(msg.txn));
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::RecordCleanly(TxnId txn, bool commit) {
  decided_[txn] = commit;
  Wal_(WalRecord::Outcome(txn, commit));
}
void TxnEngine::HandleTell(SiteId from, const Message& msg, Outbox* sends) {
  RecordCleanly(msg.txn, true);
  sends.emplace_back(from, MakeComplete(msg.txn));
  Trace(TraceEventType::kSubmit, msg.txn);
}
void TxnEngine::DecideLike(TxnId txn, bool commit, bool made_writes,
                           Outbox* sends) {
  if (commit || made_writes) {
    decided_[txn] = commit;
    Wal_(WalRecord::Outcome(txn, commit));
  }
  sends.emplace_back(0, commit ? MakeComplete(txn) : MakeAbort(txn));
}
""",
    "src/paxos/paxos_seed.cc": """
void PaxosEngine::HandleProbe(SiteId from, const Message& msg, Outbox* sends) {
  sends.emplace_back(from, MakePaxosPhase2b(msg.txn, msg.ballot));
  Trace(TraceEventType::kSubmit, msg.txn);
}
""",
    # GD01 seed: count_ is accessed twice under mu_ but once outside in
    # Peek (fires); pending_ is only ever touched under the lock
    # (clean); ctor initialisation of count_ must not count.
    "src/store/tracker.h": """
class Tracker {
 public:
  Tracker() { count_ = 0; }
  void Add(int n) {
    MutexLock l(&mu_);
    count_ += n;
    pending_.push_back(n);
  }
  int Drain() {
    MutexLock l(&mu_);
    pending_.clear();
    return count_;
  }
  int Peek() { return count_; }

 private:
  Mutex mu_;
  int count_;
  std::vector<int> pending_;
};
""",
    # HP01 seed: HandleHot is a hot root with a push_back, a
    # make_unique and a `new` one hop away in Grow(); the fixture
    # baseline below only admits the container_growth site, so the
    # other two kinds must fire as growth.
    "src/txn/engine_hot.cc": """
void TxnEngine::Grow() {
  slab_ = new char[4096];
}
void TxnEngine::HandleHot(SiteId from, const Message& msg, Outbox* sends) {
  queue_.push_back(msg.txn);
  auto tmp = std::make_unique<Message>(msg);
  Grow();
  sends.emplace_back(from, MakePing(msg.txn));
  Trace(TraceEventType::kSubmit, msg.txn);
}
""",
}

SELF_TEST_HP01_BASELINE = {
    "entries": {
        "src/txn/engine_hot.cc::TxnEngine::HandleHot::container_growth": 2,
        "src/txn/engine_seed.cc::TxnEngine::HandleLoseAck"
        "::container_growth": 1,
        "src/txn/engine_seed.cc::TxnEngine::HandleTell"
        "::container_growth": 1,
        "src/paxos/paxos_seed.cc::PaxosEngine::HandleProbe"
        "::container_growth": 1,
        "src/txn/engine_sm.cc::TxnEngine::HandleAsk"
        "::container_growth": 2,
        "src/paxos/paxos_live.cc::PaxosEngine::HandleParkForever"
        "::container_growth": 1,
        "src/paxos/paxos_live.cc::PaxosEngine::FailoverPoke"
        "::container_growth": 1,
        "src/paxos/paxos_live.cc::PaxosEngine::SteadyTick"
        "::container_growth": 1,
    },
}

SELF_TEST_EXPECT = {
    "LK01": 4,  # contradicting edge + chain gap + unranked + raw attr
    "SW01": 2,  # missing enumerator + silent default
    "CG01": 3,  # Tick -> Settle -> sleep_for, plus the bench seed
    "TR01": 1,  # HandlePing's early return
    "WA01": 2,  # HandleLoseAck (mode A) + HandleProbe (mode B)
    "GD01": 1,  # Tracker::count_ read outside mu_ in Peek
    "HP01": 2,  # make_unique in HandleHot + new in Grow
    "SM01": 4,  # kPing discard arm + kPaxosNudge unrouted + 2 missing
                # committed automaton specs (sm_txn/sm_paxos)
    "LV01": 3,  # HandleParkForever timerless wait + FailoverPoke's
                # missing decided_ consult AND missing re-arm
    "DC01": 1,  # HandleAsk replies twice on the known-outcome path
}

# Seeds that must NOT fire — each names a pattern the engine has to
# prove clean (path correlation, interprocedural records, ctor writes,
# locked-only fields, baselined allocations, loop-send sites, self-
# re-arming decided_-consulting ticks).
SELF_TEST_FP_GUARDS = ("ranked_", "HandleTell", "DecideLike", "pending_",
                       "container_growth", "FanOut", "SteadyTick",
                       "HandleFlow", "HandleKickoff")


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for relpath, content in SELF_TEST_FILES.items():
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(content)
        compdb = [
            {"directory": tmp, "file": os.path.join(tmp, relpath),
             "command": f"c++ -c {os.path.join(tmp, relpath)}"}
            for relpath in SELF_TEST_FILES if relpath.endswith(".cc")
        ]
        compdb_path = os.path.join(tmp, "build", "compile_commands.json")
        os.makedirs(os.path.dirname(compdb_path))
        with open(compdb_path, "w") as f:
            json.dump(compdb, f)
        baseline_path = os.path.join(tmp, HP01_BASELINE)
        os.makedirs(os.path.dirname(baseline_path))
        with open(baseline_path, "w") as f:
            json.dump(SELF_TEST_HP01_BASELINE, f)

        violations, timings = run_rules(tmp, compdb_path,
                                        frontend="internal")
        fired = {}
        for v in violations:
            fired[v.rule] = fired.get(v.rule, 0) + 1
        for rule, expect in SELF_TEST_EXPECT.items():
            got = fired.get(rule, 0)
            if got < expect:
                failures.append(
                    f"{rule}: expected >= {expect} seeded violation(s), "
                    f"got {got}")
        # Clean seeds must NOT fire (false-positive guards).
        for v in violations:
            for guard in SELF_TEST_FP_GUARDS:
                if guard in v.message:
                    failures.append(
                        f"false positive on clean seed '{guard}': {v}")
        # Every rule must report a wall-clock timing (the --json /
        # budget-attribution contract).
        for rule in CHECKS:
            if rule not in timings:
                failures.append(f"{rule}: no wall-clock timing recorded")

    if failures:
        print("polyverify self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("polyverify self-test passed: all rules fire on seeded "
          "violations")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="polyverify", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: tools/..)")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json path (default: "
                             "build*/compile_commands.json under root)")
    parser.add_argument("--frontend", choices=("auto", "internal", "clang"),
                        default="auto",
                        help="C++ frontend (auto: libclang when the "
                             "clang.cindex bindings are importable)")
    parser.add_argument("--rule", action="append", dest="rules",
                        help="run only this rule (repeatable)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-lockdep", metavar="DIR",
                        help="validate lockdep JSON dumps in DIR against "
                             "the declared rank order, then exit")
    parser.add_argument("--json", metavar="PATH", dest="json_out",
                        help="write a machine-readable report (rules run, "
                             "violations, frontend, wall-clock) to PATH")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="fail (exit 3) if the scan wall-clock "
                             "exceeds this many seconds")
    parser.add_argument("--hp01-update", action="store_true",
                        help="regenerate tools/polyverify/"
                             "hp01_baseline.json from the current tree "
                             "and exit")
    parser.add_argument("--sm-update", action="store_true",
                        help="regenerate the committed protocol automaton "
                             "specs (tools/polyverify/sm_*.json + .dot) "
                             "from the current tree and exit")
    parser.add_argument("--sm-emit", metavar="DIR",
                        help="write freshly extracted automata (sm_*.json "
                             "+ .dot) into DIR and exit — CI diffs them "
                             "against the committed specs")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # When launched from tools/polyverify/, __file__'s great-grandparent
    # overshoots; prefer the directory containing src/.
    probe = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.root is None and os.path.isdir(os.path.join(probe, "..",
                                                        "src")):
        root = os.path.abspath(os.path.join(probe, ".."))

    if args.self_test:
        return self_test()
    if args.check_lockdep:
        return check_lockdep_dumps(root, args.check_lockdep)

    clang_ok, clang_reason = clangfront.probe()
    frontend = args.frontend
    if frontend == "auto":
        if clang_ok:
            frontend = "clang"
        else:
            frontend = "internal"
            print(f"polyverify: {clang_reason}; falling back to the "
                  "internal cpplite frontend", file=sys.stderr)
    elif frontend == "clang" and not clang_ok:
        print(f"polyverify: --frontend=clang but {clang_reason}",
              file=sys.stderr)
        return 2

    compdb = find_compdb(root, args.compdb)
    if compdb is None and frontend == "clang":
        print("polyverify: no compile_commands.json found; configure with "
              "cmake first (CMAKE_EXPORT_COMPILE_COMMANDS is ON)",
              file=sys.stderr)
        return 2

    if args.hp01_update:
        sources, _ = load_tree(root, compdb)
        census, _ = hp01_census(root, sources)
        path = hp01_write_baseline(root, census)
        print(f"polyverify: wrote {rel(root, path)} "
              f"({len(census)} hot-path allocation sites, "
              f"{sum(census.values())} allocations)")
        return 0

    if args.sm_update or args.sm_emit:
        sources, _ = load_tree(root, compdb)
        paths = statemachine.write_specs(root, sources,
                                         out_dir=args.sm_emit)
        for path in paths:
            print(f"polyverify: wrote {rel(root, path)}")
        if not paths:
            print("polyverify: no engine scopes found under "
                  f"{root}; nothing written", file=sys.stderr)
            return 2
        return 0

    started = time.monotonic()
    rules = set(args.rules) if args.rules else None
    violations, rule_seconds = run_rules(root, compdb, frontend, rules)
    elapsed = time.monotonic() - started
    for v in violations:
        print(v)

    if args.json_out:
        report = {
            "tool": "polyverify",
            "frontend": frontend,
            "frontend_note": clang_reason,
            "rules": sorted(rules) if rules else sorted(CHECKS),
            "wall_clock_seconds": round(elapsed, 3),
            "rule_seconds": {r: rule_seconds[r]
                             for r in sorted(rule_seconds)},
            "budget_seconds": args.budget_seconds,
            "violation_count": len(violations),
            "violations": [
                {"rule": v.rule, "file": rel(root, v.path),
                 "line": v.line, "message": v.message}
                for v in violations
            ],
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.json_out)),
                    exist_ok=True)
        with open(args.json_out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")

    over_budget = (args.budget_seconds is not None and
                   elapsed > args.budget_seconds)
    if violations:
        print(f"polyverify: {len(violations)} violation(s) "
              f"[frontend={frontend}, {elapsed:.1f}s]", file=sys.stderr)
        return 1
    if over_budget:
        slowest = max(rule_seconds, key=rule_seconds.get, default=None)
        blame = (f"slowest rule: {slowest} at "
                 f"{rule_seconds[slowest]:.1f}s" if slowest
                 else "no per-rule timings")
        print(f"polyverify: scan took {elapsed:.1f}s, over the "
              f"{args.budget_seconds:.0f}s budget ({blame}) — the "
              "analyzer is too slow for the default CI gate; profile "
              "that pass", file=sys.stderr)
        return 3
    print(f"polyverify: clean [frontend={frontend}, "
          f"compdb={'yes' if compdb else 'no'}, {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
