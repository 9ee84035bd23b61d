#!/usr/bin/env python3
"""lockcheck: the lock-discipline linter (docs/concurrency.md).

src/util/sync.h is the only place raw synchronization primitives may
appear; everything else must use the capability-annotated wrappers so the
clang -Wthread-safety build can prove the lock invariants. This linter
keeps that closed-world property from regressing on compilers (gcc) that
cannot check the annotations themselves.

Forbidden outside src/util/sync.h:
  naked-mutex       std::mutex / std::shared_mutex / std::recursive_mutex /
                    std::timed_mutex / std::shared_timed_mutex
  naked-lock        std::lock_guard / std::unique_lock / std::shared_lock /
                    std::scoped_lock
  naked-condvar     std::condition_variable[_any]
  raw-lock-call     bare .lock() / .unlock() / .try_lock() /
                    .lock_shared() / .unlock_shared() calls
  detached-thread   std::thread(...).detach()
  sync-include      #include <mutex> / <shared_mutex> / <condition_variable>

Forbidden outside tests/ (and the files that define and consume it,
src/util/lock_ranks.h and src/util/sync.cc):
  unranked-lock     lockrank::kUnranked; a lock outside the tests must
                    carry a real rank so the runtime validator sees it

Required in the durability sources (src/service/wal.*, snapshot.*):
  missing-sync-include  the file must include "util/sync.h" — directly,
                        or (for a .cc) via its paired same-directory
                        header. These files own mutexes in the service
                        hot path; losing the annotated primitives there
                        silently drops them out of the -Wthread-safety
                        proof.

Suppression mirrors rulecheck's `# rulecheck: allow(id)`: put
  // lockcheck: allow(<id>)
on the offending line (or the line directly above it), ideally with a
comment explaining why the raw primitive is unavoidable.

Usage: tools/lockcheck.py [--root=DIR]
Exit codes: 0 clean, 1 findings, 2 usage/setup error.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "tools", "tests", "bench", "examples")
EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
EXEMPT = {os.path.join("src", "util", "sync.h")}
# Deliberate-violation fixtures for this linter's own golden tests
# (run with --root pointed at each fixture) — skipped when scanning a
# real source tree so the seeded findings don't fail lockcheck_clean.
EXEMPT_SUBTREES = (os.path.join("tests", "lockcheck_fixtures"),)

CHECKS = [
    (
        "naked-mutex",
        re.compile(
            r"\bstd::(recursive_|timed_|shared_|shared_timed_)?mutex\b"
        ),
        "raw std::mutex family; use mergepurge::Mutex/SharedMutex "
        "(util/sync.h)",
    ),
    (
        "naked-lock",
        re.compile(r"\bstd::(lock_guard|unique_lock|shared_lock|scoped_lock)\b"),
        "raw std lock scope; use MutexLock/ReaderLock/WriterLock "
        "(util/sync.h)",
    ),
    (
        "naked-condvar",
        re.compile(r"\bstd::condition_variable(_any)?\b"),
        "raw std::condition_variable; use mergepurge::CondVar (util/sync.h)",
    ),
    (
        "raw-lock-call",
        re.compile(
            r"\.\s*(lock|unlock|try_lock|lock_shared|unlock_shared)\s*\(\s*\)"
        ),
        "bare .lock()/.unlock() call; use the scoped types or the "
        "annotated Lock()/Unlock() members",
    ),
    (
        "detached-thread",
        re.compile(r"\.\s*detach\s*\(\s*\)"),
        "detached thread; join it, or allowlist with a comment saying why "
        "it must outlive its owner",
    ),
    (
        "sync-include",
        re.compile(r'#\s*include\s*<(mutex|shared_mutex|condition_variable)>'),
        "raw sync header; include \"util/sync.h\" instead",
    ),
    (
        "unranked-lock",
        re.compile(r"\bkUnranked\b"),
        "unranked lock; construct it with its lockrank:: constant "
        "(util/lock_ranks.h)",
    ),
]
# Where kUnranked may appear: the tests, and its own definition/use in
# the validator.
UNRANKED_ALLOWED = (
    os.path.join("src", "util", "lock_ranks.h"),
    os.path.join("src", "util", "sync.cc"),
)

ALLOW_RE = re.compile(
    r"lockcheck:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
KNOWN_IDS = {check_id for check_id, _, _ in CHECKS} | {"missing-sync-include"}

# Lock-owning service and introspection sources that must stay inside
# the annotated sync vocabulary: each must include util/sync.h, either
# directly or (a .cc) through its paired same-directory header.
MUST_INCLUDE_SYNC = (
    os.path.join("src", "service", "wal.h"),
    os.path.join("src", "service", "wal.cc"),
    os.path.join("src", "service", "snapshot.h"),
    os.path.join("src", "service", "snapshot.cc"),
    os.path.join("src", "service", "match_service.h"),
    os.path.join("src", "service", "match_service.cc"),
    os.path.join("src", "service", "server.h"),
    os.path.join("src", "service", "server.cc"),
    os.path.join("src", "obs", "window.h"),
    os.path.join("src", "obs", "window.cc"),
    os.path.join("src", "shard", "coordinator.h"),
    os.path.join("src", "shard", "coordinator.cc"),
)
SYNC_INCLUDE_RE = re.compile(r'#\s*include\s*"util/sync\.h"')


def includes_sync(root, rel_path, seen=None):
    """True if rel_path includes util/sync.h directly, or (one hop) via a
    paired header in the same directory."""
    if seen is None:
        seen = set()
    if rel_path in seen:
        return False
    seen.add(rel_path)
    path = os.path.join(root, rel_path)
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return False
    if SYNC_INCLUDE_RE.search(text):
        return True
    # Follow project-local includes that resolve into the same directory
    # (the paired wal.cc -> service/wal.h case).
    directory = os.path.dirname(rel_path)
    for included in re.findall(r'#\s*include\s*"([^"]+)"', text):
        candidate = os.path.join("src", included)
        if os.path.dirname(candidate) != directory:
            continue
        if includes_sync(root, candidate, seen):
            return True
    return False


def check_sync_includes(root):
    findings = []
    for rel_path in MUST_INCLUDE_SYNC:
        if not os.path.isfile(os.path.join(root, rel_path)):
            continue
        if not includes_sync(root, rel_path):
            findings.append(
                (rel_path, 1, "missing-sync-include",
                 'durability source must include "util/sync.h" (directly '
                 "or via its paired header)")
            )
    return findings


def allowed_ids(line):
    match = ALLOW_RE.search(line)
    if not match:
        return set()
    return {token.strip() for token in match.group(1).split(",")}


def strip_noncode(line):
    """Drop string/char literals and // comments so tokens inside them
    (e.g. this linter's own messages) don't trip the patterns. Heuristic,
    not a lexer — good enough for this codebase's style."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            i += 1
            out.append(quote + quote)
            continue
        out.append(c)
        i += 1
    return "".join(out)


def scan_file(root, rel_path):
    findings = []
    path = os.path.join(root, rel_path)
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            lines = handle.readlines()
    except OSError as err:
        print(f"lockcheck: cannot read {rel_path}: {err}", file=sys.stderr)
        sys.exit(2)

    unranked_ok = (rel_path.startswith("tests" + os.sep)
                   or rel_path in UNRANKED_ALLOWED)
    in_block_comment = False
    for lineno, line in enumerate(lines, start=1):
        allows = allowed_ids(line)
        if lineno > 1:
            allows |= allowed_ids(lines[lineno - 2])
        unknown = allows - KNOWN_IDS
        if unknown and ALLOW_RE.search(line):
            findings.append(
                (rel_path, lineno, "bad-allow",
                 f"unknown lockcheck id(s): {', '.join(sorted(unknown))}")
            )

        code = line
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        # Remove block comments opened (and possibly closed) on this line.
        while True:
            start = code.find("/*")
            if start < 0:
                break
            end = code.find("*/", start + 2)
            if end < 0:
                code = code[:start]
                in_block_comment = True
                break
            code = code[:start] + code[end + 2:]
        code = strip_noncode(code)

        for check_id, pattern, message in CHECKS:
            if not pattern.search(code):
                continue
            if check_id in allows:
                continue
            if check_id == "unranked-lock" and unranked_ok:
                continue
            findings.append((rel_path, lineno, check_id, message))
    return findings


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for arg in argv[1:]:
        if arg.startswith("--root="):
            root = arg[len("--root="):]
        else:
            print(__doc__, file=sys.stderr)
            return 2

    self_rel = os.path.relpath(os.path.abspath(__file__), root)
    findings = []
    scanned = 0
    for scan_dir in SCAN_DIRS:
        top = os.path.join(root, scan_dir)
        if not os.path.isdir(top):
            continue
        for dirpath, _, filenames in os.walk(top):
            for filename in sorted(filenames):
                if not filename.endswith(EXTENSIONS):
                    continue
                rel_path = os.path.relpath(
                    os.path.join(dirpath, filename), root
                )
                if rel_path in EXEMPT or rel_path == self_rel:
                    continue
                if any(rel_path.startswith(subtree + os.sep)
                       for subtree in EXEMPT_SUBTREES):
                    continue
                scanned += 1
                findings.extend(scan_file(root, rel_path))

    if scanned == 0:
        print("lockcheck: no sources found (bad --root?)", file=sys.stderr)
        return 2
    findings.extend(check_sync_includes(root))

    for rel_path, lineno, check_id, message in findings:
        print(f"{rel_path}:{lineno}: lockcheck({check_id}): {message}")
    if findings:
        print(f"lockcheck: {len(findings)} finding(s) in {scanned} files")
        return 1
    print(f"lockcheck: clean ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
