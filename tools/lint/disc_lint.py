#!/usr/bin/env python3
"""disc_lint v2: scope-aware machine enforcement of DISC project invariants.

DISC's headline guarantee is exactness: the labeling after every slide is
identical to a from-scratch DBSCAN on the window (PAPER.md Thm. 1), and the
parallel COLLECT/CLUSTER stages must keep results bit-identical for every
lane count. Those invariants are easy to break silently — one unordered
walk feeding emitted output, one label write bypassing delta accounting,
one epoch tick inside a parallel lane, one dropped Status, one unlocked
touch of a mutex-guarded field — and no test fails on a single-core box.

v2 replaces the v1 lexical matcher with a small analysis engine:

  * a C++ tokenizer (comments, strings, raw strings, and preprocessor
    directives stripped losslessly, with line numbers preserved),
  * a declaration index (classes and their spans, member functions with
    in-class and out-of-line bodies, thread-safety annotations
    GUARDED_BY / REQUIRES, mutex members, Status-returning signatures,
    unordered-container declarations) built over every scanned file, and
  * per-function scope tracking (brace scopes, lock regions, by-value
    locals) that rules query instead of regex heuristics.

Rules (see docs/ANALYSIS.md for the invariant each protects and the
precision/recall notes):

  label-choke-point   Cluster-label fields (.category / .cid on a point
                      record) may be written only inside a SetLabel
                      definition. Applies to src/core/ and to any file that
                      defines SetLabel; cluster_registry.* is exempt, and
                      writes to by-value locals (a copied record is not the
                      store) are exempt via scope tracking.

  epoch-confinement   R-tree epoch ticks are mutable state on the probe
                      path: tick_counter_ may be touched only inside
                      rtree.*, and NewTick / EpochRangeSearch /
                      SearchMarking must never appear in the parallel
                      stages — the probe fan-out (Collect /
                      FanOutProbes), the thread-pool lane entry
                      points (DrainBatch / WorkerLoop), the engine
                      scheduling stages (Drain / DrainLocked /
                      ExecuteSessionSlide), or any ParallelFor argument.
                      CLUSTER runs on the calling thread and is
                      epoch-probed, so its traversals are not stages.

  unordered-emit      A range-for over a std::unordered_map/set whose body
                      emits (push_back / emplace_back / WritePod / .write /
                      stream <<) leaks hash order into output, unless a
                      std::sort / std::stable_sort / SortById runs later in
                      the same function (exact span, not a heuristic).

  unordered-iteration Generalizes unordered-emit beyond the Snapshot
                      paths: iterator-style loops over unordered
                      containers that feed any emit sink, and any loop
                      form whose body feeds trace args (.AddArg),
                      histogram observations (.Observe — float
                      accumulation is order-dependent), or last-write-wins
                      gauges (.Set).

  unchecked-status    Every call to a disc::Status-returning function must
                      be consumed: assigned, returned, branched on, or
                      passed on. Expression-statement calls — including
                      (void) casts and a chained .ok() whose result is
                      itself dropped — are flagged; [[nodiscard]] alone
                      misses the cast and template contexts, and GCC's
                      warning is not an error gate.

  lock-discipline     A field declared GUARDED_BY(m) may be touched only
                      while m is held: inside the scope of a
                      lock_guard/unique_lock/scoped_lock on m, after
                      m.lock(), or in a function annotated REQUIRES(m).
                      Constructors and destructors of the owning class are
                      exempt (no concurrent access exists yet), matching
                      Clang. This is the portable, GCC-friendly
                      approximation of Clang -Wthread-safety, so the check
                      runs in the GCC-only container instead of silently
                      skipping.

  distance-hot-path   Exact Distance() on the probe hot paths (src/index/,
                      src/core/): compare squared radii with
                      SquaredDistance() instead. Declarations and
                      definitions of a Distance function are recognized
                      and skipped (v1 could not tell them apart).

Suppression: append `// disc-lint: allow(<rule>)` to the offending line or
place it on the line directly above. `allow(all)` silences every rule for
that line. Always add a reason after the directive; the reason is carried
into the JSON report.

Baseline workflow: `--baseline FILE` reads a committed JSON baseline
(tools/lint/baseline.json). Findings matching a baseline entry (same rule,
file suffix, and snippet) are reported as baselined and do not fail the
run; new findings do. Every baseline entry must carry a non-empty
"justification" or the baseline itself is rejected.

Machine-readable output: `--json FILE` writes every finding (active,
suppressed, and baselined) with rule, file, line, snippet, and suppression
state, for CI artifacts and dashboards.

Usage: disc_lint.py [--list-rules] [--json FILE] [--baseline FILE]
                    <file-or-dir>...
Exit status: 0 clean, 1 violations found, 2 usage/baseline error.
"""

import argparse
import json
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

RULES = {
    "label-choke-point": (
        "cluster-label field written outside the SetLabel choke point "
        "(delta accounting is bypassed)"
    ),
    "epoch-confinement": (
        "epoch tick mutation outside the R-tree epoch-probe path"
    ),
    "unordered-emit": (
        "unordered-container iteration feeds emitted output without sorted "
        "materialization"
    ),
    "unordered-iteration": (
        "loop over an unordered container feeds an order-dependent sink "
        "(trace args, histogram/gauge writes, or iterator-style emission)"
    ),
    "unchecked-status": (
        "disc::Status result discarded; assign, return, branch on it, or "
        "add an explicit allow() with a reason"
    ),
    "lock-discipline": (
        "GUARDED_BY field touched without holding its mutex (lock it or "
        "annotate the function REQUIRES)"
    ),
    "distance-hot-path": (
        "exact Distance() on a probe hot path; compare squared radii with "
        "SquaredDistance()"
    ),
}

ALLOW_RE = re.compile(r"disc-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
          "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##")

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
    "class", "const", "consteval", "constexpr", "constinit", "const_cast",
    "continue", "co_await", "co_return", "co_yield", "decltype", "default",
    "delete", "do", "double", "dynamic_cast", "else", "enum", "explicit",
    "extern", "false", "final", "float", "for", "friend", "goto", "if",
    "inline", "int", "long", "mutable", "namespace", "new", "noexcept",
    "nullptr", "operator", "override", "private", "protected", "public",
    "register", "reinterpret_cast", "return", "short", "signed", "sizeof",
    "static", "static_cast", "struct", "switch", "template", "this",
    "thread_local", "throw", "true", "try", "typedef", "typeid",
    "typename", "union", "unsigned", "using", "virtual", "void",
    "volatile", "while",
}

RAW_PREFIXES = {"R", "LR", "uR", "UR", "u8R"}

IDENT_START = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")


class Token:
    __slots__ = ("kind", "text", "line", "index")

    def __init__(self, kind, text, line):
        self.kind = kind  # "id" | "num" | "str" | "chr" | "punct"
        self.text = text
        self.line = line
        self.index = -1  # Filled by Source.

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, line={self.line})"


def tokenize(text):
    """Token stream with comments/strings/preprocessor stripped, line
    numbers preserved. String and char literals become placeholder tokens
    so offsets in expressions survive."""
    toks = []
    i, n, line = 0, len(text), 1
    bol = True  # Only whitespace seen on the current line so far.
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            bol = True
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and bol:
            # Preprocessor directive: consume the logical line (honoring
            # backslash continuations). Directives carry no C++ scope.
            i += 1
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                i += 1
            continue
        bol = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            line += text.count("\n", i, j)
            i = j
            continue
        if c in IDENT_START:
            j = i + 1
            while j < n and text[j] in IDENT_CONT:
                j += 1
            ident = text[i:j]
            if ident in RAW_PREFIXES and j < n and text[j] == '"':
                # Raw string literal R"delim( ... )delim".
                k = text.find("(", j)
                delim = text[j + 1:k] if k != -1 else ""
                marker = ")" + delim + '"'
                end = text.find(marker, k + 1) if k != -1 else -1
                end = n if end == -1 else end + len(marker)
                toks.append(Token("str", '""', line))
                line += text.count("\n", i, end)
                i = end
                continue
            toks.append(Token("id", ident, line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n:
                d = text[j]
                if d in IDENT_CONT or d == "." or d == "'":
                    j += 1
                elif d in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            toks.append(Token("num", text[i:j], line))
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                if text[j] == "\n":
                    line += 1
                j += 1
            toks.append(Token("str", '""', line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            toks.append(Token("chr", "''", line))
            i = j + 1
            continue
        if text[i:i + 3] in PUNCT3:
            toks.append(Token("punct", text[i:i + 3], line))
            i += 3
            continue
        if text[i:i + 2] in PUNCT2:
            toks.append(Token("punct", text[i:i + 2], line))
            i += 2
            continue
        toks.append(Token("punct", c, line))
        i += 1
    for idx, t in enumerate(toks):
        t.index = idx
    return toks


def pair_brackets(toks):
    """Maps each (, {, [ token index to its closing partner and back.
    Unbalanced brackets map to the end of the stream."""
    match = {}
    stacks = {"(": [], "{": [], "[": []}
    closer = {")": "(", "}": "{", "]": "["}
    for i, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.text in stacks:
            stacks[t.text].append(i)
        elif t.text in closer:
            stack = stacks[closer[t.text]]
            if stack:
                j = stack.pop()
                match[j] = i
                match[i] = j
    end = len(toks)
    for stack in stacks.values():
        for i in stack:
            match[i] = end
    return match


def skip_angles(toks, i):
    """Index just past the '>' matching the '<' at i (crude depth count;
    '>>' closes two levels, parens are skipped)."""
    depth = 0
    n = len(toks)
    while i < n:
        x = toks[i].text
        if x == "<":
            depth += 1
        elif x == ">":
            depth -= 1
            if depth <= 0:
                return i + 1
        elif x == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif x in (";", "{", "}"):
            return i  # Not a template argument list after all.
        i += 1
    return n


# ---------------------------------------------------------------------------
# Declaration index
# ---------------------------------------------------------------------------

ANNOT_MACROS = {
    "REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE", "ACQUIRE_SHARED",
    "RELEASE_SHARED", "REQUIRES_SHARED", "NO_THREAD_SAFETY_ANALYSIS",
    "CAPABILITY", "SCOPED_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY",
}

FN_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable",
                 "volatile", "try", "&", "&&"}

MUTEX_TYPES = {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
               "recursive_timed_mutex"}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}


class FuncDef:
    __slots__ = ("name", "cls", "name_tok", "body_start", "body_end",
                 "requires", "is_ctor_dtor")

    def __init__(self, name, cls, name_tok, body_start, body_end, requires):
        self.name = name
        self.cls = cls
        self.name_tok = name_tok
        self.body_start = body_start  # Index of the body '{'.
        self.body_end = body_end      # Index of the matching '}'.
        self.requires = requires      # Mutex names from REQUIRES(...).
        self.is_ctor_dtor = (cls is not None and
                             (name == cls or name == "~" + cls))


class ClassInfo:
    __slots__ = ("name", "body_start", "body_end", "guarded", "mutexes",
                 "method_requires")

    def __init__(self, name, body_start, body_end):
        self.name = name
        self.body_start = body_start
        self.body_end = body_end
        self.guarded = {}          # field name -> mutex name
        self.mutexes = set()       # mutex member names
        self.method_requires = {}  # method name -> set of mutex names


def last_id(toks, start, end):
    name = None
    for k in range(start, end):
        if toks[k].kind == "id":
            name = toks[k].text
    return name


def paren_arg_names(toks, match, open_paren):
    """Last identifier of each top-level comma-separated argument of the
    paren group at open_paren — normalizes `engine->mutex_` to `mutex_`."""
    close = match.get(open_paren, open_paren)
    names, current = [], None
    k = open_paren + 1
    while k < close:
        x = toks[k].text
        if x in ("(", "[", "{"):
            k = match.get(k, close) + 1
            continue
        if x == ",":
            if current is not None:
                names.append(current)
            current = None
        elif toks[k].kind == "id":
            current = toks[k].text
        k += 1
    if current is not None:
        names.append(current)
    return names


class Source:
    """One tokenized file plus its slice of the declaration index."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.raw_lines = text.split("\n")
        self.toks = tokenize(text)
        self.match = pair_brackets(self.toks)
        self.defs = []     # FuncDef, in token order
        self.classes = []  # ClassInfo
        self.findings = []
        self._parse_structure()
        self._index_classes()

    # -- structure ---------------------------------------------------------

    def _parse_structure(self):
        self._scan_block(0, len(self.toks), None)
        self.defs.sort(key=lambda d: d.body_start)

    def _scan_block(self, i, end, cls):
        toks, match = self.toks, self.match
        while i < end:
            t = toks[i]
            x = t.text
            if x in ("class", "struct", "union") and (
                    i == 0 or toks[i - 1].text != "enum"):
                i = self._scan_class_head(i, end, x != "union")
                continue
            if x == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                if j < end and toks[j].text == "{":
                    j = match.get(j, end)
                i = j + 1
                continue
            if x == "namespace":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";", "="):
                    j += 1
                if j < end and toks[j].text == "{":
                    close = match.get(j, end)
                    self._scan_block(j + 1, close, cls)
                    i = close + 1
                else:
                    i = j + 1
                continue
            if (t.kind == "id" and x not in KEYWORDS and i + 1 < end and
                    toks[i + 1].text == "("):
                i = self._scan_callable(i, end, cls)
                continue
            if x == "{":
                close = match.get(i, end)
                self._scan_block(i + 1, close, cls)
                i = close + 1
                continue
            i += 1

    def _scan_class_head(self, i, end, record):
        """i at class/struct. Returns the index to resume scanning at."""
        toks, match = self.toks, self.match
        j = i + 1
        name = None
        while j < end:
            x = toks[j].text
            if x == "(":  # Annotation macro such as CAPABILITY("...").
                j = match.get(j, end) + 1
                continue
            if x == "[":  # [[nodiscard]] and friends.
                j = match.get(j, end) + 1
                continue
            if x == "<":
                j = skip_angles(toks, j)
                continue
            if x in ("{", ";", ":"):
                break
            if toks[j].kind == "id" and x not in ANNOT_MACROS:
                name = x
            j += 1
        if j < end and toks[j].text == ":":  # Base clause.
            while j < end and toks[j].text != "{":
                if toks[j].text == "(":
                    j = match.get(j, end) + 1
                    continue
                if toks[j].text == "<":
                    j = skip_angles(toks, j)
                    continue
                j += 1
        if j >= end or toks[j].text != "{":
            return j + 1  # Forward declaration or elaborated type use.
        close = match.get(j, end)
        if record and name is not None:
            self.classes.append(ClassInfo(name, j, close))
        self._scan_block(j + 1, close, name if record else None)
        return close + 1

    def _scan_callable(self, i, end, cls):
        """i at `name (`. Records a FuncDef when a body follows; returns
        the index to resume scanning at."""
        toks, match = self.toks, self.match
        close = match.get(i + 1, end)
        if close >= end:
            return i + 2
        j = close + 1
        requires = set()
        while j < end:
            x = toks[j].text
            if x in FN_QUALIFIERS:
                j += 1
                continue
            if toks[j].kind == "id" and x in ANNOT_MACROS:
                if j + 1 < end and toks[j + 1].text == "(":
                    if x == "REQUIRES":
                        requires |= set(
                            paren_arg_names(toks, match, j + 1))
                    j = match.get(j + 1, end) + 1
                else:
                    j += 1
                continue
            if x == "[":
                j = match.get(j, end) + 1
                continue
            if x == "(":  # noexcept(expr) and similar.
                j = match.get(j, end) + 1
                continue
            if x == "->":  # Trailing return type.
                j += 1
                while j < end and toks[j].text not in ("{", ";", "="):
                    if toks[j].text == "(":
                        j = match.get(j, end) + 1
                        continue
                    if toks[j].text == "<":
                        j = skip_angles(toks, j)
                        continue
                    j += 1
                continue
            if x == ":":  # Constructor initializer list.
                j = self._skip_init_list(j + 1, end)
                continue
            break
        if j >= end or toks[j].text != "{":
            return close + 1  # Declaration or a plain call.
        body_close = match.get(j, end)
        name = toks[i].text
        owner = cls
        name_tok = i
        if i >= 1 and toks[i - 1].text == "~":
            name = "~" + name
            name_tok = i - 1
        if name_tok >= 2 and toks[name_tok - 1].text == "::" and \
                toks[name_tok - 2].kind == "id":
            owner = toks[name_tok - 2].text
        self.defs.append(
            FuncDef(name, owner, i, j, body_close, requires))
        self._scan_block(j + 1, body_close, cls)
        return body_close + 1

    def _skip_init_list(self, j, end):
        """j just past the ':' of a ctor initializer list. Returns the
        index of the body '{' (or a safe stop)."""
        toks, match = self.toks, self.match
        while j < end:
            # Each initializer: qualified-id then ( ... ) or { ... }.
            while j < end and (toks[j].kind == "id" or
                               toks[j].text in ("::", ",")):
                j += 1
            if j < end and toks[j].text == "<":
                j = skip_angles(toks, j)
                continue
            if j >= end or toks[j].text not in ("(", "{"):
                return j
            opener = j
            closer = match.get(opener, end)
            after = closer + 1
            if after < end and toks[after].text == ",":
                j = after + 1
                continue
            if after < end and toks[after].text == "{":
                return after  # `Last(init) {` — body follows.
            if toks[opener].text == "{" and (
                    after >= end or toks[after].text not in (",", "{")):
                # `Member{init}` was actually the body guess; but a body
                # brace is never followed by ',' — treat as body.
                return opener
            j = after
        return j

    # -- class details -----------------------------------------------------

    def _enclosing_class(self, tok_idx):
        best = None
        for c in self.classes:
            if c.body_start < tok_idx < c.body_end:
                if best is None or c.body_start > best.body_start:
                    best = c
        return best

    def _index_classes(self):
        toks, match = self.toks, self.match
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in ("GUARDED_BY", "PT_GUARDED_BY"):
                if i + 1 < len(toks) and toks[i + 1].text == "(" and i > 0 \
                        and toks[i - 1].kind == "id":
                    cls = self._enclosing_class(i)
                    if cls is not None:
                        args = paren_arg_names(toks, match, i + 1)
                        if args:
                            cls.guarded[toks[i - 1].text] = args[-1]
            elif t.text in MUTEX_TYPES:
                if i + 1 < len(toks) and toks[i + 1].kind == "id" and \
                        i + 2 < len(toks) and \
                        toks[i + 2].text in (";", "{", "="):
                    cls = self._enclosing_class(i)
                    if cls is not None:
                        cls.mutexes.add(toks[i + 1].text)
            elif t.text == "REQUIRES":
                if i + 1 < len(toks) and toks[i + 1].text == "(":
                    cls = self._enclosing_class(i)
                    name = self._annotated_function(i)
                    if cls is not None and name is not None:
                        cls.method_requires.setdefault(name, set()).update(
                            paren_arg_names(toks, match, i + 1))

    def _annotated_function(self, i):
        """Name of the function whose declaration carries the annotation
        macro at token i (walk back over qualifiers and other macros)."""
        toks, match = self.toks, self.match
        k = i - 1
        while k > 0:
            x = toks[k].text
            if x in FN_QUALIFIERS:
                k -= 1
                continue
            if x == ")":
                p = match.get(k)
                if p is None:
                    return None
                before = toks[p - 1] if p > 0 else None
                if before is not None and before.kind == "id":
                    if before.text in ANNOT_MACROS:
                        k = p - 2
                        continue
                    return before.text
                return None
            if x == "]":
                k = match.get(k, k) - 1
                continue
            return None
        return None

    # -- queries -----------------------------------------------------------

    def enclosing_def(self, tok_idx):
        best = None
        for d in self.defs:
            if d.body_start < tok_idx < d.body_end:
                if best is None or d.body_start > best.body_start:
                    best = d
        return best

    def line_text(self, line):
        if 1 <= line <= len(self.raw_lines):
            return self.raw_lines[line - 1].strip()
        return ""

    def suppression(self, line, rule):
        """Returns the justification text when an allow() on `line` or the
        line above covers `rule`, else None."""
        for idx in (line - 1, line - 2):
            if 0 <= idx < len(self.raw_lines):
                m = ALLOW_RE.search(self.raw_lines[idx])
                if m:
                    rules = [r.strip() for r in m.group(1).split(",")]
                    if rule in rules or "all" in rules:
                        tail = self.raw_lines[idx][m.end():].strip()
                        return tail if tail else "(no reason given)"
        return None

    def report(self, tok_idx, rule):
        line = self.toks[tok_idx].line
        self.findings.append(Finding(self, rule, line))


class Finding:
    def __init__(self, src, rule, line):
        self.path = src.path
        self.rule = rule
        self.line = line
        self.snippet = src.line_text(line)
        self.justification = src.suppression(line, rule)
        self.suppressed = self.justification is not None
        self.baselined = False

    def __str__(self):
        return (f"{self.path}:{self.line}: [{self.rule}] "
                f"{RULES[self.rule]}")

    def to_json(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "snippet": self.snippet,
            "message": RULES[self.rule],
            "suppressed": self.suppressed,
            "justification": self.justification,
            "baselined": self.baselined,
        }


class Index:
    """Cross-file declaration index shared by every rule."""

    def __init__(self, sources):
        self.sources = sources
        self.status_fns = set()
        self.unordered_names = set()
        self.guarded = {}  # class name -> ClassInfo (merged view)
        for src in sources:
            self._collect_status_fns(src)
            self._collect_unordered(src)
            for c in src.classes:
                if not (c.guarded or c.mutexes or c.method_requires):
                    continue
                merged = self.guarded.setdefault(
                    c.name, ClassInfo(c.name, -1, -1))
                merged.guarded.update(c.guarded)
                merged.mutexes.update(c.mutexes)
                for fn, req in c.method_requires.items():
                    merged.method_requires.setdefault(fn, set()).update(req)

    def _collect_status_fns(self, src):
        toks = src.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text != "Status":
                continue
            if i > 0 and toks[i - 1].text in ("class", "struct", "enum"):
                continue
            # `Status [Qualified::]Name (` declares/defines Name returning
            # Status; record the final name component.
            j = i + 1
            name = None
            while j + 1 < n and toks[j].kind == "id":
                if toks[j + 1].text == "(":
                    name = toks[j].text
                    break
                if toks[j + 1].text == "::" and j + 2 < n:
                    j += 2
                    continue
                break
            if name is not None and name not in ("operator",):
                self.status_fns.add(name)

    def _collect_unordered(self, src):
        toks = src.toks
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in UNORDERED_TYPES:
                continue
            if i + 1 >= n or toks[i + 1].text != "<":
                continue
            j = skip_angles(toks, i + 1)
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "id" and j + 1 < n and \
                    toks[j + 1].text in (";", "=", "{", ",", ")", ":"):
                self.unordered_names.add(toks[j].text)


# ---------------------------------------------------------------------------
# Rule: label-choke-point
# ---------------------------------------------------------------------------

LABEL_FIELDS = ("category", "cid")


def value_locals(src, fn):
    """Names of by-value locals declared inside fn's body: `Type name ;`,
    `Type name = ...`, `Type name{...}` with no & or * in the declarator.
    A copied record is not the store, so label writes to it cannot bypass
    delta accounting."""
    toks = src.toks
    names = set()
    for k in range(fn.body_start + 1, fn.body_end - 1):
        t = toks[k]
        if t.kind != "id" or t.text in KEYWORDS and t.text != "auto":
            continue
        nxt = toks[k + 1] if k + 1 < fn.body_end else None
        if nxt is None or nxt.kind != "id" or nxt.text in KEYWORDS:
            continue
        after = toks[k + 2].text if k + 2 < fn.body_end else ""
        if after not in (";", "=", "{"):
            continue
        prev = toks[k - 1].text if k > 0 else ";"
        if prev in (".", "->", "::", "&", "*", "<", ","):
            continue
        if prev in (";", "{", "}", "(", "const") or toks[k - 1].kind != "id":
            names.add(nxt.text)
    return names


def check_label_choke_point(src, index):
    base = os.path.basename(src.path)
    if base.startswith("cluster_registry."):
        return
    in_core = f"{os.sep}core{os.sep}" in src.path or "/core/" in src.path
    setlabel_defs = [d for d in src.defs if d.name == "SetLabel"]
    if not in_core and not setlabel_defs:
        # From-scratch baselines rebuild whole labelings; the choke-point
        # invariant protects incremental delta accounting only.
        return
    toks = src.toks
    locals_cache = {}
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in LABEL_FIELDS:
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "=":
            continue
        if any(d.body_start < i < d.body_end for d in setlabel_defs):
            continue
        # Scope tracking: a write through a by-value local (`Record rec;
        # rec.category = ...`) mutates a copy, not the record store.
        if toks[i - 1].text == "." and i >= 2 and toks[i - 2].kind == "id":
            fn = src.enclosing_def(i)
            if fn is not None:
                if fn not in locals_cache:
                    locals_cache[fn] = value_locals(src, fn)
                if toks[i - 2].text in locals_cache[fn]:
                    continue
        src.report(i, "label-choke-point")


# ---------------------------------------------------------------------------
# Rule: epoch-confinement
# ---------------------------------------------------------------------------

# The parallel stages: COLLECT fan-out (the only intra-session fan-out;
# CLUSTER is sequential and epoch-probed), the thread-pool lane entry points
# (everything a worker thread executes), and the engine scheduling stages
# (Drain/DrainLocked dispatch session slides across lanes;
# ExecuteSessionSlide is the per-lane slide body — epoch writes belong to
# the probing layer underneath, never to the scheduler).
EPOCH_STAGES = {
    "Collect", "FanOutProbes", "DrainBatch", "WorkerLoop", "Drain",
    "DrainLocked", "ExecuteSessionSlide",
}

EPOCH_CALLS = {"NewTick", "EpochRangeSearch", "SearchMarking"}

TICK_MUTATORS = {"=", "+=", "-=", "++", "--"}


def check_epoch_confinement(src, index):
    toks = src.toks
    base = os.path.basename(src.path)
    if not base.startswith("rtree."):
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text != "tick_counter_":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if prev in ("++", "--") or nxt in TICK_MUTATORS:
                src.report(i, "epoch-confinement")

    spans = [(d.body_start, d.body_end) for d in src.defs
             if d.name in EPOCH_STAGES]
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "ParallelFor" and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            spans.append((i + 1, src.match.get(i + 1, len(toks))))
    if not spans:
        return
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in EPOCH_CALLS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        # The definition of a stage-adjacent helper is not a call.
        if any(d.name_tok == i for d in src.defs):
            continue
        if any(s < i < e for s, e in spans):
            src.report(i, "epoch-confinement")


# ---------------------------------------------------------------------------
# Rules: unordered-emit / unordered-iteration
# ---------------------------------------------------------------------------

# Write: obs::HttpResponse body chunks (telemetry JSON built per-element).
EMIT_MEMBER_SINKS = {"push_back", "emplace_back", "write", "Write"}
# Str/Num: obs::LogEvent fields — key order in the JSON line follows call
# order, so appending them while walking an unordered container makes the
# log line nondeterministic.
ITER_MEMBER_SINKS = {"AddArg", "Observe", "Set", "Str", "Num"}
STREAMY = re.compile(r"out|os|stream")


class Loop:
    __slots__ = ("for_tok", "body_start", "body_end", "range_based")

    def __init__(self, for_tok, body_start, body_end, range_based):
        self.for_tok = for_tok
        self.body_start = body_start
        self.body_end = body_end
        self.range_based = range_based


def find_unordered_loops(src, unordered_names):
    """Loops (range-for or iterator-for) over unordered containers."""
    toks, match = src.toks, src.match
    n = len(toks)
    loops = []
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "for":
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = match.get(i + 1)
        if close is None:
            continue
        colon = None
        semis = []
        k = i + 2
        while k < close:
            x = toks[k].text
            if x in ("(", "[", "{"):
                k = match.get(k, close) + 1
                continue
            if x == ":" and colon is None:
                colon = k
            elif x == ";":
                semis.append(k)
            k += 1
        over_unordered = False
        range_based = False
        if colon is not None and not semis:
            range_based = True
            container = last_id(toks, colon + 1, close)
            over_unordered = container in unordered_names
        elif semis:
            # Iterator-style: look for <name>.begin()/cbegin() in the init
            # clause with <name> an unordered container.
            for k in range(i + 2, semis[0]):
                if toks[k].kind == "id" and \
                        toks[k].text in ("begin", "cbegin") and \
                        k >= 2 and toks[k - 1].text in (".", "->") and \
                        toks[k - 2].kind == "id" and \
                        toks[k - 2].text in unordered_names:
                    over_unordered = True
                    break
        if not over_unordered:
            continue
        j = close + 1
        if j < n and toks[j].text == "{":
            body_start, body_end = j, match.get(j, n)
        else:
            body_start = j
            body_end = j
            while body_end < n and toks[body_end].text != ";":
                if toks[body_end].text in ("(", "{", "["):
                    body_end = match.get(body_end, n)
                body_end += 1
        loops.append(Loop(i, body_start, body_end, range_based))
    return loops


def body_sinks(src, loop):
    """(emit, iter) sink hits inside the loop body."""
    toks = src.toks
    emit = iter_ = False
    for k in range(loop.body_start, loop.body_end + 1):
        if k >= len(toks):
            break
        t = toks[k]
        if t.kind == "id" and k > 0 and toks[k - 1].text in (".", "->") and \
                k + 1 < len(toks) and toks[k + 1].text == "(":
            if t.text in EMIT_MEMBER_SINKS:
                emit = True
            if t.text in ITER_MEMBER_SINKS:
                iter_ = True
        elif t.kind == "id" and t.text == "WritePod" and \
                k + 1 < len(toks) and toks[k + 1].text == "(":
            emit = True
        elif t.text == "<<" and k > 0 and toks[k - 1].kind == "id" and \
                STREAMY.search(toks[k - 1].text):
            emit = True
    return emit, iter_


def sorted_later(src, loop):
    """True when std::sort / std::stable_sort / SortById runs after the
    loop inside the same (exactly delimited) enclosing function."""
    toks = src.toks
    fn = src.enclosing_def(loop.for_tok)
    end = fn.body_end if fn is not None else len(toks)
    for k in range(loop.body_end, end):
        t = toks[k]
        if t.kind == "id" and t.text in ("sort", "stable_sort") and \
                k > 0 and toks[k - 1].text == "::" and \
                k + 1 < len(toks) and toks[k + 1].text == "(":
            return True
        if t.kind == "id" and t.text == "SortById" and \
                k + 1 < len(toks) and toks[k + 1].text == "(":
            return True
    return False


def check_unordered(src, index):
    for loop in find_unordered_loops(src, index.unordered_names):
        emit, iter_ = body_sinks(src, loop)
        if not emit and not iter_:
            continue
        if sorted_later(src, loop):
            continue
        if loop.range_based and emit:
            src.report(loop.for_tok, "unordered-emit")
        if iter_ or (emit and not loop.range_based):
            src.report(loop.for_tok, "unordered-iteration")


# ---------------------------------------------------------------------------
# Rule: unchecked-status
# ---------------------------------------------------------------------------

STMT_BOUNDARY = {";", "{", "}", "else", "do"}
COND_KEYWORDS = {"if", "while", "for", "switch"}


def chain_start(src, i):
    """Walks the call chain `a.b->c::Name` backwards from the callee name
    at i; returns the index of the chain's first token."""
    toks, match = src.toks, src.match
    s = i
    while s > 0:
        p = toks[s - 1].text
        if p in (".", "->", "::") and s >= 2:
            q = toks[s - 2]
            if q.kind == "id":
                s -= 2
                continue
            if q.text == ")":
                open_p = match.get(s - 2)
                if open_p is None:
                    break
                if open_p > 0 and toks[open_p - 1].kind == "id":
                    s = open_p - 1
                    continue
                break
        break
    return s


def statement_context(src, s):
    """True when the token before index s begins a statement — i.e. an
    expression starting at s has its value discarded."""
    toks, match = src.toks, src.match
    if s == 0:
        return True
    before = toks[s - 1]
    if before.text in STMT_BOUNDARY:
        return True
    if before.text == ")":
        open_p = match.get(s - 1)
        if open_p is not None and open_p > 0 and \
                toks[open_p - 1].text in COND_KEYWORDS:
            return True  # Single-statement if/while/for body.
    return False


def void_cast_context(src, s):
    """True for `(void) <expr>` in statement position."""
    toks, match = src.toks, src.match
    if s < 3 or toks[s - 1].text != ")":
        return False
    open_p = match.get(s - 1)
    if open_p is None or open_p != s - 3 or toks[s - 2].text != "void":
        return False
    return statement_context(src, open_p)


def check_unchecked_status(src, index):
    toks, match = src.toks, src.match
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in index.status_fns:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        if any(d.name_tok == i for d in src.defs):
            continue  # This is the definition, not a call.
        close = match.get(i + 1)
        if close is None or close + 1 >= n:
            continue
        after = toks[close + 1].text
        discarded = False
        check_tok = i
        if after == ";":
            discarded = True
        elif after in (".", "->") and close + 3 < n and \
                toks[close + 2].kind == "id" and \
                toks[close + 2].text in ("ok", "message") and \
                toks[close + 3].text == "(":
            # `f().ok();` — the probe itself is computed, then dropped.
            chained_close = match.get(close + 3)
            if chained_close is not None and chained_close + 1 < n and \
                    toks[chained_close + 1].text == ";":
                discarded = True
        if not discarded:
            continue
        s = chain_start(src, i)
        if statement_context(src, s) or void_cast_context(src, s):
            src.report(check_tok, "unchecked-status")


# ---------------------------------------------------------------------------
# Rule: lock-discipline
# ---------------------------------------------------------------------------

LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
DEFERRING_TAGS = {"defer_lock", "try_to_lock"}


def check_lock_discipline(src, index):
    for fn in src.defs:
        if fn.cls is None:
            continue
        cls = index.guarded.get(fn.cls)
        if cls is None or not cls.guarded:
            continue
        if fn.is_ctor_dtor:
            continue  # No concurrent access exists yet — matches Clang.
        requires = set(fn.requires) | cls.method_requires.get(fn.name, set())
        _scan_function_locks(src, fn, cls, requires)


def _scan_function_locks(src, fn, cls, requires):
    toks, match = src.toks, src.match
    # Scope stack: each entry is (brace_token_index, locks acquired in that
    # scope). `held` is the flat multiset of currently held mutexes.
    scope_stack = [(fn.body_start, [])]
    held = {m: 1 for m in requires}
    lock_vars = {}  # lock-object variable name -> list of mutex names

    def acquire(names, scope_entry):
        for m in names:
            held[m] = held.get(m, 0) + 1
            scope_entry.append(m)

    def release(names):
        for m in names:
            if held.get(m, 0) > 0:
                held[m] -= 1

    k = fn.body_start + 1
    end = fn.body_end
    while k < end:
        t = toks[k]
        x = t.text
        if x == "{":
            scope_stack.append((k, []))
            k += 1
            continue
        if x == "}":
            if len(scope_stack) > 1:
                _, acquired = scope_stack.pop()
                release(acquired)
            k += 1
            continue
        if t.kind == "id" and x in LOCK_TYPES:
            k = _parse_lock_decl(src, k, end, cls, scope_stack[-1][1],
                                 held, lock_vars, acquire)
            continue
        if t.kind == "id" and x in ("lock", "unlock") and k >= 2 and \
                toks[k - 1].text in (".", "->") and \
                toks[k - 2].kind == "id" and \
                k + 1 < end and toks[k + 1].text == "(":
            obj = toks[k - 2].text
            targets = lock_vars.get(obj)
            if targets is None and obj in cls.mutexes:
                targets = [obj]
            if targets is not None:
                if x == "lock":
                    acquire(targets, scope_stack[-1][1])
                else:
                    release(targets)
            k = match.get(k + 1, k + 1) + 1
            continue
        if t.kind == "id" and x in cls.guarded:
            prev = toks[k - 1].text if k > 0 else ""
            qualified = prev in (".", "->") and not (
                k >= 2 and toks[k - 2].text == "this")
            if not qualified:
                mutex = cls.guarded[x]
                if held.get(mutex, 0) <= 0:
                    src.report(k, "lock-discipline")
            k += 1
            continue
        if t.kind == "id" and x in cls.method_requires and \
                k + 1 < end and toks[k + 1].text == "(":
            prev = toks[k - 1].text if k > 0 else ""
            qualified = prev in (".", "->", "::") and not (
                k >= 2 and toks[k - 2].text == "this")
            if not qualified:
                needed = cls.method_requires[x]
                if any(held.get(m, 0) <= 0 for m in needed):
                    src.report(k, "lock-discipline")
            k += 1
            continue
        k += 1


def _parse_lock_decl(src, k, end, cls, scope_acquired, held, lock_vars,
                     acquire):
    """k at lock_guard/unique_lock/... — parses the declaration, records
    the acquisition, returns the resume index."""
    toks, match = src.toks, src.match
    j = k + 1
    if j < end and toks[j].text == "<":
        j = skip_angles(toks, j)
    var = None
    if j < end and toks[j].kind == "id":
        var = toks[j].text
        j += 1
    if j >= end or toks[j].text not in ("(", "{"):
        return k + 1
    args = paren_arg_names(toks, match, j) if toks[j].text == "(" else []
    close = match.get(j, j)
    deferred = any(a in DEFERRING_TAGS for a in args)
    mutexes = [a for a in args if a not in DEFERRING_TAGS and
               a != "adopt_lock"]
    if var is not None and mutexes:
        lock_vars[var] = mutexes
    if mutexes and not deferred:
        acquire(mutexes, scope_acquired)
    return close + 1


# ---------------------------------------------------------------------------
# Rule: distance-hot-path
# ---------------------------------------------------------------------------

HOT_PATH_DIRS = (f"{os.sep}index{os.sep}", f"{os.sep}core{os.sep}",
                 "/index/", "/core/")


def check_distance_hot_path(src, index):
    if not any(d in src.path for d in HOT_PATH_DIRS):
        return
    toks = src.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "Distance":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        if any(d.name_tok == i for d in src.defs):
            continue  # Definition of a Distance helper, not a call.
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "id" and \
                prev.text not in KEYWORDS:
            continue  # `double Distance(...)` declaration.
        src.report(i, "distance-hot-path")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CHECKS = (
    check_label_choke_point,
    check_epoch_confinement,
    check_unordered,
    check_unchecked_status,
    check_lock_discipline,
    check_distance_hot_path,
)


def gather_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith("build") and d != "fixtures")
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print(f"disc_lint: no such file or directory: {p}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def load_baseline(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"disc_lint: cannot read baseline {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    entries = data.get("entries", [])
    for idx, entry in enumerate(entries):
        for key in ("rule", "file", "snippet"):
            if not entry.get(key):
                print(f"disc_lint: baseline entry {idx} lacks '{key}'",
                      file=sys.stderr)
                sys.exit(2)
        if not str(entry.get("justification", "")).strip():
            print(f"disc_lint: baseline entry {idx} "
                  f"({entry['rule']} in {entry['file']}) has no "
                  "justification; every legacy finding must say why it is "
                  "tolerated", file=sys.stderr)
            sys.exit(2)
    return entries


def apply_baseline(findings, entries):
    used = [False] * len(entries)
    for f in findings:
        if f.suppressed:
            continue
        for idx, entry in enumerate(entries):
            if entry["rule"] != f.rule:
                continue
            norm = f.path.replace(os.sep, "/")
            ef = entry["file"].replace(os.sep, "/")
            if not (norm.endswith(ef) or ef.endswith(norm)):
                continue
            if entry["snippet"].strip() != f.snippet:
                continue
            f.baselined = True
            f.justification = entry["justification"]
            used[idx] = True
            break
    return [entries[i] for i in range(len(entries)) if not used[i]]


def main(argv):
    parser = argparse.ArgumentParser(
        prog="disc_lint.py",
        description="DISC project invariant linter (see module docstring).")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--json", metavar="FILE",
                        help="write a machine-readable findings report")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON baseline of tolerated legacy findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, message in RULES.items():
            print(f"{rule}: {message}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    baseline_entries = load_baseline(args.baseline) if args.baseline else []

    files = gather_files(args.paths)
    sources = []
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            sources.append(Source(path, f.read()))

    index = Index(sources)
    findings = []
    for src in sources:
        for check in CHECKS:
            check(src, index)
        src.findings.sort(key=lambda v: (v.line, v.rule))
        findings.extend(src.findings)

    stale = apply_baseline(findings, baseline_entries) \
        if baseline_entries else []

    active = [f for f in findings if not f.suppressed and not f.baselined]
    for f in active:
        print(f)
    for entry in stale:
        print(f"disc_lint: note: stale baseline entry ({entry['rule']} in "
              f"{entry['file']}) no longer matches any finding — remove it",
              file=sys.stderr)

    if args.json:
        report = {
            "version": 2,
            "tool": "disc_lint",
            "rules": {rule: message for rule, message in RULES.items()},
            "files_scanned": len(files),
            "findings": [f.to_json() for f in findings],
            "stale_baseline_entries": stale,
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    if active:
        print(f"disc_lint: {len(active)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
