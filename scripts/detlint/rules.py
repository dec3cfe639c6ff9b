# rules.py -- detlint's determinism-contract rules (DESIGN.md sec. 17).
#
# Two tiers:
#
#  * GLOBAL hygiene rules run on every file regardless of contract
#    level (some are scoped by path, as noted). They are the project's
#    line rules; they honor the legacy `lint:allow(<rule>)` markers
#    already in the tree as well as the new `detlint:allow(<rule>): <why>`
#    form:
#      naked-new        no new/delete expressions
#      float-eq         no ==/!= against floating-point literals
#      unseeded-rng     no rand()/random_device/mt19937: all randomness
#                       is util::Xoshiro256 with an explicit seed
#      mutex-unguarded  every non-static Mutex member needs an OCTGB_*
#                       annotation partner in the same file
#      fastmath         (src/gb/ only) no raw std::exp( or / std::sqrt(
#                       in kernel code: per-pair math goes through the
#                       util::ExactMath / util::ApproxMath policies so the
#                       approx_math switch stays honest
#      sqrt-domain      (src/gb/ only) std::pow( and a std::sqrt( whose
#                       argument contains a subtraction need a
#                       justification naming where the operand's domain
#                       is established (a bad operand is a silent NaN)
#      narrow-cast      (src/gb/ only) no narrowing integer cast applied
#                       directly to floating-point math; round explicitly
#                       (ceil/floor/round/lround/trunc) or justify it
#      rawclock         no raw std::chrono::*_clock::now() outside
#                       src/telemetry/, bench/ and the load harness's
#                       clock shim src/load/clock.h (that one file, so the
#                       rest of src/load stays clock-agnostic): timing
#                       goes through util::WallTimer or the span recorder
#      raw-mutex        no raw std:: locking primitives outside the
#                       interposition layer src/util/thread_annotations.h
#                       and the analysis runtimes src/analysis/{sched,
#                       lockgraph}/ (which must not instrument
#                       themselves): everything else locks through
#                       util::Mutex / util::CondVar so the lock-order
#                       witness and the schedule explorer see it
#      raw-serialize    (src/cluster/ and src/serve/ only, minus the codec
#                       TU src/cluster/codec.cpp) no memcpy and no
#                       reinterpret_cast: wire bytes go through the
#                       versioned frame Writer/Reader
#      cv-wait-pred     a bare cv.wait(lock) must sit in a predicate loop
#                       (`while (` on the same or the previous line) or
#                       use the predicate overload wait(lock, pred)
#
#  * STRICT rules run only in modules whose contract
#    (scripts/detlint/contracts.txt) promises bit-determinism:
#      unordered-iter     iterating an unordered container (hash order
#                         is run-dependent; lookups are fine)
#      ptr-key-order      ordered container keyed by a pointer
#                         (address order changes across runs)
#      unstable-sort      std::sort (equal elements land in
#                         unspecified order; use std::stable_sort, or
#                         justify a proven strict-weak total order)
#      wallclock          raw clock reads
#      thread-id          std::this_thread::get_id
#      env-read           getenv
#      shared-float-accum atomic<double/float> / atomic_ref<double>
#                         accumulation (FP addition is not associative;
#                         completion order changes the rounding)
#      nondet-taint       a function in this TU transitively calls a
#                         function whose body reads a nondeterministic
#                         source (per-TU approximate call graph)
#
# Suppression: `detlint:allow(<rule>): <justification>` on the line or
# the line directly above. The justification is REQUIRED -- a bare
# allow marker is itself reported (rule `bare-allow`). The global rules
# additionally honor the legacy `lint:allow(<rule>)` form so the
# existing tree keeps linting clean.

from __future__ import annotations

import dataclasses
import os
import re

from . import contracts as contracts_mod
from . import lexer

# Global rules: legacy lint:allow() accepted.
PORTED = ("naked-new", "float-eq", "unseeded-rng", "mutex-unguarded",
          "fastmath", "sqrt-domain", "narrow-cast", "rawclock", "raw-mutex",
          "raw-serialize", "cv-wait-pred")

STRICT_RULES = ("unordered-iter", "ptr-key-order", "unstable-sort",
                "wallclock", "thread-id", "env-read", "shared-float-accum",
                "nondet-taint")

ALL_RULES = PORTED + STRICT_RULES + ("bare-allow",)


@dataclasses.dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str
    snippet: str
    level: str  # contract level of the file

    def human(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    {self.snippet.strip()}")

    def as_json(self) -> dict:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message, "snippet": self.snippet.strip(),
                "contract": self.level}


class FileCtx:
    """One analyzed file: raw + stripped lines and its contract level."""

    def __init__(self, path: str, relpath: str, text: str,
                 contracts: contracts_mod.Contracts) -> None:
        self.path = path
        self.rel = relpath.replace(os.sep, "/")
        self.raw = text.splitlines()
        self.code = lexer.strip(text)
        self.level = contracts.level_for(self.rel)
        self.contracts = contracts
        self.findings: list[Finding] = []

    # -- suppressions ---------------------------------------------------
    def _marker(self, lineno: int, rule: str) -> str | None:
        """Returns the allow marker text covering `lineno` (1-based), or
        None. Same line or the line directly above (NOLINTNEXTLINE
        idiom)."""
        for ln in (lineno, lineno - 1):
            if 1 <= ln <= len(self.raw):
                raw = self.raw[ln - 1]
                if f"detlint:allow({rule})" in raw:
                    return raw
                if rule in PORTED and f"lint:allow({rule})" in raw:
                    return raw
        return None

    def allowed(self, lineno: int, rule: str) -> bool:
        if self.contracts.sanctioned(rule, self.rel):
            return True
        marker = self._marker(lineno, rule)
        if marker is None:
            return False
        if f"detlint:allow({rule})" in marker:
            tail = marker.split(f"detlint:allow({rule})", 1)[1]
            just = tail.lstrip(" :.-")
            if not re.search(r"[A-Za-z]", just):
                # detlint:allow without a justification: the marker
                # silences nothing and is itself a finding.
                self.report(lineno, "bare-allow",
                            f"detlint:allow({rule}) needs a justification"
                            " after a colon (why is this site exempt?)")
                return False
        return True

    def report(self, lineno: int, rule: str, message: str) -> None:
        snippet = self.raw[lineno - 1] if 1 <= lineno <= len(self.raw) else ""
        self.findings.append(Finding(self.rel, lineno, rule, message,
                                     snippet, self.level))

    def check(self, lineno: int, rule: str, message: str) -> None:
        if not self.allowed(lineno, rule):
            self.report(lineno, rule, message)


# ---------------------------------------------------------------------------
# Global hygiene rules.

_NAKED_NEW = re.compile(
    r"(^|[^\w])(new\s+[\w(:]|new\s*\(|delete\s+[\w*(]|delete\s*\[\])")
_FLOAT_LIT = r"-?\d+\.\d*(?:[eE][-+]?\d+)?f?"
_FLOAT_EQ = re.compile(
    rf"[=!]=\s*{_FLOAT_LIT}(?:[^\w]|$)|(?:^|[^\w]){_FLOAT_LIT}\s*[=!]=")
_UNSEEDED_RNG = re.compile(
    r"(^|[^\w])(rand|srand|rand_r|drand48)\s*\(|std::random_device"
    r"|std::mt19937|default_random_engine")
_MUTEX_DECL = re.compile(
    r"^\s*(?:mutable\s+)?(?:(?:std|util)::)?[Mm]utex\s+([A-Za-z_]\w*)\s*;")


def _line_rule(ctx: FileCtx, pattern: re.Pattern, rule: str,
               message: str) -> None:
    for i, line in enumerate(ctx.code, 1):
        if pattern.search(line):
            ctx.check(i, rule, message)


def rule_naked_new(ctx: FileCtx) -> None:
    _line_rule(ctx, _NAKED_NEW, "naked-new",
               "new/delete expression; use make_unique/make_shared"
               " or a container")


def rule_float_eq(ctx: FileCtx) -> None:
    _line_rule(ctx, _FLOAT_EQ, "float-eq",
               "==/!= against a floating-point literal; compare with"
               " a tolerance or justify the exact comparison")


def rule_unseeded_rng(ctx: FileCtx) -> None:
    _line_rule(ctx, _UNSEEDED_RNG, "unseeded-rng",
               "unseeded/implementation-defined RNG; use"
               " util::Xoshiro256 with an explicit seed")


def rule_mutex_unguarded(ctx: FileCtx) -> None:
    annotated = set()
    for line in ctx.code:
        for m in re.finditer(r"OCTGB_[A-Z_]+\(([^)]*)\)", line):
            annotated.update(re.findall(r"[A-Za-z_]\w*", m.group(1)))
    for i, line in enumerate(ctx.code, 1):
        m = _MUTEX_DECL.match(line)
        if not m or "static" in line:
            continue
        name = m.group(1)
        if name not in annotated:
            ctx.check(i, "mutex-unguarded",
                      f"'{name}' has no OCTGB_GUARDED_BY/_REQUIRES/"
                      "_EXCLUDES partner annotation in this file")


_GB = re.compile(r"(^|/)src/gb/")
_FASTMATH = re.compile(r"(^|[^\w])std::exp\s*\(|/\s*std::sqrt\s*\(")
_SQRT_DOMAIN = re.compile(
    r"(^|[^\w])std::pow\s*\(|(^|[^\w])std::sqrt\s*\([^)]*-")
_NARROW_CAST = re.compile(
    r"static_cast<\s*(std::)?u?int[0-9a-z_]*\s*>\s*\(\s*std::"
    r"(log|log2|log10|log1p|exp|exp2|expm1|sqrt|cbrt|pow|fma|sin|cos|tan"
    r"|atan|atan2|asin|acos|hypot)\s*\(")
_RAWCLOCK = re.compile(
    r"(steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(")
_RAWCLOCK_EXEMPT = re.compile(
    r"(^|/)src/telemetry/|(^|/)bench/|(^|/)src/load/clock\.h$")
_RAW_MUTEX = re.compile(
    r"std::(timed_mutex|recursive_mutex|shared_mutex|mutex"
    r"|condition_variable_any|condition_variable|lock_guard|unique_lock"
    r"|scoped_lock|shared_lock)([^\w]|$)")
_RAW_MUTEX_EXEMPT = re.compile(
    r"(^|/)src/util/thread_annotations\.h$|(^|/)src/analysis/(sched|lockgraph)/")
_SERVING = re.compile(r"(^|/)src/(cluster|serve)/")
_CODEC = re.compile(r"(^|/)src/cluster/codec\.cpp$")
_RAW_SERIALIZE = re.compile(
    r"(^|[^\w])((std::)?memcpy\s*\(|reinterpret_cast\s*<)")
_BARE_WAIT = re.compile(r"\.wait\s*\(\s*[A-Za-z_]\w*\s*\)")
_WHILE = re.compile(r"while\s*\(")


def rule_fastmath(ctx: FileCtx) -> None:
    if _GB.search(ctx.rel):
        _line_rule(ctx, _FASTMATH, "fastmath",
                   "raw std::exp( or / std::sqrt( in GB code; per-pair"
                   " math goes through util::ExactMath / util::ApproxMath")


def rule_sqrt_domain(ctx: FileCtx) -> None:
    if _GB.search(ctx.rel):
        _line_rule(ctx, _SQRT_DOMAIN, "sqrt-domain",
                   "std::pow( or std::sqrt( over a subtraction; justify"
                   " where the operand's domain is established")


def rule_narrow_cast(ctx: FileCtx) -> None:
    if _GB.search(ctx.rel):
        _line_rule(ctx, _NARROW_CAST, "narrow-cast",
                   "narrowing integer cast of floating-point math; round"
                   " explicitly or justify the truncation")


def rule_rawclock(ctx: FileCtx) -> None:
    if not _RAWCLOCK_EXEMPT.search(ctx.rel):
        _line_rule(ctx, _RAWCLOCK, "rawclock",
                   "raw clock read; time through util::WallTimer or the"
                   " telemetry span recorder")


def rule_raw_mutex(ctx: FileCtx) -> None:
    if not _RAW_MUTEX_EXEMPT.search(ctx.rel):
        _line_rule(ctx, _RAW_MUTEX, "raw-mutex",
                   "raw std:: locking primitive; lock through util::Mutex /"
                   " util::CondVar so the lock-order witness sees it")


def rule_raw_serialize(ctx: FileCtx) -> None:
    if _SERVING.search(ctx.rel) and not _CODEC.search(ctx.rel):
        _line_rule(ctx, _RAW_SERIALIZE, "raw-serialize",
                   "memcpy/reinterpret_cast in a serving layer; wire bytes"
                   " go through the codec's Writer/Reader")


def rule_cv_wait_pred(ctx: FileCtx) -> None:
    prev = ""
    for i, line in enumerate(ctx.code, 1):
        if (_BARE_WAIT.search(line) and not _WHILE.search(line)
                and not _WHILE.search(prev)):
            ctx.check(i, "cv-wait-pred",
                      "bare wait(lock) outside a predicate loop; use"
                      " wait(lock, pred) or a while loop")
        prev = line


# ---------------------------------------------------------------------------
# Strict contract rules.

_UNORDERED_DECL = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<")
_ORDERED_PTR = re.compile(
    r"std::(?:map|set|multimap|multiset)\s*<\s*([^,>]*?\*[^,>]*?)\s*[,>]")
_UNSTABLE_SORT = re.compile(r"(^|[^\w:])std::sort\s*\(")
_WALLCLOCK = re.compile(
    _RAWCLOCK.pattern +
    r"|(^|[^\w])(clock_gettime|gettimeofday|timespec_get)\s*\(")
_THREAD_ID = re.compile(r"std::this_thread\s*::\s*get_id\s*\(")
_ENV_READ = re.compile(r"(^|[^\w])(?:std::)?getenv\s*\(")
_FLOAT_ATOMIC = re.compile(r"std::atomic(?:_ref)?\s*<\s*(?:double|float|long\s+double)\s*>")
_IDENT = r"[A-Za-z_]\w*"


def _unordered_names(code_lines: list[str]) -> set[str]:
    """Names declared (variable or member) with an unordered container
    type anywhere in these lines. Declaration-spotting is heuristic: the
    template argument list is angle-matched, then the next identifier is
    taken as the declared name."""
    names: set[str] = set()
    text = "\n".join(code_lines)
    for m in _UNORDERED_DECL.finditer(text):
        open_idx = m.end() - 1
        close = lexer.match_angle(text, open_idx)
        if close < 0:
            continue
        tail = text[close:close + 160]
        dm = re.match(rf"\s*&?\s*({_IDENT})\s*(?:;|=|\{{|\()", tail)
        if dm:
            names.add(dm.group(1))
    return names


def sibling_header_names(ctx: FileCtx) -> set[str]:
    """For a .cpp, unordered-container members declared in the paired
    header -- the per-TU approximation that catches a container declared
    in foo.h and iterated in foo.cpp."""
    if not ctx.path.endswith(".cpp"):
        return set()
    header = ctx.path[:-4] + ".h"
    try:
        with open(header, encoding="utf-8") as fh:
            return _unordered_names(lexer.strip(fh.read()))
    except OSError:
        return set()


def rule_unordered_iter(ctx: FileCtx) -> None:
    names = _unordered_names(ctx.code) | sibling_header_names(ctx)
    if not names:
        return
    alt = "|".join(sorted(re.escape(n) for n in names))
    # Range-for over the container, or an explicit iterator walk.
    pat = re.compile(
        rf":\s*(?:\w+(?:\.|->))?({alt})\s*\)"
        # begin() and friends start a walk; a lone .end() is the find()
        # sentinel idiom (a lookup, not an iteration) and stays legal.
        rf"|(?:^|[^\w])({alt})\s*\.\s*c?r?begin\s*\(")
    for i, line in enumerate(ctx.code, 1):
        m = pat.search(line)
        if m:
            name = m.group(1) or m.group(2)
            ctx.check(i, "unordered-iter",
                      f"iterating unordered container '{name}' in a strict"
                      " module: hash order is run- and libc++-dependent;"
                      " use an ordered container or sort a snapshot")


def rule_ptr_key_order(ctx: FileCtx) -> None:
    for i, line in enumerate(ctx.code, 1):
        m = _ORDERED_PTR.search(line)
        if m:
            key = " ".join(m.group(1).split())
            ctx.check(i, "ptr-key-order",
                      f"ordered container keyed by pointer '{key}': address"
                      " order differs across runs; key by a stable id")


def rule_unstable_sort(ctx: FileCtx) -> None:
    _line_rule(ctx, _UNSTABLE_SORT, "unstable-sort",
               "std::sort leaves equal elements in unspecified"
               " order; use std::stable_sort, or justify that the"
               " comparator is a total order over the inputs")


def rule_wallclock(ctx: FileCtx) -> None:
    _line_rule(ctx, _WALLCLOCK, "wallclock",
               "wall-clock read in a strict module: time must not"
               " influence contracted outputs")


def rule_thread_id(ctx: FileCtx) -> None:
    _line_rule(ctx, _THREAD_ID, "thread-id",
               "thread id in a strict module: ids vary per run and"
               " per worker count")


def rule_env_read(ctx: FileCtx) -> None:
    _line_rule(ctx, _ENV_READ, "env-read",
               "environment read in a strict module: contracted"
               " outputs must be functions of explicit inputs")


def rule_shared_float_accum(ctx: FileCtx) -> None:
    _line_rule(ctx, _FLOAT_ATOMIC, "shared-float-accum",
               "atomic floating-point accumulator: FP addition is"
               " not associative, so completion order changes the"
               " rounding; use parallel::deterministic_sum")


# -- nondet-taint: per-TU approximate call graph ---------------------------

_FN_DEF = re.compile(
    rf"(?:^|[\s;}}])(~?{_IDENT}(?:::~?{_IDENT})*)\s*\([^;{{)]*\)"
    rf"\s*(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&*\s]+)?\s*\{{",
    re.M)
_NONDET_SRC = [
    ("wallclock", _WALLCLOCK), ("thread-id", _THREAD_ID),
    ("env-read", _ENV_READ), ("unseeded-rng", _UNSEEDED_RNG),
]
_CTRL_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof",
                  "catch", "else", "do", "new", "delete", "case", "throw",
                  "static_cast", "const_cast", "reinterpret_cast",
                  "dynamic_cast", "alignof", "decltype", "assert"}


def _functions(code_text: str) -> list[tuple[str, int, int, int]]:
    """(name, def_lineno, body_start, body_end) for each function-ish
    definition found by brace matching. Approximate by design."""
    fns = []
    for m in _FN_DEF.finditer(code_text):
        name = m.group(1).split("::")[-1]
        if name in _CTRL_KEYWORDS:
            continue
        body_start = m.end() - 1
        depth = 0
        i = body_start
        while i < len(code_text):
            if code_text[i] == "{":
                depth += 1
            elif code_text[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        lineno = code_text.count("\n", 0, m.start(1)) + 1
        fns.append((name, lineno, body_start, i))
    return fns


def rule_nondet_taint(ctx: FileCtx) -> None:
    code_text = "\n".join(ctx.code)
    fns = _functions(code_text)
    if not fns:
        return
    by_name: dict[str, list[int]] = {}
    for idx, (name, *_rest) in enumerate(fns):
        by_name.setdefault(name, []).append(idx)

    direct: dict[int, str] = {}  # fn index -> source rule name
    calls: dict[int, set[str]] = {}
    for idx, (_name, _lineno, b0, b1) in enumerate(fns):
        body = code_text[b0:b1]
        body_first_line = code_text.count("\n", 0, b0) + 1
        for rule, pat in _NONDET_SRC:
            if idx in direct:
                break
            for m in pat.finditer(body):
                src_line = body_first_line + body.count("\n", 0, m.start())
                # A suppressed/sanctioned source does not taint: the
                # allow marker's justification asserts the value never
                # reaches contracted output.
                if not ctx.allowed(src_line, rule):
                    direct[idx] = rule
                    break
        callees = set()
        for cm in re.finditer(rf"({_IDENT})\s*\(", body):
            if cm.group(1) in by_name and cm.group(1) not in _CTRL_KEYWORDS:
                callees.add(cm.group(1))
        calls[idx] = callees

    # Propagate taint up the (reversed) call graph to a fixpoint.
    tainted: dict[int, tuple[str, str]] = {
        idx: (fns[idx][0], rule) for idx, rule in direct.items()}
    changed = True
    while changed:
        changed = False
        for idx, (_n, _l, _b0, _b1) in enumerate(fns):
            if idx in tainted:
                continue
            for callee in calls[idx]:
                hits = [t for ci in by_name[callee]
                        if (t := tainted.get(ci)) is not None]
                if hits:
                    tainted[idx] = (callee, hits[0][1])
                    changed = True
                    break

    for idx, (name, lineno, _b0, _b1) in enumerate(fns):
        if idx in direct or idx not in tainted:
            continue  # direct hits already reported by the source rule
        via, src_rule = tainted[idx]
        ctx.check(lineno, "nondet-taint",
                  f"'{name}' transitively calls '{via}', whose body reads a"
                  f" nondeterministic source ({src_rule}); a strict module"
                  " must not let it reach contracted output")


# ---------------------------------------------------------------------------

GLOBAL_RULES = [rule_naked_new, rule_float_eq, rule_unseeded_rng,
                rule_mutex_unguarded, rule_fastmath, rule_sqrt_domain,
                rule_narrow_cast, rule_rawclock, rule_raw_mutex,
                rule_raw_serialize, rule_cv_wait_pred]
STRICT_ONLY_RULES = [rule_unordered_iter, rule_ptr_key_order,
                     rule_unstable_sort, rule_wallclock, rule_thread_id,
                     rule_env_read, rule_shared_float_accum,
                     rule_nondet_taint]


def analyze_file(path: str, relpath: str, text: str,
                 contracts: contracts_mod.Contracts) -> list[Finding]:
    ctx = FileCtx(path, relpath, text, contracts)
    for rule in GLOBAL_RULES:
        rule(ctx)
    if ctx.level == contracts_mod.STRICT:
        for rule in STRICT_ONLY_RULES:
            rule(ctx)
    # Dedupe: taint analysis re-probes source lines, so a bare-allow can
    # be diagnosed twice for the same marker.
    seen: set[tuple[int, str, str]] = set()
    unique = []
    for f in sorted(ctx.findings, key=lambda f: (f.line, f.rule)):
        key = (f.line, f.rule, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique
