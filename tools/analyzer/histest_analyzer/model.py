"""Lightweight C++ syntax model for the internal backend.

Built from the token stream, the model recovers exactly the structure the
checkers query — no more:

  * bracket matching for (), [], {};
  * function definitions with return-type classification and a per-function
    variable type map (params, locals, range-for bindings, `auto` inits);
  * class-scope member declarations (``double sum_;`` -> float member);
  * a statement list per function, each statement annotated with its loop
    depth, whether it executes inside a lambda handed to the parallel
    harness, and whether it is guarded by thread-topology state;
  * lambda bodies with the callee they are passed to.

Types are classified into the three classes the contracts care about:
'float' (double/float scalars), 'float_ptr' (pointer/array of them) and
'rng' (histest::Rng). Everything else is None. The model is deliberately
heuristic, tuned to this codebase's style, and errs toward silence, not
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import Token

# Identifiers whose presence in a condition marks the guarded code as
# schedule-dependent: drawing from a shared Rng stream under such a guard
# makes the stream depend on thread topology.
THREAD_TAINT_IDS = (
    "thread", "threads", "num_threads", "thread_count", "thread_id",
    "worker", "workers", "worker_id", "num_workers", "hardware_concurrency",
    "HISTEST_THREADS", "pool_size",
)

# Calls that run their lambda argument on pool threads. A shared Rng drawn
# inside one of these lambdas interleaves nondeterministically. `Run` is
# ThreadPool::Run, which ParallelFor wraps.
PARALLEL_ENTRY_POINTS = frozenset({
    "ParallelFor", "Run", "Submit", "Enqueue", "RunParallel", "Dispatch",
})

# Mutating draw methods of histest::Rng (common/rng.h). Fork is included:
# forking a *shared* generator from inside a pool lambda advances the parent
# stream in schedule order, which is exactly the bug this checker exists
# to catch. (Forking before handing work to the pool is the sanctioned
# idiom and happens outside the lambda.)
RNG_DRAW_METHODS = frozenset({
    "Next", "UniformDouble", "UniformInt", "FillPairs", "Bernoulli",
    "Normal", "Exponential", "Poisson", "Binomial", "Gamma", "Dirichlet",
    "DirichletSymmetric", "Shuffle", "Permutation", "Fork",
})

_CONTROL_KW = frozenset({"if", "else", "for", "while", "do", "switch",
                         "case", "default", "try", "catch", "return",
                         "goto", "break", "continue"})

_DECL_QUALIFIERS = frozenset({"const", "constexpr", "static", "inline",
                              "mutable", "volatile", "thread_local",
                              "register", "extern", "typename", "unsigned",
                              "signed", "long", "short"})


@dataclass
class Statement:
    start: int                 # first token index
    end: int                   # one past last token (terminator excluded)
    loop_depth: int = 0
    parallel_call: str | None = None  # lambda passed to this callee, if any
    thread_tainted: bool = False


@dataclass
class FunctionDef:
    name: str
    return_class: str | None   # 'float' | 'float_ptr' | 'rng' | None
    head_start: int
    body_open: int             # '{' token index
    body_close: int
    parent: "FunctionDef | None" = None      # enclosing function for lambdas
    is_lambda: bool = False
    var_types: dict = field(default_factory=dict)   # name -> class
    auto_inits: dict = field(default_factory=dict)  # name -> (start, end)
    statements: list = field(default_factory=list)
    # Parameter positions for the Rng-draw summaries (summaries.py), which
    # match call-site arguments by position.
    param_order: list = field(default_factory=list)  # (name|None, class|None)

    def declared_locally(self, name: str) -> bool:
        return name in self.var_types or name in self.auto_inits

    def type_of(self, name: str, index=None, member_types=None,
                _seen=None) -> str | None:
        """Resolves a variable's class, walking enclosing scopes."""
        if _seen is None:
            _seen = set()
        fn = self
        while fn is not None:
            if name in fn.var_types:
                return fn.var_types[name]
            if name in fn.auto_inits:
                key = (id(fn), name)
                if key in _seen:
                    return None  # self/mutually-referential auto inits
                _seen.add(key)
                start, end = fn.auto_inits[name]
                return _classify_init_tokens(
                    fn._tokens[start:end], fn, index, member_types, _seen)
            fn = fn.parent
        if member_types and name in member_types:
            return member_types[name]
        return None


class Model:
    def __init__(self, lexed):
        self.tokens: list[Token] = lexed.tokens
        self.match: dict[int, int] = {}
        self.functions: list[FunctionDef] = []
        self.member_types: dict[str, str] = {}
        # Function-shaped declarations/definitions seen in this file:
        # (name, return_class) — consumed by the cross-file symbol index.
        self.declared_functions: list[tuple[str, str | None]] = []
        self._match_brackets()
        self._scan_scope(0, len(self.tokens), "top", None, 0, None, False)

    # ---------------------------------------------------------------- util

    def _match_brackets(self):
        stack = []
        pairs = {")": "(", "]": "[", "}": "{"}
        for i, t in enumerate(self.tokens):
            if t.kind != "punct":
                continue
            if t.text in "([{":
                stack.append((t.text, i))
            elif t.text in ")]}":
                want = pairs[t.text]
                # Defensive: pop until the matching opener kind (unbalanced
                # macro soup should not derail the whole file).
                while stack:
                    kind, j = stack.pop()
                    if kind == want:
                        self.match[j] = i
                        self.match[i] = j
                        break

    def _is_lambda_body(self, b: int) -> bool:
        """True if the '{' at token index b opens a lambda body."""
        j = b - 1
        guard = 0
        # Skip trailing-return / specifier tokens between ')' and '{'.
        while j >= 0 and guard < 32:
            t = self.tokens[j]
            if t.kind in ("id", "kw") and t.text in (
                    "mutable", "noexcept", "const", "constexpr"):
                j -= 1
            elif t.kind in ("id", "kw") or \
                    (t.kind == "punct" and t.text in ("::", "<", ">", "*",
                                                      "&", "->")):
                # could be a trailing return type; keep walking but only if
                # a '->' actually appears before the ')'
                j -= 1
            elif t.kind == "punct" and t.text == "]":
                return True  # capture list directly before '{'
            elif t.kind == "punct" and t.text == ")":
                open_p = self.match.get(j)
                if open_p is None:
                    return False
                k = open_p - 1
                return k >= 0 and self.tokens[k].kind == "punct" \
                    and self.tokens[k].text == "]"
            else:
                return False
            guard += 1
        return False

    # ---------------------------------------------------------------- scan

    def _scan_scope(self, i, end, kind, func, loop_depth, parallel_call,
                    thread_tainted):
        """Scans tokens in [i, end), dispatching heads; returns end."""
        toks = self.tokens
        while i < end:
            t = toks[i]
            if t.kind == "punct" and t.text == "}":
                return i + 1
            if t.kind == "punct" and t.text == ";":
                i += 1
                continue
            if t.kind == "punct" and t.text == "{":
                # Anonymous block.
                close = self.match.get(i, end - 1)
                self._scan_scope(i + 1, close, kind, func, loop_depth,
                                 parallel_call, thread_tainted)
                i = close + 1
                continue
            if kind == "class" and t.kind == "kw" and \
                    t.text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":":
                i += 2  # access-specifier label, not part of a declaration
                continue
            i = self._scan_statement(i, end, kind, func, loop_depth,
                                     parallel_call, thread_tainted)
        return i

    def _scan_statement(self, start, end, kind, func, loop_depth,
                        parallel_call, thread_tainted):
        """Consumes one head/statement starting at `start`. Returns the
        index just past it (including any recursed brace scope)."""
        toks = self.tokens
        i = start
        paren_depth = 0
        call_stack = []  # callee name (or None) per open paren
        body_braces = []  # (brace_open, control_kw) recursed after head

        first = toks[start]
        head_kw = first.text if first.kind == "kw" else None

        while i < end:
            t = toks[i]
            if t.kind == "punct":
                if t.text == "(":
                    callee = None
                    if i > start:
                        p = toks[i - 1]
                        if p.kind == "id":
                            callee = p.text
                    call_stack.append(callee)
                    paren_depth += 1
                elif t.text == ")":
                    if call_stack:
                        call_stack.pop()
                    paren_depth = max(0, paren_depth - 1)
                elif t.text == ";" and paren_depth == 0:
                    i += 1
                    break
                elif t.text == "}" and paren_depth == 0:
                    break  # scope ended without terminator
                elif t.text == "{":
                    if self._is_lambda_body(i):
                        i = self._enter_lambda(i, func, call_stack,
                                               loop_depth, thread_tainted)
                        continue
                    if paren_depth > 0:
                        # Braced init inside arguments: skip the group.
                        i = self.match.get(i, i) + 1
                        continue
                    # Head ends at a scope-opening brace.
                    i = self._enter_brace_scope(
                        start, i, kind, head_kw, func, loop_depth,
                        parallel_call, thread_tainted)
                    return i
            i += 1

        # Head ended with ';' (or scope close): a declaration/statement.
        stmt_end = i - 1 if i > start and toks[i - 1].text == ";" else i
        if kind == "func" and func is not None:
            in_loop = loop_depth + (1 if head_kw in ("for", "while") else 0)
            # Only control-flow heads self-taint: a plain statement that
            # mentions a thread-count identifier (e.g. passes it as a call
            # argument next to an unconditional draw) is not
            # schedule-dependent control flow.
            control = head_kw in ("if", "for", "while", "switch", "do")
            tainted = thread_tainted or \
                (control and self._head_tainted(start, stmt_end))
            func.statements.append(Statement(
                start, stmt_end, in_loop, parallel_call, tainted))
            self._parse_local_decl(func, start, stmt_end)
        elif kind == "class":
            self._parse_member_decl(start, stmt_end)
            self._maybe_record_function_decl(start, stmt_end)
        else:
            self._maybe_record_function_decl(start, stmt_end)
        return i

    def _head_tainted(self, start, end) -> bool:
        for t in self.tokens[start:end]:
            if t.kind == "id" and any(h in t.text.lower() if h.islower()
                                      else h in t.text
                                      for h in THREAD_TAINT_IDS):
                return True
        return False

    def _enter_lambda(self, brace, func, call_stack, loop_depth,
                      thread_tainted):
        close = self.match.get(brace)
        if close is None:
            return brace + 1
        parallel = None
        for callee in reversed(call_stack):
            if callee in PARALLEL_ENTRY_POINTS:
                parallel = callee
                break
        lam = FunctionDef("<lambda>", None, brace, brace, close,
                          parent=func, is_lambda=True)
        lam._tokens = self.tokens
        self._parse_lambda_params(lam, brace)
        self.functions.append(lam)
        self._scan_scope(brace + 1, close, "func", lam,
                         0 if parallel else loop_depth,
                         parallel, thread_tainted)
        return close + 1

    def _parse_lambda_params(self, lam, brace):
        """Adds the lambda's parameters to its local type map."""
        j = brace - 1
        guard = 0
        while j >= 0 and guard < 32:
            t = self.tokens[j]
            if t.kind == "punct" and t.text == ")":
                open_p = self.match.get(j)
                if open_p is not None and open_p >= 1 and \
                        self.tokens[open_p - 1].text == "]":
                    self._parse_params(lam, open_p, j)
                return
            if t.kind == "punct" and t.text == "]":
                return  # no parameter list
            j -= 1
            guard += 1

    def _enter_brace_scope(self, head_start, brace, kind, head_kw, func,
                           loop_depth, parallel_call, thread_tainted):
        toks = self.tokens
        close = self.match.get(brace)
        if close is None:
            return brace + 1

        if kind == "func":
            # Control-flow block inside a function.
            if func is not None:
                func.statements.append(Statement(
                    head_start, brace, loop_depth, parallel_call,
                    thread_tainted or self._head_tainted(head_start, brace)))
                self._parse_control_head_decls(func, head_start, brace)
            new_loop = loop_depth + (1 if head_kw in ("for", "while", "do")
                                     else 0)
            tainted = thread_tainted or \
                self._head_tainted(head_start, brace)
            self._scan_scope(brace + 1, close, "func", func, new_loop,
                             parallel_call, tainted)
            return close + 1

        # Namespace / class / enum / function definition at outer scopes.
        head = toks[head_start:brace]
        head_texts = [t.text for t in head]
        if head_kw == "namespace" or (head_texts and
                                      head_texts[0] == "extern"):
            self._scan_scope(brace + 1, close, "top", None, 0, None, False)
            return close + 1
        if "enum" in head_texts[:2]:
            return close + 1
        struct_like = next((x for x in head_texts
                            if x in ("class", "struct", "union")), None)
        fn = self._try_function_def(head_start, brace)
        if fn is not None:
            self.functions.append(fn)
            self.declared_functions.append((fn.name, fn.return_class))
            self._scan_scope(brace + 1, close, "func", fn, 0, None, False)
            return close + 1
        if struct_like:
            self._scan_scope(brace + 1, close, "class", None, 0, None,
                             False)
            return close + 1
        # Unrecognized braced construct (aggregate initializer, ...).
        self._scan_scope(brace + 1, close, kind, func, loop_depth,
                         parallel_call, thread_tainted)
        return close + 1

    # ----------------------------------------------------- declarations

    def _try_function_def(self, head_start, brace) -> FunctionDef | None:
        """Classifies `head { ` at namespace/class scope as a function
        definition, extracting name and return class."""
        toks = self.tokens
        # Walk back from the brace over specifiers / ctor-init-list to the
        # parameter ')'.
        j = brace - 1
        guard = 0
        while j > head_start and guard < 400:
            guard += 1
            t = toks[j]
            if t.kind == "punct" and t.text in (")", "}"):
                open_p = self.match.get(j)
                if open_p is None:
                    return None
                before = open_p - 1
                if before < head_start:
                    return None
                b = toks[before]
                if t.text == ")" and b.kind == "id":
                    # Either the function's parameter list or a ctor-init
                    # entry `name(expr)`. An init entry is preceded by ':'
                    # or ','.
                    prev = toks[before - 1] if before - 1 >= head_start \
                        else None
                    if prev is not None and prev.kind == "punct" and \
                            prev.text in (":", ","):
                        j = before - 2  # skip the entry and its separator
                        continue
                    return self._make_function(head_start, before, open_p,
                                               j, brace)
                if t.text == ")" and b.kind == "punct":
                    # Operator overload: `operator==(`, `operator()(`, ...
                    for back in (1, 2):
                        k = before - back
                        if k >= head_start and toks[k].kind == "kw" and \
                                toks[k].text == "operator":
                            return self._make_function(head_start, k,
                                                       open_p, j, brace)
                # Braced init entry `name{expr}` in a ctor-init-list, or a
                # specifier group; skip it.
                j = open_p - 1
                continue
            if t.kind in ("id", "kw") or (
                    t.kind == "punct" and
                    t.text in ("::", "<", ">", "*", "&", "->", ",", ":",
                               "[", "]")):
                j -= 1
                continue
            return None
        return None

    def _make_function(self, head_start, name_idx, open_p, close_p, brace):
        toks = self.tokens
        name = toks[name_idx].text
        # Walk the qualified-name chain back (Foo::Bar::name).
        first = name_idx
        k = name_idx - 1
        while k - 1 >= head_start and toks[k].text == "::" and \
                toks[k - 1].kind in ("id", "kw"):
            first = k - 1
            k -= 2
        ret_tokens = toks[head_start:first]
        ret_class = classify_type_tokens(ret_tokens)
        fn = FunctionDef(name, ret_class, head_start, brace,
                         self.match.get(brace, brace))
        fn._tokens = toks
        self._parse_params(fn, open_p, close_p)
        return fn

    def _maybe_record_function_decl(self, start, end):
        """Records `RetType Name(...);` declarations for the index."""
        toks = self.tokens
        for i in range(start + 1, end):
            if toks[i].kind == "punct" and toks[i].text == "(":
                prev = toks[i - 1]
                pre_span = toks[start:i - 1]
                # `double x_ = Compute();` is a member init, not a decl of
                # Compute — the '=' disqualifies it.
                if any(p.kind == "punct" and p.text == "=" for p in pre_span):
                    return
                if prev.kind == "id" and prev.text not in _CONTROL_KW:
                    # Record non-contract declarations too (ret None) so the
                    # symbol index can detect name collisions across return
                    # classes and refuse to classify ambiguous callees. An
                    # empty pre-name span (constructor, macro invocation) is
                    # not a return type and is not recorded.
                    if pre_span:
                        ret = classify_type_tokens(pre_span)
                        self.declared_functions.append((prev.text, ret))
                return

    def _parse_params(self, fn, open_p, close_p):
        toks = self.tokens
        depth = 0
        seg_start = open_p + 1
        segments = []
        for i in range(open_p + 1, close_p):
            t = toks[i]
            if t.kind == "punct":
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    depth -= 1
                elif t.text == "," and depth == 0:
                    segments.append((seg_start, i))
                    seg_start = i + 1
        if seg_start < close_p:
            segments.append((seg_start, close_p))
        for s, e in segments:
            seg = toks[s:e]
            # Drop default argument.
            for k, t in enumerate(seg):
                if t.kind == "punct" and t.text == "=":
                    seg = seg[:k]
                    break
            if not seg:
                continue
            namet = seg[-1]
            if namet.kind != "id":
                # Unnamed parameter: keep the position so call-site
                # argument indices stay aligned with the summary layer.
                fn.param_order.append((None, None))
                continue
            cls = classify_type_tokens(seg[:-1])
            fn.param_order.append((namet.text, cls))
            if cls:
                fn.var_types[namet.text] = cls

    def _parse_control_head_decls(self, fn, start, brace):
        """Extracts declarations from `for (double v : xs)` style heads."""
        toks = self.tokens
        for i in range(start, brace):
            if toks[i].kind == "punct" and toks[i].text == "(":
                close = self.match.get(i)
                if close is None:
                    return
                self._parse_decl_tokens(fn, i + 1, close)
                return

    def _parse_local_decl(self, fn, start, end):
        self._parse_decl_tokens(fn, start, end)

    def _parse_decl_tokens(self, fn, start, end):
        """Parses a (possible) declaration in [start, end) into fn's type
        map. Handles `double x = ...`, `Rng& r = ...`, `auto y = ...`,
        `double a, b;` and the first clause of classic for-heads."""
        toks = self.tokens
        i = start
        while i < end and toks[i].kind == "kw" and \
                toks[i].text in _DECL_QUALIFIERS:
            i += 1
        if i >= end:
            return
        t = toks[i]
        if t.kind == "kw" and t.text == "auto":
            j = i + 1
            while j < end and toks[j].kind == "punct" and \
                    toks[j].text in ("&", "*", "const"):
                j += 1
            if j < end and toks[j].kind == "id" and j + 1 < end and \
                    toks[j + 1].text == "=":
                fn.auto_inits[toks[j].text] = (j + 2, end)
            return
        # Type-led declaration.
        type_start = i
        j = i
        angle = 0
        while j < end:
            tj = toks[j]
            if tj.kind == "punct":
                if tj.text == "<":
                    angle += 1
                elif tj.text == ">":
                    angle -= 1
                elif tj.text == ">>":
                    angle -= 2
                elif angle == 0 and tj.text not in ("::", "*", "&"):
                    break
            elif tj.kind == "id" and angle == 0:
                nxt = toks[j + 1] if j + 1 < end else None
                if nxt is not None and (
                        nxt.kind == "id" or
                        (nxt.kind == "punct" and
                         nxt.text in ("*", "&", "<", "::"))):
                    pass  # part of the type
                else:
                    # This id is the declared name, if what precedes
                    # classifies as a type.
                    cls = classify_type_tokens(toks[type_start:j])
                    if cls is None:
                        return
                    fn.var_types[tj.text] = cls
                    # Additional declarators: `double a = 0, b = 1;`
                    depth = 0
                    k = j + 1
                    while k < end:
                        tk = toks[k]
                        if tk.kind == "punct":
                            if tk.text in ("(", "[", "{"):
                                depth += 1
                            elif tk.text in (")", "]", "}"):
                                depth -= 1
                            elif tk.text == "," and depth == 0:
                                if k + 1 < end and \
                                        toks[k + 1].kind == "id":
                                    fn.var_types[toks[k + 1].text] = cls
                        k += 1
                    return
            elif tj.kind == "kw" and angle == 0 and \
                    tj.text not in ("double", "float", "unsigned", "signed",
                                    "long", "short", "const", "int",
                                    "char", "bool"):
                return
            j += 1

    def _parse_member_decl(self, start, end):
        """Records `double name_;` style members at class scope."""
        toks = self.tokens
        i = start
        while i < end and toks[i].kind == "kw" and \
                toks[i].text in _DECL_QUALIFIERS:
            i += 1
        if i >= end or not (toks[i].kind == "kw" and
                            toks[i].text in ("double", "float")):
            return
        cls = "float"
        j = i + 1
        ptr = False
        while j < end and toks[j].kind == "punct" and \
                toks[j].text in ("*", "&"):
            ptr = ptr or toks[j].text == "*"
            j += 1
        if j < end and toks[j].kind == "id":
            nxt = toks[j + 1] if j + 1 < end else None
            if nxt is None or (nxt.kind == "punct" and
                               nxt.text in (";", "=", "{", "[", ",")):
                self.member_types[toks[j].text] = \
                    "float_ptr" if ptr else cls


def classify_type_tokens(tokens) -> str | None:
    """Classifies a type token span into a contract class."""
    angle = 0
    saw_float = saw_ptr = False
    for t in tokens:
        if t.kind == "punct":
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle -= 1
            elif t.text == ">>":
                angle -= 2
            elif t.text == "*" and angle == 0:
                saw_ptr = True
            continue
        if angle != 0:
            continue
        if t.kind == "kw" and t.text in ("double", "float"):
            saw_float = True
        elif t.kind == "id" and t.text == "Rng":
            return "rng"
    if saw_float:
        return "float_ptr" if saw_ptr else "float"
    return None


def _classify_init_tokens(tokens, fn, index, member_types,
                          _seen=None) -> str | None:
    """Classifies an `auto x = <init>` initializer span."""
    for k, t in enumerate(tokens):
        if t.kind == "fnum":
            return "float"
        if t.kind == "id":
            nxt = tokens[k + 1] if k + 1 < len(tokens) else None
            if nxt is not None and nxt.kind == "punct" and nxt.text == "(":
                if t.text == "Fork":
                    return "rng"
                if index is not None and index.returns_float(t.text):
                    return "float"
            else:
                cls = fn.type_of(t.text, index, member_types, _seen) \
                    if fn is not None else None
                if cls == "float":
                    return "float"
    return None
