"""Cross-file symbol index.

Pass one of every scan: lex + model all files, collect the names of
functions whose declared return type belongs to a contract class. Checkers
then classify call expressions by callee name. Names are indexed by their
last component (``EstimateAcceptance``, not ``histest::...``); a name seen
with two return classes answers None.
"""

from __future__ import annotations

# Standard math functions that return double; used by the float-expression
# classifier. std::abs is deliberately absent (integer overload).
STD_FLOAT_FNS = frozenset({
    "fabs", "sqrt", "cbrt", "exp", "exp2", "expm1", "log", "log2", "log10",
    "log1p", "pow", "hypot", "fmod", "fmin", "fmax", "floor", "ceil",
    "round", "trunc", "erf", "erfc", "tgamma", "lgamma", "atan", "atan2",
    "sin", "cos", "tan", "sinh", "cosh", "tanh", "copysign", "ldexp",
    "nextafter",
})


_UNSEEN = object()


class SymbolIndex:
    """Name -> return class, with collision tracking.

    A name seen with two different return classes (``double Draw()`` in one
    header, ``size_t Draw()`` in another) is ambiguous: checkers must not
    classify calls through it, so it answers None for every query.
    """

    def __init__(self):
        self._class: dict[str, str | None] = {}
        self._ambiguous: set[str] = set()

    def add(self, name: str | None, ret: str | None):
        if not name:
            return
        prev = self._class.get(name, _UNSEEN)
        if prev is _UNSEEN:
            self._class[name] = ret
        elif prev != ret:
            self._ambiguous.add(name)

    def add_model(self, model):
        for name, ret in model.declared_functions:
            self.add(name, ret)
        for fn in model.functions:
            if fn.is_lambda:
                continue
            self.add(fn.name, fn.return_class)

    def _lookup(self, name: str) -> str | None:
        if name in self._ambiguous:
            return None
        return self._class.get(name)

    def returns_float(self, name: str) -> bool:
        return name in STD_FLOAT_FNS or self._lookup(name) == "float"
