"""histest-analyzer: token-level contract checker for the histest codebase.

The analyzer holds the contracts the compiler cannot: numerically safe
accumulation, RNG-stream determinism, no mutable state in the trial kernels,
and a table of tokens banned outside the one place that implements them.
It is organized as:

  engine.py     Finding/Checker model, registry, suppressions, scanning.
  lexer.py      C++ tokenizer (comments, strings, raw strings, pp lines).
  model.py      Lightweight syntax model built from tokens (functions,
                declarations, statements, loops, lambdas, calls).
  index.py      Cross-file symbol index (return-type classification).
  summaries.py  Interprocedural Rng-draw summaries for rng-stream.
  checkers/     One module per checker; importing the package registers all.

Run via tools/analyzer/histest-analyzer or `python3 -m histest_analyzer`.
"""

__version__ = "2.0.0"

TOOL_NAME = "histest-analyzer"
